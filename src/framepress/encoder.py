"""Per-frame patch tokenization.

A deterministic toy patch encoder (one frozen linear projection) stands in
for a large pretrained vision backbone: it turns an image into a (grid_h, grid_w, D)
grid of patch tokens with the right shape and ordering, supplying structure
rather than semantics. Precomputed features can also be loaded from FTV1
files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ftv1
from .errors import ParameterError, ShapeError
from .linalg import _check_count, _read_only, _real_array, make_rng

DEFAULT_PATCH_SIZE = 14
DEFAULT_FEATURE_DIM = 64

# Seed of the frozen toy projection. Fixed so that every pipeline run,
# checkpoint, and test agrees on the same stand-in encoder.
FROZEN_PROJECTION_SEED = 1401


@dataclass(frozen=True)
class ImagePlane:
    """An H x W RGB image with pixel values in [0, 1]."""

    pixels: np.ndarray  # (H, W, 3) float64

    def __post_init__(self):
        arr = _read_only(self.pixels, "pixels", ndim=3)
        if arr.shape[2] != 3:
            raise ShapeError(f"pixels must have shape (H, W, 3), got {arr.shape}")
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise ParameterError("pixel values must be finite and within [0, 1]")
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class VideoTokenTensor:
    """Patch tokens of every frame as one read-only (T, grid_h, grid_w, D) array.

    This is the FTV1 features layout: token ``row * grid_w + col`` of a frame
    is patch (row, col), as :meth:`tokens` orders them. The constructor applies
    the array rule only; FTV1 reads, ImagePlane and synthetic draws check finiteness.
    """

    features: np.ndarray  # (T, grid_h, grid_w, D)

    def __post_init__(self):
        feats = _read_only(self.features, "video features", ndim=4)
        object.__setattr__(self, "features", feats)

    @property
    def frame_count(self) -> int:
        return self.features.shape[0]

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.features.shape[1:3]

    @property
    def token_count(self) -> int:
        return self.features.shape[1] * self.features.shape[2]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[3]

    def tokens(self) -> np.ndarray:
        """The features as a (T, M, D) view, M = grid_h * grid_w."""
        return self.features.reshape(self.frame_count, self.token_count, self.feature_dim)


def frozen_projection(
    patch_size: int = DEFAULT_PATCH_SIZE, feature_dim: int = DEFAULT_FEATURE_DIM
) -> np.ndarray:
    """The toy encoder's (3*p*p, D) projection, drawn from
    ``FROZEN_PROJECTION_SEED``."""
    _check_count("patch_size", patch_size)
    _check_count("feature_dim", feature_dim)
    rng = make_rng(FROZEN_PROJECTION_SEED)
    flat = 3 * patch_size * patch_size
    proj = rng.standard_normal((flat, feature_dim))
    proj /= np.sqrt(flat)
    # Round to storage precision in place so checkpoints and FTV1 files
    # round-trip bit-exactly.
    proj[...] = proj.astype(np.float32)
    return proj


def patchify_encode(img: ImagePlane, patch_size: int, projection, out=None) -> np.ndarray:
    """Flatten each non-overlapping p x p x 3 patch and project it to D dims.

    Returns a read-only (grid_h, grid_w, D) array. Patches are flattened
    row-major with channels innermost, so positional tables line up with
    token index ``row * grid_w + col``. Given ``out``, a writable
    C-contiguous float64 array of that shape, the projection is written
    into it and ``out`` is returned as it is.
    """
    grid_h, grid_w = _patch_grid(img, patch_size)
    proj = _real_array(projection, "projection")
    flat = 3 * patch_size * patch_size
    if proj.ndim != 2 or proj.shape[0] != flat or proj.shape[1] == 0:
        raise ShapeError(
            f"projection must have shape ({flat}, D), got {proj.shape}"
        )
    shape = (grid_h, grid_w, proj.shape[1])
    if out is not None and not (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ShapeError(f"out must be a writable C-contiguous float64 array of shape {shape}")
    features = np.empty(shape) if out is None else out
    # (gh, p, gw, p, 3) -> (gh, gw, p, p, 3) -> (M, 3p^2)
    patches = img.pixels.reshape(grid_h, patch_size, grid_w, patch_size, 3)
    patches = patches.transpose(0, 2, 1, 3, 4).reshape(grid_h * grid_w, flat)
    np.matmul(patches, proj, out=features.reshape(grid_h * grid_w, proj.shape[1]))
    if out is None:
        features.setflags(write=False)
    return features


def _patch_grid(img: ImagePlane, patch_size: int) -> tuple[int, int]:
    """The (grid_h, grid_w) patch grid of an image; the patch size must
    divide both image dims."""
    _check_count("patch_size", patch_size)
    h, w = img.height, img.width
    if h % patch_size != 0 or w % patch_size != 0:
        raise ShapeError(
            f"patch size {patch_size} must divide image dims {h}x{w}"
        )
    return h // patch_size, w // patch_size


def save_features(video: VideoTokenTensor, path) -> None:
    """Write a video's features as a rank-4 (T, grid_h, grid_w, D) FTV1 file."""
    ftv1.write_tensor(path, video.features)


def load_features(path) -> VideoTokenTensor:
    """Read a rank-4 (T, grid_h, grid_w, D) FTV1 file; the read alone checks finiteness."""
    return VideoTokenTensor(ftv1.read_tensor(path, expect_rank=4))


def synthetic_video(
    frames: int,
    grid_h: int,
    grid_w: int,
    feature_dim: int,
    seed: int,
) -> VideoTokenTensor:
    """A seeded random video tensor with float32-representable values."""
    for name, value in (
        ("frames", frames), ("grid_h", grid_h), ("grid_w", grid_w), ("feature_dim", feature_dim)
    ):
        _check_count(name, value)
    rng = make_rng(seed)
    raw = rng.normal(size=(frames, grid_h, grid_w, feature_dim))
    vals = raw.astype(np.float32).astype(np.float64)
    vals.setflags(write=False)
    return VideoTokenTensor(vals)
