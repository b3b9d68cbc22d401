import numpy as np
import pytest

from conftest import traced_peak
from framepress import cli
from framepress.adapter import adapt_video, init_adapter_params
from framepress.encoder import (
    ImagePlane,
    VideoTokenTensor,
    frozen_projection,
    load_features,
    patchify_encode,
    save_features,
    synthetic_video,
)
from framepress.errors import FramepressError, NumericError, ParameterError, ShapeError
from framepress.linalg import make_rng
from framepress.sampler import compress_video


def test_patchify_matches_manual_patch_extraction():
    """Patch p at grid position (i, j) must be img[i*p:(i+1)*p, j*p:(j+1)*p]
    flattened row-major with channels innermost, in raster order."""
    rng = make_rng(1)
    pixels = rng.random(size=(6, 9, 3))
    img = ImagePlane(pixels)
    proj = np.eye(3 * 3 * 3)  # identity keeps the raw flattened patches
    grid = patchify_encode(img, 3, proj)
    assert grid.shape == (2, 3, 27)
    assert not grid.flags.writeable
    for gi in range(2):
        for gj in range(3):
            manual = pixels[gi * 3 : gi * 3 + 3, gj * 3 : gj * 3 + 3, :].reshape(-1)
            np.testing.assert_array_equal(grid[gi, gj], manual)


def test_patchify_applies_projection():
    rng = make_rng(2)
    img = ImagePlane(rng.random(size=(4, 4, 3)))
    proj = rng.normal(size=(12, 5))
    grid = patchify_encode(img, 2, proj)
    patches = img.pixels.reshape(2, 2, 2, 2, 3).transpose(0, 2, 1, 3, 4).reshape(4, 12)
    assert grid.shape == (2, 2, 5)
    np.testing.assert_allclose(grid.reshape(4, 5), patches @ proj, atol=1e-15)


def test_patchify_writes_into_out():
    rng = make_rng(3)
    img = ImagePlane(rng.random(size=(6, 4, 3)))
    proj = frozen_projection(2, 5)
    buf = np.zeros((3, 3, 2, 5))
    view = buf[1]
    assert patchify_encode(img, 2, proj, out=view) is view
    assert view.flags.writeable
    np.testing.assert_array_equal(view, patchify_encode(img, 2, proj))
    assert not buf[0].any() and not buf[2].any()


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize(
    "out",
    [
        np.empty((3, 2, 4)),
        np.empty((3, 2, 5), dtype=np.float32),
        np.empty((3, 2, 10))[:, :, ::2],
        np.empty((3, 2, 5)).tolist(),
        _read_only(np.empty((3, 2, 5))),
    ],
    ids=["wrong shape", "float32", "not contiguous", "a list", "read-only"],
)
def test_patchify_rejects_a_bad_out(out):
    img = ImagePlane(np.full((6, 4, 3), 0.5))
    with pytest.raises(FramepressError):
        patchify_encode(img, 2, frozen_projection(2, 5), out=out)


def test_encode_images_stacks_the_per_frame_grids(tmp_path):
    rng = make_rng(6)
    paths = []
    for i in range(3):
        paths.append(str(tmp_path / f"img{i}.npy"))
        np.save(paths[-1], rng.random(size=(6, 4, 3)))
    out = tmp_path / "f.ftv1"
    argv = ["encode", "--images", *paths, "--patch", "2", "--dim", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    proj = frozen_projection(2, 5)
    want = np.stack([patchify_encode(ImagePlane(np.load(p)), 2, proj) for p in paths])
    np.testing.assert_array_equal(
        load_features(out).features, want.astype(np.float32).astype(np.float64)
    )


def test_patchify_requires_divisible_dims():
    img = ImagePlane(np.zeros((6, 6, 3)))
    with pytest.raises(ShapeError):
        patchify_encode(img, 4, np.zeros((48, 2)))


def test_patchify_requires_a_projection_of_patch_rows():
    img = ImagePlane(np.zeros((4, 4, 3)))
    with pytest.raises(ShapeError, match=r"projection must have shape \(12, D\), got \(11, 2\)"):
        patchify_encode(img, 2, np.zeros((11, 2)))


def test_image_plane_validation():
    with pytest.raises(ShapeError):
        ImagePlane(np.zeros((4, 4)))
    with pytest.raises(ShapeError, match="pixels must be a non-empty 3-D array"):
        ImagePlane(np.zeros((0, 4, 3)))
    with pytest.raises(ParameterError):
        ImagePlane(np.full((2, 2, 3), 1.5))


def test_frozen_projection_is_reproducible_and_f32_representable():
    a = frozen_projection(2, 4)
    b = frozen_projection(2, 4)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, a.astype(np.float32).astype(np.float64))
    assert a.shape == (12, 4)


def test_frozen_projection_draws_and_rounds_in_place():
    """The projection costs one (3p², D) float64 array plus its float32
    rounding; dividing and rounding through copies peaked at 2.5 arrays."""
    frozen_projection(14, 256)  # first-call allocations are not the projection's
    proj, peak = traced_peak(frozen_projection, 14, 256)
    assert peak < 1.6 * proj.nbytes


def test_video_tensor_requires_homogeneous_frames():
    """One (T, gh, gw, D) array makes every frame the same shape; what is
    left to reject is a wrong rank, no frames, and an empty dimension."""
    with pytest.raises(ShapeError):
        VideoTokenTensor(np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        VideoTokenTensor(np.zeros((0, 2, 2, 3)))
    with pytest.raises(ShapeError):
        VideoTokenTensor(np.zeros((2, 2, 0, 3)))
    video = VideoTokenTensor(np.arange(48.0).reshape(2, 2, 3, 4))
    assert (video.frame_count, video.grid_shape, video.token_count, video.feature_dim) == (
        2, (2, 3), 6, 4,
    )
    np.testing.assert_array_equal(video.tokens()[1, 4], video.features[1, 1, 1])
    # A read-only array is wrapped as it is, a writable one is copied.
    frozen = np.zeros((1, 1, 1, 2))
    frozen.setflags(write=False)
    assert VideoTokenTensor(frozen).features is frozen
    assert not VideoTokenTensor(np.zeros((1, 1, 1, 2))).features.flags.writeable


def test_features_file_round_trip(tmp_path):
    video = synthetic_video(3, 2, 4, 5, seed=9)
    path = tmp_path / "feats.ftv1"
    save_features(video, path)
    back = load_features(path)
    assert back.frame_count == 3
    assert back.grid_shape == (2, 4)
    assert back.feature_dim == 5
    np.testing.assert_array_equal(back.features, video.features)


def test_synthetic_video_deterministic():
    a = synthetic_video(2, 2, 2, 3, seed=4)
    b = synthetic_video(2, 2, 2, 3, seed=4)
    np.testing.assert_array_equal(a.features, b.features)
    c = synthetic_video(2, 2, 2, 3, seed=5)
    assert not np.array_equal(a.features, c.features)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_never_reach_a_file_or_a_token(bad, tmp_path):
    """The tensor checks shape only, so it holds a non-finite value; the FTV1
    write refuses it, and so does the softmax of every forward, for all N
    rows (adapt) or a few (compress), with D below and above C."""
    for dim, width in ((4, 8), (64, 4)):
        feats = make_rng(7).normal(size=(2, 8, 8, dim))
        feats[1, 3, 5, 2] = bad
        video = VideoTokenTensor(feats)
        assert not np.isfinite(video.features[1, 3, 5, 2])
        path = tmp_path / "f.ftv1"
        with pytest.raises(NumericError):
            save_features(video, path)
        assert not path.exists()
        params = init_adapter_params(
            queries=4, width=width, feature_dim=dim, grid_h=8, grid_w=8, frames=2, seed=0
        )
        with np.errstate(invalid="ignore"):  # inf times a zero weight
            with pytest.raises(NumericError):
                adapt_video(video, params)
            with pytest.raises(NumericError):
                compress_video(video, params, 1)
