"""Learnable-query cross-attention adapter.

Compresses the M patch tokens of each frame down to N query outputs with a
single-head cross-attention block:

* a learnable per-frame temporal vector is added to every patch token of
  frame t *before* projection,
* patch features are linearly projected into the query width,
* keys are the projected features plus a learnable 2-D positional table,
* values are the projected features alone,
* N learnable query vectors attend over the M keys.

Besides the forward pass this module carries its own reverse-mode
gradients (the whole block is small enough that hand-written backprop
beats pulling in an autodiff framework) and directory-based checkpoint
I/O built on FTV1 tensor files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ftv1
from .encoder import VideoTokenTensor
from .errors import FormatError, ParameterError, ShapeError
from .ftv1 import _replacing
from .linalg import as_matrix, cross_attention, make_rng

CHECKPOINT_HEADER = "adapter.json"
_CHECKPOINT_FORMAT = "framepress-adapter"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class AdapterParams:
    """All trainable tensors of the adapter plus its attention scale.

    ``scale`` defaults to ``1 / sqrt(width)`` when not given.
    """

    input_proj: np.ndarray  # (D, C)
    queries: np.ndarray  # (N, C)
    pos_table: np.ndarray  # (M, C)
    temporal: np.ndarray  # (T, D)
    scale: float | None = None

    def __post_init__(self):
        proj = as_matrix(self.input_proj, "input projection")
        queries = as_matrix(self.queries, "query bank")
        pos = as_matrix(self.pos_table, "positional table")
        temporal = as_matrix(self.temporal, "temporal table")
        d, c = proj.shape
        if queries.shape[1] != c:
            raise ShapeError(
                f"query width {queries.shape[1]} != projection width {c}"
            )
        if pos.shape[1] != c:
            raise ShapeError(
                f"positional width {pos.shape[1]} != projection width {c}"
            )
        if temporal.shape[1] != d:
            raise ShapeError(
                f"temporal width {temporal.shape[1]} != feature dim {d}"
            )
        scale = self.scale
        if scale is None:
            scale = 1.0 / np.sqrt(c)
        scale = float(scale)
        if not np.isfinite(scale) or scale <= 0.0:
            raise ParameterError(f"scale must be finite and > 0, got {scale}")
        object.__setattr__(self, "input_proj", proj)
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "pos_table", pos)
        object.__setattr__(self, "temporal", temporal)
        object.__setattr__(self, "scale", scale)

    @property
    def feature_dim(self) -> int:
        return self.input_proj.shape[0]

    @property
    def width(self) -> int:
        return self.input_proj.shape[1]

    @property
    def query_count(self) -> int:
        return self.queries.shape[0]

    @property
    def source_tokens(self) -> int:
        return self.pos_table.shape[0]

    @property
    def frame_count(self) -> int:
        return self.temporal.shape[0]


@dataclass(frozen=True)
class AdapterOutput:
    """Compressed tokens of every frame and the attention that produced them."""

    tokens: np.ndarray  # (T, N, C)
    attention: np.ndarray  # (T, N, M)

    def __post_init__(self):
        tokens = as_matrix(self.tokens, "compressed tokens", ndim=3)
        attention = as_matrix(self.attention, "attention weights", ndim=3)
        if tokens.shape[0] == 0 or tokens.shape[1] == 0:
            raise ShapeError(f"adapter output needs frames and tokens, got {tokens.shape}")
        if attention.shape[:2] != tokens.shape[:2]:
            raise ShapeError(
                f"tokens {tokens.shape} and attention {attention.shape} "
                "disagree on frames or rows"
            )
        deviation = np.abs(attention.sum(axis=2) - 1.0).max(axis=1)
        if np.max(deviation) > 1e-9:
            frame = int(np.argmax(deviation))
            raise ShapeError(f"frame {frame}: attention rows do not sum to 1")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "attention", attention)

    @property
    def frame_count(self) -> int:
        return self.tokens.shape[0]

    @property
    def query_count(self) -> int:
        return self.tokens.shape[1]

    @property
    def width(self) -> int:
        return self.tokens.shape[2]

    @property
    def source_tokens(self) -> int:
        return self.attention.shape[2]


@dataclass(frozen=True)
class AdapterGrads:
    """Gradients matching the layout of :class:`AdapterParams`."""

    input_proj: np.ndarray
    queries: np.ndarray
    pos_table: np.ndarray
    temporal: np.ndarray


def sinusoidal_pos_table(grid_h: int, grid_w: int, width: int) -> np.ndarray:
    """A fixed 2-D sin/cos table over the patch grid, raster-scan rows.

    Each of the four width quarters carries sin/cos of the row index and
    sin/cos of the column index at geometrically spaced frequencies.
    """
    if grid_h < 1 or grid_w < 1:
        raise ParameterError("grid dims must be >= 1")
    if width < 4 or width % 4 != 0:
        raise ParameterError(f"width must be a positive multiple of 4, got {width}")
    quarter = width // 4
    omega = 1.0 / (10000.0 ** (np.arange(quarter) / quarter))
    rows = np.repeat(np.arange(grid_h), grid_w).astype(np.float64)
    cols = np.tile(np.arange(grid_w), grid_h).astype(np.float64)
    row_angle = rows[:, None] * omega[None, :]
    col_angle = cols[:, None] * omega[None, :]
    return np.concatenate(
        [np.sin(row_angle), np.cos(row_angle), np.sin(col_angle), np.cos(col_angle)],
        axis=1,
    )


def init_adapter_params(
    queries: int,
    width: int,
    feature_dim: int,
    grid_h: int,
    grid_w: int,
    frames: int,
    seed: int,
    scale: float | None = None,
) -> AdapterParams:
    """Fresh training-ready parameters.

    The projection and query bank get scaled normal draws, the positional
    table starts from the sinusoidal layout, and the temporal table starts
    at zero (frames initially indistinguishable). Everything is rounded to
    float32 so checkpoints round-trip bit-exactly through FTV1 files.
    """
    if queries < 1 or frames < 1 or feature_dim < 1:
        raise ParameterError("queries, frames and feature_dim must be >= 1")
    pos = sinusoidal_pos_table(grid_h, grid_w, width)  # validates the width
    rng = make_rng(seed)
    proj = rng.normal(size=(feature_dim, width)) / np.sqrt(feature_dim)
    bank = rng.normal(size=(queries, width)) / np.sqrt(width)
    temporal = np.zeros((frames, feature_dim))

    def f32(a):
        return a.astype(np.float32).astype(np.float64)

    return AdapterParams(
        input_proj=f32(proj),
        queries=f32(bank),
        pos_table=f32(pos),
        temporal=f32(temporal),
        scale=scale,
    )


def random_adapter_params(
    queries: int,
    width: int,
    feature_dim: int,
    source_tokens: int,
    frames: int,
    seed: int,
    scale: float | None = None,
) -> AdapterParams:
    """Fully random parameters (including positional and temporal tables).

    Used by gradient and equivariance checks, which need every table to sit
    at a generic point rather than at a structured initialization.
    """
    rng = make_rng(seed)
    return AdapterParams(
        input_proj=rng.normal(size=(feature_dim, width)),
        queries=rng.normal(size=(queries, width)),
        pos_table=rng.normal(size=(source_tokens, width)),
        temporal=rng.normal(size=(frames, feature_dim)),
        scale=scale,
    )


def _shifted_tokens(video: VideoTokenTensor, params: AdapterParams) -> np.ndarray:
    """The video's (T, M, D) tokens with each frame's temporal vector added."""
    have = (video.frame_count, video.token_count, video.feature_dim)
    want = (params.frame_count, params.source_tokens, params.feature_dim)
    if have != want:
        raise ShapeError(
            f"video has (frames, tokens, dim) {have}, adapter expects {want}"
        )
    return video.tokens() + params.temporal[:, None, :]


def _attend(x: np.ndarray, params: AdapterParams):
    """One frame's attention step on its (M, D) temporally shifted tokens.

    Returns ``(projected, keys, attention, tokens)``: the (M, C) projected
    features, which are the values; the keys, which add the positional
    table to them; the (N, M) softmax weights each query spread over the M
    source tokens; and the (N, C) compressed tokens.
    """
    projected = x @ params.input_proj
    keys = projected + params.pos_table
    attention, tokens = cross_attention(
        params.queries, keys, projected, scale=params.scale
    )
    return projected, keys, attention, tokens


def adapt_video(video: VideoTokenTensor, params: AdapterParams) -> AdapterOutput:
    """Compress every frame of a video, preserving frame order."""
    shifted = _shifted_tokens(video, params)
    t_count, n, m = video.frame_count, params.query_count, params.source_tokens
    tokens = np.empty((t_count, n, params.width))
    attention = np.empty((t_count, n, m))
    for t in range(t_count):
        _, _, attention[t], tokens[t] = _attend(shifted[t], params)
    tokens.setflags(write=False)
    attention.setflags(write=False)
    return AdapterOutput(tokens=tokens, attention=attention)


def adapter_gradients(
    video: VideoTokenTensor, params: AdapterParams, token_grads
) -> AdapterGrads:
    """Reverse-mode gradients of a loss through :func:`adapt_video`.

    ``token_grads`` is the (T, N, C) array dLoss/dTokens. Gradients are
    returned for the projection, query bank, positional table and temporal
    table. Each frame's attention is recomputed, not stored by the forward
    pass.
    """
    shifted = _shifted_tokens(video, params)
    g_tokens = np.asarray(token_grads, dtype=np.float64)
    t_count = video.frame_count
    n, c = params.query_count, params.width
    if g_tokens.shape != (t_count, n, c):
        raise ShapeError(
            f"token grads must have shape {(t_count, n, c)}, got {g_tokens.shape}"
        )

    queries, scale = params.queries, params.scale

    g_proj = np.zeros_like(params.input_proj)
    g_queries = np.zeros_like(queries)
    g_pos = np.zeros_like(params.pos_table)
    g_temporal = np.zeros_like(params.temporal)

    for t in range(t_count):
        x = shifted[t]  # (M, D)
        projected, keys, att, _ = _attend(x, params)

        g_out = g_tokens[t]  # (N, C)
        g_att = g_out @ projected.T  # (N, M) via the value-mixing path
        # Softmax backward, row-wise.
        g_logits = att * (g_att - np.sum(g_att * att, axis=1, keepdims=True))
        g_queries += scale * (g_logits @ keys)
        g_keys = scale * (g_logits.T @ queries)  # (M, C)
        g_pos += g_keys
        # projected feeds both the values and (through the positional add)
        # the keys.
        g_projected = att.T @ g_out + g_keys
        g_proj += x.T @ g_projected
        g_x = g_projected @ params.input_proj.T  # (M, D)
        g_temporal[t] = g_x.sum(axis=0)

    return AdapterGrads(
        input_proj=g_proj,
        queries=g_queries,
        pos_table=g_pos,
        temporal=g_temporal,
    )


def apply_grads(params: AdapterParams, grads: AdapterGrads, lr: float) -> AdapterParams:
    """One plain gradient step; immutable in, immutable out."""
    if not np.isfinite(lr):
        raise ParameterError("learning rate must be finite")
    return replace(
        params,
        input_proj=params.input_proj - lr * grads.input_proj,
        queries=params.queries - lr * grads.queries,
        pos_table=params.pos_table - lr * grads.pos_table,
        temporal=params.temporal - lr * grads.temporal,
    )


def save_checkpoint(params: AdapterParams, dirpath) -> None:
    """Write a checkpoint directory: a JSON header plus FTV1 tensors."""
    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    header = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "queries": params.query_count,
        "width": params.width,
        "feature_dim": params.feature_dim,
        "source_tokens": params.source_tokens,
        "frames": params.frame_count,
        "scale": params.scale,
    }
    # The header goes last and atomically: a directory holds a header only
    # once all four tensors under it are written.
    header_path = root / CHECKPOINT_HEADER
    header_path.unlink(missing_ok=True)
    ftv1.write_tensor(root / "input_proj.ftv1", params.input_proj)
    ftv1.write_tensor(root / "queries.ftv1", params.queries)
    ftv1.write_tensor(root / "pos_table.ftv1", params.pos_table)
    ftv1.write_tensor(root / "temporal.ftv1", params.temporal)
    with _replacing(header_path) as fh:
        fh.write(json.dumps(header, indent=2, sort_keys=True) + "\n")


def load_checkpoint(dirpath) -> AdapterParams:
    """Read a checkpoint directory written by :func:`save_checkpoint`.

    Older checkpoints may carry an additive query term (``"query_pos":
    true`` and ``query_pos.ftv1``); it is folded into the query bank, which
    gives the same attention.
    """
    root = Path(dirpath)
    header_path = root / CHECKPOINT_HEADER
    if not header_path.is_file():
        raise FormatError(f"missing checkpoint header {header_path}")
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable checkpoint header {header_path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _CHECKPOINT_FORMAT:
        raise FormatError(f"not an adapter checkpoint: {header_path}")
    if header.get("version") != _CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {header.get('version')!r}")
    scale = header.get("scale")
    if type(scale) not in (int, float):
        raise FormatError(f"checkpoint header needs a numeric 'scale', got {scale!r}")
    queries = ftv1.read_tensor(root / "queries.ftv1", expect_rank=2)
    if header.get("query_pos"):
        query_pos = ftv1.read_tensor(root / "query_pos.ftv1", expect_rank=2)
        if query_pos.shape != queries.shape:
            raise FormatError(
                f"query_pos shape {query_pos.shape} != query bank shape {queries.shape}"
            )
        queries = queries + query_pos
    params = AdapterParams(
        input_proj=ftv1.read_tensor(root / "input_proj.ftv1", expect_rank=2),
        queries=queries,
        pos_table=ftv1.read_tensor(root / "pos_table.ftv1", expect_rank=2),
        temporal=ftv1.read_tensor(root / "temporal.ftv1", expect_rank=2),
        scale=scale,
    )
    declared = (
        header.get("queries"),
        header.get("width"),
        header.get("feature_dim"),
        header.get("source_tokens"),
        header.get("frames"),
    )
    actual = (
        params.query_count,
        params.width,
        params.feature_dim,
        params.source_tokens,
        params.frame_count,
    )
    if declared != actual:
        raise FormatError(
            f"checkpoint header {declared} does not match tensors {actual}"
        )
    return params
