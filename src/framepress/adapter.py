"""Learnable-query cross-attention adapter.

Compresses the M patch tokens of each frame down to N query outputs with a
single-head cross-attention block:

* a learnable per-frame temporal vector is added to every patch token of
  frame t *before* projection,
* patch features are linearly projected into the query width,
* keys are the projected features plus a learnable 2-D positional table,
* values are the projected features alone,
* N learnable query vectors attend over the M keys.

The projection runs after mixing. With x a frame's (M, D) shifted
tokens, W the (D, C) projection, q the (N, C) queries and pos the
positional table, the logits q·(xW + pos)ᵀ equal (q·Wᵀ)·xᵀ + q·posᵀ, and
the tokens A·(xW) equal (A·x)·W. So the queries are mapped into feature
space once per video, the positions enter as the logit bias s·q·posᵀ,
each frame's D-wide features serve as both keys and values, and only the
mixed rows a caller keeps are projected. The forward and the backward
work in feature space alike.

Each caller has one forward path. A sampler selects before mixing:
:func:`attend` gives the whole video's (T, N, M) attention from one
stacked call on the unshifted features (the temporal vector only shifts
each logit row, which the softmax ignores), and :func:`kept_tokens` mixes,
shifts and projects only the rows it keeps. The full forward
(:func:`adapt_video`) and the backward, over the rows a loss reads, attend
frame by frame in one loop that shifts each frame as it attends it; the
benchmark pins its one ``cross_attention`` call per frame per training step.

Besides the forward pass this module carries its own reverse-mode
gradients (the whole block is small enough that hand-written backprop
beats pulling in an autodiff framework) and directory-based checkpoint
I/O built on FTV1 tensor files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ftv1
from .encoder import VideoTokenTensor
from .errors import FormatError, ParameterError, ShapeError
from .linalg import _check_count, _read_only, as_matrix, attention_weights, cross_attention, make_rng

CHECKPOINT_HEADER = "adapter.json"
_CHECKPOINT_FORMAT = "framepress-adapter"
_CHECKPOINT_VERSION = 1
# The checkpoint header's shape keys, each with the AdapterParams property it declares.
_HEADER_SHAPES = {
    "queries": "query_count",
    "width": "width",
    "feature_dim": "feature_dim",
    "source_tokens": "source_tokens",
    "frames": "frame_count",
}


@dataclass(frozen=True)
class AdapterParams:
    """All trainable tensors of the adapter, plus its attention scale
    ``1 / sqrt(width)``, which follows from them."""

    input_proj: np.ndarray  # (D, C)
    queries: np.ndarray  # (N, C)
    pos_table: np.ndarray  # (M, C)
    temporal: np.ndarray  # (T, D)
    scale: float = field(init=False)

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
        object.__setattr__(self, "input_proj", proj)
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "pos_table", pos)
        object.__setattr__(self, "temporal", temporal)
        object.__setattr__(self, "scale", float(1.0 / np.sqrt(c)))

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
    """Compressed tokens of every frame and the attention that produced
    them. Like the other records, it checks shapes and row sums only."""

    tokens: np.ndarray  # (T, N, C)
    attention: np.ndarray  # (T, N, M)

    def __post_init__(self):
        tokens = _read_only(self.tokens, "compressed tokens", ndim=3)
        attention = _read_only(self.attention, "attention weights", ndim=3)
        if tokens.shape[0] == 0 or tokens.shape[1] == 0:
            raise ShapeError(f"adapter output needs frames and tokens, got {tokens.shape}")
        if attention.shape[:2] != tokens.shape[:2]:
            raise ShapeError(
                f"tokens {tokens.shape} and attention {attention.shape} "
                "disagree on frames or rows"
            )
        deviation = np.abs(attention.sum(axis=2) - 1.0).max(axis=1)
        # Written so that a NaN row fails too.
        if not np.max(deviation) <= 1e-9:
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
    for name, value in (("grid_h", grid_h), ("grid_w", grid_w), ("width", width)):
        _check_count(name, value)
    if width % 4 != 0:
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
) -> AdapterParams:
    """Fresh training-ready parameters.

    The projection and query bank get scaled normal draws, the positional
    table starts from the sinusoidal layout, and the temporal table starts
    at zero (frames initially indistinguishable). Everything is rounded to
    float32 so checkpoints round-trip bit-exactly through FTV1 files.
    """
    for name, value in (("queries", queries), ("frames", frames), ("feature_dim", feature_dim)):
        _check_count(name, value)
    pos = sinusoidal_pos_table(grid_h, grid_w, width)  # validates the grid and width
    rng = make_rng(seed)
    proj = rng.standard_normal((feature_dim, width))
    proj /= np.sqrt(feature_dim)
    bank = rng.standard_normal((queries, width))
    bank /= np.sqrt(width)
    temporal = np.zeros((frames, feature_dim))
    # Round each table in place and hand it over read-only, so
    # AdapterParams keeps it without a copy.
    for a in (proj, bank, pos, temporal):
        a[...] = a.astype(np.float32)
        a.setflags(write=False)
    return AdapterParams(input_proj=proj, queries=bank, pos_table=pos, temporal=temporal)


def random_adapter_params(
    queries: int,
    width: int,
    feature_dim: int,
    source_tokens: int,
    frames: int,
    seed: int,
) -> AdapterParams:
    """Fully random parameters (including positional and temporal tables).

    Used by gradient and equivariance checks, which need every table to sit
    at a generic point rather than at a structured initialization.
    """
    for name, value in zip(("queries", "width", "feature_dim", "source_tokens", "frames"),
                           (queries, width, feature_dim, source_tokens, frames)):
        _check_count(name, value)
    rng = make_rng(seed)
    return AdapterParams(
        input_proj=rng.normal(size=(feature_dim, width)),
        queries=rng.normal(size=(queries, width)),
        pos_table=rng.normal(size=(source_tokens, width)),
        temporal=rng.normal(size=(frames, feature_dim)),
    )


def _source_tokens(video: VideoTokenTensor, params: AdapterParams) -> np.ndarray:
    """The video's (T, M, D) tokens, checked against the adapter's shapes."""
    have = (video.frame_count, video.token_count, video.feature_dim)
    want = (params.frame_count, params.source_tokens, params.feature_dim)
    if have != want:
        raise ShapeError(
            f"video has (frames, tokens, dim) {have}, adapter expects {want}"
        )
    return video.tokens()


def _operands(params: AdapterParams):
    """The attention's (N, D) feature-space queries q·Wᵀ and its (N, M)
    logit bias s·q·posᵀ, which together let the shifted features serve as
    both keys and values."""
    queries = params.queries
    bias = queries @ params.pos_table.T
    bias *= params.scale
    return queries @ params.input_proj.T, bias


def _attend_frames(queries, x, temporal, bias, scale: float):
    """``(attention, mixed)``, (T, R, M) and (T, R, D): per frame, one
    :func:`cross_attention` call of (R, D) ``queries[t]`` and (R, M) ``bias[t]``
    over ``x[t] + temporal[t]`` (in one reused buffer) as keys and values. A
    stacked call would do for the forward, but ``perfbench``'s ``toy_train``
    test pins a call per frame in each training step's forward and backward."""
    t_count, r, _ = queries.shape
    attention = np.empty((t_count, r, x.shape[1]))
    mixed = np.empty((t_count, r, x.shape[2]))
    shifted = np.empty(x.shape[1:])
    for t in range(t_count):
        np.add(x[t], temporal[t], out=shifted)
        attention[t], mixed[t] = cross_attention(queries[t], shifted, scale, bias[t])
    return attention, mixed


def attend(video: VideoTokenTensor, params: AdapterParams) -> np.ndarray:
    """The video's read-only (T, N, M) attention, from one
    :func:`attention_weights` call on the unshifted features: the temporal
    vector adds a constant to each logit row, which the softmax ignores."""
    queries, bias = _operands(params)
    attention = attention_weights(queries, _source_tokens(video, params), params.scale, bias)
    attention.setflags(write=False)
    return attention


def _project(mixed: np.ndarray, params: AdapterParams) -> np.ndarray:
    """The read-only (T, R, C) tokens of (T, R, D) mixed features."""
    t_count, r, d = mixed.shape
    tokens = (mixed.reshape(t_count * r, d) @ params.input_proj).reshape(t_count, r, params.width)
    tokens.setflags(write=False)
    return tokens


def kept_tokens(video: VideoTokenTensor, params: AdapterParams, rows: np.ndarray) -> np.ndarray:
    """The read-only (T, R, C) tokens of (T, R, M) rows of :func:`attend`.

    Attention rows sum to 1, so mixing the shifted features is mixing the
    unshifted ones, plus the shift; only the R kept rows are projected.
    """
    mixed = rows @ _source_tokens(video, params)
    mixed += params.temporal[:, None, :]
    return _project(mixed, params)


def adapt_video(video: VideoTokenTensor, params: AdapterParams) -> AdapterOutput:
    """Compress every frame of a video, preserving frame order."""
    queries, bias = (np.broadcast_to(a, (params.frame_count, *a.shape)) for a in _operands(params))
    x = _source_tokens(video, params)
    attention, mixed = _attend_frames(queries, x, params.temporal, bias, params.scale)
    attention.setflags(write=False)  # so AdapterOutput keeps it without a copy
    return AdapterOutput(tokens=_project(mixed, params), attention=attention)


def adapter_gradients(
    video: VideoTokenTensor, params: AdapterParams, rows, row_grads
) -> AdapterGrads:
    """Reverse-mode gradients of a loss through :func:`adapt_video`.

    ``rows`` are the (T, R) query rows the loss reads, as in
    ``SampledTokens.indices``, and ``row_grads`` their (T, R, C)
    dLoss/dTokens; other rows have zero gradient, and a repeated row adds.
    Only the R rows' attention is recomputed. The products take x unshifted:
    the softmax backward cancels the row constants dZ_r·τ_t that the shift
    adds to dA, and rows of dlogits sum to 0, so τ_t drops out of dlogits·x.
    """
    rows = np.asarray(rows)
    g_tokens = np.asarray(row_grads, dtype=np.float64)
    t_count, n, c = video.frame_count, params.query_count, params.width
    if rows.ndim != 2 or rows.shape[0] != t_count or g_tokens.shape != (*rows.shape, c):
        raise ShapeError(
            f"rows {rows.shape} and grads {g_tokens.shape} must be (T, R), (T, R, {c}); T={t_count}"
        )
    # A negative row would wrap round and train the wrong query.
    if rows.dtype.kind not in "iu" or np.any((rows < 0) | (rows >= n)):
        raise ShapeError(f"rows must be integers in [0, {n})")
    x = _source_tokens(video, params)  # (T, M, D), unshifted
    feature_queries, bias = _operands(params)
    att, mixed = _attend_frames(feature_queries[rows], x, params.temporal, bias[rows], params.scale)
    r, m, d = rows.shape[1], x.shape[1], params.feature_dim

    # The (T, R, D) arrays are dropped once used, which keeps the peak
    # memory near that of the per-frame backward at the paper shape.
    g_flat = g_tokens.reshape(t_count * r, c)
    # W maps the mixed rows to tokens and the queries into feature space.
    g_proj = mixed.reshape(t_count * r, d).T @ g_flat
    del mixed
    g_mixed = (g_flat @ params.input_proj.T).reshape(t_count, r, d)
    # Rows of A_t sum to 1 and rows of dlogits_t to 0, so the temporal gradient,
    # the row sum of dx_t = A_tᵀ·dZ_t + s·dlogits_tᵀ·Q_t, is dZ_t summed over rows.
    g_temporal = g_mixed.sum(axis=1)
    g_logits = g_mixed @ x.transpose(0, 2, 1)  # dA less its row constants, (T, R, M)
    del g_mixed
    # Softmax backward, row-wise, in place.
    g_logits -= np.sum(g_logits * att, axis=2, keepdims=True)
    g_logits *= att
    # Each row's gradients are summed onto its query, so a repeated row adds.
    onehot = (np.arange(n)[:, None] == rows.ravel()).astype(np.float64)  # (N, T·R)
    g_bias = onehot @ g_logits.reshape(t_count * r, m)  # (N, M), unscaled
    g_feature_queries = params.scale * (onehot @ (g_logits @ x).reshape(t_count * r, d))
    g_proj += g_feature_queries.T @ params.queries
    g_queries = g_feature_queries @ params.input_proj + params.scale * (g_bias @ params.pos_table)
    g_pos = params.scale * (g_bias.T @ params.queries)

    return AdapterGrads(
        input_proj=g_proj,
        queries=g_queries,
        pos_table=g_pos,
        temporal=g_temporal,
    )


def save_checkpoint(params: AdapterParams, dirpath) -> None:
    """Write a checkpoint directory: a JSON header plus FTV1 tensors."""
    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    header = {key: getattr(params, prop) for key, prop in _HEADER_SHAPES.items()}
    header.update(format=_CHECKPOINT_FORMAT, version=_CHECKPOINT_VERSION, scale=params.scale)
    # The header goes last and atomically: a directory holds a header only
    # once all four tensors under it are written.
    header_path = root / CHECKPOINT_HEADER
    header_path.unlink(missing_ok=True)
    ftv1.write_tensor(root / "input_proj.ftv1", params.input_proj)
    ftv1.write_tensor(root / "queries.ftv1", params.queries)
    ftv1.write_tensor(root / "pos_table.ftv1", params.pos_table)
    ftv1.write_tensor(root / "temporal.ftv1", params.temporal)
    with ftv1._replacing(header_path) as fh:
        fh.write(json.dumps(header, indent=2, sort_keys=True) + "\n")


def load_checkpoint(dirpath) -> AdapterParams:
    """Read a checkpoint directory written by :func:`save_checkpoint`.

    The header's ``scale`` must equal ``1 / sqrt(width)``. Older
    checkpoints may carry an additive query term (``"query_pos": true`` and
    ``query_pos.ftv1``); it is folded into the query bank, which gives the
    same attention.
    """
    root = Path(dirpath)
    header_path = root / CHECKPOINT_HEADER
    header = ftv1._read_json(header_path, "checkpoint header")
    if header.get("format") != _CHECKPOINT_FORMAT:
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
    )
    declared = tuple(header.get(key) for key in _HEADER_SHAPES)
    actual = tuple(getattr(params, prop) for prop in _HEADER_SHAPES.values())
    if declared != actual:
        raise FormatError(
            f"checkpoint header {declared} does not match tensors {actual}"
        )
    if scale != params.scale:
        raise FormatError(
            f"checkpoint scale {scale!r} != 1/sqrt(width) = {params.scale!r}"
        )
    return params
