"""Attention-weighted token sampling.

After the adapter compresses a frame to N tokens, each token gets a
relevance score: the largest weight in its attention row. Only the
top-K scoring tokens per frame are kept. Ties break toward the lower
token index, which makes the selection deterministic and nested —
the keep-set for K is always contained in the keep-set for K+1.

Scores need only the attention, so :func:`compress_video` selects before
asking the adapter for the tokens of the kept rows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ftv1
from .adapter import AdapterParams, attend, kept_tokens
from .encoder import VideoTokenTensor
from .errors import FormatError, ParameterError, ShapeError
from .linalg import _check_count, _read_only, _real_array

KEEP_ORDERS = ("score", "index")

# Largest token index a sidecar may hold: the int64 range.
_MAX_INDEX = np.iinfo(np.int64).max


def score_frame(attention) -> np.ndarray:
    """Row maxima of attention along the last axis.

    An (N, M) matrix gives N scores, a (T, N, M) video gives (T, N). With
    rows summing to one, every score lands in [1/M, 1]: a token that
    spreads evenly scores 1/M, a token locked onto a single source patch
    scores 1.
    """
    att = _real_array(attention, "attention")
    if att.ndim < 2 or 0 in att.shape:
        raise ShapeError(f"attention must be a non-empty matrix, got shape {att.shape}")
    return att.max(axis=-1)


def select_topk(scores, k: int) -> np.ndarray:
    """Indices of the k highest scores along the last axis, ties broken
    toward lower index.

    The result is ordered by descending score (ascending index within a
    tie), so its length-J prefix is exactly the selection for k=J.
    """
    values = _real_array(scores, "scores")
    if values.ndim < 1 or 0 in values.shape:
        raise ShapeError(f"scores must be non-empty, got shape {values.shape}")
    _check_count("k", k, high=values.shape[-1])
    # A stable sort keeps equal scores in index order.
    return np.argsort(-values, axis=-1, kind="stable")[..., :k].copy()


@dataclass(frozen=True)
class SampledTokens:
    """The kept tokens of each frame and where they came from.

    K, the tokens kept per frame, is the tokens' second dimension. The
    constructor applies the array rule and checks indices only: kept tokens
    come from an adapter forward or an FTV1 read, and :func:`save_sampled`
    refuses non-finite tokens built through the API.
    """

    indices: np.ndarray  # (T, K) int64
    tokens: np.ndarray  # (T, K, C)

    def __post_init__(self):
        tokens = _read_only(self.tokens, "sampled tokens", ndim=3)
        indices = np.asarray(self.indices)
        # A float or bool index would otherwise be truncated to an integer.
        if indices.dtype.kind not in "iu":
            raise ParameterError(f"token indices must be integers, got dtype {indices.dtype}")
        indices = np.array(indices, dtype=np.int64)
        indices.setflags(write=False)
        if indices.shape != tokens.shape[:2]:
            raise ShapeError(
                f"expected indices of shape {tokens.shape[:2]}, got {indices.shape}"
            )
        if indices.min() < 0:
            raise ParameterError("token indices must be >= 0")
        repeats = np.any(np.diff(np.sort(indices, axis=1), axis=1) == 0, axis=1)
        if repeats.any():
            raise ParameterError(f"frame {int(np.argmax(repeats))}: duplicate token indices")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "tokens", tokens)

    @property
    def keep(self) -> int:
        return self.tokens.shape[1]

    @property
    def frame_count(self) -> int:
        return self.tokens.shape[0]


def sample_video(output, k: int) -> SampledTokens:
    """Keep the top-k tokens of every frame of an ``adapt_video`` pair
    ``(tokens, attention)``, in the descending-score order of
    :func:`select_topk`."""
    tokens, attention = (np.asarray(a) for a in output)
    if tokens.ndim != 3 or attention.ndim != 3 or tokens.shape[:2] != attention.shape[:2]:
        raise ShapeError(f"tokens {tokens.shape} and attention {attention.shape} disagree on frames or rows")
    indices = select_topk(score_frame(attention), k)
    tokens = tokens[np.arange(len(indices))[:, None], indices]
    tokens.setflags(write=False)
    return SampledTokens(indices, tokens)


def compress_video(
    video: VideoTokenTensor, params: AdapterParams, k: int, order: str = "score"
) -> SampledTokens:
    """The top-k tokens of every frame of ``adapt_video(video, params)``,
    selecting before mixing.

    ``order`` controls how kept tokens are laid out within a frame:
    ``"score"`` keeps the descending-score order of :func:`select_topk`,
    ``"index"`` re-sorts them by their original token index. Selection
    needs only the attention, so only the T·k kept rows are mixed and
    projected, not all T·N (see :func:`adapter.kept_tokens`). ``k`` and
    ``order`` are checked before any attention is computed.
    """
    if order not in KEEP_ORDERS:
        raise ParameterError(f"order must be one of {KEEP_ORDERS}, got {order!r}")
    _check_count("k", k, high=params.query_count)
    attention = attend(video, params)
    indices = select_topk(score_frame(attention), k)
    if order == "index":
        indices.sort(axis=1)
    rows = attention[np.arange(len(indices))[:, None], indices]
    del attention  # freed before the kept rows are mixed
    return SampledTokens(indices, kept_tokens(video, params, rows))


def _sidecar_path(path) -> Path:
    """The index sidecar beside the token file ``path``."""
    return Path(f"{os.fspath(path)}.json")


def save_sampled(sampled: SampledTokens, path, queries: int) -> None:
    """Write kept tokens as a rank-3 FTV1 file plus a JSON index sidecar.

    ``queries``, the N the indices were chosen from, and the tokens
    (``ftv1._storable``) are checked before any file is touched; the sidecar
    records ``queries`` so :func:`load_sampled` can bound the indices. The
    sidecar commits the pair: the old one is removed before the tokens are
    written and the new one replaces nothing until it is complete, so a
    failed write leaves no sidecar rather than new tokens beside an old one.
    """
    queries = _check_count("queries", queries, low=int(sampled.indices.max()) + 1)
    ftv1._storable(sampled.tokens)
    sidecar_path = _sidecar_path(ftv1._output_path(path))
    sidecar_path.unlink(missing_ok=True)
    ftv1.write_tensor(path, sampled.tokens)
    sidecar = {"keep": sampled.keep, "queries": queries, "indices": sampled.indices.tolist()}
    with ftv1._replacing(sidecar_path) as fh:
        fh.write(json.dumps(sidecar, sort_keys=True) + "\n")


def load_sampled(path) -> SampledTokens:
    """Read a token file and sidecar written by :func:`save_sampled`.

    A sidecar without ``"queries"`` (written before it was recorded) loads
    with its indices bounded by the int64 range alone.
    """
    stacked = ftv1.read_tensor(path, expect_rank=3)
    sidecar_path = _sidecar_path(path)
    sidecar = ftv1._read_json(sidecar_path, "index sidecar")
    keep = sidecar.get("keep")
    if type(keep) is not int or keep != stacked.shape[1]:
        raise FormatError(
            f"index sidecar {sidecar_path} needs 'keep' equal to the "
            f"{stacked.shape[1]} token rows per frame of {path}, got {keep!r}"
        )
    queries = sidecar.get("queries", _MAX_INDEX + 1)
    if type(queries) is not int:
        raise FormatError(
            f"index sidecar {sidecar_path} needs an integer 'queries', got {queries!r}"
        )
    frames = stacked.shape[0]
    indices = sidecar.get("indices")
    if not (
        isinstance(indices, list)
        and len(indices) == frames
        and all(
            isinstance(row, list)
            and len(row) == keep
            and all(type(i) is int and 0 <= i < queries for i in row)
            for row in indices
        )
    ):
        raise FormatError(
            f"index sidecar {sidecar_path} 'indices' must be {frames} lists of "
            f"{keep} token indices in [0, {queries})"
        )
    return SampledTokens(indices, stacked)
