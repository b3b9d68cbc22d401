"""Dense float64 kernels everything else builds on.

The package's one input validator, row-wise softmax, single-head
attention weights (over one frame's keys or a stack of frames' keys) and
cross-attention with exposed weights, seeded RNG streams, and
central-difference gradients for verification. The kernels are pure
functions of their inputs and return fresh arrays: the attention kernels
normalise their own logits in place, and :func:`softmax_rows` its copy.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


def _read_only(values, name: str, ndim: int) -> np.ndarray:
    """``values`` as a read-only float64 array of rank ``ndim``, for
    constructors whose values were checked where they entered. A writable
    input is copied first, so later writes by the caller never reach it."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def as_matrix(values, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """:func:`_read_only`, and finite: the adapter parameter constructor's
    validator. Video features, adapter outputs and kept tokens skip the
    finiteness scan (see ``VideoTokenTensor``)."""
    arr = _read_only(values, name, ndim)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite entries")
    return arr


def _softmax_in_place(arr: np.ndarray) -> np.ndarray:
    """:func:`softmax_rows` of a float64 array the caller owns, in place."""
    if arr.ndim < 2 or arr.size == 0:
        raise ShapeError(f"softmax requires a non-empty matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError("softmax input contains non-finite entries")
    arr -= arr.max(axis=-1, keepdims=True)
    np.exp(arr, out=arr)
    arr /= arr.sum(axis=-1, keepdims=True)
    return arr


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability.

    Rows run along the last axis of a matrix or of a stack of matrices.
    Every output row is nonnegative and sums to 1 within 1e-12. Raises
    ShapeError unless ``m`` is a non-empty array of rank 2 or more and
    NumericError if it has non-finite entries. ``m`` is never written.
    """
    return _softmax_in_place(np.array(m, dtype=np.float64))


def _attention_weights(q: np.ndarray, k: np.ndarray, scale, bias) -> np.ndarray:
    """Softmax attention of float64 queries over keys of a checked rank.

    The one body of :func:`attention_weights` and :func:`cross_attention`,
    kept private so that calling one public kernel never calls the other.
    Checks the shared column count and the bias shape before any product
    is formed.
    """
    if q.shape[1] != k.shape[-1]:
        raise ShapeError(
            f"queries and keys must share a column count, got {q.shape} vs {k.shape}"
        )
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        want = (q.shape[0], k.shape[-2])
        if bias.shape != want:
            raise ShapeError(f"bias must have shape {want} (queries, keys), got {bias.shape}")
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[1])
    if k.ndim == 3:
        # F frames' keys as one (Nq, D) @ (D, F·Nk) GEMM, viewed as (F, Nq, Nk).
        frames, nk, d = k.shape
        logits = (q @ k.reshape(frames * nk, d).T).reshape(q.shape[0], frames, nk).swapaxes(0, 1)
    else:
        logits = q @ k.T
    logits *= scale
    if bias is not None:
        logits += bias
    return _softmax_in_place(logits)


def attention_weights(queries, keys, scale: float | None = None, bias=None) -> np.ndarray:
    """Softmax attention of (Nq, D) queries over (Nk, D) keys, or over the
    keys of F frames stacked as (F, Nk, D).

    Returns ``softmax(queries @ keys.T * scale + bias)`` row-wise, an
    (Nq, Nk) matrix or, for stacked keys, an (F, Nq, Nk) array from one
    (Nq, D) @ (D, F·Nk) matrix product. ``scale`` defaults to ``1 / sqrt(D)``;
    ``bias``, an optional (Nq, Nk) matrix, is added to the scaled logits of
    every frame. Raises ShapeError on operands of the wrong rank or width
    and on a bias of the wrong shape, and NumericError on non-finite logits.
    """
    q, k = np.asarray(queries, dtype=np.float64), np.asarray(keys, dtype=np.float64)
    if q.ndim != 2 or k.ndim not in (2, 3):
        raise ShapeError(f"queries must be 2-D and keys 2-D or 3-D, got {q.shape}, {k.shape}")
    return _attention_weights(q, k, scale, bias)


def cross_attention(
    queries,
    keys,
    values,
    scale: float | None = None,
    bias=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-head scaled dot-product cross-attention.

    Returns ``(weights, output)`` where ``weights`` is the
    :func:`attention_weights` of the queries over the keys and ``output =
    weights @ values``. The weight matrix is returned so callers can score
    tokens by their attention responses. Raises ShapeError on operands that
    are not compatible matrices and NumericError on non-finite scores.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (queries, keys, values))
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(
            f"attention operands must be 2-D, got {q.shape}, {k.shape}, {v.shape}"
        )
    if k.shape[0] != v.shape[0]:
        raise ShapeError(
            f"keys and values must share a row count, got {k.shape} vs {v.shape}"
        )
    weights = _attention_weights(q, k, scale, bias)
    return weights, weights @ v


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream; the seed alone fixes every draw.

    Raises ParameterError for a negative seed.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed)))


def split_rng(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent child streams, reproducible from ``(seed, n)``."""
    if n < 0:
        raise ParameterError(f"cannot split into {n} streams")
    children = _seed_sequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def fd_gradient(
    f: Callable[[np.ndarray], float],
    x: Sequence[float] | np.ndarray,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector.

    Evaluates ``(f(x + h e_i) - f(x - h e_i)) / (2 h)`` per coordinate.
    """
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    base = np.asarray(x, dtype=np.float64)
    if base.ndim != 1:
        raise ShapeError(f"x must be a vector, got shape {base.shape}")
    grad = np.empty_like(base)
    for i in range(base.size):
        hi = base.copy()
        lo = base.copy()
        hi[i] += step
        lo[i] -= step
        f_hi = float(f(hi))
        f_lo = float(f(lo))
        if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
            raise NumericError(f"non-finite function value near coordinate {i}")
        grad[i] = (f_hi - f_lo) / (2.0 * step)
    return grad
