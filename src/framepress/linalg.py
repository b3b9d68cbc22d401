"""Dense float64 kernels everything else builds on.

The package's input rules (one for every array a record, kernel or FTV1 file
takes, one for every count, k and seed, and one for every real argument),
row-wise softmax, single-head attention weights of queries over one frame's
keys or a stack of frames' keys, cross-attention in which one frame's
features serve as both keys and values and the weights are exposed, seeded
RNG streams, and central-difference gradients for verification. The kernels are pure functions
of their inputs and return fresh arrays: the attention kernels normalise
their own logits in place, and :func:`softmax_rows` its copy.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

# The central-difference step of :func:`fd_gradient`.
FD_STEP = 1e-5


def _check_count(name: str, value, low: int = 1, high: int | None = None) -> int:
    """The package's one count rule, for every count, k and seed: ``value``
    must be an int or a numpy integer, never a bool, in [low, high].
    Returns it as a plain int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an int, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ParameterError(f"{name} must be {bound}, got {value}")
    return int(value)


def _check_real(name: str, value, fraction: bool = False) -> float:
    """The package's one real-number rule, beside :func:`_check_count`:
    ``value`` must be an int or a float, numpy's too, never a bool, and
    finite and >= 0 or, for a ``fraction``, in (0, 1]. Returns it as a
    plain float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    bound = "in (0, 1]" if fraction else "finite and >= 0"
    try:
        real = float(value)
    except OverflowError:  # an int past float64's range: not printed, it may run to 300+ digits
        raise ParameterError(f"{name} must be {bound}") from None
    if not (0.0 < real <= 1.0 if fraction else 0.0 <= real < math.inf):
        raise ParameterError(f"{name} must be {bound}, got {value}")
    return real


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as float64, refused unless bool, int or float: never a
    cast that drops an imaginary part or parses text. A float64 array is
    returned as it is."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "buif":
        raise ParameterError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _read_only(values, name: str, ndim: int) -> np.ndarray:
    """The package's one array rule: ``values`` as a read-only float64 array
    (:func:`_real_array`) of rank ``ndim`` with no zero-length axis. Memory the
    caller can still write is copied; an array this call converted is frozen."""
    arr = _real_array(values, name)
    if arr.ndim != ndim or arr.size == 0:
        raise ShapeError(f"{name} must be a non-empty {ndim}-D array, got shape {arr.shape}")
    if arr.flags.writeable:
        if arr is values or arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


def as_matrix(values, name: str) -> np.ndarray:
    """:func:`_read_only` of rank 2, and finite: the adapter parameter
    constructor's validator. Video features, adapter outputs and kept
    tokens skip the finiteness scan (see ``VideoTokenTensor``)."""
    arr = _read_only(values, name, 2)
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
    NumericError if it has non-finite entries. ``m`` is never written: it is
    copied once, unless taking it as float64 already made a new array.
    """
    arr = _real_array(m, "softmax input")
    return _softmax_in_place(arr.copy() if arr is m or arr.base is not None else arr)


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
    bias = _real_array(bias, "bias")
    want = (q.shape[0], k.shape[-2])
    if bias.shape != want:
        raise ShapeError(f"bias must have shape {want} (queries, keys), got {bias.shape}")
    if k.ndim == 3:
        # F frames' keys as one (Nq, D) @ (D, F·Nk) GEMM, viewed as (F, Nq, Nk).
        frames, nk, d = k.shape
        logits = (q @ k.reshape(frames * nk, d).T).reshape(q.shape[0], frames, nk).swapaxes(0, 1)
    else:
        logits = q @ k.T
    logits *= scale
    logits += bias
    return _softmax_in_place(logits)


def attention_weights(queries, keys, scale: float, bias) -> np.ndarray:
    """Softmax attention of (Nq, D) queries over (Nk, D) keys, or over the
    keys of F frames stacked as (F, Nk, D).

    Returns ``softmax(queries @ keys.T * scale + bias)`` row-wise, an
    (Nq, Nk) matrix or, for stacked keys, an (F, Nq, Nk) array from one
    (Nq, D) @ (D, F·Nk) matrix product. ``bias``, an (Nq, Nk) matrix, is
    added to the scaled logits of every frame. Raises ShapeError on operands
    of the wrong rank or width and on a bias of the wrong shape, and
    NumericError on non-finite logits.
    """
    q, k = _real_array(queries, "queries"), _real_array(keys, "keys")
    if q.ndim != 2 or k.ndim not in (2, 3):
        raise ShapeError(f"queries must be 2-D and keys 2-D or 3-D, got {q.shape}, {k.shape}")
    return _attention_weights(q, k, scale, bias)


def cross_attention(queries, features, scale: float, bias) -> tuple[np.ndarray, np.ndarray]:
    """Single-head scaled dot-product cross-attention of (Nq, D) queries
    over one frame's (Nk, D) features, which serve as both keys and values.

    Returns ``(weights, output)`` where ``weights`` is the
    :func:`attention_weights` of the queries over the features and
    ``output = weights @ features``. The weight matrix is returned so
    callers can score tokens by their attention responses. Raises
    ShapeError on operands that are not compatible matrices and
    NumericError on non-finite scores.
    """
    q, f = _real_array(queries, "queries"), _real_array(features, "features")
    if q.ndim != 2 or f.ndim != 2:
        raise ShapeError(f"attention operands must be 2-D, got {q.shape}, {f.shape}")
    weights = _attention_weights(q, f, scale, bias)
    return weights, weights @ f


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    _check_count("seed", seed, low=0)
    return np.random.SeedSequence(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream; the seed alone fixes every draw.

    Raises ParameterError unless the seed is an int >= 0.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed)))


def split_rng(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent child streams, reproducible from ``(seed, n)``."""
    _check_count("n", n, low=0)
    children = _seed_sequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def fd_gradient(f: Callable[[np.ndarray], float], x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector.

    Evaluates ``(f(x + h e_i) - f(x - h e_i)) / (2 h)`` per coordinate,
    with ``h = FD_STEP``.
    """
    base = _real_array(x, "x")
    if base.ndim != 1 or base.size == 0:
        raise ShapeError(f"x must be a non-empty vector, got shape {base.shape}")
    grad = np.empty_like(base)
    for i in range(base.size):
        hi = base.copy()
        lo = base.copy()
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        f_hi = float(f(hi))
        f_lo = float(f(lo))
        if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
            raise NumericError(f"non-finite function value near coordinate {i}")
        grad[i] = (f_hi - f_lo) / (2.0 * FD_STEP)
    return grad
