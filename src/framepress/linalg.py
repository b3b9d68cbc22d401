"""Dense float64 kernels everything else builds on.

The package's one input validator, row-wise softmax, single-head
cross-attention with exposed weights, seeded RNG streams, and
central-difference gradients for verification. The kernels are pure
functions of their inputs and return fresh arrays.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


def as_matrix(values, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """Validate ``values`` as a finite float64 array of rank ``ndim``.

    This is the package's one validator, called where data enters the
    system. The result is read-only, so it can be passed on and shared
    without further copies; a writable input is copied first, so later
    writes by the caller never reach it.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite entries")
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability.

    Every output row is nonnegative and sums to 1 within 1e-12. Raises
    ShapeError unless ``m`` is a non-empty matrix and NumericError if it
    has non-finite entries.
    """
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"softmax requires a non-empty matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("softmax input contains non-finite entries")
    shifted = arr - arr.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def cross_attention(
    queries,
    keys,
    values,
    scale: float | None = None,
    bias=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-head scaled dot-product cross-attention.

    Returns ``(weights, output)`` where ``weights = softmax(queries @ keys.T
    * scale + bias)`` row-wise and ``output = weights @ values``. The weight
    matrix is returned so callers can score tokens by their attention
    responses. ``scale`` defaults to ``1 / sqrt(embed_dim)``; ``bias``, an
    optional (queries, keys) matrix, is added to the scaled logits. Raises
    ShapeError on operands that are not compatible matrices and NumericError
    on non-finite scores.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (queries, keys, values))
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(
            f"attention operands must be 2-D, got {q.shape}, {k.shape}, {v.shape}"
        )
    if q.shape[1] != k.shape[1]:
        raise ShapeError(
            f"queries and keys must share a column count, got {q.shape} vs {k.shape}"
        )
    if k.shape[0] != v.shape[0]:
        raise ShapeError(
            f"keys and values must share a row count, got {k.shape} vs {v.shape}"
        )
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[1])
    logits = q @ k.T * scale
    if bias is not None:
        b = np.asarray(bias, dtype=np.float64)
        if b.shape != logits.shape:
            raise ShapeError(
                f"bias must have shape {logits.shape} (queries, keys), got {b.shape}"
            )
        logits += b
    weights = softmax_rows(logits)
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
