"""FTV1 binary tensor files.

Layout: magic ``b"FTV1"``, unsigned 32-bit little-endian rank, ``rank``
unsigned 32-bit little-endian dims, then ``prod(dims)`` IEEE-754 32-bit
little-endian floats in row-major order. Storage is 32-bit; in-memory
compute is 64-bit, so a value round-trips bit-exactly iff it is
representable in float32.

Also home to ``_replacing``, the atomic file write shared by
:func:`write_tensor` (binary), the manifest, checkpoint header and index
sidecar writers, and the CLI's plan and report outputs.
"""

from __future__ import annotations

import contextlib
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, NumericError, ShapeError

MAGIC = b"FTV1"

# Guards against reading garbage headers, not a real format limit.
_MAX_RANK = 32


def write_tensor(path, values) -> None:
    """Write an array of rank >= 1 as an FTV1 file.

    Raises NumericError for non-finite values and for finite ones too large
    for float32 storage. The file replaces ``path`` only once it is whole.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim < 1:
        raise ShapeError("FTV1 tensors must have rank >= 1")
    if arr.size == 0:
        raise ShapeError(f"FTV1 tensors must be non-empty, got shape {arr.shape}")
    with np.errstate(over="ignore"):
        stored = arr.astype("<f4", order="C")
    # Casting keeps NaN and inf and turns float32 overflow into inf, so one
    # scan of the stored values catches both.
    if not np.all(np.isfinite(stored)):
        if np.all(np.isfinite(arr)):
            raise NumericError("FTV1 values overflow float32 storage")
        raise NumericError("FTV1 tensors must be finite")
    with _replacing(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(stored)


def read_tensor(path, expect_rank: int | None = None) -> np.ndarray:
    """Read an FTV1 file into a read-only float64 array.

    Raises FormatError (carrying the byte offset) on bad magic, rank
    mismatch, truncation, trailing bytes, or a non-finite value.
    """
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", offset=0)
    if len(data) < 8:
        raise FormatError("truncated header: rank missing", offset=len(data))
    rank = struct.unpack_from("<I", data, 4)[0]
    if rank == 0 or rank > _MAX_RANK:
        raise FormatError(f"unsupported rank {rank}", offset=4)
    if expect_rank is not None and rank != expect_rank:
        raise FormatError(f"rank mismatch: expected {expect_rank}, got {rank}", offset=4)
    dims_end = 8 + 4 * rank
    if len(data) < dims_end:
        raise FormatError("truncated header: dims missing", offset=len(data))
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    if any(d == 0 for d in dims):
        raise FormatError(f"zero-sized dim in {dims}", offset=8)
    count = math.prod(dims)
    payload_bytes = len(data) - dims_end
    if payload_bytes < 4 * count:
        raise FormatError(
            f"truncated payload: expected {4 * count} bytes, got {payload_bytes}",
            offset=len(data),
        )
    if payload_bytes > 4 * count:
        raise FormatError("trailing bytes after payload", offset=dims_end + 4 * count)
    flat = np.frombuffer(data, dtype="<f4", count=count, offset=dims_end)
    finite = np.isfinite(flat)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FormatError(f"non-finite value {flat[bad]}", offset=dims_end + 4 * bad)
    arr = flat.astype(np.float64).reshape(dims)
    arr.setflags(write=False)
    return arr


@contextlib.contextmanager
def _replacing(path, binary: bool = False):
    """A new file, UTF-8 text or ``binary``, that replaces ``path`` only if
    the block finishes.

    The data goes to a temporary file next to ``path`` first, so an error
    leaves neither a partial output nor a clobbered old one, and ``path``
    may be the file being read.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
