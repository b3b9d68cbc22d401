"""FTV1 binary tensor files.

Layout: magic ``b"FTV1"``, unsigned 32-bit little-endian rank, ``rank``
unsigned 32-bit little-endian dims, then ``prod(dims)`` IEEE-754 32-bit
little-endian floats in row-major order. Storage is 32-bit; in-memory
compute is 64-bit, so a value round-trips bit-exactly iff it is
representable in float32.

Payloads stream through one float32 staging buffer of at most
``_BLOCK_VALUES`` values (1 MiB), so a read holds the float64 result plus
that buffer, and a write of a C-contiguous float64 array holds only the
buffer, never a whole-file copy.

Also home to the package's one atomic write, ``_replacing`` (used by
:func:`write_tensor`, the manifest, checkpoint header and sidecar writers,
and the CLI's text outputs), and its one JSON reader, ``_parse_json``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import secrets
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, NumericError, ParameterError, ShapeError

MAGIC = b"FTV1"

# Guards against reading garbage headers, not a real format limit.
_MAX_RANK = 32

# Values per block of the payload staging buffer: 1 MiB of float32.
_BLOCK_VALUES = 1 << 18


def write_tensor(path, values) -> None:
    """Write an array of rank >= 1 as an FTV1 file.

    Raises NumericError for non-finite values and for finite ones too large
    for float32 storage. The file replaces ``path`` only once it is whole.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim < 1 or arr.size == 0:
        raise ShapeError(f"FTV1 tensors must have rank >= 1 and be non-empty, got shape {arr.shape}")
    flat = np.ascontiguousarray(arr).reshape(-1)
    stage = np.empty(min(flat.size, _BLOCK_VALUES), dtype="<f4")
    with _replacing(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for start in range(0, flat.size, _BLOCK_VALUES):
            block = flat[start : start + _BLOCK_VALUES]
            stored = stage[: block.size]
            with np.errstate(over="ignore"):
                stored[...] = block
            # Casting keeps NaN and inf and turns float32 overflow into inf,
            # so one scan of the stored values catches both.
            if not np.isfinite(stored).all():
                if np.isfinite(flat[start:]).all():
                    raise NumericError("FTV1 values overflow float32 storage")
                raise NumericError("FTV1 tensors must be finite")
            fh.write(stored)


def read_tensor(path, expect_rank: int | None = None) -> np.ndarray:
    """Read an FTV1 file into a read-only float64 array.

    Raises FormatError (carrying the byte offset) on bad magic, rank
    mismatch, truncation, trailing bytes, or a non-finite value.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 4 or head[:4] != MAGIC:
            raise FormatError(f"bad magic {head[:4]!r}, expected {MAGIC!r}", offset=0)
        if len(head) < 8:
            raise FormatError("truncated header: rank missing", offset=len(head))
        rank = struct.unpack_from("<I", head, 4)[0]
        if rank == 0 or rank > _MAX_RANK:
            raise FormatError(f"unsupported rank {rank}", offset=4)
        if expect_rank is not None and rank != expect_rank:
            raise FormatError(f"rank mismatch: expected {expect_rank}, got {rank}", offset=4)
        raw_dims = fh.read(4 * rank)
        dims_end = 8 + 4 * rank
        if len(raw_dims) < 4 * rank:
            raise FormatError("truncated header: dims missing", offset=8 + len(raw_dims))
        dims = struct.unpack(f"<{rank}I", raw_dims)
        if any(d == 0 for d in dims):
            raise FormatError(f"zero-sized dim in {dims}", offset=8)
        count = math.prod(dims)
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size < dims_end + 4 * count:
            # Caught before the result is allocated, so a corrupt header
            # cannot ask for more memory than the file holds.
            raise _truncated(count, st.st_size - dims_end, dims_end)
        try:
            arr = np.empty(count)
        except (MemoryError, ValueError) as exc:  # a pipe has no size to check
            raise FormatError(f"dims {dims} do not fit in memory", offset=8) from exc
        stage = np.empty(min(count, _BLOCK_VALUES), dtype="<f4")
        # Truncation and trailing bytes are reported before a non-finite
        # value, so the first one is kept until the whole payload is read.
        bad = None
        for start in range(0, count, _BLOCK_VALUES):
            block = stage[: min(_BLOCK_VALUES, count - start)]
            got = fh.readinto(block)
            if got < block.nbytes:
                raise _truncated(count, 4 * start + got, dims_end)
            if bad is None:
                finite = np.isfinite(block)
                if not finite.all():
                    i = int(np.argmin(finite))
                    bad = FormatError(
                        f"non-finite value {block[i]}", offset=dims_end + 4 * (start + i)
                    )
            arr[start : start + block.size] = block
        if fh.read(1):
            raise FormatError("trailing bytes after payload", offset=dims_end + 4 * count)
    if bad is not None:
        raise bad
    arr = arr.reshape(dims)
    arr.setflags(write=False)
    return arr


def _truncated(count: int, payload_bytes: int, dims_end: int) -> FormatError:
    """The error for a payload of ``payload_bytes`` where ``count`` values
    were due."""
    return FormatError(
        f"truncated payload: expected {4 * count} bytes, got {payload_bytes}",
        offset=dims_end + payload_bytes,
    )


def _output_path(path) -> Path:
    """``path`` as a Path, refused if its last component is empty, ``.`` or
    ``..``: it names a directory. The string is tested because ``Path``
    drops a trailing separator."""
    text = os.fspath(path)
    if os.path.basename(text) in ("", ".", ".."):
        raise ParameterError(f"output path {text} names a directory, not a file")
    return Path(text)


@contextlib.contextmanager
def _replacing(path, binary: bool = False):
    """A new file, UTF-8 text or ``binary``, that replaces ``path`` only if
    the block finishes.

    The data goes to a temporary file next to ``path`` first, so an error
    leaves neither a partial output nor a clobbered old one, and ``path``
    may be the file being read. A path that names a directory is refused
    (:func:`_output_path`) before anything is written.
    """
    path = _output_path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# json refuses bad text and over-long ints with ValueError, deep nesting with RecursionError.
_JSON_ERRORS = (ValueError, RecursionError)


def _parse_json(text: str, where: str):
    """``text`` decoded, or FormatError ``{where}: {json's message}``."""
    try:
        return json.loads(text)
    except _JSON_ERRORS as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _read_json(path, what: str) -> dict:
    """The JSON object in the UTF-8 file or pipe ``path``, a ``what``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FormatError(f"missing {what} {path}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"unreadable {what} {path}: {exc}") from exc
    value = _parse_json(text, f"unreadable {what} {path}")
    if not isinstance(value, dict):
        raise FormatError(f"{what} {path} is not a JSON object")
    return value
