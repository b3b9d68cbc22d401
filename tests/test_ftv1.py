import contextlib
import os
import struct
import threading

import numpy as np
import pytest

from conftest import traced_peak
from framepress import ftv1
from framepress.errors import FormatError, NumericError, ParameterError, ShapeError
from framepress.linalg import _read_only, make_rng


def test_exact_byte_layout(tmp_path):
    path = tmp_path / "t.ftv1"
    ftv1.write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.5]]))
    want = (
        b"FTV1"
        + struct.pack("<I", 2)
        + struct.pack("<II", 2, 2)
        + struct.pack("<4f", 1.0, 2.0, 3.0, 4.5)
    )
    assert path.read_bytes() == want


def test_round_trip_is_exact_for_float32_values(tmp_path):
    rng = make_rng(0)
    for i in range(25):
        rank = int(rng.integers(1, 5))
        dims = tuple(int(d) for d in rng.integers(1, 7, size=rank))
        arr = rng.normal(size=dims).astype(np.float32).astype(np.float64)
        if i % 2:
            arr = arr.T  # not C-contiguous: still written in row-major order
        path = tmp_path / f"{i}.ftv1"
        ftv1.write_tensor(path, arr)
        back = ftv1.read_tensor(path)
        assert back.dtype == np.float64
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)
        # Read-only, so the validator passes it on without a copy.
        assert _read_only(back, "tensor", back.ndim) is back


def test_non_float32_values_round_to_storage_precision(tmp_path):
    path = tmp_path / "pi.ftv1"
    ftv1.write_tensor(path, np.array([np.pi]))
    back = ftv1.read_tensor(path)
    assert back[0] == float(np.float32(np.pi))
    assert back[0] != np.pi


def test_expect_rank(tmp_path):
    path = tmp_path / "v.ftv1"
    ftv1.write_tensor(path, np.arange(1.0, 4.0))
    assert ftv1.read_tensor(path, expect_rank=1).shape == (3,)
    with pytest.raises(FormatError) as err:
        ftv1.read_tensor(path, expect_rank=2)
    assert err.value.offset == 4


def test_write_rejects_bad_tensors(tmp_path):
    path = tmp_path / "bad.ftv1"
    with pytest.raises(ShapeError):
        ftv1.write_tensor(path, np.float64(3.0))
    with pytest.raises(ShapeError):
        ftv1.write_tensor(path, np.zeros((2, 0)))
    with pytest.raises(NumericError):
        ftv1.write_tensor(path, np.array([np.inf]))
    # Finite in float64 but beyond float32: must not be stored as inf.
    with pytest.raises(NumericError):
        ftv1.write_tensor(path, np.array([1.0, 1e39]))
    assert not path.exists()


def test_read_errors_carry_byte_offsets(tmp_path):
    cases = [
        (b"NOPE" + b"\x00" * 8, 0),  # bad magic
        (b"FTV1\x01\x00", 6),  # rank truncated
        (b"FTV1" + struct.pack("<I", 0), 4),  # rank zero
        (b"FTV1" + struct.pack("<I", 99), 4),  # rank absurd
        (b"FTV1" + struct.pack("<I", 2) + struct.pack("<I", 3), 12),  # dims cut
        (b"FTV1" + struct.pack("<II", 1, 0), 8),  # zero-sized dim
        (b"FTV1" + struct.pack("<II", 1, 2) + struct.pack("<2f", 1, np.nan), 16),
        (b"FTV1" + struct.pack("<II", 1, 1) + struct.pack("<f", np.inf), 12),
    ]
    for i, (payload, offset) in enumerate(cases):
        path = tmp_path / f"bad{i}.bin"
        path.write_bytes(payload)
        with pytest.raises(FormatError) as err:
            ftv1.read_tensor(path)
        assert err.value.offset == offset, f"case {i}"


def test_truncated_and_trailing_payload(tmp_path):
    good = (
        b"FTV1" + struct.pack("<I", 1) + struct.pack("<I", 2) + struct.pack("<2f", 1, 2)
    )
    short = tmp_path / "short.ftv1"
    short.write_bytes(good[:-3])
    with pytest.raises(FormatError, match="truncated payload"):
        ftv1.read_tensor(short)
    long = tmp_path / "long.ftv1"
    long.write_bytes(good + b"\x00")
    with pytest.raises(FormatError, match="trailing") as err:
        ftv1.read_tensor(long)
    assert err.value.offset == len(good)


BLOCK = ftv1._BLOCK_VALUES


def _header(*dims):
    return b"FTV1" + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
def test_round_trip_across_block_boundaries(count, tmp_path):
    arr = make_rng(count).normal(size=count).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.ftv1"
    ftv1.write_tensor(path, arr)
    assert path.read_bytes() == _header(count) + arr.astype("<f4").tobytes()
    np.testing.assert_array_equal(ftv1.read_tensor(path), arr)


def test_non_finite_value_past_the_first_block_reports_its_offset(tmp_path):
    count = 2 * BLOCK + 3
    payload = np.ones(count, dtype="<f4")
    payload[[BLOCK + 1, 2 * BLOCK]] = [np.nan, np.inf]
    path = tmp_path / "nan.ftv1"
    path.write_bytes(_header(count) + payload.tobytes())
    with pytest.raises(FormatError, match="non-finite value nan") as err:
        ftv1.read_tensor(path)
    assert err.value.offset == 12 + 4 * (BLOCK + 1)


def test_truncated_multi_block_payload_reports_real_byte_counts(tmp_path):
    count = 2 * BLOCK + 10
    data = _header(count) + np.ones(count, dtype="<f4").tobytes()
    cut = 12 + 4 * (BLOCK + 3) + 2
    path = tmp_path / "short.ftv1"
    path.write_bytes(data[:cut])
    with pytest.raises(
        FormatError, match=rf"truncated payload: expected {4 * count} bytes, got {cut - 12}"
    ) as err:
        ftv1.read_tensor(path)
    assert err.value.offset == cut


def _read_through_a_pipe(tmp_path, data):
    """``read_tensor`` of ``data`` fed through a named pipe, which has no
    size to check up front."""
    fifo = tmp_path / "pipe.ftv1"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            with contextlib.suppress(BrokenPipeError):
                fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return ftv1.read_tensor(fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()
        fifo.unlink()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_streams_from_a_pipe(tmp_path):
    count = BLOCK + 5
    arr = make_rng(9).normal(size=count).astype(np.float32)
    data = _header(count) + arr.astype("<f4").tobytes()
    np.testing.assert_array_equal(_read_through_a_pipe(tmp_path, data), arr)
    cut = len(data) - 4 * 7 - 1
    with pytest.raises(FormatError, match=rf"expected {4 * count} bytes, got {cut - 12}") as err:
        _read_through_a_pipe(tmp_path, data[:cut])
    assert err.value.offset == cut
    with pytest.raises(FormatError, match="trailing") as err:
        _read_through_a_pipe(tmp_path, data + b"\x00")
    assert err.value.offset == len(data)
    with pytest.raises(FormatError, match="do not fit in memory") as err:
        _read_through_a_pipe(tmp_path, _header(2**32 - 1, 2**32 - 1, 2**32 - 1))
    assert err.value.offset == 8


@pytest.mark.parametrize(
    "bad, message",
    [
        ({-1: 1e39}, "overflow float32 storage"),
        ({0: 1e39, -1: np.nan}, "must be finite"),
    ],
    ids=["overflow in the last block", "overflow first, NaN in the last block"],
)
def test_write_failing_in_a_late_block_leaves_the_old_file(bad, message, tmp_path):
    path = tmp_path / "t.ftv1"
    ftv1.write_tensor(path, np.arange(3.0))
    old = path.read_bytes()
    arr = np.ones(2 * BLOCK + 7)
    for i, value in bad.items():
        arr[i] = value
    with pytest.raises(NumericError, match=message):
        ftv1.write_tensor(path, arr)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["t.ftv1"]


def test_payloads_stream_through_a_bounded_buffer(tmp_path):
    """A write holds no whole-file copy, and a read holds only its float64
    result beside the staging buffer."""
    arr = make_rng(4).normal(size=(8, 256, 1024))
    path = tmp_path / "big.ftv1"
    mib = 1 << 20
    _, write_peak = traced_peak(ftv1.write_tensor, path, arr)
    back, read_peak = traced_peak(ftv1.read_tensor, path)
    np.testing.assert_array_equal(back, arr.astype(np.float32))
    assert write_peak < 3 * mib, write_peak / mib
    assert read_peak < arr.nbytes + 2 * mib, read_peak / mib


@pytest.mark.parametrize("tail", ["d/", "d/.", ".", "d/.."])
@pytest.mark.parametrize("binary", [True, False], ids=["binary", "text"])
def test_a_path_naming_a_directory_is_refused_before_writing(tail, binary, tmp_path):
    """The string is checked, not the Path, which would drop the separator
    and write a file named ``d``."""
    path = f"{tmp_path}{os.sep}{tail}"
    with pytest.raises(ParameterError, match="names a directory"):
        with ftv1._replacing(path, binary=binary):
            pytest.fail("the block must not run")
    with pytest.raises(ParameterError, match="names a directory"):
        ftv1.write_tensor(path, np.ones(2))
    assert os.listdir(tmp_path) == []
