import struct

import numpy as np
import pytest

from framepress import ftv1
from framepress.errors import FormatError, NumericError, ShapeError
from framepress.linalg import as_matrix, make_rng


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
        assert as_matrix(back, ndim=back.ndim) is back


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
