import contextlib
import gc
import io
import json
import math
import os
import runpy
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from framepress import cli, curriculum, ftv1
from framepress.adapter import adapt_video, load_checkpoint, save_checkpoint
from framepress.curriculum import synthetic_manifest
from framepress.encoder import load_features
from framepress.errors import FormatError
from framepress.sampler import load_sampled
from framepress.verify import CheckResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_encode_adapt_compress_assemble_chain(tmp_path, capsys):
    feats = tmp_path / "feats.ftv1"
    ckpt = tmp_path / "ckpt"
    kept = tmp_path / "kept.ftv1"
    seq = tmp_path / "seq.ftv1"

    code, out, _ = run(
        capsys, "encode", "--frames", "4", "--grid", "3x3", "--dim", "8",
        "--seed", "1", "--out", str(feats),
    )
    assert code == 0 and "4 frames x 9 tokens x 8 dims" in out

    code, out, _ = run(
        capsys, "compress", "--features", str(feats), "--checkpoint", str(ckpt),
        "--queries", "6", "--width", "8", "--k", "2", "--out", str(kept),
    )
    assert code == 0 and "top-2 of 6" in out

    code, out, _ = run(
        capsys, "assemble", "--tokens", str(kept), "--prompt-len", "10",
        "--out", str(seq),
    )
    assert code == 0 and "sequence length 18" in out
    assert ftv1.read_tensor(seq, expect_rank=2).shape == (8, 8)


def test_compress_writes_attention_beside_the_tokens(tmp_path, capsys):
    feats = tmp_path / "feats.ftv1"
    run(capsys, "encode", "--frames", "2", "--grid", "2x2", "--dim", "4",
        "--seed", "2", "--out", str(feats))
    code, out, _ = run(
        capsys, "compress", "--features", str(feats), "--queries", "3", "--width", "4", "--k", "2",
        "--out", str(tmp_path / "tok.ftv1"),
        "--attention-out", str(tmp_path / "att.ftv1"),
    )
    assert code == 0
    assert ftv1.read_tensor(tmp_path / "tok.ftv1").shape == (2, 2, 4)
    att = ftv1.read_tensor(tmp_path / "att.ftv1")
    assert att.shape == (2, 3, 4)  # every query row, not only the kept ones
    # float32 storage still keeps rows summing to 1 tightly
    np.testing.assert_allclose(att.sum(axis=2), 1.0, atol=1e-6)


def test_compress_keeping_every_row_by_index_is_the_full_forward(tmp_path, capsys, monkeypatch):
    """At the CLI defaults, compress --k N --order index --attention-out
    writes the tokens and attention of adapt_video, the training forward."""
    feats, ckpt = tmp_path / "feats.ftv1", tmp_path / "ckpt"
    assert run(capsys, "encode", "--out", str(feats))[0] == 0
    written, write_tensor = {}, ftv1.write_tensor

    def recording(path, values):
        written[Path(path).name] = np.array(values)
        write_tensor(path, values)

    monkeypatch.setattr(ftv1, "write_tensor", recording)
    code, _, _ = run(
        capsys, "compress", "--features", str(feats), "--checkpoint", str(ckpt),
        "--k", str(cli.DEFAULT_QUERIES), "--order", "index",
        "--out", str(tmp_path / "tok.ftv1"), "--attention-out", str(tmp_path / "att.ftv1"),
    )
    assert code == 0
    tokens, attention = adapt_video(load_features(feats), load_checkpoint(ckpt))
    np.testing.assert_allclose(written["tok.ftv1"], tokens, rtol=0, atol=1e-12)
    np.testing.assert_allclose(written["att.ftv1"], attention, rtol=0, atol=1e-12)


def test_encode_from_npy_images(tmp_path, capsys):
    rng = np.random.default_rng(3)
    for i in range(2):
        np.save(tmp_path / f"img{i}.npy", rng.random((4, 4, 3)))
    code, out, _ = run(
        capsys, "encode",
        "--images", str(tmp_path / "img0.npy"), str(tmp_path / "img1.npy"),
        "--patch", "2", "--dim", "6", "--out", str(tmp_path / "f.ftv1"),
    )
    assert code == 0
    assert ftv1.read_tensor(tmp_path / "f.ftv1").shape == (2, 2, 2, 6)


def test_encode_synthetic_defaults(tmp_path, capsys):
    """Without --frames, --grid and --seed, synthetic frames are 8 frames of
    an 8x8 grid drawn from seed 0."""
    plain, explicit = tmp_path / "plain.ftv1", tmp_path / "explicit.ftv1"
    assert run(capsys, "encode", "--dim", "4", "--out", str(plain))[0] == 0
    code, _, _ = run(
        capsys, "encode", "--frames", "8", "--grid", "8x8", "--seed", "0", "--dim", "4",
        "--out", str(explicit),
    )
    assert code == 0
    assert plain.read_bytes() == explicit.read_bytes()
    assert ftv1.read_tensor(plain).shape == (8, 8, 8, 4)


def test_encode_images_default_patch(tmp_path, capsys):
    """Without --patch, --images files are cut into 14x14 patches."""
    argv = _encode_images(tmp_path, (28, 42, 3))
    plain, explicit = tmp_path / "f.ftv1", tmp_path / "explicit.ftv1"
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv[:-1], str(explicit), "--patch", "14")[0] == 0
    assert plain.read_bytes() == explicit.read_bytes()
    assert ftv1.read_tensor(plain).shape == (1, 2, 3, 64)


@pytest.mark.parametrize("command", ["compress"])
def test_nan_features_file_exits_2_naming_the_byte(command, tmp_path, capsys):
    """Finiteness is checked once, as the file is read, with the byte offset."""
    feats, out_path = _fuzz_features(tmp_path)[0], tmp_path / "k.ftv1"
    capsys.readouterr()
    data = bytearray(feats.read_bytes())
    at = 8 + 4 * 4 + 4 * 5  # header of a rank-4 file, then value 5
    data[at : at + 4] = struct.pack("<f", math.nan)
    feats.write_bytes(bytes(data))
    code, out, err = run(capsys, command, "--features", str(feats), "--out", str(out_path), "--k", "2")
    assert (code, out) == (2, "")
    assert err == f"error: non-finite value nan (at byte {at})\n"
    assert not out_path.exists()


def test_cost_calibrates_from_csv(tmp_path, capsys):
    csv = tmp_path / "measured.csv"
    csv.write_text("k,tflops\n4,32.14\n16,33.47\n32,35.24\n64,38.79\n", encoding="utf-8")
    code, out, _ = run(capsys, "cost", "--calibrate", str(csv), "--k", "4,64")
    assert code == 0
    assert "overhead_tflops" in out
    assert out.count("residual=") == 4
    last = out.strip().splitlines()[-1]
    assert last.startswith("64,")


def test_cost_csv_first_row_with_a_signed_k_enters_the_fit(tmp_path, capsys):
    """Line 1 is a header only when its first field is not a number, so a
    first row whose k is written +4 is data, as it is on later lines."""
    rows = "4,32.14\n16,33.47\n32,35.24\n64,38.79\n"
    outs = []
    for text in ("k,tflops\n" + rows, "+" + rows):
        code, out, _ = run(capsys, *_cost_with_csv(tmp_path, text))
        assert code == 0
        outs.append(out)
    assert outs[1] == outs[0] and outs[1].count("residual=") == 4


def test_cost_csv_header_after_a_blank_line(tmp_path, capsys):
    """The header test applies to the first non-blank line, wherever it is."""
    code, out, err = run(capsys, *_cost_with_csv(tmp_path, "\nk,tflops\n4,32.14\n16,33.47\n"))
    assert (code, err) == (0, "")
    assert out.count("residual=") == 2


def test_cost_uses_builtin_reference_by_default(capsys):
    code, out, _ = run(capsys, "cost")
    assert code == 0
    assert "k=256" in out
    # The sweep over the reference budgets: c0 + c1*k, all of it decoder-linear.
    assert out.splitlines()[-7:] == [
        "k,total_tflops,encoder,adapter,llm_linear",
        "4,32.138850,0.000000,0.000000,32.138850",
        "16,33.468856,0.000000,0.000000,33.468856",
        "32,35.242197,0.000000,0.000000,35.242197",
        "64,38.788879,0.000000,0.000000,38.788879",
        "128,45.882244,0.000000,0.000000,45.882244",
        "256,60.068973,0.000000,0.000000,60.068973",
    ]


def test_subsample_and_filter(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 40, 2, seed=4)
    code, out, _ = run(
        capsys, "subsample", str(manifest), "--fraction", "0.25", "--seed", "6",
        "--out", str(tmp_path / "sub.jsonl"),
    )
    assert code == 0 and "-> 10 videos" in out

    code, out, _ = run(
        capsys, "filter", str(manifest), "--types", "vqa,reasoning",
        "--out", str(tmp_path / "f.jsonl"),
    )
    assert code == 0
    kept = [json.loads(line) for line in (tmp_path / "f.jsonl").read_text().splitlines()]
    assert kept and all(r["data_type"] in {"vqa", "reasoning"} for r in kept)


def test_filter_unknown_type_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 3, 1, seed=5)
    code, _, err = run(
        capsys, "filter", str(manifest), "--types", "haiku",
        "--out", str(tmp_path / "f.jsonl"),
    )
    assert code == 2 and "error:" in err


def _write(path, data):
    """Write ``data``, text as UTF-8 or bytes as they are."""
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)


def _assemble_with_sidecar(tmp_path, sidecar):
    """``assemble`` argv for a valid 2-frame, keep-2 token file whose index
    sidecar holds ``sidecar``."""
    kept = tmp_path / "kept.ftv1"
    ftv1.write_tensor(kept, np.zeros((2, 2, 3)))
    _write(tmp_path / "kept.ftv1.json", sidecar)
    return ["assemble", "--tokens", str(kept)]


def _cost_with_csv(tmp_path, text):
    csv = tmp_path / "measured.csv"
    _write(csv, text)
    return ["cost", "--calibrate", str(csv)]


def _encode_images(tmp_path, *shapes):
    paths = [str(tmp_path / f"img{i}.npy") for i in range(len(shapes))]
    for path, shape in zip(paths, shapes):
        np.save(path, np.full(shape, 0.5))
    return ["encode", "--images", *paths, "--out", str(tmp_path / "f.ftv1")]


def _encode_npy(tmp_path, data):
    """``encode --images`` of one ``.npy`` file holding ``data``, or the
    bytes ``data`` when it is not an array."""
    path = tmp_path / "img0.npy"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        np.save(path, data, allow_pickle=True)
    return ["encode", "--images", str(path), "--patch", "2", "--out", str(tmp_path / "f.ftv1")]


def _npz_bytes(array):
    """The bytes of an ``np.savez`` archive holding ``array``."""
    buf = io.BytesIO()
    np.savez(buf, pixels=array)
    return buf.getvalue()


def _train_toy_with_config(tmp_path, text):
    cfg = tmp_path / "toy.json"
    cfg.write_text(text, encoding="utf-8")
    return ["train-toy", "--config", str(cfg)]


def _with_checkpoint(tmp_path, *flags):
    """``compress`` argv against a 6-query, 8-wide checkpoint, plus ``flags``."""
    feats, ckpt = tmp_path / "feats.ftv1", tmp_path / "ckpt"
    assert cli.main(["encode", "--frames", "2", "--grid", "2x2", "--dim", "4", "--out", str(feats)]) == 0
    argv = ["compress", "--features", str(feats), "--checkpoint", str(ckpt), "--out", str(tmp_path / "o.ftv1"),
            "--k", "2"]
    assert cli.main([*argv, "--queries", "6", "--width", "8"]) == 0
    return argv + list(flags)


def _out_in_checkpoint(tmp_path, file):
    """``compress`` argv against a checkpoint, with ``--out`` naming ``file`` in it."""
    argv = _with_checkpoint(tmp_path)
    argv[argv.index("--out") + 1] = str(tmp_path / "ckpt" / file)
    return argv


def _with_header(tmp_path, old, new):
    """``compress`` against a checkpoint whose header has ``old`` replaced
    by ``new``."""
    argv = _with_checkpoint(tmp_path)
    header = tmp_path / "ckpt" / "adapter.json"
    header.write_bytes(header.read_bytes().replace(old, new))
    return argv


BAD_INPUTS = {
    "missing features": lambda tmp: [
        "compress", "--features", str(tmp / "absent.ftv1"), "--k", "2", "--out", str(tmp / "k.ftv1")
    ],
    "missing tokens": lambda tmp: ["assemble", "--tokens", str(tmp / "absent.ftv1")],
    "missing images": lambda tmp: [
        "encode", "--images", str(tmp / "absent.npy"), "--out", str(tmp / "f.ftv1")
    ],
    "non-integer --k": lambda tmp: ["cost", "--k", "a,b"],
    "non-numeric csv": lambda tmp: _cost_with_csv(tmp, "k,tflops\n4,32.1\n16,lots\n"),
    "infinite csv tflops": lambda tmp: _cost_with_csv(tmp, "k,tflops\n4,32.1\n16,inf\n"),
    "csv tflops past float range": lambda tmp: _cost_with_csv(tmp, "k,tflops\n4,32.1\n16,1e400\n"),
    "negative csv tflops": lambda tmp: _cost_with_csv(
        tmp, "k,tflops\n4,32.14\n16,33.47\n32,35.24\n64,-1\n"
    ),
    "csv k of zero": lambda tmp: _cost_with_csv(tmp, "k,tflops\n0,30.0\n16,33.47\n"),
    "sidecar not an object": lambda tmp: _assemble_with_sidecar(tmp, "[2]"),
    "sidecar without keep": lambda tmp: _assemble_with_sidecar(tmp, '{"indices": [[0, 1], [0, 1]]}'),
    "sidecar keep not integer": lambda tmp: _assemble_with_sidecar(
        tmp, '{"keep": "2", "indices": [[0, 1], [0, 1]]}'
    ),
    "sidecar indices not TxK": lambda tmp: _assemble_with_sidecar(
        tmp, '{"keep": 2, "indices": [[0, 1], "ab"]}'
    ),
    "sidecar keep differs from the token file": lambda tmp: _assemble_with_sidecar(
        tmp, '{"keep": 3, "indices": [[0, 1, 2], [0, 1, 2]]}'
    ),
    "sidecar indices not integers": lambda tmp: _assemble_with_sidecar(
        tmp, '{"keep": 2, "indices": [[0, 1], [0, 1.5]]}'
    ),
    "malformed config": lambda tmp: _train_toy_with_config(tmp, '{"steps": 5'),
    "config value of the wrong type": lambda tmp: _train_toy_with_config(tmp, '{"steps": "2"}'),
    "config int given a bool": lambda tmp: _train_toy_with_config(tmp, '{"frames": true}'),
    "compress --queries conflicts with checkpoint": lambda tmp: _with_checkpoint(tmp, "--queries", "12"),
    "compress --width conflicts with checkpoint": lambda tmp: _with_checkpoint(tmp, "--width", "16"),
    "mismatched --images sizes": lambda tmp: _encode_images(tmp, (28, 28, 3), (28, 42, 3)),
    "negative --frames": lambda tmp: ["encode", "--frames", "-1", "--out", str(tmp / "f.ftv1")],
    "non-UTF-8 csv": lambda tmp: _cost_with_csv(tmp, b"k,tflops\n4,32.1\xff\n"),
    "non-UTF-8 sidecar": lambda tmp: _assemble_with_sidecar(
        tmp, b'{"keep": 2, "indices": [[0, 1], [0, 1]]}\xff'
    ),
    "non-UTF-8 checkpoint header": lambda tmp: _with_header(tmp, b"}", b"}\xff"),
    "checkpoint header without scale": lambda tmp: _with_header(tmp, b'"scale"', b'"sbale"'),
    "checkpoint of a later version": lambda tmp: _with_header(tmp, b'"version": 1', b'"version": 2'),
    "--grid not HxW": lambda tmp: ["encode", "--grid", "8by8", "--out", str(tmp / "f.ftv1")],
    "checkpoint scale other than 1/sqrt(width)": lambda tmp: _with_header(
        tmp, b'"scale": 0.', b'"scale": 1.'
    ),
    "negative encode --seed": lambda tmp: ["encode", "--seed", "-1", "--out", str(tmp / "f.ftv1")],
    "negative subsample --seed": lambda tmp: [
        "subsample", str(_manifest(tmp)), "--fraction", "0.5", "--seed", "-1", "--out", str(tmp / "o.jsonl")
    ],
    "negative config seed": lambda tmp: _train_toy_with_config(tmp, '{"seed": -1}'),
    "--images with no files": lambda tmp: ["encode", "--images", "--out", str(tmp / "f.ftv1")],
    "--frames with --images": lambda tmp: _encode_images(tmp, (28, 28, 3)) + ["--frames", "5"],
    "--grid with --images": lambda tmp: _encode_images(tmp, (28, 28, 3)) + ["--grid", "3x3"],
    "--seed with --images": lambda tmp: _encode_images(tmp, (28, 28, 3)) + ["--seed", "4"],
    "negative --width for a new checkpoint": lambda tmp: _fuzz_features(tmp)[1] + ["--width", "-1"],
    "cost --k with a zero": lambda tmp: ["cost", "--k", "4,0"],
    "cost --k past float range": lambda tmp: ["cost", "--k", "4,1" + "0" * 400],
    "csv k past float range": lambda tmp: _cost_with_csv(tmp, f"k,tflops\n4,32.1\n1{'0' * 400},33\n"),
    "csv tflops overflowing the fit": lambda tmp: _cost_with_csv(tmp, "k,tflops\n4,1e308\n8,0\n"),
    "cost total past float range": lambda tmp: _cost_with_csv(tmp, "k,tflops\n1,1e300\n2,2e300\n") + [
        "--k", "10000000000"
    ],
    "compress --k refused with a new checkpoint": lambda tmp: _fuzz_features(tmp)[1] + [
        "--checkpoint", str(tmp / "ckpt"), "--k", "99"
    ],
    "text file as --images": lambda tmp: _encode_npy(tmp, b"0.5 0.5 0.5\n"),
    "empty file as --images": lambda tmp: _encode_npy(tmp, b""),
    "zip-like file as --images": lambda tmp: _encode_npy(tmp, b"PK\x03\x04 not a zip"),
    "object array as --images": lambda tmp: _encode_npy(tmp, np.full((2, 2, 3), None)),
    "string array as --images": lambda tmp: _encode_npy(tmp, np.full((2, 2, 3), "0.5")),
    "complex array as --images": lambda tmp: _encode_npy(tmp, np.full((2, 2, 3), 0.5 + 0.5j)),
    ".npz archive as --images": lambda tmp: _encode_npy(tmp, _npz_bytes(np.full((2, 2, 3), 0.5))),
    "sidecar index >= queries": lambda tmp: _assemble_with_sidecar(
        tmp, '{"keep": 2, "queries": 2, "indices": [[0, 1], [1, 2]]}'
    ),
    "sidecar queries not integer": lambda tmp: _assemble_with_sidecar(
        tmp, '{"keep": 2, "queries": 4.0, "indices": [[0, 1], [0, 1]]}'
    ),
    "--patch without --images": lambda tmp: ["encode", "--patch", "0", "--out", str(tmp / "a.ftv1")],
    "encode --out ending in a separator": lambda tmp: [
        "encode", "--frames", "1", "--grid", "2x2", "--dim", "4", "--out", f"{tmp / 'd'}{os.sep}"
    ],
    "compress --out ending in a separator": lambda tmp: _fuzz_features(tmp)[1][:-1] + [f"{tmp / 'd'}{os.sep}"],
    "plan --out ending in a separator": lambda tmp: [
        "plan", "--strategy", "S4-V", "--out", f"{tmp / 'd'}{os.sep}"
    ],
    "compress --attention-out ending in a separator": lambda tmp: _fuzz_features(tmp)[1] + [
        "--attention-out", f"{tmp / 'd'}{os.sep}"
    ],
    "compress --out and --attention-out one file": lambda tmp: _fuzz_features(tmp)[1] + [
        "--attention-out", str(tmp / "k.ftv1")
    ],
    "compress --attention-out naming --out relatively": lambda tmp: _fuzz_features(tmp)[1] + [
        "--attention-out", os.path.join(".", os.path.relpath(tmp / "k.ftv1"))
    ],
    "compress --out onto a checkpoint table": lambda tmp: _out_in_checkpoint(tmp, "queries.ftv1"),
    "compress --out whose sidecar is the checkpoint header": lambda tmp: _out_in_checkpoint(tmp, "adapter"),
    "compress --out onto the temporal table": lambda tmp: _out_in_checkpoint(tmp, "temporal.ftv1"),
    "verify --report ending in a separator": lambda tmp: ["verify", "--report", f"{tmp / 'd'}{os.sep}"],
    "train-toy --report ending in a separator": lambda tmp: [
        "train-toy", "--report", f"{tmp / 'd'}{os.sep}"
    ],
    # Sizes no machine can map: 4.4 EiB of features, a 512 PiB frequency
    # table, and a batch whose byte count overflows numpy's index range.
    "encode --grid too large to allocate": lambda tmp: [
        "encode", "--frames", "1", "--grid", "99999999x99999999", "--out", str(tmp / "f.ftv1")
    ],
    "compress --width too large to allocate": lambda tmp: _fuzz_features(tmp)[1] + [
        "--queries", "99999999999", "--width", str(2**58)
    ],
    "config sizes too large to allocate": lambda tmp: _train_toy_with_config(
        tmp, '{"frames": 99999999999, "grid_h": 99999999, "steps": 1}'
    ),
    "csv first k written 4.0": lambda tmp: _cost_with_csv(tmp, "4.0,32.14\n16,33.47\n32,35.24\n"),
    # An empty value would otherwise read as the flag left out.
    "compress --checkpoint empty": lambda tmp: _fuzz_features(tmp)[1] + ["--checkpoint", ""],
    "compress --attention-out empty": lambda tmp: _fuzz_features(tmp)[1] + ["--attention-out", ""],
    "assemble --out empty": lambda tmp: _fuzz_kept(tmp, "")[1] + ["--out", ""],
    "plan --out empty": lambda tmp: ["plan", "--strategy", "S4-V", "--out", ""],
    "train-toy --report empty": lambda tmp: ["train-toy", "--report", ""],
    "train-toy --config empty": lambda tmp: ["train-toy", "--config", ""],
    "verify --report empty": lambda tmp: ["verify", "--report", ""],
    "cost --k empty": lambda tmp: ["cost", "--k", ""],
    "cost --calibrate empty": lambda tmp: ["cost", "--calibrate", ""],
    # Documents json refuses with RecursionError or a ValueError of its own.
    "config nested too deeply": lambda tmp: _train_toy_with_config(tmp, "[" * 200_000),
    "checkpoint header nested too deeply": lambda tmp: _with_header(tmp, b"{", b"[" * 200_000),
    "checkpoint version of 5,000 digits": lambda tmp: _with_header(
        tmp, b'"version": 1', b'"version": ' + b"1" * 5000
    ),
    "sidecar nested too deeply": lambda tmp: _assemble_with_sidecar(tmp, "[" * 200_000),
    "sidecar keep of 5,000 digits": lambda tmp: _assemble_with_sidecar(
        tmp, '{"keep": ' + "1" * 5000 + ', "indices": [[0, 1], [0, 1]]}'
    ),
}

# What each case's error message must name.
NAMED_IN_ERROR = {
    "non-UTF-8 csv": "measured.csv",
    "infinite csv tflops": "measured.csv:3: tflops must be finite and >= 0, got 'inf'",
    "csv tflops past float range": "measured.csv:3: tflops must be finite and >= 0, got '1e400'",
    "negative csv tflops": "measured.csv:5: tflops must be finite and >= 0, got '-1'",
    "csv k of zero": "measured.csv:2: k must be >= 1, got 0",
    "cost --k with a zero": "--k values must be >= 1, got 0",
    "cost --k past float range": "--k values must be at most 1.8e+308",
    "csv k past float range": "measured.csv:3: k must be at most 1.8e+308",
    "csv tflops overflowing the fit": "the fit of c0 and c1 to these points overflows",
    "cost total past float range": "the cost at k=10000000000 overflows float64",
    "compress --k refused with a new checkpoint": "k must be in [1, 32], got 99",
    "non-UTF-8 sidecar": "kept.ftv1.json",
    "sidecar keep differs from the token file": "kept.ftv1.json",
    "non-UTF-8 checkpoint header": "adapter.json",
    "checkpoint scale other than 1/sqrt(width)": "checkpoint scale 1.3535533905932737",
    "checkpoint of a later version": "unsupported checkpoint version 2",
    "--grid not HxW": "grid must look like 8x8, got '8by8'",
    "mismatched --images sizes": "frame 1 shape (2, 3, 64) differs from frame 0 (2, 2, 64)",
    "negative encode --seed": "seed must be >= 0, got -1",
    "--frames with --images": "--frames",
    "--grid with --images": "--grid",
    "--seed with --images": "--seed",
    "negative subsample --seed": "seed must be >= 0, got -1",
    "negative config seed": "seed must be >= 0, got -1",
    "text file as --images": "img0.npy",
    "empty file as --images": "img0.npy",
    "zip-like file as --images": "img0.npy",
    "object array as --images": "img0.npy",
    "string array as --images": "dtype <U3",
    "complex array as --images": "dtype complex128",
    ".npz archive as --images": "img0.npy: an .npz archive",
    "sidecar index >= queries": "kept.ftv1.json",
    "sidecar queries not integer": "kept.ftv1.json",
    "--patch without --images": "--patch",
    "encode --out ending in a separator": f"d{os.sep} names a directory",
    "compress --out ending in a separator": f"d{os.sep} names a directory",
    "plan --out ending in a separator": f"d{os.sep} names a directory",
    "compress --attention-out ending in a separator": f"d{os.sep} names a directory",
    "compress --out and --attention-out one file": "--out and --attention-out name the same file",
    "compress --attention-out naming --out relatively": "--out and --attention-out name the same file",
    "compress --out onto a checkpoint table": "--out and --checkpoint name the same file",
    "compress --out whose sidecar is the checkpoint header": (
        "--out's index sidecar and --checkpoint name the same file"
    ),
    "compress --out onto the temporal table": "--out and --checkpoint name the same file",
    "verify --report ending in a separator": f"d{os.sep} names a directory",
    "train-toy --report ending in a separator": f"d{os.sep} names a directory",
    "encode --grid too large to allocate": "(1, 99999999, 99999999, 64)",
    "compress --width too large to allocate": "do not fit in memory",
    "config sizes too large to allocate": "do not fit in memory",
    "csv first k written 4.0": "measured.csv:1: expected 'k,tflops', got '4.0,32.14'",
    "compress --checkpoint empty": "--checkpoint must not be empty",
    "compress --attention-out empty": "--attention-out must not be empty",
    "assemble --out empty": "--out must not be empty",
    "plan --out empty": "--out must not be empty",
    "train-toy --report empty": "--report must not be empty",
    "train-toy --config empty": "--config must not be empty",
    "verify --report empty": "--report must not be empty",
    "cost --k empty": "--k must not be empty",
    "cost --calibrate empty": "--calibrate must not be empty",
    "config nested too deeply": "unreadable config",
    "checkpoint header nested too deeply": "unreadable checkpoint header",
    "checkpoint version of 5,000 digits": "unreadable checkpoint header",
    "sidecar nested too deeply": "unreadable index sidecar",
    "sidecar keep of 5,000 digits": "unreadable index sidecar",
}


# The work a case's output path must be refused before.
NEVER_CALLED = {
    "compress --out and --attention-out one file": "compress_video",
    "compress --attention-out naming --out relatively": "compress_video",
    "compress --out onto a checkpoint table": "load_features",
    "compress --out whose sidecar is the checkpoint header": "load_features",
    "compress --out onto the temporal table": "load_features",
    "verify --report ending in a separator": "verify_all",
    "train-toy --report ending in a separator": "train_toy",
    "train-toy --report empty": "train_toy",
    "train-toy --config empty": "train_toy",
    "verify --report empty": "verify_all",
}


def _tree(root):
    """Every file and directory under ``root``, with each file's bytes."""
    return {p.relative_to(root): p.is_file() and p.read_bytes() for p in root.rglob("*")}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(case, tmp_path, capsys, monkeypatch):
    argv = BAD_INPUTS[case](tmp_path)
    if case in NEVER_CALLED:
        monkeypatch.setattr(cli, NEVER_CALLED[case], lambda *a: pytest.fail("ran before the path check"))
    capsys.readouterr()  # drop what setting up the inputs printed
    files = _tree(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow warnings
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert NAMED_IN_ERROR.get(case, "") in err
    assert _tree(tmp_path) == files  # nothing written, in subdirectories too


def test_an_unexpected_value_error_is_raised_not_reported(monkeypatch):
    """Only numpy's size refusals exit 2; any other ValueError is a bug."""

    def broken(*args, **kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr(curriculum, "make_plan", broken)
    with pytest.raises(ValueError, match="math domain error"):
        cli.main(["plan", "--strategy", "S4-V"])


def test_the_module_runs_as_a_script(monkeypatch, capsys):
    argv = ["plan", "--strategy", "S4-V"]
    code, want, _ = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["framepress", *argv])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exit_:
        warnings.simplefilter("ignore", RuntimeWarning)  # runpy: framepress.cli is already imported
        runpy.run_module("framepress.cli", run_name="__main__")
    assert exit_.value.code == code == 0
    assert capsys.readouterr().out == want


def test_zip_like_images_file_is_closed(tmp_path, capsys):
    argv = _encode_npy(tmp_path, b"PK\x03\x04 not a zip")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _, err = run(capsys, *argv)
        gc.collect()
    assert code == 2 and "img0.npy" in err
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def _fuzz_features(tmp):
    feats = tmp / "feats.ftv1"
    assert cli.main(["encode", "--frames", "2", "--grid", "2x2", "--dim", "4", "--out", str(feats)]) == 0
    return feats, ["compress", "--features", str(feats), "--k", "2", "--out", str(tmp / "k.ftv1")]


def _fuzz_kept(tmp, suffix):
    _, compress = _fuzz_features(tmp)
    assert cli.main(compress) == 0
    return tmp / f"k.ftv1{suffix}", ["assemble", "--tokens", str(tmp / "k.ftv1")]


def _fuzz_config(tmp):
    argv = _train_toy_with_config(tmp, json.dumps({
        "steps": 2, "frames": 2, "grid_h": 2, "grid_w": 2, "feature_dim": 4, "queries": 4,
        "embed_dim": 8, "keep": 2, "signal_patches": 1, "out_dim": 2, "batch_videos": 2,
    }))
    return tmp / "toy.json", argv


def _fuzz_manifest(tmp):
    argv = ["subsample", str(_manifest(tmp)), "--fraction", "0.5", "--seed", "3", "--qa-cap", "1",
            "--out", str(tmp / "out.jsonl")]
    return tmp / "m.jsonl", argv


# Each builds valid inputs under a directory and returns the file to corrupt
# and the argv that reads it.
FUZZ_TARGETS = {
    "features": _fuzz_features,
    "kept tokens": lambda tmp: _fuzz_kept(tmp, ""),
    "sidecar": lambda tmp: _fuzz_kept(tmp, ".json"),
    "checkpoint header": lambda tmp: (tmp / "ckpt" / "adapter.json", _with_checkpoint(tmp)),
    "calibration csv": lambda tmp: (
        tmp / "measured.csv", _cost_with_csv(tmp, "k,tflops\n4,32.14\n16,33.47\n32,35.24\n64,38.79\n")
    ),
    "config": _fuzz_config,
    "manifest": _fuzz_manifest,
}


@pytest.mark.parametrize("target", list(FUZZ_TARGETS))
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(truncate=st.booleans(), where=st.integers(0, 2**16), mask=st.integers(1, 255))
@example(truncate=False, where=0, mask=0x80)  # a byte that is not UTF-8
def test_corrupted_inputs_never_end_in_a_traceback(target, truncate, where, mask, tmp_path, capsys):
    """Flip the bits of one byte, or truncate, in a file a subcommand reads:
    the command succeeds or fails with one error line, never a traceback."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        path, argv = FUZZ_TARGETS[target](Path(tmp))
        capsys.readouterr()
        data = path.read_bytes()
        at = where % len(data)
        path.write_bytes(data[:at] if truncate else data[:at] + bytes([data[at] ^ mask]) + data[at + 1:])
        code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    if code == 2:
        assert err.startswith("error: "), err


def _flags(**values):
    """argv flags ``--name=value`` for drawn values; the ``=`` form lets
    argparse take values that start with '-'."""
    names = [name.replace("_", "-") for name in values]
    return st.tuples(*values.values()).map(
        lambda drawn: [f"--{name}={value}" for name, value in zip(names, drawn)]
    )


SIZES = st.integers(-1, 3)
SEEDS = st.integers(-3, 3)
# Sizes no machine can map: with every other size >= 1, 2**56 values of 8
# bytes pass any 64-bit address space, and 2**64 passes numpy's index range.
HUGE = st.sampled_from([2**56, 2**64])


def _encode_one_image(tmp):
    np.save(tmp / "img.npy", np.full((6, 6, 3), 0.5))
    return ["encode", "--images", str(tmp / "img.npy"), "--out", str(tmp / "f.ftv1")]


# Each command: the argv of its fixed inputs, built under a directory, and a
# strategy for the flags drawn on top. Sizes stay tiny, at most 3 frames and
# grid sides, 8 dims, unless they are too large for any machine to allocate.
ARGV_FUZZ = {
    "encode": (
        lambda tmp: ["encode", "--out", str(tmp / "f.ftv1")],
        _flags(
            frames=SIZES | HUGE,
            grid=st.tuples(SIZES | HUGE, SIZES | HUGE).map(lambda g: f"{g[0]}x{g[1]}"),
            dim=st.integers(-1, 8) | HUGE,
            seed=SEEDS | HUGE,
        ),
    ),
    "encode --images": (
        _encode_one_image,
        _flags(patch=SIZES | HUGE, dim=st.integers(-1, 8) | HUGE),
    ),
    "compress": (
        lambda tmp: [
            "compress", "--features", str(_fuzz_features(tmp)[0]), "--out", str(tmp / "kept.ftv1")
        ],
        _flags(k=st.integers(-1, 5), queries=st.integers(-1, 4), width=st.integers(-1, 8), seed=SEEDS),
    ),
    "assemble": (lambda tmp: _fuzz_kept(tmp, "")[1], _flags(prompt_len=st.integers(-2, 3))),
    "cost": (
        lambda tmp: ["cost"],
        _flags(
            k=st.lists(st.integers(-1, 300), min_size=1, max_size=3).map(
                lambda ks: ",".join(map(str, ks))
            ),
        ),
    ),
    "subsample": (
        lambda tmp: ["subsample", str(_manifest(tmp)), "--out", str(tmp / "out.jsonl")],
        _flags(
            fraction=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.5]) | st.floats(-2, 2),
            seed=SEEDS,
            qa_cap=st.integers(-1, 3),
        ),
    ),
}


@pytest.mark.parametrize("command", list(ARGV_FUZZ))
def test_fuzzed_flags_never_end_in_a_traceback(command, tmp_path, capsys):
    """Drawn flag values, zero and negative ones included: the command
    succeeds, or fails with one error line and prints nothing to stdout."""
    inputs, flags = ARGV_FUZZ[command]
    argv = inputs(tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(drawn=flags)
    def check(drawn):
        capsys.readouterr()
        code, out, err = run(capsys, *argv, *drawn)
        assert code in (0, 1, 2)
        assert err.count("\n") <= 1 and "Traceback" not in err, err
        if code == 2:
            assert err.startswith("error: ") and out == "", (err, out)

    check()


def test_checkpoint_header_is_written_last(tmp_path, capsys, monkeypatch):
    """A checkpoint write that fails partway leaves no header, so the next
    run starts the checkpoint afresh instead of failing on it."""
    feats, ckpt = tmp_path / "feats.ftv1", tmp_path / "ckpt"
    assert cli.main(["encode", "--frames", "2", "--grid", "2x2", "--dim", "4", "--out", str(feats)]) == 0
    argv = ["compress", "--features", str(feats), "--checkpoint", str(ckpt), "--k", "2",
            "--out", str(tmp_path / "k.ftv1")]
    write_tensor, calls = ftv1.write_tensor, []

    def fail_third_write(path, values):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        write_tensor(path, values)

    monkeypatch.setattr(ftv1, "write_tensor", fail_third_write)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (2, "error: disk full\n")
    assert not (ckpt / "adapter.json").exists()
    monkeypatch.setattr(ftv1, "write_tensor", write_tensor)
    assert run(capsys, *argv)[0] == 0
    params = load_checkpoint(ckpt)
    # Overwriting an existing checkpoint drops its old header first.
    calls.clear()
    monkeypatch.setattr(ftv1, "write_tensor", fail_third_write)
    with pytest.raises(OSError):
        save_checkpoint(params, ckpt)
    assert not (ckpt / "adapter.json").exists()
    monkeypatch.setattr(ftv1, "write_tensor", write_tensor)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "top-2 of 32" in out
    back = load_checkpoint(ckpt)
    for name in ("input_proj", "queries", "pos_table", "temporal"):
        np.testing.assert_array_equal(getattr(back, name), getattr(params, name))
    assert sorted(os.listdir(ckpt)) == [
        "adapter.json", "input_proj.ftv1", "pos_table.ftv1", "queries.ftv1", "temporal.ftv1",
    ]


def test_sidecar_is_written_last(tmp_path, capsys, monkeypatch):
    """A compress whose sidecar write fails leaves no sidecar, so the new
    tokens never load beside the index of older ones."""
    out = tmp_path / "k.ftv1"

    def compress(seed):
        feats = tmp_path / f"feats{seed}.ftv1"
        assert cli.main(["encode", "--frames", "2", "--grid", "2x2", "--dim", "4",
                         "--seed", str(seed), "--out", str(feats)]) == 0
        return run(capsys, "compress", "--features", str(feats), "--k", "2", "--out", str(out))

    assert compress(1)[0] == 0
    load_sampled(out)

    replacing = ftv1._replacing

    @contextlib.contextmanager
    def failing(path, binary=False):
        if not binary:  # FTV1 tensors are written; the text sidecar fails
            raise OSError("disk full")
        with replacing(path, binary=True) as fh:
            yield fh

    monkeypatch.setattr(ftv1, "_replacing", failing)
    code, _, err = compress(2)
    assert (code, err) == (2, "error: disk full\n")
    with pytest.raises(FormatError, match="missing index sidecar"):
        load_sampled(out)


def test_compress_refused_for_its_values_leaves_the_old_pair(tmp_path, capsys):
    """Tokens float32 cannot store are refused before the old sidecar is
    removed, so the older pair still assembles."""
    feats, big, kept = tmp_path / "f.ftv1", tmp_path / "big.ftv1", tmp_path / "kept.ftv1"
    assert run(capsys, "encode", "--dim", "8", "--out", str(feats))[0] == 0
    compress = ["compress", "--k", "4", "--queries", "8", "--width", "8", "--out", str(kept)]
    assert run(capsys, *compress, "--features", str(feats))[0] == 0
    old = load_sampled(kept)
    ftv1.write_tensor(big, np.full(ftv1.read_tensor(feats).shape, 3e38))
    code, _, err = run(capsys, *compress, "--features", str(big))
    assert (code, err) == (2, "error: FTV1 values overflow float32 storage\n")
    back = load_sampled(kept)
    np.testing.assert_array_equal(back.indices, old.indices)
    np.testing.assert_array_equal(back.tokens, old.tokens)
    assert run(capsys, "assemble", "--tokens", str(kept))[0] == 0


class _HalfWriter:
    """A file whose first write stops halfway with a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")


def _failing_midway(replacing):
    """A stand-in for ``ftv1._replacing`` whose writes fail partway."""

    @contextlib.contextmanager
    def failing_midway(path, binary=False):
        with replacing(path, binary=binary) as fh:
            yield _HalfWriter(fh)

    return failing_midway


# Each: the argv that writes a text output to the given path.
TEXT_OUTPUTS = {
    "plan --out": lambda out: ["plan", "--strategy", "S4-V", "--out", str(out)],
    "train-toy --report": lambda out: _fuzz_config(out.parent)[1] + ["--report", str(out)],
    "verify --report": lambda out: ["verify", "--report", str(out)],
}


@pytest.mark.parametrize("command", list(TEXT_OUTPUTS))
def test_text_outputs_are_replaced_atomically(command, tmp_path, capsys, monkeypatch):
    """A write that fails partway leaves the old output whole and no
    temporary file beside it."""
    import framepress.verify as verify_mod

    monkeypatch.setattr(verify_mod, "ALL_CHECKS", (verify_mod.check_sequence_arithmetic,))  # quick
    out = tmp_path / "out.json"
    argv = TEXT_OUTPUTS[command](out)
    out.write_text("an older output\n", encoding="utf-8")
    replacing = ftv1._replacing
    monkeypatch.setattr(ftv1, "_replacing", _failing_midway(replacing))
    files = sorted(os.listdir(tmp_path))
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", "error: disk full\n")
    assert out.read_text(encoding="utf-8") == "an older output\n"
    assert sorted(os.listdir(tmp_path)) == files
    monkeypatch.setattr(ftv1, "_replacing", replacing)
    assert run(capsys, *argv)[0] == 0
    assert out.read_text(encoding="utf-8") != "an older output\n"


# Each: the argv, with its inputs built beside the given path, that writes
# an FTV1 output there.
FTV1_OUTPUTS = {
    "encode": lambda out: ["encode", "--frames", "2", "--grid", "2x2", "--dim", "4", "--out", str(out)],
    "compress": lambda out: _fuzz_features(out.parent)[1][:-1] + [str(out)],
    "assemble": lambda out: _fuzz_kept(out.parent, "")[1] + ["--out", str(out)],
}


@pytest.mark.parametrize("command", list(FTV1_OUTPUTS))
def test_ftv1_outputs_are_replaced_atomically(command, tmp_path, capsys, monkeypatch):
    """An FTV1 write that fails partway leaves the old file whole and no
    temporary file beside it."""
    out = tmp_path / "out.ftv1"
    argv = FTV1_OUTPUTS[command](out)
    capsys.readouterr()  # drop what setting up the inputs printed
    out.write_bytes(b"an older output")
    replacing = ftv1._replacing
    monkeypatch.setattr(ftv1, "_replacing", _failing_midway(replacing))
    files = sorted(os.listdir(tmp_path))
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", "error: disk full\n")
    assert out.read_bytes() == b"an older output"
    assert sorted(os.listdir(tmp_path)) == files
    monkeypatch.setattr(ftv1, "_replacing", replacing)
    assert run(capsys, *argv)[0] == 0
    assert ftv1.read_tensor(out).size > 0


def test_checkpoint_flags_must_match_an_existing_checkpoint(tmp_path, capsys):
    argv = _with_checkpoint(tmp_path)
    for flags in ([], ["--queries", "6"], ["--queries", "6", "--width", "8"]):
        code, out, _ = run(capsys, *argv, *flags)
        assert code == 0 and "top-2 of 6" in out
    code, _, err = run(capsys, *argv, "--queries", "12")
    assert code == 2 and "--queries 12" in err and "has 6" in err
    code, _, err = run(capsys, *argv, "--width", "16")
    assert code == 2 and "--width 16" in err and "has 8" in err
    # Without the flags, a new checkpoint still starts at 32 queries, 32 wide.
    fresh = tmp_path / "fresh"
    code, out, _ = run(capsys, *argv[:4], str(fresh), *argv[5:])
    assert code == 0 and "top-2 of 32" in out
    assert load_checkpoint(fresh).width == 32


def _manifest(tmp_path, tail=b""):
    """A 6-video manifest at ``tmp_path/m.jsonl``, ``tail`` appended."""
    path = tmp_path / "m.jsonl"
    synthetic_manifest(path, 6, 2, seed=1)
    with open(path, "ab") as fh:
        fh.write(tail)
    return path


def _first_line(tmp_path):
    return _manifest(tmp_path).read_bytes().splitlines(keepends=True)[0]


BAD_MANIFEST_TAILS = {
    "bad JSON last line": lambda tmp: b'{"video_id": "v9", "qa_id": \n',
    "late duplicate key": _first_line,
    "non-UTF-8 bytes": lambda tmp: b'{"video_id": "v9", "qa_id": "q\xff"}\n',
    "JSON object as a field": lambda tmp: b'{"video_id": "v9", "qa_id": "q9", "question": {"a": 1}}\n',
    "number too long": lambda tmp: b'{"video_id": "v9", "qa_id": ' + b"9" * 5000 + b"}\n",
    "nesting too deep": lambda tmp: b'{"video_id": "v9", "qa_id": "q9", "question": '
    + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
    "lone surrogate escape": lambda tmp: b'{"video_id": "v9", "qa_id": "q9", "question": "\\ud800"}\n',
}

MANIFEST_COMMANDS = {
    "subsample": ["--fraction", "0.5", "--seed", "3", "--qa-cap", "1"],
    "filter": ["--types", "vqa,reasoning"],
}


def _assert_fails_cleanly(capsys, argv, out):
    """Exit 2 with one error line; ``out`` and its directory are untouched,
    whether ``out`` existed before or not."""
    for existing in (None, b"an older output\n"):
        if existing is not None:
            out.write_bytes(existing)
        args = argv()
        before = sorted(os.listdir(out.parent))
        code, _, err = run(capsys, *args)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert sorted(os.listdir(out.parent)) == before
        if existing is not None:
            assert out.read_bytes() == existing


@pytest.mark.parametrize("case", list(BAD_MANIFEST_TAILS))
@pytest.mark.parametrize("command", list(MANIFEST_COMMANDS))
def test_bad_manifest_leaves_output_alone(command, case, tmp_path, capsys):
    out = tmp_path / "out.jsonl"

    def argv():
        src = _manifest(tmp_path, BAD_MANIFEST_TAILS[case](tmp_path))
        return [command, str(src), *MANIFEST_COMMANDS[command], "--out", str(out)]

    _assert_fails_cleanly(capsys, argv, out)


def _reverse_lines(path):
    path.write_bytes(b"".join(reversed(path.read_bytes().splitlines(keepends=True))))


def _keep_three_lines(path):
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:3]))


@pytest.mark.parametrize("change", [_reverse_lines, _keep_three_lines])
def test_subsample_detects_a_manifest_changed_between_passes(change, tmp_path, capsys, monkeypatch):
    src, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
    first_pass = curriculum._kept_positions

    def select_then_change(*args):
        kept = first_pass(*args)
        change(src)
        return kept

    monkeypatch.setattr(curriculum, "_kept_positions", select_then_change)

    def argv():
        _manifest(tmp_path)
        return ["subsample", str(src), "--fraction", "1", "--seed", "0", "--out", str(out)]

    _assert_fails_cleanly(capsys, argv, out)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_subsample_rejects_a_pipe(tmp_path, capsys):
    fifo, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
    os.mkfifo(fifo)
    _assert_fails_cleanly(
        capsys,
        lambda: ["subsample", str(fifo), "--fraction", "1", "--seed", "0", "--out", str(out)],
        out,
    )


@pytest.mark.parametrize("command", list(MANIFEST_COMMANDS))
def test_manifest_commands_may_overwrite_their_input(command, tmp_path, capsys):
    src = _manifest(tmp_path)
    other = tmp_path / "other.jsonl"
    args = MANIFEST_COMMANDS[command]
    assert run(capsys, command, str(src), *args, "--out", str(other))[0] == 0
    assert run(capsys, command, str(src), *args, "--out", str(src))[0] == 0
    assert src.read_bytes() == other.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["m.jsonl", "other.jsonl"]


def test_parser_is_built_once_and_reports_as_before(capsys):
    """main reuses one parser, whose usage and error text are those of a
    freshly built one, on every call."""
    assert cli._parser() is cli._parser()
    texts = []
    for parse in (cli.build_parser().parse_args, cli.main, cli.main):
        for argv in (["cost", "--k"], ["nonsense"], ["--help"]):
            with pytest.raises(SystemExit):
                parse(argv)
            texts.append(capsys.readouterr())
    assert texts[:3] == texts[3:6] == texts[6:]
    assert "usage: framepress" in texts[2].out


def test_plan_command(tmp_path, capsys):
    code, out, _ = run(
        capsys, "plan", "--strategy", "S4-V", "--instruct-fraction", "0.1",
        "--out", str(tmp_path / "plan.json"),
    )
    assert code == 0
    parsed = json.loads((tmp_path / "plan.json").read_text())
    assert [s["name"] for s in parsed["stages"]][-1] == "video-instruct"


def test_plan_forbidden_fraction_exits_2(capsys):
    code, _, err = run(capsys, "plan", "--strategy", "S3-IV", "--pretrain-fraction", "0.5")
    assert code == 2 and "video-free" in err


def test_train_toy_with_config(tmp_path, capsys):
    cfg = tmp_path / "toy.json"
    cfg.write_text(json.dumps({
        "steps": 5, "frames": 2, "grid_h": 2, "grid_w": 2, "feature_dim": 4,
        "queries": 4, "embed_dim": 8, "keep": 2, "signal_patches": 1,
        "out_dim": 2, "batch_videos": 2,
    }), encoding="utf-8")
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "train-toy", "--config", str(cfg), "--report", str(report_path)
    )
    assert code == 0
    assert "keep=2/4" in out
    saved = json.loads(report_path.read_text())
    assert saved["kind"] == "train-toy"
    assert len(saved["loss_curve"]) == 6


def test_train_toy_bad_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "toy.json"
    cfg.write_text('{"stepz": 5}', encoding="utf-8")
    code, _, err = run(capsys, "train-toy", "--config", str(cfg))
    assert code == 2 and "unknown config keys" in err


def test_verify_exit_codes(monkeypatch, capsys, tmp_path):
    """Exit 0 when every check passes, nonzero as soon as one fails."""
    import framepress.verify as verify_mod

    monkeypatch.setattr(
        verify_mod, "ALL_CHECKS",
        (verify_mod.check_reference_fit, verify_mod.check_sequence_arithmetic),
    )
    report_path = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", "--report", str(report_path))
    assert code == 0
    assert "2 passed, 0 failed" in out
    assert report_path.is_file()

    def broken():
        return CheckResult("planted_failure", False, "synthetic counterexample")

    monkeypatch.setattr(
        verify_mod, "ALL_CHECKS", (verify_mod.check_reference_fit, broken)
    )
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL  planted_failure" in out
