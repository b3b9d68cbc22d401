"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints a ``[criterion NN]`` summary line
(visible with ``-s`` or on failure). Stated runtime budgets are asserted
with a wall clock.
"""

import time

import pytest

from framepress import cli
from framepress.verify import (
    CheckResult,
    check_attention_validity,
    check_compression_robustness,
    check_determinism_roundtrips,
    check_gradients,
    check_nesting,
    check_permutation_equivariance,
    check_reference_fit,
    check_sampler_oracle,
    check_sequence_arithmetic,
    check_subsample_counts,
)


def report(number, name, result: CheckResult, elapsed=None, budget=None):
    status = "PASS" if result.passed else "FAIL"
    timing = f" [{elapsed:.2f}s / {budget:.0f}s budget]" if budget else ""
    print(f"[criterion {number:02d}] {status} {name}: {result.detail}{timing}")
    assert result.passed, f"criterion {number}: {result.detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number}: {elapsed:.2f}s over budget"


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_01_reference_totals_affine_fit():
    """Calibration on the six reference (k, TFLOPs) pairs: c0 = 31.70 +/- 0.05,
    c1 = 0.1108 +/- 0.001, max residual <= 0.05, totals reproduced within
    0.05; under one second."""
    result, elapsed = timed(check_reference_fit)
    report(1, "reference-totals affine fit", result, elapsed, budget=1.0)


def test_criterion_02_subsample_counts():
    """228,914 videos at 0.1 -> exactly 22,891; 13,040 at 0.1/0.3/0.6 ->
    1,304/3,912/7,824; under ten seconds."""
    result, elapsed = timed(check_subsample_counts)
    report(2, "video-level subsample counts", result, elapsed, budget=10.0)


def test_criterion_03_sampler_matches_oracle_and_nests():
    """>=1000 attention score vectors (softmax rows of random logits),
    every K from 1..N against the brute-force oracle, plus >=500 nesting
    cases with injected ties; under thirty seconds."""
    start = time.perf_counter()
    oracle = check_sampler_oracle()
    nesting = check_nesting()
    elapsed = time.perf_counter() - start
    merged = CheckResult(
        "sampler_oracle_and_nesting",
        oracle.passed and nesting.passed,
        f"{oracle.detail}; {nesting.detail}",
    )
    report(3, "sampler oracle equivalence + nesting", merged, elapsed, budget=30.0)


def test_criterion_04_attention_validity():
    """Rows sum to 1 within 1e-9 and every score sits in [1/M, 1] over
    >=1000 forward passes."""
    result, elapsed = timed(check_attention_validity)
    report(4, "attention rows and score bounds", result)


def test_criterion_05_gradient_correctness():
    """Analytic gradients for the projection, query bank, positional and
    temporal tables match central differences (step 1e-5, relative error
    < 1e-4) at >=20 stable points; under one minute."""
    result, elapsed = timed(check_gradients)
    report(5, "analytic vs finite-difference gradients", result, elapsed, budget=60.0)


def test_criterion_06_permutation_equivariance():
    """With the positional table zeroed, joint source permutations leave
    outputs unchanged within 1e-12 over >=100 cases."""
    result, elapsed = timed(check_permutation_equivariance)
    report(6, "permutation equivariance", result)


def test_criterion_07_compression_robustness():
    """Fixed-seed toy task: final loss keeping 16 of 32 tokens lands within
    25% of the keep-all baseline; both runs within two minutes."""
    result, elapsed = timed(check_compression_robustness)
    report(7, "pruned vs keep-all training loss", result, elapsed, budget=120.0)


def test_criterion_08_determinism_and_round_trips():
    """Same seed -> bit-identical run reports; >=100 tensor-file and
    manifest round-trips are lossless."""
    result, elapsed = timed(check_determinism_roundtrips)
    report(8, "determinism and file round-trips", result)


def test_criterion_09_sequence_arithmetic():
    """Assembled length is T*K + prompt over T in {1,8}, K in {4,16,128},
    prompt in {0,64} — including 8x128 = 1024 video tokens — with each
    frame's kept tokens in that frame's slice of the sequence."""
    result, elapsed = timed(check_sequence_arithmetic)
    report(9, "sequence length arithmetic", result)


def test_criterion_10_verify_exit_status(monkeypatch, capsys):
    """The verify command returns zero after a clean run of every suite and
    nonzero as soon as any check fails."""
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    clean_ok = code == 0 and "0 failed" in out

    import framepress.verify as verify_mod

    def planted_failure():
        return CheckResult("planted_failure", False, "forced for exit-code test")

    monkeypatch.setattr(
        verify_mod,
        "ALL_CHECKS",
        (verify_mod.check_sequence_arithmetic, planted_failure),
    )
    broken_code = cli.main(["verify"])
    capsys.readouterr()
    result = CheckResult(
        "verify_exit_status",
        clean_ok and broken_code != 0,
        f"clean run exit {code}, planted-failure run exit {broken_code}",
    )
    with capsys.disabled():
        report(10, "verify exit status", result)
