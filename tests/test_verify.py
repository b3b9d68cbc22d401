"""The verification suite itself needs teeth: these tests prove the checks
catch planted defects. tests/test_acceptance.py runs each check as shipped."""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import framepress.verify as verify_mod
from framepress import cost, curriculum, ftv1
from framepress.adapter import AdapterGrads
from framepress.verify import (
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
    format_report,
    verify_all,
)
from framepress.pipeline import RunReport


# Each planted calibration fault and a part of the detail it must produce.
CALIBRATION_FAULTS = {
    "c0 raised by 0.1": (
        lambda fit: replace(fit, overhead_tflops=fit.overhead_tflops + 0.1),
        "not within 31.70±0.05; k=4: estimate",
    ),
    "c1 raised by 0.01": (
        lambda fit: replace(fit, per_token_tflops=fit.per_token_tflops + 0.01),
        "not within 0.1108±0.001",
    ),
    "a residual of 0.1": (lambda fit: replace(fit, residuals=(0.1, *fit.residuals[1:])), "max residual 0.1000 > 0.05"),
}


@pytest.mark.parametrize("fault", list(CALIBRATION_FAULTS))
def test_reference_fit_check_catches_a_wrong_fit(fault, monkeypatch):
    plant, named = CALIBRATION_FAULTS[fault]
    calibrate = cost.calibrate
    monkeypatch.setattr(cost, "calibrate", lambda: plant(calibrate()))
    result = check_reference_fit()
    assert not result.passed
    assert named in result.detail


@pytest.mark.parametrize(
    "plant, detail",
    [
        (lambda kept: kept[:-1], "228914 videos at 0.1 gave 22890, expected 22891"),
        (lambda kept: kept + kept[-1:], "subsample invented records"),
    ],
    ids=["drops one kept video", "keeps one record twice"],
)
def test_subsample_check_catches_a_wrong_selection(plant, detail, monkeypatch):
    kept_positions = curriculum._kept_positions

    def planted(*args):
        kept, videos = kept_positions(*args)
        return plant(kept), videos

    monkeypatch.setattr(curriculum, "_kept_positions", planted)
    assert check_subsample_counts() == verify_mod.CheckResult("subsample_counts", False, detail)


def test_sampler_oracle_check_catches_ties_broken_upward(monkeypatch):
    """An oracle that breaks ties toward the higher index disagrees with the
    sampler at case 1, where two queries tie."""
    monkeypatch.setattr(
        verify_mod, "_oracle_order", lambda values: sorted(range(values.size), key=lambda i: (-values[i], -i))
    )
    result = check_sampler_oracle()
    assert not result.passed
    assert result.detail == "case 1 (n=25, m=44, k=4): selected [7, 9, 16, 17] vs oracle [7, 9, 17, 18]"


def _tiebreak_flips_with_parity(scores, k):
    """A deliberately broken selector: ties go to the lower index for odd
    K and to the higher index for even K, so keep-sets cannot nest."""
    n = scores.size
    tiebreak = np.arange(n) if k % 2 else -np.arange(n)
    order = np.lexsort((tiebreak, -scores))
    return order[:k]


def test_nesting_check_catches_broken_tiebreak(monkeypatch):
    monkeypatch.setattr(verify_mod, "select_topk", _tiebreak_flips_with_parity)
    result = check_nesting()
    assert not result.passed
    assert "not inside" in result.detail  # names the counterexample


def test_sequence_check_catches_frames_out_of_order(monkeypatch):
    """An assembly with the right length but the frames reversed fails."""
    real = verify_mod.assemble_sequence

    def reversed_frames(sampled, prompt_len):
        return real(replace(sampled, tokens=sampled.tokens[::-1]), prompt_len)

    monkeypatch.setattr(verify_mod, "assemble_sequence", reversed_frames)
    result = check_sequence_arithmetic()
    assert not result.passed
    assert "frame 0 out of place" in result.detail


def _nan_in_last_row(weights):
    weights = weights.copy()
    weights[..., -1, 0] = np.nan
    return weights


def test_attention_check_reports_rows_that_do_not_sum_to_one(monkeypatch):
    """The check fails rows off by 1%, and a NaN row, by itself."""
    import framepress.adapter as adapter_mod

    attention_weights = adapter_mod.attention_weights
    for plant, dev in ((lambda w: 1.01 * w, "1.00e-02"), (_nan_in_last_row, "nan")):
        monkeypatch.setattr(adapter_mod, "attention_weights", lambda *args: plant(attention_weights(*args)))
        result = check_attention_validity()
        assert not result.passed
        assert result.detail == f"case 0: attention row-sum dev {dev} > 1e-9"


def test_attention_check_reports_scores_outside_their_range(monkeypatch):
    """A scorer that takes each row's minimum scores under 1/M."""
    monkeypatch.setattr(verify_mod, "score_frame", lambda att: np.asarray(att).min(axis=-1))
    result = check_attention_validity()
    assert not result.passed
    assert result.detail.startswith("case 0: scores [") and "outside [1/" in result.detail


@pytest.mark.parametrize("field", [f.name for f in fields(AdapterGrads)])
def test_gradient_check_catches_one_wrong_field(field, monkeypatch):
    adapter_gradients = verify_mod.adapter_gradients

    def one_percent_off(*args):
        grads = adapter_gradients(*args)
        return replace(grads, **{field: 1.01 * getattr(grads, field)})

    monkeypatch.setattr(verify_mod, "adapter_gradients", one_percent_off)
    result = check_gradients()
    assert not result.passed
    assert f": {field} relative error" in result.detail


def test_gradient_check_fails_a_point_with_a_tight_margin(monkeypatch):
    """A point whose top-K boundary gap is under 1e-3 fails the check; it is
    not skipped. Scores that tie everywhere leave a gap of 0 at seed 2030."""
    monkeypatch.setattr(verify_mod, "score_frame", lambda att: np.zeros(np.shape(att)[:-1]))
    result = check_gradients()
    assert not result.passed
    assert result.detail == "point seed=2030: top-K margin 0.000e+00 < 0.001"


def test_permutation_check_catches_a_source_position_leak(monkeypatch):
    """Tokens that carry 1e-9 of each source position's index-weighted
    features move when the sources are shuffled."""
    kept_tokens = verify_mod.kept_tokens

    def leaky(video, params, rows):
        x = video.tokens()
        leak = 1e-9 * np.einsum("m,tm->t", np.arange(x.shape[1]), x[:, :, 0])
        return kept_tokens(video, params, rows) + leak[:, None, None]

    monkeypatch.setattr(verify_mod, "kept_tokens", leaky)
    result = check_permutation_equivariance()
    assert not result.passed
    assert result.detail.startswith("case 0 (") and "output moved by" in result.detail


@pytest.mark.parametrize(
    "pruned, passed", [(0.126, False), (0.074, False), (0.124, True)], ids=["above", "below", "within"]
)
def test_compression_check_bounds_the_gap_both_ways(pruned, passed, monkeypatch):
    """Final losses stubbed against a baseline of 0.1: the pruned run must
    land within TOY_REL_TOL (25%) of it, from above or from below."""
    losses = {verify_mod.TOY_PRUNED_SPEC.keep: pruned, verify_mod.TOY_BASELINE_SPEC.keep: 0.1}
    monkeypatch.setattr(
        verify_mod, "train_toy", lambda spec: SimpleNamespace(final_metrics={"final_loss": losses[spec.keep]})
    )
    assert check_compression_robustness().passed is passed


def _second_run_drifts(monkeypatch):
    """The second of two equal toy runs ends one ulp higher."""
    train_toy, runs = verify_mod.train_toy, []

    def drifting(spec):
        report = train_toy(spec)
        runs.append(report)
        if len(runs) == 2:
            *head, last = report.loss_curve
            report = replace(report, loss_curve=(*head, float(np.nextafter(last, np.inf))))
        return report

    monkeypatch.setattr(verify_mod, "train_toy", drifting)


def _reader_drops_a_loss(monkeypatch):
    def from_json(text):
        report = RunReport.from_json(text)
        return replace(report, loss_curve=report.loss_curve[:-1])

    monkeypatch.setattr(verify_mod, "RunReport", SimpleNamespace(from_json=from_json))


def _tensor_reader_drifts(monkeypatch):
    read_tensor = ftv1.read_tensor
    monkeypatch.setattr(ftv1, "read_tensor", lambda path: np.nextafter(read_tensor(path), np.inf))


def _filter_adds_a_blank_line(monkeypatch):
    filter_file = curriculum.filter_file

    def padded(src, dst, types):
        filter_file(src, dst, types)
        with open(dst, "a", encoding="utf-8") as fh:
            fh.write("\n")

    monkeypatch.setattr(curriculum, "filter_file", padded)


@pytest.mark.parametrize(
    "plant, detail",
    [
        (_second_run_drifts, "repeated toy runs produced different reports"),
        (_reader_drops_a_loss, "report JSON round-trip changed the report"),
        (_tensor_reader_drifts, "tensor file 0 (shape "),
        (_filter_adds_a_blank_line, "manifest 0 changed in flight"),
    ],
    ids=["one-ulp drift between runs", "lossy report reader", "one-ulp tensor reader", "filter adds a line"],
)
def test_determinism_check_catches_each_planted_change(plant, detail, monkeypatch):
    plant(monkeypatch)
    result = check_determinism_roundtrips()
    assert not result.passed
    assert result.detail.startswith(detail)


def test_sequence_check_catches_a_wrong_length(monkeypatch):
    """An assembly that drops each frame's last kept token is one short at T=1."""
    real = verify_mod.assemble_sequence

    def drops_last_token(sampled, prompt_len):
        return real(replace(sampled, indices=sampled.indices[:, :-1], tokens=sampled.tokens[:, :-1]), prompt_len)

    monkeypatch.setattr(verify_mod, "assemble_sequence", drops_last_token)
    result = check_sequence_arithmetic()
    assert not result.passed
    assert result.detail == "T=1 K=4 prompt=0: total 3 != 4"


def test_format_report_lists_every_check():
    report = RunReport(
        kind="verify",
        config={},
        loss_curve=(),
        final_metrics={"passed": 1, "failed": 1},
        checks=(
            {"name": "alpha", "passed": True, "detail": "fine"},
            {"name": "beta", "passed": False, "detail": "broke"},
        ),
        cost_summary={},
    )
    text = format_report(report)
    assert "PASS  alpha" in text
    assert "FAIL  beta" in text
    assert "1 passed, 1 failed" in text


def test_verify_report_is_serializable(monkeypatch):
    monkeypatch.setattr(
        verify_mod,
        "ALL_CHECKS",
        (check_reference_fit, check_sequence_arithmetic),
    )
    report = verify_all()
    assert report.kind == "verify"
    assert report.all_passed
    back = RunReport.from_json(report.to_json())
    assert back.to_json() == report.to_json()
