"""The verification suite itself needs teeth: these tests prove the checks
catch planted defects. tests/test_acceptance.py runs each check as shipped."""

from dataclasses import fields, replace

import numpy as np
import pytest

import framepress.verify as verify_mod
from framepress.adapter import AdapterGrads
from framepress.verify import (
    check_attention_validity,
    check_gradients,
    check_nesting,
    check_reference_fit,
    check_sequence_arithmetic,
    format_report,
    verify_all,
)
from framepress.pipeline import RunReport


def _tiebreak_flips_with_parity(scores, k):
    """A deliberately broken selector: ties go to the lower index for odd
    K and to the higher index for even K, so keep-sets cannot nest."""
    n = scores.size
    tiebreak = np.arange(n) if k % 2 else -np.arange(n)
    order = np.lexsort((tiebreak, -scores))
    return order[:k]


def test_nesting_check_catches_broken_tiebreak():
    result = check_nesting(select_fn=_tiebreak_flips_with_parity)
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


def test_attention_check_reports_rows_that_do_not_sum_to_one(monkeypatch):
    import framepress.adapter as adapter_mod

    cross_attention = adapter_mod.cross_attention

    def leaky(*args, **kwargs):
        weights, out = cross_attention(*args, **kwargs)
        return 1.01 * weights, out

    monkeypatch.setattr(adapter_mod, "cross_attention", leaky)
    result = check_attention_validity()
    assert not result.passed
    assert result.detail.startswith("case 0: ")


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
