import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepress.cost import (
    REFERENCE_TOTALS,
    CostConfig,
    calibrate,
    calibrated_config,
    calibration_report_text,
    estimate,
    sweep,
    sweep_csv,
)
from framepress.errors import FitError, ParameterError

# Independent least-squares fit of the reference totals, frozen here so a
# regression in `calibrate` cannot hide behind its own output.
ORACLE_C0 = 31.695514985102555
ORACLE_C1 = 0.11083382017876967
ORACLE_MAX_RESIDUAL = 0.002243967985073425


def test_calibrate_reproduces_oracle_fit():
    result = calibrate()
    assert result.overhead_tflops == pytest.approx(ORACLE_C0, abs=1e-9)
    assert result.per_token_tflops == pytest.approx(ORACLE_C1, abs=1e-12)
    assert result.max_abs_residual == pytest.approx(ORACLE_MAX_RESIDUAL, abs=1e-9)


def test_calibrated_model_reproduces_reference_totals():
    result = calibrate()
    for k, total in REFERENCE_TOTALS:
        cfg = calibrated_config(result, tokens_per_frame=k)
        assert estimate(cfg).total_tflops == pytest.approx(total, abs=0.05)


def test_calibrate_input_validation():
    with pytest.raises(ParameterError):
        calibrate([(4, 32.0)])
    with pytest.raises(FitError):
        calibrate([(4, 32.0), (4, 33.0)])
    with pytest.raises(ParameterError):
        calibrate([(0, 1.0), (2, 2.0)])
    # A k that is not an int in [1, float max], or a total that is not finite and >= 0.
    for points in ([(10**400, 1.0), (1, 2.0)], [(2.5, 1.0), (4, 2.0)], [(True, 1.0), (4, 2.0)],
                   [(4, float("nan")), (16, 1.0)], [(4, -1.0), (16, 1.0)], [(4, 10**400), (16, 1.0)]):
        with pytest.raises(ParameterError):
            calibrate(points)


@given(
    st.integers(1, 16),
    st.integers(1, 512),
    st.floats(0.0, 100.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_breakdown_always_sums_to_total(frames, k, c0, c1):
    cfg = CostConfig(
        frames=frames,
        tokens_per_frame=k,
        overhead_tflops=c0,
        per_token_tflops=c1,
        encoder_tflops=c0 * 0.25,
        adapter_tflops=c0 * 0.25,
    )
    report = estimate(cfg)
    parts = report.encoder_tflops + report.adapter_tflops + report.llm_linear_tflops
    assert parts == pytest.approx(report.total_tflops, rel=1e-12)
    assert report.sequence_len == frames * k


def test_config_validation():
    with pytest.raises(ParameterError):
        CostConfig(
            frames=0,
            tokens_per_frame=1,
            overhead_tflops=1.0,
            per_token_tflops=0.1,
        )
    with pytest.raises(ParameterError):
        CostConfig(
            frames=1,
            tokens_per_frame=1,
            overhead_tflops=1.0,
            per_token_tflops=0.1,
            encoder_tflops=0.9,
            adapter_tflops=0.2,  # slices exceed overhead
        )
    fit = calibrate()
    for k in (2.5, True, 0, 10**400):
        with pytest.raises(ParameterError):
            estimate(calibrated_config(fit, tokens_per_frame=k))
        with pytest.raises(ParameterError):
            sweep([k], calibrated_config(fit))


def test_sweep_monotone_and_csv_shape():
    template = calibrated_config(calibrate())
    ks = (4, 16, 64, 256)
    reports = sweep(ks, template)
    totals = [r.total_tflops for r in reports]
    assert totals == sorted(totals)
    csv = sweep_csv(ks, template)
    lines = csv.strip().splitlines()
    assert lines[0] == "k,total_tflops,encoder,adapter,llm_linear"
    assert len(lines) == 5
    assert lines[1].startswith("4,")


def test_sweep_rejects_empty():
    with pytest.raises(ParameterError):
        sweep((), calibrated_config(calibrate()))


def test_calibration_report_text_lists_residuals():
    text = calibration_report_text(calibrate())
    assert "k=4" in text and "k=256" in text
    assert text.count("residual=") == len(REFERENCE_TOTALS)
