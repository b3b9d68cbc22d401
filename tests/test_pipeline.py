from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepress.adapter import adapt_video, init_adapter_params
from framepress.encoder import synthetic_video
from framepress.errors import NumericError, ParameterError, ShapeError
from framepress.pipeline import (
    RunReport,
    SequenceAssembly,
    ToyTaskSpec,
    assemble_sequence,
    spec_from_dict,
    train_toy,
)
from framepress.sampler import SampledTokens, sample_video

QUICK_SPEC = ToyTaskSpec(
    seed=5,
    frames=2,
    grid_h=2,
    grid_w=2,
    feature_dim=6,
    queries=4,
    embed_dim=8,
    keep=2,
    out_dim=3,
    signal_patches=2,
    steps=10,
    learning_rate=0.3,
    batch_videos=2,
)


def make_sampled(t, k, c, seed=0):
    rng = np.random.default_rng(seed)
    return SampledTokens(
        indices=tuple(np.arange(k) for _ in range(t)),
        tokens=tuple(rng.normal(size=(k, c)) for _ in range(t)),
    )


@given(st.integers(1, 8), st.integers(1, 16), st.integers(0, 64))
@settings(max_examples=100, deadline=None)
def test_assembly_length_arithmetic(t, k, prompt):
    seq = assemble_sequence(make_sampled(t, k, 3), prompt)
    assert seq.total_len == t * k + prompt
    assert seq.frame_count == t
    assert seq.frame_boundaries == tuple(k * i for i in range(t + 1))


def test_assembly_concatenates_in_frame_order():
    sampled = make_sampled(3, 2, 4, seed=1)
    seq = assemble_sequence(sampled, 5)
    for t in range(3):
        np.testing.assert_array_equal(seq.frame_block(t), sampled.tokens[t])


def test_assembly_rejects_negative_prompt():
    with pytest.raises(ParameterError):
        assemble_sequence(make_sampled(1, 2, 3), -1)


def test_assembly_boundary_validation():
    with pytest.raises(ShapeError):
        SequenceAssembly(frame_tokens=np.zeros((4, 2)), prompt_len=0)
    for empty in ((0, 2, 3), (2, 0, 3)):
        with pytest.raises(ShapeError):
            SequenceAssembly(frame_tokens=np.zeros(empty), prompt_len=0)


def test_keep_all_pipeline_preserves_token_sets():
    """With K = N the kept rows per frame are exactly the adapter output
    rows, only reordered."""
    video = synthetic_video(3, 2, 2, 5, seed=8)
    params = init_adapter_params(
        queries=6, width=8, feature_dim=5, grid_h=2, grid_w=2, frames=3, seed=9
    )
    out = adapt_video(video, params)
    seq = assemble_sequence(sample_video(out, 6), prompt_len=0)
    for t in range(3):
        got = sorted(map(tuple, seq.frame_block(t)))
        want = sorted(map(tuple, out.tokens[t]))
        assert got == want


def test_toy_spec_validation():
    with pytest.raises(ParameterError):
        replace(QUICK_SPEC, keep=99)
    with pytest.raises(ParameterError):
        replace(QUICK_SPEC, signal_patches=5)  # grid has only 4 patches
    with pytest.raises(ParameterError):
        replace(QUICK_SPEC, learning_rate=float("nan"))


def test_spec_from_dict_round_trip_and_unknown_keys():
    spec = spec_from_dict(asdict(QUICK_SPEC))
    assert spec == QUICK_SPEC
    assert spec_from_dict({}) == ToyTaskSpec()
    with pytest.raises(ParameterError):
        spec_from_dict({"stepz": 3})


@pytest.mark.parametrize(
    "raw",
    [{"steps": "2"}, {"steps": True}, {"steps": 2.0}, {"steps": None},
     {"learning_rate": "0.5"}, {"learning_rate": False}, {"learning_rate": 10**400}],
)
def test_spec_from_dict_rejects_mistyped_values(raw):
    with pytest.raises(ParameterError, match=repr(next(iter(raw)))):
        spec_from_dict(raw)


def test_spec_from_dict_float_field_takes_an_int():
    spec = spec_from_dict({"learning_rate": 1, "noise_scale": 0})
    assert type(spec.learning_rate) is float and spec.learning_rate == 1.0
    assert type(spec.noise_scale) is float and spec.noise_scale == 0.0


def test_train_toy_learns_on_quick_task():
    report = train_toy(replace(QUICK_SPEC, steps=60))
    assert report.final_metrics["final_loss"] < report.final_metrics["initial_loss"]
    assert len(report.loss_curve) == 61
    assert report.all_passed


def test_train_toy_is_bit_deterministic():
    a = train_toy(QUICK_SPEC)
    b = train_toy(QUICK_SPEC)
    assert a.to_json() == b.to_json()
    assert a.loss_curve == b.loss_curve


def test_zero_learning_rate_freezes_the_loss():
    report = train_toy(replace(QUICK_SPEC, learning_rate=0.0, steps=6))
    assert len(set(report.loss_curve)) == 1


def test_divergence_aborts_with_step_index():
    with pytest.raises(NumericError, match=r"step \d+"):
        train_toy(replace(QUICK_SPEC, learning_rate=1e6, steps=40))


def test_report_json_round_trip():
    report = train_toy(QUICK_SPEC)
    back = RunReport.from_json(report.to_json())
    assert back.to_json() == report.to_json()
    assert back.loss_curve == report.loss_curve
    assert back.kind == "train-toy"


def test_report_schema_version_checked():
    report = train_toy(QUICK_SPEC)
    mangled = report.to_json().replace('"schema_version": 1', '"schema_version": 99')
    with pytest.raises(ParameterError):
        RunReport.from_json(mangled)


def test_report_carries_cost_summary():
    report = train_toy(QUICK_SPEC)
    summary = report.cost_summary
    assert summary["tokens_per_frame"] == QUICK_SPEC.keep
    assert summary["sequence_len"] == QUICK_SPEC.frames * QUICK_SPEC.keep
    assert summary["total_tflops"] > 0
