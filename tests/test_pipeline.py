import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepress import pipeline
from framepress.adapter import AdapterParams, adapt_video, adapter_gradients, init_adapter_params
from framepress.encoder import VideoTokenTensor, synthetic_video
from framepress.errors import FormatError, NumericError, ParameterError, ShapeError
from framepress.linalg import split_rng
from framepress.pipeline import (
    RunReport,
    SequenceAssembly,
    ToyTaskSpec,
    _make_batch,
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
        np.testing.assert_array_equal(seq.frame_tokens[t], sampled.tokens[t])


def test_assembly_rejects_negative_prompt():
    # And a prompt length that is not an int, which would skew total_len.
    for prompt_len in (-1, 2.5, 2.0, True, "2"):
        with pytest.raises(ParameterError):
            assemble_sequence(make_sampled(1, 2, 3), prompt_len)


def test_assembly_stores_a_numpy_prompt_len_as_a_plain_int():
    seq = assemble_sequence(make_sampled(1, 2, 3), np.int64(5))
    assert type(seq.prompt_len) is int and seq.total_len == 7


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
    tokens, _ = out
    for t in range(3):
        got = sorted(map(tuple, seq.frame_tokens[t]))
        want = sorted(map(tuple, tokens[t]))
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
    for build in (spec_from_dict, lambda raw: ToyTaskSpec(**raw)):
        with pytest.raises(ParameterError, match=f"^{next(iter(raw))} must be "):
            build(raw)


def test_spec_from_dict_float_field_takes_an_int():
    raw = {"learning_rate": 1}
    for spec in (spec_from_dict(raw), ToyTaskSpec(**raw)):
        assert type(spec.learning_rate) is float and spec.learning_rate == 1.0


def test_spec_of_numpy_scalars_stores_plain_numbers_and_trains_the_same():
    # learning_rate is exact in float32, so both specs hold the same values.
    plain = replace(QUICK_SPEC, learning_rate=0.5)
    scalars = ToyTaskSpec(**{
        name: np.float32(value) if type(value) is float else np.int64(value)
        for name, value in asdict(plain).items()
    })
    assert scalars == plain
    assert all(type(getattr(scalars, f)) is type(getattr(plain, f)) for f in asdict(plain))
    assert train_toy(scalars).to_json() == train_toy(plain).to_json()


def test_toy_spec_refuses_a_negative_seed_where_it_is_built():
    with pytest.raises(ParameterError, match="^seed must be >= 0, got -1$"):
        ToyTaskSpec(seed=-1)


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


def reference_curve(spec: ToyTaskSpec) -> list[float]:
    """train_toy's loss curve, stepped video by video through the public
    adapter calls, with the adapter gradients summed over the videos."""
    b, t, k, lr = spec.batch_videos, spec.frames, spec.keep, spec.learning_rate
    data_rng, target_rng = split_rng(spec.seed, 2)
    batch, targets = _make_batch(spec, data_rng, target_rng)
    videos = [VideoTokenTensor(batch.features[vb * t : (vb + 1) * t]) for vb in range(b)]
    params = init_adapter_params(
        queries=spec.queries, width=spec.embed_dim, feature_dim=spec.feature_dim,
        grid_h=spec.grid_h, grid_w=spec.grid_w, frames=t, seed=spec.seed,
    )
    c = spec.embed_dim
    head = (target_rng.normal(size=(c, spec.out_dim)) / np.sqrt(c)).astype(np.float32).astype(np.float64)
    curve = []
    for _ in range(spec.steps + 1):
        sampled = [sample_video(adapt_video(video, params), k) for video in videos]
        pooled = np.stack([s.tokens.reshape(t * k, c).mean(axis=0) for s in sampled])
        diff = pooled @ head - targets
        curve.append(float(np.mean(diff**2)))
        g_preds = 2.0 * diff / diff.size
        grads = [
            adapter_gradients(video, params, s.indices, np.broadcast_to(g / (t * k), (t, k, c)))
            for video, s, g in zip(videos, sampled, g_preds @ head.T)
        ]
        params = AdapterParams(
            input_proj=params.input_proj - lr * sum(g.input_proj for g in grads),
            queries=params.queries - lr * sum(g.queries for g in grads),
            pos_table=params.pos_table,
            temporal=params.temporal - lr * sum(g.temporal for g in grads),
        )
        head = head - lr * (pooled.T @ g_preds)
    return curve


@pytest.mark.parametrize("keep", [2, 4], ids=["K<N", "K=N"])
def test_train_toy_matches_a_per_video_reference(keep):
    spec = replace(QUICK_SPEC, batch_videos=3, frames=3, keep=keep)
    np.testing.assert_allclose(train_toy(spec).loss_curve, reference_curve(spec), rtol=1e-12, atol=0)


def test_train_toy_makes_one_forward_and_one_backward_call_per_step(monkeypatch):
    calls = {"adapt_video": 0, "adapter_gradients": 0}
    for name in calls:
        def spy(*args, _real=getattr(pipeline, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(pipeline, name, spy)
    train_toy(replace(QUICK_SPEC, batch_videos=3, steps=4))
    assert calls == {"adapt_video": 5, "adapter_gradients": 4}


def test_zero_learning_rate_freezes_the_loss():
    report = train_toy(replace(QUICK_SPEC, learning_rate=0.0, steps=6))
    assert len(set(report.loss_curve)) == 1


def test_divergence_aborts_with_step_index():
    with pytest.raises(NumericError, match=r"step \d+"):
        train_toy(replace(QUICK_SPEC, learning_rate=1e6, steps=40))
    # At learning rate 300 the step-3 forward is finite, its kept tokens near
    # 3e114, and the squared error overflows: only the loss check sees it.
    with pytest.raises(NumericError, match=r"^loss diverged at step 3: loss=inf$"):
        train_toy(replace(QUICK_SPEC, learning_rate=300.0, steps=40))


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


_MISSING = object()  # an override that leaves the field out


def _report_json(**overrides):
    report = RunReport(
        kind="train-toy", config={}, loss_curve=(1.0, 0.5), final_metrics={},
        checks=({"name": "c", "passed": True},), cost_summary={},
    )
    raw = asdict(report)
    raw.update(overrides)
    return json.dumps({name: value for name, value in raw.items() if value is not _MISSING})


def test_report_from_json_refuses_a_non_object():
    with pytest.raises(ParameterError, match="JSON object, got list"):
        RunReport.from_json("[1, 2]")


def test_report_from_json_refuses_nesting_too_deep():
    with pytest.raises(FormatError, match="unreadable report: maximum recursion depth"):
        RunReport.from_json("[" * 200_000)


@pytest.mark.parametrize("curve", ["abc", [1.0, "x"], [True], {"a": 1.0}])
def test_report_from_json_refuses_a_loss_curve_of_non_numbers(curve):
    with pytest.raises(ParameterError, match="'loss_curve' must be a list of numbers"):
        RunReport.from_json(_report_json(loss_curve=curve))


@pytest.mark.parametrize("checks", ["pq", [1], [["passed"]], None])
def test_report_from_json_refuses_checks_that_are_not_objects(checks):
    with pytest.raises(ParameterError, match="'checks' must be a list of objects"):
        RunReport.from_json(_report_json(checks=checks))


@pytest.mark.parametrize(
    "field, value, message",
    [(name, _MISSING, "is missing") for name in ("kind", "config", "loss_curve",
                                                 "final_metrics", "checks", "cost_summary")]
    + [
        ("kind", 3, "must be a string"),
        ("config", [], "must be an object"),
        ("final_metrics", 1, "must be an object"),
        ("cost_summary", None, "must be an object"),
    ],
)
def test_report_from_json_refuses_a_missing_or_mistyped_field(field, value, message):
    with pytest.raises(ParameterError, match=f"report field '{field}' {message}"):
        RunReport.from_json(_report_json(**{field: value}))


def test_report_carries_cost_summary():
    report = train_toy(QUICK_SPEC)
    summary = report.cost_summary
    assert summary["tokens_per_frame"] == QUICK_SPEC.keep
    assert summary["sequence_len"] == QUICK_SPEC.frames * QUICK_SPEC.keep
    assert summary["total_tflops"] > 0
