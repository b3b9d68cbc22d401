import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepress.adapter import AdapterOutput
from framepress.errors import FormatError, ParameterError, ShapeError
from framepress.linalg import make_rng, softmax_rows
from framepress.sampler import (
    SampledTokens,
    load_sampled,
    sample_video,
    save_sampled,
    score_frame,
    select_topk,
)


def random_output(seed, frames=2, n=6, m=10, c=4):
    rng = make_rng(seed)
    att = np.stack([softmax_rows(rng.normal(size=(n, m))) for _ in range(frames)])
    tok = rng.normal(size=(frames, n, c))
    return AdapterOutput(tokens=tok, attention=att)


def test_score_frame_is_row_max():
    att = softmax_rows(np.array([[0.0, 5.0, 1.0], [2.0, 2.0, 2.0]]))
    scores = score_frame(att)
    np.testing.assert_array_equal(scores, att.max(axis=1))
    # The uniform row scores exactly 1/M.
    assert scores[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    # A video's (T, N, M) attention scores every frame at once.
    np.testing.assert_array_equal(score_frame(np.stack([att, att[::-1]])), [scores, scores[::-1]])


def test_score_frame_rejects_empty():
    with pytest.raises(ShapeError):
        score_frame(np.zeros((0, 4)))


def test_select_topk_explicit_cases():
    scores = np.array([0.1, 0.9, 0.4, 0.9, 0.2])
    np.testing.assert_array_equal(select_topk(scores, 1), [1])
    # Tie at 0.9: lower index first.
    np.testing.assert_array_equal(select_topk(scores, 2), [1, 3])
    np.testing.assert_array_equal(select_topk(scores, 3), [1, 3, 2])
    np.testing.assert_array_equal(select_topk(scores, 5), [1, 3, 2, 4, 0])
    # Rows of a (T, N) score matrix are selected independently.
    np.testing.assert_array_equal(
        select_topk(np.stack([scores, [0.5, 0.1, 0.5, 0.7, 0.0]]), 2), [[1, 3], [3, 0]]
    )


def test_select_topk_all_tied_prefers_low_indices():
    scores = np.full(6, 0.5)
    np.testing.assert_array_equal(select_topk(scores, 3), [0, 1, 2])


def test_select_topk_bounds():
    scores = np.array([0.3, 0.7])
    with pytest.raises(ParameterError):
        select_topk(scores, 0)
    with pytest.raises(ParameterError):
        select_topk(scores, 3)


@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=24).map(
        lambda xs: np.round(np.array(xs), 1)  # coarse grid forces ties
    )
)
@settings(max_examples=200, deadline=None)
def test_select_topk_prefixes_nest(values):
    n = values.size
    full = select_topk(values, n)
    for k in range(1, n):
        np.testing.assert_array_equal(select_topk(values, k), full[:k])


def test_sample_video_orders():
    out = random_output(40)
    by_score = sample_video(out, 3, order="score")
    by_index = sample_video(out, 3, order="index")
    for t in range(out.frame_count):
        assert set(by_score.indices[t].tolist()) == set(by_index.indices[t].tolist())
        assert np.all(np.diff(by_index.indices[t]) > 0)
        scores = score_frame(out.attention[t])
        kept = by_score.indices[t]
        assert np.all(np.diff(scores[kept]) <= 0)
        np.testing.assert_array_equal(by_score.tokens[t], out.tokens[t][kept])


def test_sample_video_rejects_bad_args():
    out = random_output(41)
    with pytest.raises(ParameterError):
        sample_video(out, 0)
    with pytest.raises(ParameterError):
        sample_video(out, 99)
    with pytest.raises(ParameterError):
        sample_video(out, 2, order="random")


def test_sampled_tokens_validation():
    with pytest.raises(ShapeError):
        SampledTokens(
            keep=2,
            indices=np.array([[0, 1], [1, 1]]),  # duplicate in frame 1
            tokens=np.zeros((2, 2, 3)),
        )
    with pytest.raises(ShapeError):
        SampledTokens(
            keep=2,
            indices=np.array([[0, 1]]),
            tokens=np.zeros((1, 3, 3)),  # row count != keep
        )
    with pytest.raises(ShapeError):
        SampledTokens(
            keep=2,
            indices=np.array([[0, 1]]),  # one frame of indices for two of tokens
            tokens=np.zeros((2, 2, 3)),
        )


def test_save_load_round_trip(tmp_path):
    out = random_output(42, frames=3, n=5, m=7, c=4)
    sampled = sample_video(out, 2)
    path = tmp_path / "kept.ftv1"
    save_sampled(sampled, path)
    back = load_sampled(path)
    assert back.keep == 2
    for t in range(3):
        np.testing.assert_array_equal(back.indices[t], sampled.indices[t])
        np.testing.assert_allclose(
            back.tokens[t],
            sampled.tokens[t].astype(np.float32).astype(np.float64),
            rtol=0,
            atol=0,
        )


def test_load_sampled_requires_sidecar(tmp_path):
    out = random_output(43)
    sampled = sample_video(out, 2)
    path = tmp_path / "kept.ftv1"
    save_sampled(sampled, path)
    path.with_suffix(".ftv1.json").unlink()
    with pytest.raises(FormatError):
        load_sampled(path)
