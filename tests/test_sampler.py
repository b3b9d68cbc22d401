import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from framepress.adapter import adapt_video, random_adapter_params
from framepress.encoder import synthetic_video
from framepress import ftv1
from framepress.errors import FormatError, NumericError, ParameterError, ShapeError
from framepress.linalg import make_rng, softmax_rows
from framepress.pipeline import assemble_sequence
from framepress.sampler import (
    SampledTokens,
    compress_video,
    load_sampled,
    sample_video,
    save_sampled,
    score_frame,
    select_topk,
)


def random_output(seed, frames=2, n=6, m=10, c=4):
    """A random ``(tokens, attention)`` pair shaped like ``adapt_video``'s."""
    rng = make_rng(seed)
    att = np.stack([softmax_rows(rng.normal(size=(n, m))) for _ in range(frames)])
    tok = rng.normal(size=(frames, n, c))
    return tok, att


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
    with pytest.raises(ShapeError, match="scores must be non-empty"):
        select_topk(np.zeros((2, 0)), 1)


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


def test_compress_video_orders():
    video = synthetic_video(2, 2, 2, 3, seed=40)
    params = random_adapter_params(6, 4, 3, 4, 2, seed=40)
    tokens, attention = adapt_video(video, params)
    by_score = compress_video(video, params, 3, order="score")
    by_index = compress_video(video, params, 3, order="index")
    for t in range(video.frame_count):
        assert set(by_score.indices[t].tolist()) == set(by_index.indices[t].tolist())
        assert np.all(np.diff(by_index.indices[t]) > 0)
        scores = score_frame(attention[t])
        kept = by_score.indices[t]
        assert np.all(np.diff(scores[kept]) <= 0)
        np.testing.assert_allclose(
            by_score.tokens[t], tokens[t][kept], rtol=0, atol=1e-12 * np.abs(tokens).max()
        )


def test_sample_video_rejects_bad_args():
    out = random_output(41)
    video = synthetic_video(2, 2, 2, 3, seed=41)
    params = random_adapter_params(6, 4, 3, 4, 2, seed=41)
    for sample in (lambda k: sample_video(out, k), lambda k: compress_video(video, params, k)):
        with pytest.raises(ParameterError):
            sample(0)
        with pytest.raises(ParameterError):
            sample(99)
    with pytest.raises(ParameterError):
        compress_video(video, params, 2, "random")
    # compress_video checks k and order before attending, so they fail
    # first even on a video the adapter would reject.
    three_frames = synthetic_video(3, 2, 2, 3, seed=41)
    for k, order in ((99, "score"), (2, "random")):
        with pytest.raises(ParameterError):
            compress_video(three_frames, params, k, order)


def test_sample_video_refuses_a_pair_that_disagrees():
    tokens, attention = random_output(43)
    for pair in ((tokens[:1], attention), (tokens[:, :5], attention), (tokens[0], attention[0])):
        with pytest.raises(ShapeError, match="disagree on frames or rows"):
            sample_video(pair, 2)


@given(
    frames=st.integers(1, 4),
    grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    dims=st.tuples(st.integers(1, 5), st.integers(1, 6)),  # D, C
    queries=st.sampled_from(["N=M", 1, 3, 7]),
    keep=st.sampled_from(["1", "N"]),
    order=st.sampled_from(["score", "index"]),
    seed=st.integers(0, 2**16),
)
@example(4, (3, 3), (5, 5), "N=M", "1", "score", 5)
@example(2, (3, 3), (5, 5), 3, "1", "index", 7)
@example(2, (3, 3), (3, 3), 7, "1", "index", 6)
@settings(max_examples=60, deadline=None)
def test_compress_video_is_sample_of_adapt(frames, grid, dims, queries, keep, order, seed):
    """Projecting only the kept rows gives the kept rows of the full projection."""
    m = grid[0] * grid[1]
    n = m if queries == "N=M" else queries
    k = 1 if keep == "1" else n
    video = synthetic_video(frames, *grid, dims[0], seed=seed)
    params = random_adapter_params(n, dims[1], dims[0], m, frames, seed=seed + 1)
    want = sample_video(adapt_video(video, params), k)
    indices, tokens = want.indices, want.tokens
    if order == "index":  # the same kept rows, laid out by token index
        by_index = np.argsort(indices, axis=1)
        indices = np.take_along_axis(indices, by_index, axis=1)
        tokens = np.take_along_axis(tokens, by_index[:, :, None], axis=1)
    got = compress_video(video, params, k, order)
    assert got.keep == want.keep == k
    np.testing.assert_array_equal(got.indices, indices)
    np.testing.assert_allclose(got.tokens, tokens, rtol=0, atol=1e-12 * np.abs(tokens).max())


def test_compress_holds_one_attention_array():
    """At this shape the (T, K, D) mixed rows and their (T, K, C) tokens are
    each as big as the (T, N, M) attention, and with the (T, K, M) kept rows
    they come to 2.25 attentions. Two attentions at once (softmax into a
    second array) or the attention beside the mixed rows and tokens peaked
    at 2.9 and 3.26."""
    t, g, d, k = 8, 8, 256, 16
    m = g * g
    video = synthetic_video(t, g, g, d, seed=1)
    params = random_adapter_params(m, d, d, m, t, seed=2)
    compress_video(video, params, k)  # first-call allocations are not the video's
    _, peak = traced_peak(compress_video, video, params, k)
    assert peak < 2.5 * (8 * t * m * m)


def test_sampled_tokens_validation():
    with pytest.raises(ParameterError):
        SampledTokens(
            indices=np.array([[0, 1], [1, 1]]),  # duplicate in frame 1
            tokens=np.zeros((2, 2, 3)),
        )
    with pytest.raises(ShapeError):
        SampledTokens(
            indices=np.array([[0, 1]]),
            tokens=np.zeros((1, 3, 3)),  # 3 kept rows, 2 indices
        )
    with pytest.raises(ShapeError):
        SampledTokens(
            indices=np.array([[0, 1]]),  # one frame of indices for two of tokens
            tokens=np.zeros((2, 2, 3)),
        )
    with pytest.raises(ParameterError, match="token indices must be >= 0"):
        SampledTokens(indices=np.array([[0, -1]]), tokens=np.zeros((1, 2, 3)))
    for t, k in ((0, 2), (2, 0)):  # no frames, no kept rows
        with pytest.raises(ShapeError):
            SampledTokens(indices=np.zeros((t, k)), tokens=np.zeros((t, k, 3)))
    # Non-integer indices are refused, not truncated.
    for indices in ([[1.7, 2.2]], [[np.nan, 1.0]], np.array([[True, False]])):
        with pytest.raises(ParameterError, match="integers"):
            SampledTokens(indices=indices, tokens=np.zeros((1, 2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sampled_tokens_reach_no_file(bad, tmp_path):
    """The constructors check shapes only; the writers refuse the values."""
    tokens = np.zeros((2, 2, 3))
    tokens[1, 0, 2] = bad
    sampled = SampledTokens(indices=[[0, 1], [1, 0]], tokens=tokens)
    with pytest.raises(NumericError):
        save_sampled(sampled, tmp_path / "kept.ftv1", 4)
    with pytest.raises(NumericError):
        ftv1.write_tensor(tmp_path / "seq.ftv1", assemble_sequence(sampled, 0).video_tokens)
    assert list(tmp_path.iterdir()) == []


def test_save_load_round_trip(tmp_path):
    out = random_output(42, frames=3, n=5, m=7, c=4)
    sampled = sample_video(out, 2)
    path = tmp_path / "kept.ftv1"
    save_sampled(sampled, path, 5)
    sidecar_path = path.with_suffix(".ftv1.json")
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    assert sidecar.pop("queries") == 5
    back = load_sampled(path)
    # A sidecar written before "queries" was recorded still loads.
    sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")
    np.testing.assert_array_equal(load_sampled(path).indices, back.indices)
    assert back.keep == 2
    for t in range(3):
        np.testing.assert_array_equal(back.indices[t], sampled.indices[t])
        np.testing.assert_allclose(
            back.tokens[t],
            sampled.tokens[t].astype(np.float32).astype(np.float64),
            rtol=0,
            atol=0,
        )


@pytest.mark.parametrize(
    "queries, token, error, message",
    [
        (0, 0.0, ParameterError, "queries must be"),
        (2, 0.0, ParameterError, "queries must be"),
        (True, 0.0, ParameterError, "queries must be"),
        (2.5, 0.0, ParameterError, "queries must be"),
        (4, np.nan, NumericError, "FTV1 tensors must be finite"),
        (4, 1e39, NumericError, "FTV1 values overflow float32 storage"),
    ],
    ids=["zero", "the largest index", "bool", "float", "NaN token", "token past float32"],
)
def test_refused_save_leaves_the_old_pair(queries, token, error, message, tmp_path):
    """``queries`` must exceed every kept index, the bound load_sampled
    applies, and the tokens must be storable in float32; both are checked
    before either file of the pair is touched."""
    path = tmp_path / "kept.ftv1"
    old = SampledTokens(indices=[[0, 1]], tokens=np.ones((1, 2, 3)))
    save_sampled(old, path, 4)
    tokens = np.zeros((1, 2, 3))
    tokens[0, 1, 2] = token
    with pytest.raises(error, match=message):
        save_sampled(SampledTokens(indices=[[2, 0]], tokens=tokens), path, queries)
    back = load_sampled(path)
    np.testing.assert_array_equal(back.indices, old.indices)
    np.testing.assert_array_equal(back.tokens, old.tokens)


def test_load_sampled_requires_sidecar(tmp_path):
    out = random_output(43)
    sampled = sample_video(out, 2)
    path = tmp_path / "kept.ftv1"
    save_sampled(sampled, path, 5)
    path.with_suffix(".ftv1.json").unlink()
    with pytest.raises(FormatError):
        load_sampled(path)
