"""The adapter, the sampler and the backward against ``reference.py``, the
same block written from the equations in plain loops, at tiny shapes."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from framepress.adapter import adapt_video, adapter_gradients, random_adapter_params
from framepress.encoder import synthetic_video
from framepress.linalg import fd_gradient, make_rng
from framepress.sampler import compress_video

TABLES = ("input_proj", "queries", "pos_table", "temporal")


@st.composite
def cases(draw):
    """(frames, grid, (D, C), N, K, order, seed), with K in [1, N]."""
    n = draw(st.integers(1, 5))
    return (
        draw(st.integers(1, 3)),
        draw(st.tuples(st.integers(1, 3), st.integers(1, 3))),
        draw(st.tuples(st.integers(1, 4), st.integers(1, 4))),
        n,
        draw(st.integers(1, n)),
        draw(st.sampled_from(["score", "index"])),
        draw(st.integers(0, 2**16)),
    )


def build(case):
    """The case's video, random params, and the params' tables in order."""
    frames, (gh, gw), (d, c), n, _, _, seed = case
    video = synthetic_video(frames, gh, gw, d, seed=seed)
    params = random_adapter_params(n, c, d, gh * gw, frames, seed=seed + 1)
    return video, params, [getattr(params, name) for name in TABLES]


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


@given(cases())
@example((3, (2, 3), (4, 3), 5, 2, "score", 1))
@example((2, (3, 3), (3, 4), 4, 1, "index", 2))
@settings(max_examples=60, deadline=None)
def test_adapt_video_matches_reference(case):
    video, params, tables = build(case)
    want_tokens, want_attention = reference.adapt(video.tokens(), *tables)
    out = adapt_video(video, params)
    assert_close(out.attention, want_attention)
    assert_close(out.tokens, want_tokens)


@given(cases())
@example((3, (2, 3), (4, 3), 5, 5, "score", 1))  # K = N
@example((2, (2, 2), (3, 4), 4, 4, "index", 3))  # K = N, index order
@example((2, (1, 1), (2, 3), 4, 2, "score", 4))  # M = 1: every score ties
@example((2, (3, 3), (3, 2), 5, 3, "index", 5))
@settings(max_examples=80, deadline=None)
def test_compress_video_matches_reference(case):
    video, params, tables = build(case)
    k, order = case[4], case[5]
    want_indices, want_tokens = reference.compress(video.tokens(), *tables, k, order)
    got = compress_video(video, params, k, order)
    np.testing.assert_array_equal(got.indices, want_indices)
    assert_close(got.tokens, want_tokens)


@given(cases())
@example((2, (2, 2), (3, 4), 3, 2, "score", 6))
@example((3, (2, 3), (2, 3), 4, 4, "score", 7))  # K = N
@settings(max_examples=30, deadline=None)
def test_adapter_gradients_match_reference_loss(case):
    """The mean-pool toy loss of the top-K tokens, differentiated by central
    differences through the reference. Draws whose top-K boundary margin is
    under 1e-3 are skipped, as in ``verify.check_gradients``."""
    video, params, tables = build(case)
    features, k, seed = video.tokens(), case[4], case[6]
    _, attention = reference.adapt(features, *tables)
    scores = np.sort(attention.max(axis=2), axis=1)[:, ::-1]
    # Finite differences must not straddle a change of the kept set.
    assume(k == params.query_count or np.min(scores[:, k - 1] - scores[:, k]) >= 1e-3)
    rng = make_rng(seed + 2)
    head, target = rng.normal(size=(params.width, 2)), rng.normal(size=2)

    indices, kept = reference.compress(features, *tables, k, "score")
    row_grads = reference.mean_pool_token_grads(kept, head, target)
    grads = adapter_gradients(video, params, indices, row_grads)

    for i, name in enumerate(TABLES):
        base = tables[i]

        def loss(x, i=i):
            moved = list(tables)
            moved[i] = x.reshape(tables[i].shape)
            _, kept = reference.compress(features, *moved, k, "score")
            return reference.mean_pool_loss(kept, head, target)

        fd = fd_gradient(loss, base.ravel()).reshape(base.shape)
        err = np.linalg.norm(getattr(grads, name) - fd) / max(np.linalg.norm(fd), 1e-12)
        assert err < 1e-4, f"{name}: relative error {err:.3e}"
