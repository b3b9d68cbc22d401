from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from framepress import adapter as adapter_mod
from framepress import ftv1
from framepress.adapter import (
    AdapterParams,
    adapt_video,
    adapter_gradients,
    init_adapter_params,
    load_checkpoint,
    random_adapter_params,
    save_checkpoint,
    sinusoidal_pos_table,
)
from framepress.encoder import VideoTokenTensor, synthetic_video
from framepress.errors import FormatError, NumericError, ParameterError, ShapeError
from framepress.linalg import fd_gradient, make_rng


def small_params(seed=0, frames=2, **overrides):
    kwargs = dict(
        queries=3, width=4, feature_dim=3, source_tokens=4, frames=frames, seed=seed
    )
    kwargs.update(overrides)
    return random_adapter_params(**kwargs)


def one_frame(feats):
    """A one-frame video holding the (M, D) ``feats`` as an M x 1 grid."""
    return VideoTokenTensor(feats[None, :, None, :])


def test_adapt_frame_matches_manual_computation():
    """One frame, one query at a time: add the temporal vector, project,
    add positions to keys only, softmax the scaled scores, mix the
    *unpositioned* projected values."""
    rng = make_rng(11)
    params = small_params(seed=12, frames=1)
    feats = rng.normal(size=(4, 3))
    tokens, attention = adapt_video(one_frame(feats), params)
    projected = (feats + params.temporal[0]) @ params.input_proj
    keys = projected + params.pos_table
    for i in range(params.query_count):
        logits = params.scale * keys @ params.queries[i]
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        np.testing.assert_allclose(attention[0, i], w, atol=1e-12, rtol=0)
        np.testing.assert_allclose(tokens[0, i], w @ projected, atol=1e-12, rtol=0)


@pytest.mark.parametrize(
    "shape", [(1, 4, 1, 3, 4), (2, 4, 3, 3, 4), (3, 6, 2, 5, 3), (2, 2, 7, 4, 2)]
)  # (T, M, N, D, C)
def test_both_associations_give_the_same_function(shape):
    """The adapter mixes features and projects after; the paper's equations
    project first. With x = tokens + τ_t, the attention is
    softmax(s·q·(xW + pos)ᵀ) and the tokens are A·xW, to rounding."""
    t, m, n, d, c = shape
    video = synthetic_video(t, m, 1, d, seed=sum(shape))
    params = random_adapter_params(n, c, d, m, t, seed=len(shape) + t)
    projected = (video.tokens() + params.temporal[:, None, :]) @ params.input_proj  # xW
    logits = params.scale * params.queries @ (projected + params.pos_table).transpose(0, 2, 1)
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    attention = e / e.sum(axis=2, keepdims=True)
    tokens = attention @ projected
    got_tokens, got_attention = adapt_video(video, params)
    np.testing.assert_allclose(got_attention, attention, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_tokens, tokens, rtol=0, atol=1e-12 * np.abs(tokens).max())


def test_adapt_holds_the_mixed_features_once():
    """All N rows at D = C and N = M: the positions enter as a logit bias,
    so each frame's shifted features serve as keys and values, and the
    peak stays under 2.25 (T, M, C) arrays plus the (T, N, M) attention:
    the mixed features and the tokens, with one frame's shifted features
    and its attention output (a whole shifted copy peaked at 2.32)."""
    t, g, d = 8, 8, 256
    m = g * g
    video = synthetic_video(t, g, g, d, seed=1)
    params = random_adapter_params(m, d, d, m, t, seed=2)
    _, peak = traced_peak(adapt_video, video, params)
    assert peak < 8 * (2.25 * t * m * d + t * m * m)


def _few_queries_case(t=8, g=16, d=256, n=4, c=16):
    """A video whose (T, M, D) features dwarf everything the adapter
    returns: N and C are small, so its peak is mostly what it copies."""
    video = synthetic_video(t, g, g, d, seed=61)
    return video, random_adapter_params(n, c, d, g * g, t, seed=62), t * g * g * d


def test_adapt_shifts_one_frame_at_a_time():
    """No shifted (T, M, D) copy: each frame is shifted while it is
    attended (a whole shifted copy peaked at 1.04 such arrays)."""
    video, params, features = _few_queries_case()
    _, peak = traced_peak(adapt_video, video, params)
    assert peak < 0.5 * 8 * features


def test_gradients_make_no_shifted_copy():
    """The backward attends one shifted frame at a time and differentiates
    on the unshifted features (a whole shifted copy peaked at 1.05 (T, M, D)
    arrays)."""
    video, params, features = _few_queries_case()
    rows = np.tile([1, 3], (video.frame_count, 1))
    grads = make_rng(63).normal(size=(video.frame_count, 2, params.width))
    _, peak = traced_peak(adapter_gradients, video, params, rows, grads)
    assert peak < 0.5 * 8 * features


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), t=st.integers(1, 3), r=st.integers(1, 4))
def test_gradients_ignore_how_the_shift_is_applied(seed, t, r):
    """The gradients equal those on the τ-shifted video with a zero
    temporal table: the backward's products on the unshifted features lose
    only the row constants that the softmax backward cancels."""
    video = synthetic_video(t, 2, 3, 5, seed=seed)
    params = random_adapter_params(4, 8, 5, 6, t, seed=seed + 1)
    params = replace(params, temporal=10.0 * params.temporal)
    rng = make_rng(seed + 2)
    rows = rng.integers(0, 4, size=(t, r))
    g = rng.normal(size=(t, r, 8))
    shifted = VideoTokenTensor(video.features + params.temporal[:, None, None, :])
    zero_t = replace(params, temporal=np.zeros_like(params.temporal))
    got = adapter_gradients(video, params, rows, g)
    want = adapter_gradients(shifted, zero_t, rows, g)
    for name in ("input_proj", "queries", "pos_table", "temporal"):
        a, b = getattr(got, name), getattr(want, name)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10 * np.abs(b).max(), err_msg=name)


def test_init_rounds_the_params_in_place():
    """New params cost little more than their own bytes: each table is
    rounded to float32 values in place and kept without a copy (rounding
    through copies peaked at ~3.0 times the params)."""
    shape = dict(queries=64, width=256, feature_dim=256, grid_h=8, grid_w=8, frames=8)
    init_adapter_params(**shape, seed=0)  # first-call allocations are not the params'
    params, peak = traced_peak(init_adapter_params, **shape, seed=1)
    tables = (params.input_proj, params.queries, params.pos_table, params.temporal)
    assert peak < 2.0 * sum(a.nbytes for a in tables)
    for a in tables:
        np.testing.assert_array_equal(a, a.astype(np.float32))


def test_positional_table_touches_keys_not_values():
    """Zeroing the positional table changes attention but the values mixed
    by a fixed attention row are the bare projected features."""
    params = small_params(seed=13, frames=1)
    rng = make_rng(14)
    feats = rng.normal(size=(4, 3))
    projected = (feats + params.temporal[0]) @ params.input_proj
    out = adapt_video(one_frame(feats), params)
    unpositioned = adapt_video(
        one_frame(feats), replace(params, pos_table=np.zeros_like(params.pos_table))
    )
    assert np.max(np.abs(out[1] - unpositioned[1])) > 1e-3
    for tokens, attention in (out, unpositioned):
        np.testing.assert_allclose(
            tokens[0], attention[0] @ projected, atol=1e-12, rtol=0
        )


def test_temporal_vectors_shift_features_before_projection():
    video = synthetic_video(2, 2, 2, 3, seed=15)
    params = small_params(seed=16)
    out = adapt_video(video, params)
    # Manually shift the features in D-space, then adapt with zero temporal.
    shifted = VideoTokenTensor(video.features + params.temporal[:, None, None, :])
    zero_t = replace(params, temporal=np.zeros_like(params.temporal))
    manual = adapt_video(shifted, zero_t)
    for got, want in zip(out, manual):  # tokens, then attention
        np.testing.assert_array_equal(got, want)


def test_default_scale_is_inverse_sqrt_width():
    params = AdapterParams(
        input_proj=np.zeros((3, 16)),
        queries=np.zeros((2, 16)),
        pos_table=np.zeros((4, 16)),
        temporal=np.zeros((1, 3)),
    )
    assert params.scale == 0.25


def test_params_shape_validation():
    tables = dict(
        input_proj=np.zeros((3, 4)), queries=np.zeros((2, 4)), pos_table=np.zeros((4, 4)), temporal=np.zeros((1, 3))
    )
    for field, shape, message in (
        ("queries", (2, 5), "query width 5 != projection width 4"),
        ("pos_table", (4, 5), "positional width 5 != projection width 4"),
        ("temporal", (1, 4), "temporal width 4 != feature dim 3"),
    ):
        with pytest.raises(ShapeError, match=message):
            AdapterParams(**{**tables, field: np.zeros(shape)})


def test_sinusoidal_table_layout():
    table = sinusoidal_pos_table(2, 3, 8)
    assert table.shape == (6, 8)
    assert np.all(np.abs(table) <= 1.0)
    # Raster order: rows 0..2 share row-coordinate 0, so their first
    # (sin of row index) block is identical.
    np.testing.assert_array_equal(table[0, :2], table[1, :2])
    with pytest.raises(ParameterError):
        sinusoidal_pos_table(2, 2, 6)


def test_gradients_match_finite_differences_seed3():
    """Squared-norm loss over all compressed tokens, checked coordinate by
    coordinate against central differences."""
    video = synthetic_video(2, 2, 2, 3, seed=3)
    params = small_params(seed=3)

    names = ("input_proj", "queries", "pos_table", "temporal")

    def loss(p):
        tokens, _ = adapt_video(video, p)
        return float(np.sum(tokens**2))

    tokens, _ = adapt_video(video, params)
    token_grads = 2.0 * tokens
    grads = adapter_gradients(video, params, np.tile(np.arange(3), (2, 1)), token_grads)

    for name in names:
        base = getattr(params, name)

        def f(x, name=name):
            return loss(replace(params, **{name: x.reshape(base.shape)}))

        fd = fd_gradient(f, base.ravel()).reshape(base.shape)
        analytic = getattr(grads, name)
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        assert err < 1e-4, f"{name}: relative error {err:.3e}"


def test_gradients_refuse_rows_out_of_range():
    """A negative row would wrap onto row N-1 and train the wrong query;
    a float row is no row at all."""
    video = synthetic_video(1, 2, 2, 3, seed=38)
    params = small_params(seed=39, frames=1)
    for row in (-1, 3, 1.0):
        with pytest.raises(ParameterError, match=r"rows must be integers in \[0, 3\)"):
            adapter_gradients(video, params, [[row]], np.ones((1, 1, 4)))
    # Rows for two frames of a one-frame video, and grads of the wrong width.
    for rows, grads in (([[0], [1]], np.ones((2, 1, 4))), ([[0]], np.ones((1, 1, 3)))):
        with pytest.raises(ShapeError, match=r"must be \(T, R\), \(T, R, 4\); T=1"):
            adapter_gradients(video, params, rows, grads)


def test_gradients_of_a_repeated_row_add():
    """Rows [[r, r]] with gradients g1 and g2 train like [[r]] with g1 + g2;
    a scatter that assigns would keep only one of them."""
    video = synthetic_video(1, 2, 2, 3, seed=40)
    params = small_params(seed=41, frames=1)
    g1, g2 = make_rng(42).normal(size=(2, 4))
    twice = adapter_gradients(video, params, [[1, 1]], np.stack([g1, g2])[None])
    once = adapter_gradients(video, params, [[1]], (g1 + g2)[None, None])
    for name in ("input_proj", "queries", "pos_table", "temporal"):
        np.testing.assert_allclose(getattr(twice, name), getattr(once, name), rtol=1e-12, atol=1e-14)


def test_backward_attends_once_per_frame_with_the_given_rows(monkeypatch):
    """T cross_attention calls of (R, D) queries each: the training step's
    2·B·T call count holds, and the backward's work scales with R, not N."""
    shapes, cross_attention = [], adapter_mod.cross_attention

    def recording(queries, *args):
        shapes.append(np.shape(queries))
        return cross_attention(queries, *args)

    monkeypatch.setattr(adapter_mod, "cross_attention", recording)
    video = synthetic_video(3, 2, 2, 3, seed=43)
    params = small_params(seed=44, frames=3, queries=6)
    rows = np.array([[0, 5], [2, 3], [4, 4]])
    adapter_gradients(video, params, rows, np.ones((3, 2, 4)))
    assert shapes == [(2, 3)] * 3


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_adapter_params(
        queries=5, width=8, feature_dim=6, grid_h=2, grid_w=3, frames=4, seed=31
    )
    save_checkpoint(params, tmp_path / "ckpt")
    back = load_checkpoint(tmp_path / "ckpt")
    np.testing.assert_array_equal(back.input_proj, params.input_proj)
    np.testing.assert_array_equal(back.queries, params.queries)
    np.testing.assert_array_equal(back.pos_table, params.pos_table)
    np.testing.assert_array_equal(back.temporal, params.temporal)
    assert back.scale == params.scale
    assert "query_pos" not in (tmp_path / "ckpt" / "adapter.json").read_text()


@pytest.mark.parametrize("table", ["input_proj", "queries", "pos_table", "temporal"])
def test_refused_checkpoint_save_leaves_the_old_checkpoint(table, tmp_path):
    """A table float32 cannot store is refused before any file is touched:
    the old header and all four old tables stay as they were."""
    params = init_adapter_params(queries=3, width=4, feature_dim=3, grid_h=2, grid_w=2, frames=2, seed=5)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(params, ckpt)
    old = {p.name: p.read_bytes() for p in ckpt.iterdir()}
    values = getattr(params, table).copy()
    values[0, 0] = 1e39
    with pytest.raises(NumericError, match="FTV1 values overflow float32 storage"):
        save_checkpoint(replace(params, **{table: values}), ckpt)
    assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == old
    np.testing.assert_array_equal(load_checkpoint(ckpt).queries, params.queries)


def test_checkpoint_legacy_query_pos_is_folded(tmp_path):
    """A checkpoint with the former additive query term loads with that
    term added to the query bank, which attends identically."""
    params = init_adapter_params(
        queries=2, width=4, feature_dim=3, grid_h=2, grid_w=2, frames=1, seed=32
    )
    root = tmp_path / "ckpt"
    save_checkpoint(params, root)
    header = root / "adapter.json"
    header.write_text(header.read_text().replace("{", '{"query_pos": true,', 1))
    query_pos = make_rng(33).normal(size=(2, 4)).astype(np.float32).astype(np.float64)
    ftv1.write_tensor(root / "query_pos.ftv1", query_pos)
    back = load_checkpoint(root)
    np.testing.assert_array_equal(back.queries, params.queries + query_pos)
    np.testing.assert_array_equal(back.input_proj, params.input_proj)
    ftv1.write_tensor(root / "query_pos.ftv1", np.zeros((3, 4)))
    with pytest.raises(FormatError):
        load_checkpoint(root)


def test_checkpoint_header_mismatch_detected(tmp_path):
    params = init_adapter_params(
        queries=2, width=4, feature_dim=3, grid_h=2, grid_w=2, frames=1, seed=33
    )
    save_checkpoint(params, tmp_path / "ckpt")
    header = tmp_path / "ckpt" / "adapter.json"
    header.write_text(header.read_text().replace('"queries": 2', '"queries": 3'))
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "ckpt")
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "nonexistent")


def test_adapt_video_rejects_wrong_token_count():
    video = synthetic_video(2, 2, 2, 3, seed=34)
    params = small_params(seed=35, source_tokens=5)
    with pytest.raises(ShapeError):
        adapt_video(video, params)
    # The backward pass checks the same shapes: a 6-token video against
    # 4-token params.
    wide = synthetic_video(2, 2, 3, 3, seed=36)
    params = small_params(seed=37)
    with pytest.raises(ShapeError, match="tokens"):
        adapter_gradients(wide, params, np.tile(np.arange(3), (2, 1)), np.zeros((2, 3, 4)))
