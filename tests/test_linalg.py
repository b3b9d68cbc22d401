import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framepress.errors import NumericError, ParameterError, ShapeError
from framepress.linalg import (
    as_matrix,
    attention_weights,
    cross_attention,
    fd_gradient,
    make_rng,
    softmax_rows,
    split_rng,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def matrices(max_rows=8, max_cols=8):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: arrays(np.float64, (r, c), elements=finite)
        )
    )


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_softmax_rows_sum_to_one(m):
    out = softmax_rows(m)
    assert out.shape == m.shape
    assert np.all(out >= 0.0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12, rtol=0)


def test_softmax_stable_under_large_logits():
    out = softmax_rows(np.array([[1000.0, 1000.0, -1000.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5, 0.0]], atol=1e-300)


def test_softmax_rejects_empty_and_nonfinite():
    with pytest.raises(ShapeError):
        softmax_rows(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        softmax_rows(np.zeros(3))
    with pytest.raises(NumericError):
        softmax_rows(np.array([[np.nan, 1.0]]))


def test_softmax_rows_never_writes_its_input():
    m = make_rng(3).normal(size=(4, 5))
    before = m.copy()
    out = softmax_rows(m)
    np.testing.assert_array_equal(m, before)
    assert not np.shares_memory(out, m)


def test_kernels_refuse_empty_keys_and_infinite_bias():
    """Both kernels normalise their logits through softmax's own checks."""
    q, no_bias = np.zeros((3, 4)), np.zeros((3, 0))
    for keys in (np.zeros((0, 4)), np.zeros((2, 0, 4))):
        with pytest.raises(ShapeError, match="non-empty"):
            attention_weights(q, keys, 1.0, no_bias)
    with pytest.raises(ShapeError, match="non-empty"):
        cross_attention(q, np.zeros((0, 4)), 1.0, no_bias)
    keys, bias = np.zeros((2, 4)), np.array([[0.0, -np.inf]] * 3)
    with pytest.raises(NumericError):
        attention_weights(q, keys, 1.0, bias)
    with pytest.raises(NumericError):
        cross_attention(q, keys, 1.0, bias)


def test_cross_attention_matches_per_query_loop():
    """The vectorized kernel must agree with the obvious per-query math,
    with the features as both keys and values."""
    rng = make_rng(5)
    q = rng.normal(size=(4, 6))
    k = rng.normal(size=(9, 6))
    scale = 1.0 / np.sqrt(6)
    weights, out = cross_attention(q, k, scale, np.zeros((4, 9)))
    for i in range(4):
        logits = np.array([scale * float(q[i] @ k[j]) for j in range(9)])
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        np.testing.assert_allclose(weights[i], w, atol=1e-12, rtol=0)
        np.testing.assert_allclose(out[i], w @ k, atol=1e-12, rtol=0)


def test_cross_attention_bias_is_added_to_scaled_logits():
    rng = make_rng(8)
    q, k = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
    bias = rng.normal(size=(3, 4))
    weights, out = cross_attention(q, k, 0.7, bias)
    logits = q @ k.T * 0.7 + bias
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(weights, want, atol=1e-12, rtol=0)
    np.testing.assert_allclose(out, want @ k, atol=1e-12, rtol=0)
    with pytest.raises(ShapeError, match="bias"):
        cross_attention(q, k, 0.7, bias.T)


def test_cross_attention_shape_errors():
    ok, bias = np.zeros((2, 3)), np.zeros((2, 2))
    with pytest.raises(ShapeError):
        cross_attention(ok, np.zeros((2, 4)), 1.0, bias)
    # Every operand is checked before any logits are formed, so a shape
    # error is not hidden behind non-finite logits.
    with pytest.raises(ShapeError, match="bias must have shape"):
        cross_attention(ok, np.full((5, 3), np.inf), 1.0, bias)
    with pytest.raises(ShapeError, match="attention operands must be 2-D"):
        cross_attention(ok, np.zeros((4, 2, 3)), 1.0, bias)


def test_attention_weights_over_stacked_keys_is_per_frame_cross_attention():
    """Keys stacked as (F, M, D) give each frame's cross-attention weights,
    with the one bias added to every frame's scaled logits."""
    rng = make_rng(9)
    q, keys = rng.normal(size=(3, 5)), rng.normal(size=(4, 6, 5))
    bias = rng.normal(size=(3, 6))
    stacked = attention_weights(q, keys, 0.6, bias)
    assert stacked.shape == (4, 3, 6)
    for f in range(4):
        weights, _ = cross_attention(q, keys[f], 0.6, bias)
        np.testing.assert_allclose(stacked[f], weights, atol=1e-15, rtol=0)
    # The bias is applied: without it every frame's weights change.
    unbiased = attention_weights(q, keys, 0.6, np.zeros_like(bias))
    assert np.all(np.abs(unbiased - stacked).max(axis=(1, 2)) > 1e-3)
    logits = q @ keys[2].T * 0.6 + bias
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    np.testing.assert_allclose(stacked[2], e / e.sum(axis=1, keepdims=True), atol=1e-12, rtol=0)


def test_attention_weights_rejects_bad_shapes_and_nonfinite_logits():
    q, keys, no_bias = np.zeros((3, 5)), np.zeros((4, 6, 5)), np.zeros((3, 6))
    for bad_q, bad_keys in (
        (np.zeros(5), keys),  # 1-D queries
        (q, np.zeros((2, 4, 6, 5))),  # 4-D keys
        (q, np.zeros((4, 6, 4))),  # columns differ
    ):
        with pytest.raises(ShapeError):
            attention_weights(bad_q, bad_keys, 1.0, no_bias)
    for bias in (np.zeros((6, 3)), np.zeros((4, 3, 6)), np.zeros(6)):
        with pytest.raises(ShapeError, match="bias"):
            attention_weights(q, keys, 1.0, bias)
    with pytest.raises(NumericError):
        attention_weights(np.ones((3, 5)), np.full((4, 6, 5), np.inf), 1.0, no_bias)
    with pytest.raises(NumericError):
        attention_weights(q, keys, 1.0, np.full((3, 6), np.nan))


def test_as_matrix_validation():
    with pytest.raises(ShapeError, match="table must be a non-empty 2-D array"):
        as_matrix(np.zeros(3), "table")
    with pytest.raises(NumericError, match="table contains non-finite entries"):
        as_matrix([[np.inf]], "table")
    frozen = as_matrix([[1.0, 2.0]], "table")
    assert not frozen.flags.writeable
    # A writable input is copied, so later writes do not reach the result.
    src = np.ones((2, 2))
    copy = as_matrix(src, "table")
    src[0, 0] = 7.0
    assert copy[0, 0] == 1.0
    # A read-only float64 input is passed on as is.
    assert as_matrix(frozen, "table") is frozen
    # Memory the caller can still write through another object is copied too.
    held = as_matrix(memoryview(src), "table")
    src[0, 0] = 8.0
    assert held[0, 0] == 7.0 and not held.flags.writeable


def test_make_rng_is_deterministic_and_split_streams_differ():
    a = make_rng(42).normal(size=5)
    b = make_rng(42).normal(size=5)
    np.testing.assert_array_equal(a, b)
    first = [g.normal(size=5) for g in split_rng(42, 2)]
    second = [g.normal(size=5) for g in split_rng(42, 2)]
    assert not np.array_equal(first[0], first[1])
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])


def test_negative_seed_is_a_parameter_error():
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        make_rng(-1)
    with pytest.raises(ParameterError, match="seed must be >= 0, got -3"):
        split_rng(-3, 2)


def test_fd_gradient_on_quadratic():
    # f(x) = x'Ax has gradient (A + A')x
    rng = make_rng(7)
    a = rng.normal(size=(5, 5))
    x0 = rng.normal(size=5)
    grad = fd_gradient(lambda x: float(x @ a @ x), x0)
    np.testing.assert_allclose(grad, (a + a.T) @ x0, atol=1e-6, rtol=0)


def test_fd_gradient_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        fd_gradient(lambda x: 0.0, np.zeros((2, 2)))
    with pytest.raises(NumericError):
        fd_gradient(lambda x: float("nan"), np.zeros(2))
