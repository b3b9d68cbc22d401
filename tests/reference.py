"""The adapter, the sampler and the toy loss written from the paper's
equations, one frame and one query at a time.

Nothing here calls framepress: the property tests compare the package
with these loops. Parameters are read as plain arrays (``input_proj`` W,
``queries`` q, ``pos_table`` pos, ``temporal`` τ) and the attention scale
is 1/sqrt(C), from the equations rather than from the parameters.
"""

import math

import numpy as np


def adapt(features, input_proj, queries, pos_table, temporal):
    """``(tokens, attention)``, (T, N, C) and (T, N, M), of (T, M, D) features.

    For frame t: x_j = f_j + τ_t, v_j = x_j·W, keys k_j = v_j + pos_j;
    query i weighs the keys by softmax_j(s·q_i·k_j) and its token is
    Σ_j a_ij·v_j.
    """
    t_count, m, _ = features.shape
    n, c = queries.shape
    scale = 1.0 / math.sqrt(c)
    tokens = np.zeros((t_count, n, c))
    attention = np.zeros((t_count, n, m))
    for t in range(t_count):
        values = [(features[t, j] + temporal[t]) @ input_proj for j in range(m)]
        keys = [values[j] + pos_table[j] for j in range(m)]
        for i in range(n):
            logits = [scale * float(queries[i] @ keys[j]) for j in range(m)]
            top = max(logits)
            weights = [math.exp(logit - top) for logit in logits]
            total = sum(weights)
            for j in range(m):
                attention[t, i, j] = weights[j] / total
                tokens[t, i] += attention[t, i, j] * values[j]
    return tokens, attention


def top_k(scores, k):
    """The k indices of the highest scores, by descending score and, within
    a tie, by ascending index."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def compress(features, input_proj, queries, pos_table, temporal, k, order):
    """``(indices, tokens)``, (T, k) and (T, k, C): each frame keeps the k
    tokens whose attention rows have the largest maxima, in score order or,
    for ``order == "index"``, by token index."""
    tokens, attention = adapt(features, input_proj, queries, pos_table, temporal)
    indices = []
    for t in range(len(tokens)):
        kept = top_k([max(row) for row in attention[t]], k)
        indices.append(sorted(kept) if order == "index" else kept)
    indices = np.array(indices, dtype=np.int64)
    return indices, np.array([tokens[t][indices[t]] for t in range(len(tokens))])


def mean_pool_loss(kept, head, target):
    """The toy loss of one video: mean((mean of its kept tokens)·head − target)²."""
    pooled = kept.reshape(-1, kept.shape[-1]).mean(axis=0)
    return float(np.mean((pooled @ head - target) ** 2))


def mean_pool_token_grads(kept, head, target):
    """dLoss/dkept of :func:`mean_pool_loss`: every kept token gets
    2·(pooled·head − target)·headᵀ / (out · rows)."""
    pooled = kept.reshape(-1, kept.shape[-1]).mean(axis=0)
    diff = pooled @ head - target
    rows = kept.shape[0] * kept.shape[1]
    return np.broadcast_to(2.0 * (head @ diff) / (diff.size * rows), kept.shape).copy()
