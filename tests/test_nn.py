import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from samgog import nn


def small_spec():
    return nn.ParamSpec((("w", (2, 3)), ("b", (3,))))


class TestParamSpec:
    def test_views_write_through(self):
        spec = small_spec()
        flat = np.zeros(spec.total)
        views = spec.views(flat)
        views["w"][1, 2] = 7.0
        views["b"][0] = -1.0
        assert flat[5] == 7.0 and flat[6] == -1.0

    def test_wrong_length_rejected(self):
        spec = small_spec()
        assert spec.total == 9
        with pytest.raises(ValueError, match="length 9"):
            spec.views(np.zeros(8))

    def test_glorot_bounds_and_zero_bias(self):
        spec = small_spec()
        flat = nn.glorot_init(spec, 1, 2)
        views = spec.views(flat)
        a = math.sqrt(6.0 / 5.0)
        assert np.all(np.abs(views["w"]) <= a)
        assert np.all(views["b"] == 0.0)
        assert np.array_equal(flat, nn.glorot_init(spec, 1, 2))


class TestCrossEntropy:
    def test_uniform_binary_is_ln2(self):
        logits = np.zeros((4, 2))
        labels = np.array([0, 1, 0, 1])
        loss, _ = nn.cross_entropy_and_dlogits(logits, labels, np.arange(4))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        logits = np.array([[30.0, 0.0], [0.0, 30.0]])
        labels = np.array([0, 1])
        loss, dlogits = nn.cross_entropy_and_dlogits(logits, labels, np.arange(2))
        assert loss < 1e-10
        assert np.abs(dlogits).max() < 1e-10

    def test_gradient_zero_outside_subset(self):
        logits = np.random.default_rng(0).normal(size=(5, 3))
        labels = np.array([0, 1, 2, 0, 1])
        _, dlogits = nn.cross_entropy_and_dlogits(logits, labels, np.array([1, 3]))
        assert np.all(dlogits[[0, 2, 4]] == 0.0)

    def test_empty_subset_rejected(self):
        with pytest.raises(nn.TrainingError):
            nn.cross_entropy_and_dlogits(
                np.zeros((2, 2)), np.zeros(2, dtype=int), np.zeros(0, dtype=int)
            )

    @pytest.mark.parametrize("labels, bad", [([0, -1, 1], -1), ([0, 2, 1], 2)])
    def test_subset_label_outside_the_classes_is_named(self, labels, bad):
        # row 2 is outside the subset, so only row 1's label is read
        with pytest.raises(ValueError, match=rf"row 1 has label {bad} outside \[0, 2\)"):
            nn.cross_entropy_and_dlogits(np.zeros((3, 2)), np.array(labels),
                                         np.array([0, 1]))

    def test_label_outside_the_subset_is_not_read(self):
        loss, dlogits = nn.cross_entropy_and_dlogits(
            np.zeros((3, 2)), np.array([0, 1, -1]), np.array([0, 1])
        )
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert np.all(dlogits[2] == 0.0)

    def test_dlogits_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 3))
        labels = np.array([2, 0, 1, 1])
        subset = np.array([0, 2, 3])
        _, dlogits = nn.cross_entropy_and_dlogits(logits, labels, subset)
        eps = 1e-6
        for i in range(4):
            for j in range(3):
                up = logits.copy()
                up[i, j] += eps
                down = logits.copy()
                down[i, j] -= eps
                lu, _ = nn.cross_entropy_and_dlogits(up, labels, subset)
                ld, _ = nn.cross_entropy_and_dlogits(down, labels, subset)
                assert dlogits[i, j] == pytest.approx((lu - ld) / (2 * eps), abs=1e-8)


class TestNormalizeAdjacency:
    def test_two_node_hand_computation(self):
        # A + I = [[1, 1], [1, 1]], degrees 2 -> every entry 1/2
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        prop = nn.normalize_adjacency(a)
        assert np.allclose(prop, np.full((2, 2), 0.5), atol=1e-15)

    def test_isolated_node_self_loop_only(self):
        prop = nn.normalize_adjacency(np.zeros((1, 1)))
        assert np.array_equal(prop, np.ones((1, 1)))


@st.composite
def weighted_graphs(draw):
    """(n, [(u, v, w), ...]) with u != v; pairs may repeat in either
    direction and some nodes may have no edge at all."""
    n = draw(st.integers(1, 12))
    edge = st.tuples(
        st.integers(0, n - 1), st.integers(1, max(n - 1, 1)),
        st.floats(min_value=0.125, max_value=8.0),
    ).map(lambda t: (t[0], (t[0] + t[1]) % n, t[2]))
    edges = draw(st.lists(edge, max_size=0 if n == 1 else 30))
    return n, edges


def operator_and_oracle(graph, normalize, eps):
    """The sparse operator of ``graph`` and its dense oracle: the normalized
    ``D^-1/2 (A + I) D^-1/2`` or the GIN ``A + (1 + eps) I``."""
    n, edges = graph
    a = np.zeros((n, n))
    for u, v, w in edges:
        a[u, v] += w
        a[v, u] += w
    src, dst, weight = ([e[k] for e in edges] for k in range(3))
    if normalize:
        return (nn.SymmetricOperator(n, src, dst, weight, normalize=True),
                nn.normalize_adjacency(a))
    return (nn.SymmetricOperator(n, src, dst, weight, diagonal=1.0 + eps),
            a + (1.0 + eps) * np.eye(n))


@given(weighted_graphs(), st.booleans(), st.floats(min_value=-0.5, max_value=2.0),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_symmetric_operator_matches_dense_oracle(graph, normalize, eps, seed):
    n, _ = graph
    op, oracle = operator_and_oracle(graph, normalize, eps)
    x = np.random.default_rng(seed).normal(size=(n, 3))
    assert np.allclose(op @ np.eye(n), oracle, rtol=1e-13, atol=1e-13)
    assert np.allclose(op @ x, oracle @ x, rtol=1e-12, atol=1e-12)


@given(weighted_graphs(), st.booleans(), st.floats(min_value=-0.5, max_value=2.0),
       st.sampled_from([1, 3, 16]), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_chunked_product_is_byte_identical(graph, normalize, eps, d, chunk, seed):
    """With chunks of 1-3 stored entries, ``op @ x`` equals one unchunked
    reduceat byte for byte, and the dense oracle to rounding."""
    n, _ = graph
    with mock.patch.object(nn, "_CHUNK_ENTRIES", chunk):
        op, oracle = operator_and_oracle(graph, normalize, eps)
    x = np.random.default_rng(seed).normal(size=(n, d))
    unchunked = np.add.reduceat(
        np.take(x, op.cols, axis=0) * op.vals[:, None], op.starts, axis=0
    )
    got = op @ x
    assert got.tobytes() == unchunked.tobytes()
    assert np.allclose(got, oracle @ x, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 65535, 65536, 65537])
def test_narrow_row_sort_gives_the_int64_order(n):
    rng = np.random.default_rng(n)
    src, dst = rng.integers(0, n, size=(2, 3 * n))
    weight = rng.random(3 * n)
    op = nn.SymmetricOperator(n, src, dst, weight, diagonal=2.0)
    nodes = np.arange(n)
    rows = np.concatenate((nodes, src, dst))
    order = np.argsort(rows, kind="stable")
    assert op.cols.tobytes() == np.concatenate((nodes, dst, src))[order].tobytes()
    vals = np.concatenate((np.full(n, 2.0), weight, weight))[order]
    assert op.vals.tobytes() == vals.tobytes()
    assert op.starts.tobytes() == np.searchsorted(rows[order], nodes).tobytes()


@pytest.mark.parametrize(
    "src, dst, message",
    [
        ([0, 1], [1], "2 edge sources but 1 destinations"),
        ([-1], [1], r"edge \(-1, 1\) has an endpoint outside \[0, 3\)"),
        ([0, 2], [1, 3], r"edge \(2, 3\) has an endpoint outside \[0, 3\)"),
    ],
)
def test_symmetric_operator_rejects_bad_edges(src, dst, message):
    with pytest.raises(ValueError, match=message):
        nn.SymmetricOperator(3, src, dst, 1.0)


@pytest.mark.parametrize(
    "src, weight, diagonal, normalize, message",
    [
        ([0.5], 1.0, 1.0, False, "edge endpoint 0.5 is not an integer node id"),
        ([0], np.nan, 1.0, True, "edge weight nan is not finite"),
        ([0], 1.0, np.inf, False, "diagonal inf is not finite"),
        ([0], -5.0, 1.0, True, r"row 0 has degree -4\.0, not > 0"),
        ([], 1.0, -1.0, True, r"row 0 has degree -1\.0, not > 0"),
    ],
)
def test_symmetric_operator_rejects_bad_weighting(
    src, weight, diagonal, normalize, message
):
    dst = [1] * len(src)
    with pytest.raises(ValueError, match=message):
        nn.SymmetricOperator(2, src, dst, weight, diagonal=diagonal, normalize=normalize)


@pytest.mark.parametrize(
    "weight, message",
    [
        ([1.0, 2.0, 3.0], r"edge weights of shape \(3,\) for 2 edges"),
        (np.ones((2, 1)), r"edge weights of shape \(2, 1\) for 2 edges"),
    ],
)
def test_symmetric_operator_rejects_a_weight_count_off_the_edges(weight, message):
    with pytest.raises(ValueError, match=message):
        nn.SymmetricOperator(3, [0, 1], [1, 2], weight)


def test_symmetric_operator_rejects_wrong_shape():
    op = nn.SymmetricOperator(3, [0, 1], [1, 2], 1.0)
    for x in (np.ones((5, 2)), np.ones((2, 2)), np.ones(3), np.ones((3, 2, 1))):
        with pytest.raises(ValueError, match=r"needs x of shape \(3, d\)"):
            op @ x


# ---------------------------------------------------------------------------
# Layer tables against the float-cache formulas
# ---------------------------------------------------------------------------


def reference_table_forward(table, x, views, op, p, rng):
    """The layer table with a float cache per row: the ReLU output itself,
    and the dropout mask ``(r >= p) / (1 - p)`` as float64."""
    caches = []
    for weight, bias, relu, _, propagate, dropout in table:
        if propagate:
            x = op @ x
        w = views[weight]
        out = x @ w
        if bias is not None:
            out += views[bias]
        if relu:
            np.maximum(out, 0.0, out=out)
        mask = None
        if dropout and p > 0.0:
            mask = (rng.random(out.shape) >= p).astype(np.float64) / (1.0 - p)
        caches.append((x, w, out if relu else None, bias is not None, mask))
        x = out if mask is None else out * mask
    return x, caches


def reference_table_backward(table, caches, dout, op, grad_views, input_grad):
    dx = dout
    for i in range(len(table) - 1, -1, -1):
        weight, bias, _, _, propagate, _ = table[i]
        x, w, out, has_bias, mask = caches.pop()
        if mask is not None:
            dx = dx * mask
        if out is not None:
            dx = dx * (out > 0)
        need_dx = input_grad or i > 0
        grad_views[weight] += x.T @ dx
        if has_bias:
            grad_views[bias] += dx.sum(axis=0)
        dx = dx @ w.T if need_dx else None
        if propagate and need_dx:
            dx = op @ dx
    return dx


@st.composite
def layer_tables(draw):
    """(table, input width): single rows with every mix of ReLU, bias,
    propagation and dropout, and GIN's two-map rows (ReLU map with bias that
    propagates, then a linear map with bias and dropout)."""
    table = []
    for k in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 4))
        if draw(st.booleans()):
            table.append((f"g{k}.W1", f"g{k}.b1", True, width, True, False))
            table.append((f"g{k}.W2", f"g{k}.b2", False, width, False, True))
        else:
            relu, bias, propagate, dropout = (draw(st.booleans()) for _ in range(4))
            table.append((f"d{k}.W", f"d{k}.b" if bias else None, relu, width,
                          propagate, dropout))
    return table, draw(st.integers(1, 4))


@given(layer_tables(), weighted_graphs(), st.sampled_from([0.0, 0.3]),
       st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_layer_table_keeps_the_float_cache_bytes(tables, graph, p, input_grad, seed):
    table, in_dim = tables
    op, _ = operator_and_oracle(graph, True, 0.0)
    spec = nn.table_param_spec(table, in_dim)
    views = spec.views(nn.glorot_init(spec, seed))
    for name, shape in spec.entries:
        if len(shape) == 1:  # nonzero biases, so some ReLUs clip and some not
            views[name][...] = np.random.default_rng(seed).normal(size=shape)
    x = np.random.default_rng([seed, 1]).normal(size=(graph[0], in_dim))
    x.flags.writeable = False
    width = table[-1][3]
    dout = np.random.default_rng([seed, 2]).normal(size=(graph[0], width))

    want, ref_caches = reference_table_forward(table, x, views, op, p,
                                               np.random.default_rng(seed))
    caches = []
    got = nn.table_forward(table, x, views, op, p, np.random.default_rng(seed),
                           caches)
    assert got.tobytes() == want.tobytes()
    assert len(caches) == len(table)

    want_grad, got_grad = np.zeros(spec.total), np.zeros(spec.total)
    want_dx = reference_table_backward(table, ref_caches, dout.copy(), op,
                                       spec.views(want_grad), input_grad)
    got_dx = nn.table_backward(table, caches, dout.copy(), op, spec.views(got_grad),
                               input_grad)
    assert caches == []
    assert got_grad.tobytes() == want_grad.tobytes()
    if input_grad:
        assert got_dx.tobytes() == want_dx.tobytes()
    else:
        assert got_dx is None and want_dx is None

    # an eval pass (no dropout, no caches list) gives the reference output,
    # and none of its dense maps builds a cache, ReLU sign included
    eval_want, _ = reference_table_forward(table, x, views, op, 0.0, None)
    dense_forward = nn.dense_forward
    dense_caches = []

    def recording_dense_forward(*args):
        out, cache = dense_forward(*args)
        dense_caches.append(cache)
        return out, cache

    with mock.patch.object(nn, "dense_forward", recording_dense_forward), \
            mock.patch.object(nn, "dropout_mask") as draw_mask:
        eval_got = nn.table_forward(table, x, views, op, 0.0, None)
    assert not draw_mask.called
    assert dense_caches == [None] * len(table)
    assert eval_got.tobytes() == eval_want.tobytes()


class TestOptimizer:
    def make_state(self, params, lr=0.1):
        spec = nn.ParamSpec((("p", (params.size,)),))
        return nn.ModelState(
            spec=spec, params=params.astype(float).copy(), learning_rate=lr
        )

    @pytest.mark.parametrize("lr", [0.0, -0.05, float("nan"), float("inf")])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            self.make_state(np.array([1.0]), lr=lr)

    def test_zero_grad_leaves_parameters(self):
        state = self.make_state(np.array([1.0, -2.0]))
        before = state.params.copy()
        nn.optimizer_step(state, np.zeros(2))
        assert np.array_equal(state.params, before)

    def test_adam_descends_quadratic_bowl(self):
        state = self.make_state(np.array([5.0, -3.0]), lr=0.1)
        losses = []
        for _ in range(10):
            losses.append(float(0.5 * (state.params**2).sum()))
            nn.optimizer_step(state, state.params.copy())
        losses.append(float(0.5 * (state.params**2).sum()))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_non_finite_grad_halts(self):
        state = self.make_state(np.array([1.0]))
        with pytest.raises(nn.TrainingError):
            nn.optimizer_step(state, np.array([np.nan]))

    def test_length_mismatch_rejected(self):
        state = self.make_state(np.array([1.0]))
        with pytest.raises(nn.TrainingError):
            nn.optimizer_step(state, np.zeros(2))


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(row):
    p = nn.softmax_rows(np.array([row]))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p >= 0.0)
