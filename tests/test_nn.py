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
