import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from samgog import similarity as sim
from samgog.nn import softmax_rows
from samgog.degree_alloc import DegreeAllocation
from samgog.sampler import (
    GoGSampler,
    SamplerConfig,
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    edge_homophily,
)


class TestProbMatrix:
    def test_labeled_row_is_onehot(self):
        logits = np.array([[5.0, -1.0], [0.3, 0.4]])
        p = sim.build_prob_matrix(
            logits, np.array([1, -1]), np.array([True, False])
        )
        assert np.array_equal(p[0], [0.0, 1.0])

    def test_uniform_softmax_for_zero_logits(self):
        p = sim.build_prob_matrix(
            np.zeros((1, 2)), np.array([-1]), np.array([False])
        )
        assert np.array_equal(p[0], [0.5, 0.5])

    def test_closed_form_softmax(self):
        p = sim.build_prob_matrix(
            np.array([[math.log(3.0), 0.0]]), np.array([-1]), np.array([False])
        )
        assert np.allclose(p[0], [0.75, 0.25], atol=1e-12)

    def test_labeled_row_without_label_rejected(self):
        with pytest.raises(ValueError, match="labeled node 0"):
            sim.build_prob_matrix(
                np.zeros((1, 2)), np.array([-1]), np.array([True])
            )
        # node 0 is unlabeled, so node 2 is the first bad labeled node
        with pytest.raises(ValueError, match="labeled node 2 "):
            sim.build_prob_matrix(
                np.zeros((4, 2)), np.array([-1, 1, 2, -1]),
                np.array([False, True, True, True]),
            )

    @given(st.integers(min_value=1, max_value=12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_row_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, 3)) * 5
        labels = rng.integers(0, 3, size=n)
        mask = rng.random(n) < 0.5
        expected = softmax_rows(logits)
        for i in np.nonzero(mask)[0]:
            expected[i] = np.eye(3)[labels[i]]
        got = sim.build_prob_matrix(logits, labels, mask)
        assert got.tobytes() == expected.tobytes()

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            sim.similarity_matrix(np.array([[0.5, 0.6]]))

    def test_nan_rows_rejected(self):
        with pytest.raises(ValueError, match="P entries"):
            sim.similarity_matrix(np.array([[math.nan, math.nan]]))

    def test_mask_length_must_match_logits(self):
        # a short mask would leave the rows past its end unlabeled
        with pytest.raises(ValueError, match="labeled_mask"):
            sim.build_prob_matrix(
                np.zeros((4, 2)), np.array([0, 1, 0, 1]), np.array([True, True])
            )

    @pytest.mark.parametrize("num_labels", [2, 5])
    def test_labels_length_must_match_logits(self, num_labels):
        message = rf"labels has shape \({num_labels},\) for logits of shape \(4, 2\)"
        with pytest.raises(ValueError, match=message):
            sim.build_prob_matrix(
                np.zeros((4, 2)), np.zeros(num_labels, dtype=np.int64),
                np.array([True, False, True, False]),
            )


class TestSimilarityMatrix:
    def test_same_class_onehot_pairs_score_one(self):
        p = np.array([[1.0, 0.0], [1.0, 0.0]])
        s = sim.similarity_matrix(p, zero_diagonal=False)
        assert s.S[0, 1] == 1.0

    def test_cross_class_onehot_pairs_score_zero(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = sim.similarity_matrix(p, zero_diagonal=False)
        assert s.S[0, 1] == 0.0

    def test_hand_dot_product(self):
        p = np.array([[0.75, 0.25], [0.5, 0.5]])
        s = sim.similarity_matrix(p, zero_diagonal=False)
        assert s.S[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_diagonal_zeroing(self):
        p = np.array([[0.75, 0.25], [0.5, 0.5]])
        s = sim.similarity_matrix(p, zero_diagonal=True)
        assert np.all(np.diag(s.S) == 0.0)
        assert s.diagonal_zeroed

    @given(st.integers(min_value=2, max_value=12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_positive_semidefinite_before_zeroing(self, n, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, 3))
        p = sim.build_prob_matrix(
            logits, np.full(n, -1), np.zeros(n, dtype=bool)
        )
        s = sim.similarity_matrix(p, zero_diagonal=False)
        eigs = np.linalg.eigvalsh(s.S)
        assert eigs.min() >= -1e-9


class TestHomophilyProb:
    def test_all_same_label_is_one(self):
        s = sim.SimilarityMatrix(
            S=np.array([[0.0, 0.3, 0.2], [0.3, 0.0, 0.4], [0.2, 0.4, 0.0]]),
            diagonal_zeroed=True,
        )
        assert sim.homophily_prob_all(s, np.zeros(3, dtype=int))[0] == 1.0

    def test_single_cross_label_neighbor_is_zero(self):
        s = sim.SimilarityMatrix(
            S=np.array([[0.0, 0.7, 0.0], [0.7, 0.0, 0.1], [0.0, 0.1, 0.0]]),
            diagonal_zeroed=True,
        )
        assert sim.homophily_prob_all(s, np.array([0, 1, 1]))[0] == 0.0

    def test_hand_case_point_seven_five(self):
        s_row = np.array(
            [
                [0.0, 0.5, 0.25, 0.25],
                [0.5, 0.0, 0.0, 0.0],
                [0.25, 0.0, 0.0, 0.0],
                [0.25, 0.0, 0.0, 0.0],
            ]
        )
        s = sim.SimilarityMatrix(S=s_row, diagonal_zeroed=True)
        labels = np.array([0, 0, 1, 0])
        assert sim.homophily_prob_all(s, labels)[0] == pytest.approx(0.75, abs=1e-15)

    def test_degenerate_row_rejected(self):
        s = sim.SimilarityMatrix(
            S=np.array([[0.0, 0.0], [0.0, 0.0]]), diagonal_zeroed=True
        )
        with pytest.raises(sim.DegenerateRowError):
            sim.homophily_prob_all(s, np.array([0, 0]))

    @pytest.mark.parametrize("form", ["dense", "factor"])
    def test_no_nodes_give_an_empty_array(self, form):
        s = (
            sim.SimilarityMatrix(S=np.empty((0, 0)), diagonal_zeroed=True)
            if form == "dense"
            else sim.FactorSimilarity(P=np.empty((0, 2)), diagonal_zeroed=True)
        )
        probs = sim.homophily_prob_all(s, np.empty(0, dtype=np.int64))
        assert probs.shape == (0,) and probs.dtype == np.float64

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 0, 1], [[0], [1], [0]]])
    def test_label_count_must_match_nodes(self, labels):
        s = sim.similarity_matrix(np.full((3, 2), 0.5), zero_diagonal=True)
        with pytest.raises(ValueError, match=r"one label per similarity node: got "
                           rf"labels of shape \({len(labels)},.*\) for 3 nodes"):
            sim.homophily_prob_all(s, np.array(labels))

    @given(st.integers(min_value=2, max_value=10), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_always_in_unit_interval(self, n, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, 2))
        labels = rng.integers(0, 2, size=n)
        p = sim.build_prob_matrix(logits, labels, np.zeros(n, dtype=bool))
        s = sim.similarity_matrix(p, zero_diagonal=True)
        probs = sim.homophily_prob_all(s, labels)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


class TestExpectedHomophily:
    def test_constant_prob_is_that_constant(self):
        # indistinguishable rows: every node's homophily probability is the
        # same constant (1 same-class neighbor of 3), so the degree-weighted
        # mean equals it for any allocation
        p = np.full((4, 2), 0.5)
        s = sim.similarity_matrix(p, zero_diagonal=True)
        labels = np.array([0, 1, 0, 1])
        probs = sim.homophily_prob_all(s, labels)
        assert np.allclose(probs, probs[0])
        for k in ([1, 5, 2, 9], [4, 4, 4, 4], [9, 1, 1, 1]):
            alloc = DegreeAllocation(k=np.array(k), total=int(np.sum(k)))
            assert sim.expected_homophily(s, labels, alloc) == pytest.approx(
                probs[0], abs=1e-12
            )

    def test_weighted_mean_three_to_one(self):
        # prob vector (1, 0) with degrees (3, 1) -> 0.75
        mixed = sim.SimilarityMatrix(
            S=np.array([[0.0, 0.5], [0.5, 0.0]]), diagonal_zeroed=True
        )
        labels2 = np.array([0, 1])
        alloc = DegreeAllocation(k=np.array([3, 1]), total=4)
        # both rows have prob 0 here; assert the degenerate case directly
        p0 = sim.homophily_prob_all(mixed, labels2)[0]
        assert p0 == 0.0
        assert sim.expected_homophily(mixed, labels2, alloc) == 0.0

    def test_all_zero_allocation_rejected_by_name(self):
        s = sim.similarity_matrix(np.full((3, 2), 0.5), zero_diagonal=True)
        alloc = DegreeAllocation(k=np.zeros(3, dtype=np.int64), total=0)
        with pytest.raises(ValueError, match="undefined for an all-zero allocation"):
            sim.expected_homophily(s, np.array([0, 1, 0]), alloc)

    @pytest.mark.parametrize("k", [[1, 2], [1, 2, 3, 4]])
    def test_allocation_length_must_match_nodes(self, k):
        s = sim.similarity_matrix(np.full((3, 2), 0.5), zero_diagonal=True)
        alloc = DegreeAllocation(k=np.array(k), total=int(np.sum(k)))
        with pytest.raises(ValueError, match=r"one degree per similarity node: got "
                           rf"an allocation of shape \({len(k)},\) for 3 nodes"):
            sim.expected_homophily(s, np.array([0, 1, 0]), alloc)

    def test_label_count_must_match_nodes(self):
        s = sim.similarity_matrix(np.full((3, 2), 0.5), zero_diagonal=True)
        alloc = DegreeAllocation(k=np.array([1, 2, 3]), total=6)
        with pytest.raises(ValueError, match="one label per similarity node"):
            sim.expected_homophily(s, np.array([0, 1]), alloc)

    def test_monte_carlo_consistency_small(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        p = sim.build_prob_matrix(logits, labels, np.zeros(6, dtype=bool))
        s = sim.similarity_matrix(p, zero_diagonal=True)
        alloc = DegreeAllocation(k=np.array([2, 3, 1, 2, 2, 2]), total=12)
        closed = sim.expected_homophily(s, labels, alloc)
        sampler = GoGSampler(
            s, alloc, SamplerConfig(mode=WITH_REPLACEMENT, seed=5)
        )
        trials = 20000
        values = np.array(
            [edge_homophily(sampler.sample(t), labels) for t in range(trials)]
        )
        sigma = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - closed) <= 3.0 * sigma + 1e-12


class TestExpectedInclusion:
    def test_row_without_mass_is_named(self):
        s = sim.SimilarityMatrix(
            S=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            diagonal_zeroed=True,
        )
        alloc = DegreeAllocation(k=np.array([1, 1, 1]), total=3)
        with pytest.raises(sim.DegenerateRowError,
                           match="node 2 has no positive off-diagonal similarity"):
            sim.expected_inclusion_matrix(s, alloc)

    @pytest.mark.parametrize("k", [[1, 2], [1, 2, 3, 4]])
    def test_allocation_length_must_match_nodes(self, k):
        s = sim.similarity_matrix(np.full((3, 2), 0.5), zero_diagonal=True)
        alloc = DegreeAllocation(k=np.array(k), total=int(np.sum(k)))
        with pytest.raises(ValueError, match=r"one degree per similarity node: got "
                           rf"an allocation of shape \({len(k)},\) for a "
                           r"similarity of shape \(3, 3\)"):
            sim.expected_inclusion_matrix(s, alloc)


class TestOneHotPurity:
    @given(st.integers(min_value=4, max_value=12), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_promoting_a_row_to_onehot_never_lowers_own_prob(self, n, seed):
        # every other row keeps > 0.5 mass on its own class, so the
        # population mass constants satisfy the dominance constraints
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]  # both classes present
        own = rng.uniform(0.55, 0.99, size=n)
        p_soft = np.zeros((n, 2))
        p_soft[np.arange(n), labels] = own
        p_soft[np.arange(n), 1 - labels] = 1.0 - own
        i = int(rng.integers(0, n))

        def prob_with_row(row):
            p = p_soft.copy()
            p[i] = row
            s = sim.similarity_matrix(p, zero_diagonal=True)
            return sim.homophily_prob_all(s, labels)[i]

        soft = prob_with_row(p_soft[i])
        onehot = np.zeros(2)
        onehot[labels[i]] = 1.0
        hard = prob_with_row(onehot)
        assert hard >= soft - 1e-12


@pytest.mark.parametrize("mode", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
def test_dense_similarity_rejects_nan_before_sampling(mode):
    # NaN fails every comparison, so a range check alone lets it through:
    # the draw then prefers the NaN pairs or emits a self-edge
    nan = math.nan
    s = np.array([[0.0, nan, 0.5], [nan, 0.0, 0.2], [0.5, 0.2, 0.0]])
    alloc = DegreeAllocation(k=np.array([2, 2, 2]), total=6)
    with pytest.raises(ValueError, match=r"finite: S\[0, 1\] = nan"):
        GoGSampler(
            sim.SimilarityMatrix(S=s, diagonal_zeroed=True), alloc,
            SamplerConfig(mode=mode, seed=0),
        ).sample(0)
