import logging
import math

import numpy as np
import pytest

from samgog import sampler as sp
from samgog.degree_alloc import DegreeAllocation
from samgog.similarity import DegenerateRowError, SimilarityMatrix


def sim_from(matrix, zeroed=True):
    return SimilarityMatrix(S=np.asarray(matrix, dtype=float), diagonal_zeroed=zeroed)


def random_similarity(n, seed, zero_rows=()):
    rng = np.random.default_rng(seed)
    s = rng.random((n, n))
    s = 0.5 * (s + s.T)
    np.fill_diagonal(s, 0.0)
    for i in zero_rows:
        s[i, :] = 0.0
        s[:, i] = 0.0
    return SimilarityMatrix(S=s, diagonal_zeroed=True)


class TestSampleGoG:
    def test_single_candidate_row_forced(self):
        s = sim_from([[0.0, 0.7], [0.7, 0.0]])
        alloc = DegreeAllocation(k=np.array([1, 1]), total=2)
        for mode in (sp.WITH_REPLACEMENT, sp.WITHOUT_REPLACEMENT):
            config = sp.SamplerConfig(mode=mode, seed=3)
            gog = sp.GoGSampler(s, alloc, config).sample(0)
            assert sorted(map(tuple, gog.edges.tolist())) == [
                (0, 1, 1), (1, 0, 1),
            ]

    def test_exhaustive_support_without_replacement(self):
        s = np.full((5, 5), 0.25)
        np.fill_diagonal(s, 0.0)
        sim = sim_from(s)
        alloc = DegreeAllocation(k=np.array([4, 4, 4, 4, 4]), total=20)
        gog = sp.GoGSampler(
            sim, alloc,
            sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=1),
        ).sample(7)
        assert len(gog.edges) == 20
        assert np.all(gog.edges[:, 2] == 1)
        for i in range(5):
            dsts = sorted(gog.edges[gog.edges[:, 0] == i][:, 1].tolist())
            assert dsts == sorted(set(range(5)) - {i})

    def test_no_self_edges_ever(self):
        sim = random_similarity(8, seed=2)
        alloc = DegreeAllocation(k=np.full(8, 3), total=24)
        for mode in (sp.WITH_REPLACEMENT, sp.WITHOUT_REPLACEMENT):
            for stream in range(20):
                gog = sp.GoGSampler(
                    sim, alloc,
                    sp.SamplerConfig(mode=mode, seed=5),
                ).sample(stream)
                assert np.all(gog.edges[:, 0] != gog.edges[:, 1])

    def test_out_degrees_match_allocation(self):
        sim = random_similarity(7, seed=3)
        k = np.array([1, 2, 3, 4, 5, 2, 1])
        alloc = DegreeAllocation(k=k, total=int(k.sum()))
        for mode in (sp.WITH_REPLACEMENT, sp.WITHOUT_REPLACEMENT):
            config = sp.SamplerConfig(mode=mode, seed=9)
            gog = sp.GoGSampler(sim, alloc, config).sample(4)
            assert np.array_equal(gog.out_degrees(), k)

    def test_distinct_neighbors_without_replacement(self):
        sim = random_similarity(6, seed=4)
        alloc = DegreeAllocation(k=np.full(6, 4), total=24)
        gog = sp.GoGSampler(
            sim, alloc,
            sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=2),
        ).sample(0)
        pairs = set(map(tuple, gog.edges[:, :2].tolist()))
        assert len(pairs) == len(gog.edges)

    def test_seed_determinism_and_stream_independence(self):
        sim = random_similarity(6, seed=5)
        alloc = DegreeAllocation(k=np.full(6, 2), total=12)
        config = sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=11)
        direct = sp.GoGSampler(sim, alloc, config).sample(5)
        sampler = sp.GoGSampler(sim, alloc, config)
        for other in (0, 1, 2, 3, 4):
            sampler.sample(other)
        again = sampler.sample(5)
        assert np.array_equal(direct.edges, again.edges)
        assert not np.array_equal(
            direct.edges, sampler.sample(6).edges
        )  # distinct streams differ

    def test_degenerate_row_names_node(self):
        sim = random_similarity(5, seed=6, zero_rows=(3,))
        alloc = DegreeAllocation(k=np.full(5, 2), total=10)
        with pytest.raises(DegenerateRowError, match="node 3"):
            sp.GoGSampler(sim, alloc, sp.SamplerConfig(seed=0)).sample(0)

    def test_unzeroed_diagonal_rejected(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        sim = SimilarityMatrix(S=s, diagonal_zeroed=False)
        alloc = DegreeAllocation(k=np.array([1, 1]), total=2)
        with pytest.raises(ValueError, match="diagonal"):
            sp.GoGSampler(sim, alloc, sp.SamplerConfig(seed=0)).sample(0)

    def test_support_clamp_warns_and_reduces(self, caplog):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = 0.9  # node 0 has a single candidate
        s[1, 2] = s[2, 1] = 0.5
        s[0, 2] = s[2, 0] = 0.0
        sim = sim_from(s)
        alloc = DegreeAllocation(k=np.array([2, 2, 2], dtype=np.int64), total=6)
        with caplog.at_level(logging.WARNING):
            gog = sp.GoGSampler(
                sim, alloc,
                sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=1),
            ).sample(0)
        assert "support" in caplog.text
        assert gog.out_degrees().tolist() == [1, 2, 1]

    def test_with_replacement_frequencies_match_closed_form(self):
        sim = random_similarity(5, seed=8)
        k = np.array([2, 3, 1, 4, 2])
        alloc = DegreeAllocation(k=k, total=int(k.sum()))
        config = sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=17)
        trials = 4000
        emp = sp.empirical_inclusion_matrix(sim, alloc, config, trials)
        expected = sp.expected_inclusion_matrix(sim, alloc)
        p = sim.S / sim.S.sum(axis=1, keepdims=True)
        se = np.sqrt(p * (1 - p) * k[:, None] / trials)
        assert np.all(np.abs(emp - expected) <= 4.0 * se + 1e-12)


class TestEdgeHomophily:
    def test_all_same_label_is_one(self):
        gog = sp.GoGGraph(
            edges=np.array([[0, 1, 2], [1, 2, 1]]), num_nodes=3,
            mode=sp.WITH_REPLACEMENT,
        )
        assert sp.edge_homophily(gog, np.zeros(3, dtype=int)) == 1.0

    def test_bipartite_cross_label_is_zero(self):
        gog = sp.GoGGraph(
            edges=np.array([[0, 1, 1], [1, 0, 3], [2, 1, 1]]), num_nodes=3,
            mode=sp.WITH_REPLACEMENT,
        )
        assert sp.edge_homophily(gog, np.array([0, 1, 0])) == 0.0

    def test_three_of_four_is_point75(self):
        gog = sp.GoGGraph(
            edges=np.array([[0, 1, 1], [1, 0, 1], [2, 3, 1], [3, 0, 1]]),
            num_nodes=4, mode=sp.WITHOUT_REPLACEMENT,
        )
        labels = np.array([0, 0, 1, 1])
        # homophilous: (0,1), (1,0), (2,3); cross: (3,0)
        assert sp.edge_homophily(gog, labels) == 0.75

    def test_multiplicity_weighting(self):
        gog = sp.GoGGraph(
            edges=np.array([[0, 1, 3], [0, 2, 1]]), num_nodes=3,
            mode=sp.WITH_REPLACEMENT,
        )
        labels = np.array([0, 0, 1])
        assert sp.edge_homophily(gog, labels) == 0.75

    def test_empty_edge_set_rejected(self):
        gog = sp.GoGGraph(
            edges=np.zeros((0, 3), dtype=np.int64), num_nodes=2,
            mode=sp.WITH_REPLACEMENT,
        )
        with pytest.raises(sp.EmptyGoGError):
            sp.edge_homophily(gog, np.array([0, 1]))


class TestEmpiricalInclusion:
    def test_deterministic_rows_give_exact_counts(self):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = 1.0
        s[2, 0] = s[0, 2] = 0.0
        s[2, 1] = s[1, 2] = 0.4
        sim = sim_from(s)
        k = np.array([3, 1, 2])
        alloc = DegreeAllocation(k=k, total=6)
        emp = sp.empirical_inclusion_matrix(
            sim, alloc, sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=3), 50
        )
        assert emp[0, 1] == 3.0  # node 0 always lands on its only candidate
        assert emp[2, 1] == 2.0

    def test_symmetric_two_candidate_rows_converge_to_half(self):
        s = np.array(
            [
                [0.0, 0.5, 0.5],
                [0.5, 0.0, 0.5],
                [0.5, 0.5, 0.0],
            ]
        )
        sim = sim_from(s)
        k = np.array([2, 2, 2])
        alloc = DegreeAllocation(k=k, total=6)
        trials = 4000
        emp = sp.empirical_inclusion_matrix(
            sim, alloc, sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=5), trials
        )
        off = emp[~np.eye(3, dtype=bool)]
        se = math.sqrt(0.5 * 0.5 * 2 / trials)
        assert np.all(np.abs(off - 1.0) <= 4 * se)

    def test_requires_with_replacement(self):
        sim = random_similarity(4, seed=1)
        alloc = DegreeAllocation(k=np.full(4, 2), total=8)
        with pytest.raises(ValueError):
            sp.empirical_inclusion_matrix(
                sim, alloc, sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT), 10
            )


def test_gog_dump_round_trip(tmp_path):
    sim = random_similarity(5, seed=12)
    alloc = DegreeAllocation(k=np.full(5, 2), total=10)
    gog = sp.GoGSampler(sim, alloc, sp.SamplerConfig(seed=4)).sample(9)
    path = tmp_path / "gog.txt"
    sp.dump_gog(gog, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == f"{gog.num_nodes} {gog.mode} {gog.stream_key}"
    rows = [[int(t) for t in line.split()] for line in lines[1:]]
    assert np.array_equal(np.array(rows, dtype=np.int64), gog.edges)


def test_gog_rejects_self_edges():
    with pytest.raises(ValueError):
        sp.GoGGraph(
            edges=np.array([[1, 1, 1]]), num_nodes=2, mode=sp.WITH_REPLACEMENT
        )
