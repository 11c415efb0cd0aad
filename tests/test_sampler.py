import contextlib
import hashlib
import logging
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from samgog import sampler as sp
from samgog import similarity as sm
from samgog.degree_alloc import DegreeAllocation
from samgog.rng import generator, key_uniforms, mix, vector_keys
from samgog.similarity import (
    DegenerateRowError,
    FactorSimilarity,
    SimilarityMatrix,
    build_prob_matrix,
    expected_homophily,
    expected_inclusion_matrix,
    homophily_prob_all,
    similarity_matrix,
)


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

    @pytest.mark.parametrize("blocks", ["one block", "few rows"])
    def test_degenerate_row_names_node_with_replacement(self, blocks):
        # the row's CDF is divided by its zero mass before the check, with no
        # warning; a row in a later block still names the lowest node
        sim = random_similarity(9, seed=6, zero_rows=(3, 7))
        alloc = DegreeAllocation(k=np.full(9, 2), total=18)
        config = sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=0)
        rows = 2 if blocks == "few rows" else 9
        with few_rows(9, rows=rows), mock.patch.object(sm, "_WORKERS", 3):
            with pytest.raises(DegenerateRowError, match="node 3"):
                sp.GoGSampler(sim, alloc, config)

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
        assert "degree exceeds sampling support for 2 of 3 nodes" in caplog.text
        assert "[" not in caplog.text  # a count, not the list of node ids
        assert gog.out_degrees().tolist() == [1, 2, 1]

    def test_with_replacement_frequencies_match_closed_form(self):
        sim = random_similarity(5, seed=8)
        k = np.array([2, 3, 1, 4, 2])
        alloc = DegreeAllocation(k=k, total=int(k.sum()))
        config = sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=17)
        trials = 4000
        emp = sp.empirical_inclusion_matrix(sim, alloc, config, trials)
        expected = expected_inclusion_matrix(sim, alloc)
        p = sim.S / sim.S.sum(axis=1, keepdims=True)
        se = np.sqrt(p * (1 - p) * k[:, None] / trials)
        assert np.all(np.abs(emp - expected) <= 4.0 * se + 1e-12)


def per_row_without_replacement(sim, k, seed, stream_id, uniforms=key_uniforms):
    """Reference draw, one row at a time: row i orders its positive-weight
    columns by descending key log(u) / w, ties by column (a stable sort), and
    keeps the first min(k[i], support) of them."""
    s = sim.S
    n = len(s)
    keys = vector_keys(mix(seed, stream_id, 0x5A11), np.arange(n, dtype=np.uint64))
    u = uniforms(keys[:, None], np.arange(n, dtype=np.uint64)[None, :], open_low=True)
    rows = []
    for i in range(n):
        support = np.flatnonzero(s[i] > 0.0)
        with np.errstate(over="ignore"):  # a subnormal weight's key is -inf
            key = np.log(u[i, support]) / s[i, support]
        by_key = support[np.argsort(-key, kind="stable")]
        rows.extend((i, int(j), 1) for j in np.sort(by_key[: k[i]]))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def few_rows(n, rows=3):
    """Patch the mapper's block budget so an n-node pass uses row blocks of
    ``rows`` rows, the last one shorter when rows does not divide n."""
    return mock.patch.object(sm, "_BLOCK_BYTES", 8 * n * rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_without_replacement_matches_per_row_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=20))
    # weights of 1e-310 and 5e-324 overflow every key to -inf, so their
    # columns tie with each other at the threshold
    weight = st.one_of(
        st.just(0.0), st.sampled_from([5e-324, 1e-310, 1e-300]),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    s = np.triu(data.draw(arrays(np.float64, (n, n), elements=weight)), 1)
    s = s + s.T
    for i in np.nonzero(s.sum(axis=1) == 0.0)[0]:  # every row needs mass
        s[i, (i + 1) % n] = s[(i + 1) % n, i] = 0.5
    k = data.draw(arrays(np.int64, n, elements=st.integers(min_value=0, max_value=n)))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    stream = data.draw(st.integers(min_value=0, max_value=2**20))
    sim = sim_from(s)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=seed)
    expected = per_row_without_replacement(sim, k, seed, stream)
    gog = sp.GoGSampler(sim, alloc, config).sample(stream)
    assert gog.edges.dtype == np.int64
    assert np.array_equal(gog.edges, expected)
    with few_rows(n):
        blocked = sp.GoGSampler(sim, alloc, config).sample(stream)
    assert np.array_equal(blocked.edges, expected)


def test_without_replacement_matches_per_row_oracle_on_long_rows():
    # numpy's partition leaves short rows sorted, so only long rows with a
    # large k show whether each row's top-k is taken by key order
    n = 300
    sim = random_similarity(n, seed=21)
    k = np.random.default_rng(21).integers(0, n, size=n)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=4)
    expected = per_row_without_replacement(sim, k, 4, 2)
    gog = sp.GoGSampler(sim, alloc, config).sample(2)
    assert np.array_equal(gog.edges, expected)
    with few_rows(n, rows=7):
        blocked = sp.GoGSampler(sim, alloc, config).sample(2)
    assert np.array_equal(blocked.edges, expected)


def constant_uniforms(keys, counters, *, open_low=False, out=None, scratch=None):
    """Every uniform 0.5, so a row's keys tie wherever its weights do."""
    if out is None:
        return np.full(np.broadcast(keys, counters).shape, 0.5)
    out[...] = 0.5
    return out


@pytest.mark.parametrize("blocks", ["default", "few rows"])
def test_tied_keys_keep_the_lowest_columns_of_maximal_weight(blocks):
    n = 40
    rng = np.random.default_rng(50)
    s = np.triu(rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, n)), 1)
    s = s + s.T
    sim = sim_from(s)
    k = rng.integers(0, n, size=n)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=8)
    # keys log(0.5) / w order the columns as their weights do
    expected = []
    for i in range(n):
        by_weight = np.argsort(-s[i], kind="stable")[: (s[i] > 0.0).sum()]
        expected.extend([i, int(j), 1] for j in np.sort(by_weight[: k[i]]))
    blocking = few_rows(n) if blocks == "few rows" else contextlib.nullcontext()
    with mock.patch.object(sp, "key_uniforms", constant_uniforms), blocking:
        gog = sp.GoGSampler(sim, alloc, config).sample(0)
    assert gog.edges.tolist() == expected
    oracle = per_row_without_replacement(sim, k, 8, 0, uniforms=constant_uniforms)
    assert np.array_equal(gog.edges, oracle)


def test_subnormal_weight_is_drawn_before_zero_weights():
    # log(u) / 1e-310 overflows to -inf, the key of a zero weight, yet only
    # column 3 is in node 0's support
    s = np.zeros((6, 6))
    for (i, j), w in {(0, 3): 1e-310, (1, 2): 0.5, (3, 4): 0.5, (4, 5): 0.5,
                      (1, 5): 0.3}.items():
        s[i, j] = s[j, i] = w
    sim = sim_from(s)
    alloc = DegreeAllocation(k=np.ones(6, dtype=np.int64), total=6)
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=0)
    sampler = sp.GoGSampler(sim, alloc, config)
    for stream in range(200):
        edges = sampler.sample(stream).edges
        assert edges[0].tolist() == [0, 3, 1], stream
        assert np.array_equal(edges, per_row_without_replacement(sim, alloc.k, 0, stream))


def test_negative_weight_is_never_drawn():
    # the dense form accepts entries down to -1e-12, where log(u) / w > 0
    # would beat every positive weight's key
    s = np.array([[0.0, -1e-13, 0.5], [-1e-13, 0.0, 0.5], [0.5, 0.5, 0.0]])
    alloc = DegreeAllocation(k=np.ones(3, dtype=np.int64), total=3)
    sampler = sp.GoGSampler(
        sim_from(s), alloc, sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=1)
    )
    for stream in range(20):
        assert sampler.sample(stream).edges[:2, 1].tolist() == [2, 2]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_factor_form_matches_dense_similarity(data):
    # one-hot labeled rows give exact zeros (k can exceed the support), and
    # logits up to 40 give near one-hot softmax rows (off-class mass ~1e-35)
    n = data.draw(st.integers(min_value=2, max_value=40))
    c = data.draw(st.integers(min_value=2, max_value=3))
    logit = st.floats(min_value=-40.0, max_value=40.0)
    logits = data.draw(arrays(np.float64, (n, c), elements=logit))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, c - 1)))
    labeled = data.draw(arrays(np.bool_, n))
    labeled[0] = False  # an unlabeled row gives every row positive mass
    k = data.draw(arrays(np.int64, n, elements=st.integers(min_value=0, max_value=n)))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    stream = data.draw(st.integers(min_value=0, max_value=2**20))
    factor = similarity_matrix(build_prob_matrix(logits, labels, labeled))
    dense = SimilarityMatrix(S=factor.S, diagonal_zeroed=True)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=seed)
    expected = sp.GoGSampler(dense, alloc, config).sample(stream).edges
    gog = sp.GoGSampler(factor, alloc, config).sample(stream)
    assert np.array_equal(gog.edges, expected)
    with few_rows(n):
        blocked = sp.GoGSampler(factor, alloc, config).sample(stream)
    assert np.array_equal(blocked.edges, expected)


def unique_with_replacement(sim, k, seed, stream_id, uniforms=key_uniforms):
    """Reference with-replacement draw: every node keyed, each draw's column
    found and clipped from its row index, duplicates counted by np.unique.
    Returns the edges and the stream key."""
    s = sim.S
    n = len(s)
    cdf = np.cumsum(s, axis=1) / s.sum(axis=1)[:, None]
    flat_cdf = (cdf + np.arange(n)[:, None]).ravel()
    last_positive = n - 1 - np.argmax(s[:, ::-1] > 0.0, axis=1)
    draw_node = np.repeat(np.arange(n), k)
    first_draw = np.cumsum(k) - k
    counter = (np.arange(draw_node.size) - first_draw[draw_node]).astype(np.uint64)
    base = mix(seed, stream_id, 0x5A11)
    keys = vector_keys(base, np.arange(n, dtype=np.uint64))
    u = uniforms(keys[draw_node], counter)
    pos = np.searchsorted(flat_cdf, draw_node + u, side="right")
    dst = np.minimum(pos - draw_node * n, last_positive[draw_node])
    uniq, counts = np.unique(draw_node * n + dst, return_counts=True)
    return np.column_stack((uniq // n, uniq % n, counts)).astype(np.int64), base


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_with_replacement_matches_unique_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=20))
    if data.draw(st.booleans(), label="factor form"):
        # one-hot labeled rows give exact zeros, so a labeled row whose class
        # no other labeled row shares has node 0 as its only candidate
        c = data.draw(st.integers(min_value=2, max_value=3))
        logits = data.draw(arrays(np.float64, (n, c), elements=st.floats(-40.0, 40.0)))
        labels = data.draw(arrays(np.int64, n, elements=st.integers(0, c - 1)))
        labeled = data.draw(arrays(np.bool_, n))
        labeled[0] = False  # an unlabeled row gives every row positive mass
        sim = similarity_matrix(build_prob_matrix(logits, labels, labeled))
    else:
        weight = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))
        s = np.triu(data.draw(arrays(np.float64, (n, n), elements=weight)), 1)
        s = s + s.T
        # rows left with a single positive weight, to node 0
        single = data.draw(arrays(np.bool_, n))
        for i in np.nonzero(single[1:])[0] + 1:
            s[i, :] = s[:, i] = 0.0
            s[i, 0] = s[0, i] = 0.5
        for i in range(n):  # every row needs mass
            if s[i].sum() == 0.0:
                j = 1 if i == 0 else 0
                s[i, j] = s[j, i] = 0.5
        sim = sim_from(s)
    assert np.all(sim.S.sum(axis=1) > 0.0)
    k = data.draw(arrays(np.int64, n, elements=st.integers(min_value=0, max_value=6)))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    stream = data.draw(st.integers(min_value=0, max_value=2**20))
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=seed)
    expected, base = unique_with_replacement(sim, k, seed, stream)
    gog = sp.GoGSampler(sim, alloc, config).sample(stream)
    assert gog.edges.dtype == np.int64
    assert gog.edges.tobytes() == expected.tobytes()
    assert gog.stream_key == base


def test_top_uniform_is_clipped_to_the_last_positive_column():
    # u = 1 - 2**-53 rounds row + u up to the next row's start, so every draw
    # overshoots its row and only the clip keeps it there
    def top(keys, counters):
        return np.full(np.broadcast(keys, counters).shape, 1.0 - 2.0**-53)

    sim = random_similarity(12, seed=14)
    s = sim.S.copy()
    s[:, 9:] = s[9:, :] = 0.0  # trailing zero columns in the first nine rows
    s[9:, 0] = s[0, 9:] = 0.2
    sim = sim_from(s)
    k = np.arange(12) % 4
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=6)
    expected, _ = unique_with_replacement(sim, k, 6, 1, uniforms=top)
    with mock.patch.object(sp, "key_uniforms", top):
        gog = sp.GoGSampler(sim, alloc, config).sample(1)
    assert gog.edges.tobytes() == expected.tobytes()
    last = 11 - np.argmax(s[:, ::-1] > 0.0, axis=1)
    rows = np.nonzero(k)[0]
    assert gog.edges.tolist() == np.column_stack((rows, last[rows], k[rows])).tolist()


@pytest.mark.parametrize("mode", [sp.WITH_REPLACEMENT, sp.WITHOUT_REPLACEMENT])
def test_all_zero_allocation_gives_no_edges(mode):
    sim = random_similarity(5, seed=13)
    alloc = DegreeAllocation(k=np.zeros(5, dtype=np.int64), total=0)
    gog = sp.GoGSampler(sim, alloc, sp.SamplerConfig(mode=mode, seed=2)).sample(0)
    assert gog.edges.shape == (0, 3)
    assert gog.edges.dtype == np.int64


@pytest.mark.parametrize("mode", [sp.WITH_REPLACEMENT, sp.WITHOUT_REPLACEMENT])
def test_empty_similarity_rejected_by_name(mode):
    sim = FactorSimilarity(P=np.zeros((0, 2)), diagonal_zeroed=True)
    alloc = DegreeAllocation(k=np.zeros(0, dtype=np.int64), total=0)
    with pytest.raises(ValueError, match=r"empty similarity \(0 nodes\)"):
        sp.GoGSampler(sim, alloc, sp.SamplerConfig(mode=mode))


def square_array_fixture(n):
    rng = np.random.default_rng(30)
    labels = rng.integers(0, 2, size=n)
    prob = build_prob_matrix(rng.normal(size=(n, 2)), labels, rng.random(n) < 0.2)
    k = rng.integers(1, 11, size=n)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    return similarity_matrix(prob), alloc


def traced_draw(sim, alloc, mode=sp.WITHOUT_REPLACEMENT):
    """The edges of one draw and the peak traced bytes of building the
    sampler and drawing."""
    config = sp.SamplerConfig(mode=mode, seed=3)
    return traced_peak(lambda: sp.GoGSampler(sim, alloc, config).sample(0))


def test_without_replacement_holds_no_square_array():
    n = 3000
    sim, alloc = square_array_fixture(n)
    gog, peak = traced_draw(sim, alloc)
    assert np.array_equal(gog.out_degrees(), alloc.k)
    assert peak < n * n * 8 / 4  # a quarter of one N x N float64 array


def test_with_replacement_holds_one_square_array():
    # the row CDFs are the one N x N array; the similarity is read in blocks
    n = 3000
    sim, alloc = square_array_fixture(n)
    gog, peak = traced_draw(sim, alloc, mode=sp.WITH_REPLACEMENT)
    assert np.array_equal(gog.out_degrees(), alloc.k)
    assert peak < 1.25 * n * n * 8


def test_draw_holds_two_block_buffers():
    n = 200
    sim, alloc = square_array_fixture(n)
    sampler = sp.GoGSampler(
        sim, alloc, sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=3)
    )
    gog, peak = traced_peak(lambda: sampler.sample(0))
    block = 8 * n * sm._block_rows(n)
    assert peak < 3 * block + gog.edges.nbytes


def test_many_cpus_keep_the_draw_small():
    n = 3000
    sim, alloc = square_array_fixture(n)
    with mock.patch.object(sm, "_WORKERS", 1):
        serial = sp.GoGSampler(
            sim, alloc, sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=3)
        ).sample(0)
    with mock.patch.object(sm, "_WORKERS", 16):
        gog, peak = traced_draw(sim, alloc)
    assert np.array_equal(gog.edges, serial.edges)
    assert peak < n * n * 8 / 4  # the bound of the test above


def test_mapper_threads_make_no_block_buffers():
    """The caller makes every thread's block buffers before the threads
    start, so no samgog-blocks thread allocates a block-sized array (which
    would keep a malloc arena of that thread resident)."""
    n = 3000
    sim, alloc = square_array_fixture(n)
    block = sm._block_rows(n) * n
    made, ran = [], set()
    empty, rows = np.empty, FactorSimilarity.rows

    def recording_empty(shape, *args, **kwargs):
        made.append((threading.current_thread().name, int(np.prod(shape))))
        return empty(shape, *args, **kwargs)

    def recording_rows(self, *args, **kwargs):
        ran.add(threading.current_thread().name)
        return rows(self, *args, **kwargs)

    with mock.patch.object(sm, "_WORKERS", 2), \
            mock.patch.object(sm.np, "empty", recording_empty), \
            mock.patch.object(FactorSimilarity, "rows", recording_rows):
        sp.GoGSampler(
            sim, alloc, sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=3)
        ).sample(0)
    assert any(name.startswith("samgog-blocks") for name in ran)
    on_threads = [size for name, size in made
                  if name.startswith("samgog-blocks") and size >= block]
    assert on_threads == []
    assert [size for _, size in made].count(block) >= 4  # the draw's 2 x 2


def sparse_similarity(n, seed):
    """Random symmetric weights with about a third of the pairs at zero, so
    supports vary from row to row."""
    rng = np.random.default_rng(seed)
    s = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.65), 1)
    return sim_from(s + s.T)


def test_blocks_give_the_same_draw_on_any_number_of_threads():
    n = 301
    sim = sparse_similarity(n, seed=40)
    k = np.random.default_rng(40).integers(0, 60, size=n)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    wide = DegreeAllocation(k=np.full(n, n), total=n * n)  # clamped to support
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=6)
    expected = per_row_without_replacement(sim, k, 6, 3)
    support = (sim.S > 0.0).sum(axis=1)
    replaced = sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=6)
    # the oracle prepares every row's CDF in one pass over the dense S
    expected_replaced, _ = unique_with_replacement(sim, k, 6, 3)
    for workers in (1, 2, 3, 5):
        with few_rows(n, rows=7), mock.patch.object(sm, "_WORKERS", workers):
            sampler = sp.GoGSampler(sim, alloc, config)
            edges = sampler.sample(3).edges
            clamped = sp.GoGSampler(sim, wide, config).k_effective
            replaced_edges = sp.GoGSampler(sim, alloc, replaced).sample(3).edges
        assert np.array_equal(edges, expected), workers
        assert np.array_equal(sampler.k_effective, np.minimum(k, support)), workers
        assert np.array_equal(clamped, support), workers
        assert replaced_edges.tobytes() == expected_replaced.tobytes(), workers


class FailingRows:
    """A similarity whose ``rows`` raises ``error`` on the block starting at
    ``bad`` once ``armed`` is set, and records the names of the threads it
    serves.  It has no ``S``, so a reader can only use ``rows``."""

    def __init__(self, sim, bad, error=RuntimeError):
        self.sim, self.bad, self.error, self.armed = sim, bad, error, False
        self.num_nodes = sim.num_nodes
        self.diagonal_zeroed = sim.diagonal_zeroed
        self.threads = set()

    def rows(self, r0, r1, out=None):
        self.threads.add(threading.current_thread().name)
        if self.armed and r0 == self.bad:
            raise self.error(f"rows {r0}:{r1} failed")
        return self.sim.rows(r0, r1, out=out)


# an IndexError too: the mapper's own "queue empty" IndexError must not
# swallow a block's
@pytest.mark.parametrize("error", [RuntimeError, IndexError])
@pytest.mark.parametrize("bad", [0, 14, 294])
def test_block_error_reaches_the_caller(bad, error):
    n = 301
    sim = FailingRows(sparse_similarity(n, seed=41), bad, error)
    k = np.full(n, 5)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=2)
    failed = f"rows {bad}:{bad + 7} failed"
    with few_rows(n, rows=7), mock.patch.object(sm, "_WORKERS", 3):
        sampler = sp.GoGSampler(sim, alloc, config)
        good = sampler.sample(0).edges
        sim.armed = True
        with pytest.raises(error, match=failed):
            sampler.sample(0)
        with pytest.raises(error, match=failed):
            sp.GoGSampler(sim, alloc, config)
        sim.armed = False
        assert np.array_equal(sampler.sample(0).edges, good)


def dense_homophily(s, labels):
    """The closed form over a dense S, as one product and two row sums."""
    same = labels[:, None] == labels[None, :]
    return (s * same).sum(axis=1) / s.sum(axis=1)


@pytest.mark.parametrize("blocks", ["one block", "few rows"])
def test_homophily_reads_the_similarity_only_by_rows(blocks):
    n = 301
    dense = sparse_similarity(n, seed=47)
    sim = FailingRows(dense, bad=0)  # never armed
    labels = np.random.default_rng(47).integers(0, 3, size=n)
    k = np.random.default_rng(48).integers(0, 9, size=n)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    expected = dense_homophily(dense.S, labels)
    rows = 7 if blocks == "few rows" else n
    with few_rows(n, rows=rows), mock.patch.object(sm, "_WORKERS", 3):
        got = homophily_prob_all(sim, labels)
        mean = expected_homophily(sim, labels, alloc)
    assert got.tobytes() == expected.tobytes()
    assert mean == expected_homophily(dense, labels, alloc)
    assert mean == float((k * expected).sum() / k.sum())
    sim.armed = True
    with few_rows(n, rows=rows), mock.patch.object(sm, "_WORKERS", 3):
        with pytest.raises(RuntimeError, match=f"rows 0:{rows} failed"):
            homophily_prob_all(sim, labels)


def test_homophily_blocks_give_the_one_block_bytes_on_any_number_of_threads():
    n = 301
    sim = sparse_similarity(n, seed=49)
    labels = np.random.default_rng(49).integers(0, 3, size=n)
    with few_rows(n, rows=n):
        one_block = homophily_prob_all(sim, labels)
    assert one_block.tobytes() == dense_homophily(sim.S, labels).tobytes()
    for workers in (1, 2, 3):
        with few_rows(n, rows=7), mock.patch.object(sm, "_WORKERS", workers):
            got = homophily_prob_all(sim, labels)
        assert got.tobytes() == one_block.tobytes(), workers


def test_expected_homophily_holds_no_square_array():
    n = 3000
    sim, alloc = square_array_fixture(n)
    labels = np.random.default_rng(30).integers(0, 2, size=n)
    _, peak = traced_peak(lambda: expected_homophily(sim, labels, alloc))
    assert peak < n * n * 8 / 4  # a quarter of one N x N float64 array


@pytest.mark.parametrize("blocks", ["one block", "few rows"])
def test_with_replacement_reads_the_similarity_only_by_rows(blocks):
    # FailingRows has no S, so the sampler can only read it through rows
    n = 301
    dense = sparse_similarity(n, seed=44)
    sim = FailingRows(dense, bad=0)  # never armed
    k = np.random.default_rng(44).integers(0, 12, size=n)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=5)
    expected = sp.GoGSampler(dense, alloc, config)
    rows = 7 if blocks == "few rows" else n
    with few_rows(n, rows=rows), mock.patch.object(sm, "_WORKERS", 3):
        sampler = sp.GoGSampler(sim, alloc, config)
    for stream in range(3):
        edges = sampler.sample(stream).edges
        assert edges.tobytes() == expected.sample(stream).edges.tobytes(), stream


def test_concurrent_callers_share_one_sampler():
    n = 301
    sim = sparse_similarity(n, seed=42)
    k = np.random.default_rng(42).integers(1, 30, size=n)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=8)
    streams = range(6)
    switch = sys.getswitchinterval()
    with few_rows(n, rows=5), mock.patch.object(sm, "_WORKERS", 3):
        sampler = sp.GoGSampler(sim, alloc, config)
        serial = [sampler.sample(i).edges for i in streams]
        got = {}

        def caller(name):
            got[name] = [sampler.sample(i).edges for i in streams]

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == list(range(4))
    for edges in got.values():
        assert all(np.array_equal(a, b) for a, b in zip(edges, serial))


def test_no_block_thread_outlives_the_draw():
    n = 301
    sim = FailingRows(sparse_similarity(n, seed=45), bad=0)  # never armed
    k = np.full(n, 3)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=4)
    with few_rows(n, rows=7), mock.patch.object(sm, "_WORKERS", 3):
        gog = sp.GoGSampler(sim, alloc, config).sample(0)
    assert any(name.startswith("samgog-blocks") for name in sim.threads)
    assert not [t for t in threading.enumerate() if t.name.startswith("samgog-blocks")]
    assert np.array_equal(gog.edges, per_row_without_replacement(sim.sim, k, 4, 0))


def test_forked_child_draws_the_parents_edges():
    n = 301
    sim = sparse_similarity(n, seed=46)
    k = np.full(n, 5)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=9)
    ctx = multiprocessing.get_context("fork")
    with few_rows(n, rows=7), mock.patch.object(sm, "_WORKERS", 3):
        edges = sp.GoGSampler(sim, alloc, config).sample(0).edges
        recv, send = ctx.Pipe(duplex=False)

        def child():
            send.send_bytes(sp.GoGSampler(sim, alloc, config).sample(0).edges.tobytes())

        proc = ctx.Process(target=child)
        proc.start()
        try:
            got = recv.recv_bytes() if recv.poll(60) else None
        finally:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()
                proc.join()
    assert proc.exitcode == 0
    assert got == edges.tobytes()


def test_one_block_never_makes_the_pool():
    n = 200
    sim = sparse_similarity(n, seed=43)
    k = np.full(n, 4)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = sp.SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=1)
    assert sm._block_rows(n) == n
    no_pool = mock.patch(
        "concurrent.futures.ThreadPoolExecutor",
        side_effect=AssertionError("pool made for one block"),
    )
    with no_pool, mock.patch.object(sm, "_WORKERS", 4):
        gog = sp.GoGSampler(sim, alloc, config).sample(0)
    assert np.array_equal(gog.edges, per_row_without_replacement(sim, k, 1, 0))


def test_one_block_draw_imports_no_pool_machinery():
    # peak RSS of runs that never use the pool stays that of a serial draw;
    # criterion 6's shape: both draws and the closed form on one block
    script = """
import sys
import numpy as np
import samgog.cli
import samgog.sampler as sp
from samgog.degree_alloc import DegreeAllocation
from samgog.similarity import SimilarityMatrix, expected_homophily
s = np.ones((5, 5)) - np.eye(5)
k = np.full(5, 2)
sim = SimilarityMatrix(S=s, diagonal_zeroed=True)
for mode in (sp.WITH_REPLACEMENT, sp.WITHOUT_REPLACEMENT):
    config = sp.SamplerConfig(mode=mode)
    sp.GoGSampler(sim, DegreeAllocation(k=k, total=10), config).sample(0)
expected_homophily(sim, np.array([0, 0, 1, 1, 1]), DegreeAllocation(k=k, total=10))
assert "concurrent.futures" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def digest_fixture():
    """N = 16 with zero-weight pairs, k = 0 rows and two rows (1 and 8)
    whose k exceeds their support."""
    rng = np.random.default_rng(2024)
    n = 16
    s = rng.random((n, n))
    s = 0.5 * (s + s.T)
    s[np.triu(rng.random((n, n)) < 0.5, 1)] = 0.0
    s = np.triu(s, 1)
    s = s + s.T
    ring = (np.arange(n) + 1) % n
    s[np.arange(n), ring] = s[ring, np.arange(n)] = 0.3
    k = rng.integers(0, 9, size=n)
    k[0] = 0
    k[1] = n
    return sim_from(s), DegreeAllocation(k=k, total=int(k.sum()))


@pytest.mark.parametrize(
    "mode, digest",
    [
        (sp.WITH_REPLACEMENT,
         "ebddbe22d0ad48a2af1f89bd8454b8f8fb471974a383709c2e8f3e11236f64fd"),
        (sp.WITHOUT_REPLACEMENT,
         "c960bcf09267b3ee0443e6dc736031f1ecafa8f8d9e6379e6ca0c9110d98dc26"),
    ],
)
def test_sample_edges_keep_their_bytes(mode, digest):
    sim, alloc = digest_fixture()
    sampler = sp.GoGSampler(sim, alloc, sp.SamplerConfig(mode=mode, seed=7))
    h = hashlib.sha256()
    for stream in range(5):
        edges = sampler.sample(stream).edges
        assert edges.dtype == np.int64
        h.update(edges.tobytes())
    assert h.hexdigest() == digest


def factor_digest_case(case):
    """Criterion 6's N = 6 fixtures (cases 0-2) or an N = 300, C = 3 case
    with labeled rows (case 3), as (similarity, allocation, sampler seed)."""
    if case < 3:
        rng = generator(0xE06, case)
        logits = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        labels[0], labels[1] = 0, 1
        prob = build_prob_matrix(logits, labels, np.zeros(6, dtype=bool))
        k = rng.integers(1, 5, size=6).astype(np.int64)
        seed = case
    else:
        rng = np.random.default_rng(300)
        n = 300
        prob = build_prob_matrix(
            rng.normal(size=(n, 3)), rng.integers(0, 3, size=n), rng.random(n) < 0.3
        )
        k = rng.integers(1, 9, size=n)
        seed = 7
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    return similarity_matrix(prob), alloc, seed


@pytest.mark.parametrize(
    "case, digest",
    [
        (0, "9f239423f930eb03a80ab5f53bc4764a22983cb129dad94ce812d1477b953602"),
        (1, "e85d9f205c4a1b24dd8fd6516d2d23955888eabeaa8e43c25ad215de8463209a"),
        (2, "030823e2278deb09fd14d8b132d11e1f8143792b7afda6517dee9c0c502f20d0"),
        (3, "692771dda3404e1fa683001cc9ad290ef8092546d54c3eba21d513ddd04a2ac0"),
    ],
)
def test_factor_form_edges_keep_their_bytes(case, digest):
    sim, alloc, seed = factor_digest_case(case)
    config = sp.SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=seed)
    sampler = sp.GoGSampler(sim, alloc, config)
    h = hashlib.sha256(sim.S.tobytes())
    for stream in range(5):
        h.update(sampler.sample(stream).edges.tobytes())
    assert h.hexdigest() == digest


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

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 0, 1]])
    def test_label_count_must_match_nodes(self, labels):
        gog = sp.GoGGraph(
            edges=np.array([[0, 1, 1], [2, 0, 1]]), num_nodes=3,
            mode=sp.WITH_REPLACEMENT,
        )
        with pytest.raises(ValueError, match=f"got {len(labels)} labels for 3 nodes"):
            sp.edge_homophily(gog, np.array(labels))

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

    @pytest.mark.parametrize("trials", [0, -1])
    def test_fewer_than_one_trial_rejected_by_name(self, trials):
        sim = random_similarity(4, seed=1)
        alloc = DegreeAllocation(k=np.full(4, 2), total=8)
        with pytest.raises(ValueError, match=rf"num_trials must be >= 1, got {trials}"):
            sp.empirical_inclusion_matrix(
                sim, alloc, sp.SamplerConfig(mode=sp.WITH_REPLACEMENT), trials
            )

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


@pytest.mark.parametrize(
    "edges, match",
    [
        (np.array([[0, 5, 1]]), r"edge 0 \(0, 5, 1\) has an endpoint outside \[0, 2\)"),
        (np.array([[0, 1, 1], [-1, 0, 1]]), r"edge 1 \(-1, 0, 1\) has an endpoint"),
        (np.array([[0, 1, 0]]), "multiplicities"),
        (np.array([[0.0, 1.0, 1.0]]), r"\(E, 3\) integer array, got ndarray .* float64"),
        (np.array([0, 1, 1]), r"\(E, 3\) integer array, got ndarray of shape \(3,\)"),
        (np.zeros((1, 2), dtype=np.int64), r"shape \(1, 2\)"),
        ([[0, 1, 1]], r"\(E, 3\) integer array, got list"),
    ],
)
def test_gog_rejects_malformed_edges_by_name(edges, match):
    with pytest.raises(ValueError, match=match):
        sp.GoGGraph(edges=edges, num_nodes=2, mode=sp.WITH_REPLACEMENT)


def test_gog_rejects_an_unknown_mode_by_name():
    with pytest.raises(ValueError, match="unknown sampling mode 'x'"):
        sp.GoGGraph(edges=np.array([[0, 1, 1]]), num_nodes=2, mode="x")


def test_gog_accepts_empty_and_unsigned_edges():
    for edges in (np.zeros((0, 3), dtype=np.int64), np.array([[0, 1, 2]], dtype=np.uint32)):
        gog = sp.GoGGraph(edges=edges, num_nodes=2, mode=sp.WITH_REPLACEMENT)
        assert gog.edges is edges
