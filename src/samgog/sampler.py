"""Importance sampling of graph-of-graphs structures from a similarity
matrix under a fixed degree allocation.

Two modes: with-replacement draws k_i independent neighbors per node from
the categorical distribution S[i, .] / sum(S[i, .]) and records duplicates
as edge multiplicity, which makes expected edge counts exactly
k_i * S[i, j] / sum_m S[i, m]; without-replacement draws k_i distinct
neighbors by perturbed keys (log(u) / w order statistics).

Per-node randomness is keyed by (seed, stream id, node id) counters, so one
sample is reproducible bit-for-bit regardless of how rows are scheduled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .degree_alloc import DegreeAllocation
from .rng import key_uniforms, mix, vector_keys
from .similarity import DegenerateRowError, SimilarityMatrix

logger = logging.getLogger(__name__)

WITH_REPLACEMENT = "with-replacement"
WITHOUT_REPLACEMENT = "without-replacement"


class EmptyGoGError(Exception):
    """Edge homophily is undefined on an empty edge set."""


@dataclass(frozen=True)
class SamplerConfig:
    mode: str = WITHOUT_REPLACEMENT
    seed: int = 0
    samples_per_epoch: int = 1

    def __post_init__(self):
        if self.mode not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.samples_per_epoch < 1:
            raise ValueError("samples_per_epoch must be >= 1")


@dataclass(frozen=True)
class GoGGraph:
    edges: np.ndarray  # (E, 3) int64 rows (src, dst, multiplicity)
    num_nodes: int
    mode: str
    stream_key: int = 0

    def __post_init__(self):
        e = self.edges
        if e.size and np.any(e[:, 0] == e[:, 1]):
            raise ValueError("GoG contains a self-edge")
        if e.size and np.any(e[:, 2] < 1):
            raise ValueError("edge multiplicities must be >= 1")

    def out_degrees(self) -> np.ndarray:
        """Multiplicity-weighted out-degree per node."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        if self.edges.size:
            np.add.at(deg, self.edges[:, 0], self.edges[:, 2])
        return deg


class GoGSampler:
    """Prepared sampler over one similarity matrix and allocation; reuse it
    when drawing many GoGs so row CDFs are built once."""

    def __init__(
        self,
        sim: SimilarityMatrix,
        allocation: DegreeAllocation,
        config: SamplerConfig,
    ):
        if not sim.diagonal_zeroed:
            raise ValueError("sampler requires a diagonal-zeroed similarity matrix")
        n = sim.num_nodes
        if allocation.k.shape != (n,):
            raise ValueError("allocation length does not match similarity matrix")
        s = sim.S
        row_sums = s.sum(axis=1)
        support = (s > 0.0).sum(axis=1)
        if np.any(row_sums <= 0.0):
            bad = int(np.nonzero(row_sums <= 0.0)[0][0])
            raise DegenerateRowError(
                f"node {bad} has no positive off-diagonal similarity"
            )
        self.config = config
        self.num_nodes = n
        self.weights = s
        self.k = allocation.k.astype(np.int64).copy()

        if config.mode == WITHOUT_REPLACEMENT:
            short = np.nonzero(self.k > support)[0]
            if short.size:
                logger.warning(
                    "degree exceeds sampling support for nodes %s; reducing to "
                    "support size",
                    short.tolist(),
                )
            self.k_effective = np.minimum(self.k, support)
        else:
            self.k_effective = self.k

        # flattened per-row CDFs shifted by the row index, enabling a single
        # searchsorted call across all nodes; overflow from float roundoff is
        # clipped back to the last positive-mass column of the row
        cdf = np.cumsum(s, axis=1) / row_sums[:, None]
        self._flat_cdf = (cdf + np.arange(n)[:, None]).ravel()
        self._last_positive = (s > 0.0).cumsum(axis=1).argmax(axis=1)
        self._draw_node = np.repeat(np.arange(n), self.k_effective)
        self._draw_counter = np.concatenate(
            [np.arange(ke, dtype=np.uint64) for ke in self.k_effective]
        )
        self._node_ids = np.arange(n, dtype=np.uint64)
        self._col_counters = np.arange(n, dtype=np.uint64)[None, :]

    def sample(self, stream_id: int) -> GoGGraph:
        base = mix(self.config.seed, stream_id, 0x5A11)
        keys = vector_keys(base, self._node_ids)
        n = self.num_nodes
        if self.config.mode == WITH_REPLACEMENT:
            u = key_uniforms(keys[self._draw_node], self._draw_counter)
            pos = np.searchsorted(self._flat_cdf, self._draw_node + u, side="right")
            dst = np.minimum(pos - self._draw_node * n, self._last_positive[self._draw_node])
            pair = self._draw_node * n + dst
            uniq, counts = np.unique(pair, return_counts=True)
            edges = np.column_stack((uniq // n, uniq % n, counts)).astype(np.int64)
        else:
            u = key_uniforms(keys[:, None], self._col_counters, open_low=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                perturbed = np.log(u) / self.weights
            perturbed[self.weights == 0.0] = -np.inf
            srcs = []
            dsts = []
            for i in range(n):
                ke = int(self.k_effective[i])
                if ke == 0:
                    continue
                top = np.argpartition(perturbed[i], n - ke)[n - ke :]
                srcs.append(np.full(ke, i, dtype=np.int64))
                dsts.append(np.sort(top).astype(np.int64))
            if srcs:
                src = np.concatenate(srcs)
                dst = np.concatenate(dsts)
                edges = np.column_stack((src, dst, np.ones_like(src)))
            else:
                edges = np.zeros((0, 3), dtype=np.int64)
        return GoGGraph(
            edges=edges, num_nodes=n, mode=self.config.mode, stream_key=base
        )


def edge_homophily(gog: GoGGraph, true_labels: np.ndarray) -> float:
    """Multiplicity-weighted fraction of edges joining same-label nodes."""
    if gog.edges.size == 0:
        raise EmptyGoGError("edge homophily undefined on an empty GoG")
    labels = np.asarray(true_labels)
    same = labels[gog.edges[:, 0]] == labels[gog.edges[:, 1]]
    mult = gog.edges[:, 2]
    return float(mult[same].sum() / mult.sum())


def empirical_inclusion_matrix(
    sim: SimilarityMatrix,
    allocation: DegreeAllocation,
    config: SamplerConfig,
    num_trials: int,
) -> np.ndarray:
    """Mean edge-count matrix over independent with-replacement samples."""
    if config.mode != WITH_REPLACEMENT:
        raise ValueError("inclusion matrix is defined for with-replacement mode")
    sampler = GoGSampler(sim, allocation, config)
    acc = np.zeros((sim.num_nodes, sim.num_nodes), dtype=np.float64)
    for trial in range(num_trials):
        gog = sampler.sample(trial)
        acc[gog.edges[:, 0], gog.edges[:, 1]] += gog.edges[:, 2]
    return acc / num_trials


def expected_inclusion_matrix(
    sim: SimilarityMatrix, allocation: DegreeAllocation
) -> np.ndarray:
    """Closed form k_i * S[i, j] / sum_m S[i, m]."""
    row_sums = sim.S.sum(axis=1, keepdims=True)
    return allocation.k[:, None] * sim.S / row_sums


def dump_gog(gog: GoGGraph, path: str) -> None:
    """Text edge list under a 'num_nodes mode stream_key' header."""
    with open(path, "w") as f:
        f.write(f"{gog.num_nodes} {gog.mode} {gog.stream_key}\n")
        for src, dst, mult in gog.edges:
            f.write(f"{src} {dst} {mult}\n")
