"""Class-probability matrix, pairwise similarity S = P P^T, and the
similarity-weighted homophily probability it induces.

Labeled rows of P are exact one-hot vectors; unlabeled rows are softmax
class probabilities.  The similarity of two instances is the probability
that independent draws from their class distributions agree.

``similarity_matrix`` returns the factor form: it keeps the N x C matrix P
and builds a block of rows of S only when asked, so the sampler and the
homophily closed forms stream S in row blocks, never as an N x N array.
Its ``S`` property, the dense matrix built on demand, serves only small-N
oracles; ``SimilarityMatrix`` holds a given dense S and checks it.  Both
give rows through ``rows(r0, r1)``, built in ``out`` by the factor form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import softmax_rows


class DegenerateRowError(Exception):
    """A similarity row carries no probability mass to sample or score."""


@dataclass(frozen=True)
class SimilarityMatrix:
    S: np.ndarray  # (N, N)
    diagonal_zeroed: bool

    def __post_init__(self):
        s = self.S
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("S must be square")
        finite = np.isfinite(s)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ValueError(f"S entries must be finite: S[{i}, {j}] = {s[i, j]}")
        if np.any(np.abs(s - s.T) > 1e-12):
            raise ValueError("S must be symmetric")
        if np.any(s < -1e-12) or np.any(s > 1.0 + 1e-9):
            raise ValueError("S entries must lie in [0, 1]")
        if self.diagonal_zeroed and np.any(np.diag(s) != 0.0):
            raise ValueError("diagonal_zeroed set but diagonal is nonzero")

    @property
    def num_nodes(self) -> int:
        return self.S.shape[0]

    def rows(self, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
        """Weights of rows r0..r1-1: a view of S, not to be written to.
        ``out`` is ignored; only the factor form fills it."""
        return self.S[r0:r1]


@dataclass(frozen=True)
class FactorSimilarity:
    """S = clip(P P^T) with an optionally zeroed diagonal, held as P.

    Building it costs O(NC).  ``rows`` computes one block of S in
    O(block * N * C).  Where BLAS tiles the block product differently from
    the full product, a block may differ from ``S`` in the last bit.
    """

    P: np.ndarray  # (N, C) rows on the simplex
    diagonal_zeroed: bool

    def __post_init__(self):
        # written as "not all within bound", so a NaN entry fails each check
        p = self.P
        if p.ndim != 2:
            raise ValueError("P must be a 2-D matrix")
        if not (np.all(p >= -1e-12) and np.all(p <= 1.0 + 1e-12)):
            raise ValueError("P entries must lie in [0, 1]")
        if not np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9):
            raise ValueError("P rows must sum to 1")

    @property
    def num_nodes(self) -> int:
        return self.P.shape[0]

    @property
    def S(self) -> np.ndarray:
        """The dense N x N matrix, built anew on every access."""
        return self.rows(0, self.num_nodes)

    def rows(self, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
        """Weights of rows r0..r1-1, a new (r1 - r0, N) array or ``out``
        (C-contiguous float64) filled in place; both hold the same bits."""
        w = np.matmul(self.P[r0:r1], self.P.T, out=out)
        np.clip(w, 0.0, 1.0, out=w)
        if self.diagonal_zeroed:
            w[np.arange(r1 - r0), np.arange(r0, r1)] = 0.0
        return w


Similarity = SimilarityMatrix | FactorSimilarity


def build_prob_matrix(
    logits: np.ndarray, labels: np.ndarray, labeled_mask: np.ndarray
) -> np.ndarray:
    """The (N, C) matrix P: one-hot rows where labeled, stabilized softmax of
    logits elsewhere."""
    labels = np.asarray(labels, dtype=np.int64)
    labeled_mask = np.asarray(labeled_mask, dtype=bool)
    n, c = logits.shape
    if labeled_mask.shape != (n,):
        raise ValueError(
            f"labeled_mask has shape {labeled_mask.shape} for {n} rows of logits"
        )
    finite = np.isfinite(logits).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"logits must be finite: row {row} is {logits[row]}")
    p = softmax_rows(logits)
    idx = np.nonzero(labeled_mask)[0]
    y = labels[idx]
    bad = (y < 0) | (y >= c)
    if bad.any():
        raise ValueError(f"labeled node {idx[bad][0]} has no usable label")
    p[idx] = 0.0
    p[idx, y] = 1.0
    return p


def similarity_matrix(prob: np.ndarray, zero_diagonal: bool = True) -> FactorSimilarity:
    """The similarity of the (N, C) matrix ``prob`` in factor form, in O(NC)."""
    return FactorSimilarity(P=prob, diagonal_zeroed=zero_diagonal)


def homophily_prob_all(sim: Similarity, true_labels: np.ndarray) -> np.ndarray:
    """Per node, the similarity-weighted probability that a neighbor shares
    its label."""
    labels = np.asarray(true_labels)
    if labels.shape != (sim.num_nodes,):
        raise ValueError(
            f"homophily needs one label per similarity node: got labels of "
            f"shape {labels.shape} for {sim.num_nodes} nodes"
        )
    from .sampler import _map_blocks  # here: the sampler imports this module

    totals, same = np.empty((2, sim.num_nodes))

    def block(r0, r1, buf):
        s = sim.rows(r0, r1, out=buf)
        s.sum(axis=1, out=totals[r0:r1])
        # into buf, since the dense form's rows are a view of its S
        np.multiply(s, labels[r0:r1, None] == labels[None, :], out=buf)
        buf.sum(axis=1, out=same[r0:r1])

    _map_blocks(sim.num_nodes, block, buffers=1)
    if np.any(totals <= 0.0):
        bad = int(np.nonzero(totals <= 0.0)[0][0])
        raise DegenerateRowError(f"similarity row {bad} has zero total mass")
    return same / totals


def expected_homophily(
    sim: Similarity, true_labels: np.ndarray, allocation
) -> float:
    """Degree-weighted mean homophily probability: the exact expectation of
    edge homophily under with-replacement sampling."""
    k = np.asarray(allocation.k, dtype=np.float64)
    if k.shape != (sim.num_nodes,):
        raise ValueError(
            f"expected homophily needs one degree per similarity node: got an "
            f"allocation of shape {k.shape} for {sim.num_nodes} nodes"
        )
    if not k.any():
        raise ValueError("expected homophily is undefined for an all-zero allocation")
    prob = homophily_prob_all(sim, true_labels)
    return float((k * prob).sum() / k.sum())
