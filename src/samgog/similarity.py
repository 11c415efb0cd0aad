"""Class-probability matrix, pairwise similarity S = P P^T, and the
similarity-weighted homophily probability it induces.

Labeled rows of P are exact one-hot vectors; unlabeled rows are softmax
class probabilities.  The similarity of two instances is the probability
that independent draws from their class distributions agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import softmax_rows


class DegenerateRowError(Exception):
    """A similarity row carries no probability mass to sample or score."""


@dataclass(frozen=True)
class ProbMatrix:
    P: np.ndarray  # (N, C) rows on the simplex
    labeled_mask: np.ndarray  # (N,) bool

    def __post_init__(self):
        p = self.P
        if p.ndim != 2:
            raise ValueError("P must be a 2-D matrix")
        if self.labeled_mask.shape != (p.shape[0],):
            raise ValueError("labeled_mask length must match P rows")
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ValueError("P entries must lie in [0, 1]")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("P rows must sum to 1")
        lab = p[self.labeled_mask]
        if lab.size and not np.all((lab == 0.0) | (lab == 1.0)):
            raise ValueError("labeled rows must be exact one-hot")


@dataclass(frozen=True)
class SimilarityMatrix:
    S: np.ndarray  # (N, N)
    diagonal_zeroed: bool

    def __post_init__(self):
        s = self.S
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("S must be square")
        if np.any(np.abs(s - s.T) > 1e-12):
            raise ValueError("S must be symmetric")
        if np.any(s < -1e-12) or np.any(s > 1.0 + 1e-9):
            raise ValueError("S entries must lie in [0, 1]")
        if self.diagonal_zeroed and np.any(np.diag(s) != 0.0):
            raise ValueError("diagonal_zeroed set but diagonal is nonzero")

    @property
    def num_nodes(self) -> int:
        return self.S.shape[0]


def build_prob_matrix(
    logits: np.ndarray, labels: np.ndarray, labeled_mask: np.ndarray
) -> ProbMatrix:
    """One-hot rows where labeled, stabilized softmax of logits elsewhere."""
    labels = np.asarray(labels, dtype=np.int64)
    labeled_mask = np.asarray(labeled_mask, dtype=bool)
    n, c = logits.shape
    p = softmax_rows(logits)
    for i in np.nonzero(labeled_mask)[0]:
        if labels[i] < 0 or labels[i] >= c:
            raise ValueError(f"labeled node {i} has no usable label")
        row = np.zeros(c, dtype=np.float64)
        row[labels[i]] = 1.0
        p[i] = row
    return ProbMatrix(P=p, labeled_mask=labeled_mask)


def similarity_matrix(prob: ProbMatrix, zero_diagonal: bool = True) -> SimilarityMatrix:
    s = prob.P @ prob.P.T
    s = np.clip(s, 0.0, 1.0)
    s = 0.5 * (s + s.T)  # exact symmetry despite float reassociation
    if zero_diagonal:
        np.fill_diagonal(s, 0.0)
    return SimilarityMatrix(S=s, diagonal_zeroed=zero_diagonal)


def homophily_prob(sim: SimilarityMatrix, true_labels: np.ndarray, i: int) -> float:
    """Similarity-weighted probability that node i's neighbor shares y_i."""
    row = sim.S[i]
    total = row.sum()
    if total <= 0.0:
        raise DegenerateRowError(f"similarity row {i} has zero total mass")
    same = row[np.asarray(true_labels) == true_labels[i]].sum()
    return float(same / total)


def homophily_prob_all(sim: SimilarityMatrix, true_labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(true_labels)
    totals = sim.S.sum(axis=1)
    if np.any(totals <= 0.0):
        bad = int(np.nonzero(totals <= 0.0)[0][0])
        raise DegenerateRowError(f"similarity row {bad} has zero total mass")
    same_mask = labels[:, None] == labels[None, :]
    return (sim.S * same_mask).sum(axis=1) / totals


def expected_homophily(
    sim: SimilarityMatrix, true_labels: np.ndarray, allocation
) -> float:
    """Degree-weighted mean homophily probability: the exact expectation of
    edge homophily under with-replacement sampling."""
    prob = homophily_prob_all(sim, true_labels)
    k = np.asarray(allocation.k, dtype=np.float64)
    return float((k * prob).sum() / k.sum())
