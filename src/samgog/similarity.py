"""Class-probability matrix, pairwise similarity S = P P^T, how it is read in
row blocks, and the closed forms of with-replacement sampling from it.

Labeled rows of P are exact one-hot vectors; unlabeled rows are softmax
class probabilities.  The similarity of two instances is the probability
that independent draws from their class distributions agree.

``similarity_matrix`` returns the factor form: it keeps the N x C matrix P
and builds a block of rows of S only when asked, so the sampler and the
homophily closed forms stream S in row blocks, never as an N x N array.
Its ``S`` property, the dense matrix built on demand, serves only small-N
oracles; ``SimilarityMatrix`` holds a given dense S and checks it.  Both
give rows through ``rows(r0, r1)``, built in ``out`` by the factor form.

Every pass over a similarity reads it in row blocks of about
``_BLOCK_BYTES`` through one mapper, ``_map_blocks``, which the sampler
shares.  The mapper spreads the blocks of one pass over the usable CPUs, as
many as a fixed budget for the blocks in flight allows: the caller's thread
and threads made for that call alone, each with buffers of its own, pull
whole blocks from one queue, and each block writes only its own rows; the
call joins its threads before it returns.  The block boundaries stay fixed,
because the bits of a ``rows`` product depend on them.
"""

from __future__ import annotations

import collections
import os
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

# bytes of one float64 block of similarity rows in every pass of _map_blocks
# (2**16 entries); a block holds at least one row.  Each thread works on a
# few block-sized arrays (see _INFLIGHT_BYTES), and at N = 2000-4000 a sample
# took 30% less time with 512 KiB blocks than with 1 MiB ones.  Threads share
# out whole blocks and never split one: a block product P[r0:r1] P^T can
# differ in the last bit when its rows change, so the boundaries fix the
# edges and the closed forms' bits.
_BLOCK_BYTES = 1 << 19


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


# threads that work on the row blocks of one call: the caller's own and
# _WORKERS - 1 made for the call
_WORKERS = _usable_cpus()
# bytes of block-sized arrays that the threads of one call may hold at once.
# A draw's thread holds the most: two (its key buffer, and a spare that holds
# the counter bits, the rows and the partitioned copy in turn) plus two
# boolean masks of an eighth of one each.  Counted as four per thread, that
# caps a call with full 512 KiB blocks at four threads, so its peak stays
# that of a dense 1024 x 1024 S however many CPUs there are.  The caller
# makes every thread's float64 buffers before the threads start; a thread
# makes only its blocks' masks and small per-row arrays.
_INFLIGHT_BYTES = 1 << 23


def _block_rows(n: int) -> int:
    """Rows in one block of float64 weights of about _BLOCK_BYTES (1 to n)."""
    return min(n, max(1, _BLOCK_BYTES // (8 * n)))


def _map_blocks(n: int, block, buffers: int) -> None:
    """Call ``block(r0, r1, *bufs)`` once per row block of n rows, on up to
    _WORKERS threads, the caller's among them: no more threads than blocks,
    nor than hold four block-sized arrays each within _INFLIGHT_BYTES.  The
    caller makes every thread's ``buffers`` block-sized float64 arrays
    before any thread starts, so they come from its own heap, not from a
    malloc arena of the thread that would stay resident after it.  Each
    thread pulls whole blocks from one shared queue until it is empty;
    ``bufs`` are its own arrays cut to the block's rows.  No rows make no
    block.  Joins the threads it made before it returns, and raises the
    first error among the calls."""
    if not n:
        return
    rows = _block_rows(n)
    todo = collections.deque((r0, min(n, r0 + rows)) for r0 in range(0, n, rows))
    threads = max(1, min(_WORKERS, len(todo), _INFLIGHT_BYTES // (4 * 8 * n * rows)))
    sets = [[np.empty((rows, n)) for _ in range(buffers)] for _ in range(threads)]

    def run(bufs):
        while True:
            try:
                r0, r1 = todo.popleft()
            except IndexError:  # the queue is empty
                return
            try:
                block(r0, r1, *(buf[: r1 - r0] for buf in bufs))
            except BaseException:
                todo.clear()  # the other threads stop after their current block
                raise

    if threads == 1:
        run(sets[0])
        return
    # imported here, so a process that never runs a block on a thread skips it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads - 1, thread_name_prefix="samgog-blocks") as pool:
        futures = [pool.submit(run, bufs) for bufs in sets[1:]]
        run(sets[0])
        for future in futures:
            future.result()


def _check_row_mass(totals: np.ndarray) -> None:
    """Raise DegenerateRowError for the lowest row whose total is <= 0."""
    if (totals <= 0.0).any():
        bad = int(np.argmax(totals <= 0.0))
        raise DegenerateRowError(f"node {bad} has no positive off-diagonal similarity")


def build_prob_matrix(
    logits: np.ndarray, labels: np.ndarray, labeled_mask: np.ndarray
) -> np.ndarray:
    """The (N, C) matrix P: one-hot rows where labeled, stabilized softmax of
    logits elsewhere."""
    labels = np.asarray(labels, dtype=np.int64)
    labeled_mask = np.asarray(labeled_mask, dtype=bool)
    n, c = logits.shape
    for name, arr in (("labels", labels), ("labeled_mask", labeled_mask)):
        if arr.shape != (n,):
            raise ValueError(
                f"{name} has shape {arr.shape} for logits of shape {logits.shape}"
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
    totals, same = np.empty((2, sim.num_nodes))

    def block(r0, r1, buf):
        s = sim.rows(r0, r1, out=buf)
        s.sum(axis=1, out=totals[r0:r1])
        # into buf, since the dense form's rows are a view of its S
        np.multiply(s, labels[r0:r1, None] == labels[None, :], out=buf)
        buf.sum(axis=1, out=same[r0:r1])

    _map_blocks(sim.num_nodes, block, buffers=1)
    _check_row_mass(totals)
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


def expected_inclusion_matrix(sim: Similarity, allocation) -> np.ndarray:
    """Closed form k_i * S[i, j] / sum_m S[i, m].  A row whose total is
    <= 0 is a DegenerateRowError, and an allocation that is not one degree
    per node a ValueError."""
    k, n = allocation.k, sim.num_nodes
    if k.shape != (n,):
        raise ValueError(
            f"expected inclusion needs one degree per similarity node: got an "
            f"allocation of shape {k.shape} for a similarity of shape ({n}, {n})"
        )
    s = sim.S
    totals = s.sum(axis=1, keepdims=True)
    _check_row_mass(totals)
    return k[:, None] * s / totals
