"""Importance sampling of graph-of-graphs structures from a similarity
matrix under a fixed degree allocation.

Two modes: with-replacement draws k_i independent neighbors per node from
the categorical distribution S[i, .] / sum(S[i, .]) and records duplicates
as edge multiplicity, which makes expected edge counts exactly
k_i * S[i, j] / sum_m S[i, m], from row CDFs built once per sampler out of
the dense S; without-replacement draws k_i distinct neighbors by perturbed
keys (log(u) / w order statistics, Efraimidis & Spirakis 2006), taking every
row's top k_i in a row-wise partition of the key matrix.  That mode streams
the similarity in row blocks of about ``_BLOCK_BYTES`` (``rows(r0, r1)`` of
the factor form), so it never holds an N x N array; each block's keys and
partition are those of the whole matrix, so blocking leaves the edges as
they are.  The blocks of one draw, and of the preparation pass that counts
each row's mass and support, are spread over the usable CPUs, as many as
a fixed budget for the blocks in flight allows: the caller's thread and a
shared pool of threads pull whole blocks from one queue, and each block
writes only its own rows.  The block boundaries stay fixed, because the
bits of a ``rows`` product depend on them.

Per-node randomness is keyed by (seed, stream id, node id) counters, so one
sample is reproducible bit-for-bit regardless of how rows are scheduled.
"""

from __future__ import annotations

import collections
import logging
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .degree_alloc import DegreeAllocation
from .rng import key_uniforms, mix, vector_keys
from .similarity import DegenerateRowError, Similarity

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

logger = logging.getLogger(__name__)

WITH_REPLACEMENT = "with-replacement"
WITHOUT_REPLACEMENT = "without-replacement"

# bytes of one float64 block of similarity rows in the without-replacement
# draw (2**16 entries); a block holds at least one row.  Each thread of the
# draw works on a few block-sized arrays (see _INFLIGHT_BYTES), and at
# N = 2000-4000 a sample took 30% less time with 512 KiB blocks than with
# 1 MiB ones.  Threads share out whole blocks and never split one: a block
# product P[r0:r1] P^T can differ in the last bit when its rows change, so
# the boundaries fix the edges.
_BLOCK_BYTES = 1 << 19


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


# threads that work on the row blocks of one call: the caller's own and
# _WORKERS - 1 from the pool
_WORKERS = _usable_cpus()
# bytes of block-sized arrays that the threads of one call may hold at once.
# A thread holds about four (its rows and uniform buffers, the key bits and
# the partition output), so with full 512 KiB blocks a call runs on at most
# four threads, and its peak stays that of a dense 1024 x 1024 S however many
# CPUs there are.
_INFLIGHT_BYTES = 1 << 23
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The module's pool, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, so a process that never needs the pool skips it
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="samgog-blocks")
        return _pool


def _forget_pool() -> None:
    # a forked child has none of its parent's threads; it makes its own pool
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _block_rows(n: int) -> int:
    """Rows in one block of float64 weights of about _BLOCK_BYTES (1 to n)."""
    return min(n, max(1, _BLOCK_BYTES // (8 * n)))


def _row_blocks(n: int):
    """(r0, r1) bounds of consecutive row blocks covering n rows."""
    rows = _block_rows(n)
    for r0 in range(0, n, rows):
        yield r0, min(n, r0 + rows)


def _map_blocks(n: int, part) -> None:
    """Call ``part(blocks)`` on up to _WORKERS threads, the caller's among
    them: no more threads than blocks, nor than hold four blocks each within
    _INFLIGHT_BYTES.  Each call iterates over whole row blocks of n rows,
    pulled from one shared queue until it is empty, so every block goes to
    exactly one call.  One block runs in the caller's thread alone.  Returns
    once every call that started has ended, and raises the first error among
    them."""
    todo = collections.deque(_row_blocks(n))

    def pull():
        while True:
            try:
                block = todo.popleft()
            except IndexError:
                return
            yield block

    def run():
        try:
            part(pull())
        except BaseException:
            todo.clear()  # the other calls stop after their current block
            raise

    block_bytes = 8 * n * _block_rows(n)
    parts = min(_WORKERS, len(todo), _INFLIGHT_BYTES // (4 * block_bytes))
    if parts <= 1:
        run()
        return
    from concurrent.futures import wait

    pool = _executor()
    futures = [pool.submit(run) for _ in range(parts - 1)]
    try:
        run()
    finally:
        # the queue is empty: a call still waiting for a pool thread (behind
        # other callers' work) has nothing left to do, and is dropped
        started = [future for future in futures if not future.cancel()]
        wait(started)
    for future in started:
        future.result()


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
    """Prepared sampler over one similarity and allocation; reuse it when
    drawing many GoGs.  With-replacement mode builds its row CDFs once from
    the dense S; without-replacement mode keeps only each node's degree
    clamped to its support and reads the similarity block by block."""

    def __init__(
        self,
        sim: Similarity,
        allocation: DegreeAllocation,
        config: SamplerConfig,
    ):
        if not sim.diagonal_zeroed:
            raise ValueError("sampler requires a diagonal-zeroed similarity matrix")
        n = sim.num_nodes
        if allocation.k.shape != (n,):
            raise ValueError("allocation length does not match similarity matrix")
        if config.mode == WITH_REPLACEMENT:
            s = sim.S
            row_sums = s.sum(axis=1)
        else:
            row_sums = np.empty(n)
            support = np.empty(n, dtype=np.int64)

            def prepare(blocks):
                buf = np.empty((_block_rows(n), n))
                for r0, r1 in blocks:
                    w = sim.rows(r0, r1, out=buf[: r1 - r0])
                    row_sums[r0:r1] = w.sum(axis=1)
                    support[r0:r1] = (w > 0.0).sum(axis=1)

            _map_blocks(n, prepare)
        if np.any(row_sums <= 0.0):
            bad = int(np.nonzero(row_sums <= 0.0)[0][0])
            raise DegenerateRowError(
                f"node {bad} has no positive off-diagonal similarity"
            )
        self.config = config
        self.num_nodes = n
        self._node_ids = np.arange(n, dtype=np.uint64)
        k = allocation.k.astype(np.int64)

        if config.mode == WITHOUT_REPLACEMENT:
            self.sim = sim
            short = int(np.count_nonzero(k > support))
            if short:
                logger.warning(
                    "degree exceeds sampling support for %d of %d nodes; "
                    "reducing each to its support size",
                    short, n,
                )
            self.k_effective = np.minimum(k, support)
            return

        # flattened per-row CDFs shifted by the row index, enabling a single
        # searchsorted call across all nodes; overflow from float roundoff is
        # clipped back to the last positive-mass column of the row
        cdf = np.cumsum(s, axis=1) / row_sums[:, None]
        self._flat_cdf = (cdf + np.arange(n)[:, None]).ravel()
        self._last_positive = n - 1 - np.argmax(s[:, ::-1] > 0.0, axis=1)
        self._draw_node = np.repeat(np.arange(n), k)
        first_draw = np.cumsum(k) - k
        self._draw_counter = (
            np.arange(self._draw_node.size) - first_draw[self._draw_node]
        ).astype(np.uint64)

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
            # the kmax largest keys of every row, ordered by key; row i keeps
            # the last k_effective[i] of them, i.e. its own top-k.  kmax is
            # the same in every block, so a row's partition, and with it the
            # choice among tied keys, does not depend on its block.
            ke = self.k_effective
            kmax = max(int(ke.max()), 1)
            top = np.empty((n, kmax), dtype=np.int64)

            def draw(blocks):
                # buffers are this call's own, so draws may run concurrently
                w_buf = np.empty((_block_rows(n), n))
                u_buf = np.empty_like(w_buf)
                for r0, r1 in blocks:
                    w = self.sim.rows(r0, r1, out=w_buf[: r1 - r0])
                    u = key_uniforms(
                        keys[r0:r1, None], self._node_ids[None, :],
                        open_low=True, out=u_buf[: r1 - r0],
                    )
                    with np.errstate(divide="ignore", invalid="ignore"):
                        perturbed = np.divide(np.log(u, out=u), w, out=u)
                    perturbed[w == 0.0] = -np.inf
                    # a copy, so the block-sized partition output is freed
                    # before the next block allocates its own
                    block = np.argpartition(perturbed, n - kmax, axis=1)[:, n - kmax :].copy()
                    by_key = np.argsort(
                        np.take_along_axis(perturbed, block, axis=1), axis=1
                    )
                    top[r0:r1] = np.take_along_axis(block, by_key, axis=1)

            _map_blocks(n, draw)
            cols = np.arange(kmax)
            top[cols < (kmax - ke)[:, None]] = n  # dropped; sorts past the kept
            top.sort(axis=1)
            dst = top[cols < ke[:, None]]
            src = np.repeat(np.arange(n), ke)
            edges = np.column_stack((src, dst, np.ones_like(src)))
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
    sim: Similarity,
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
    sim: Similarity, allocation: DegreeAllocation
) -> np.ndarray:
    """Closed form k_i * S[i, j] / sum_m S[i, m]."""
    s = sim.S
    return allocation.k[:, None] * s / s.sum(axis=1, keepdims=True)


def dump_gog(gog: GoGGraph, path: str) -> None:
    """Text edge list under a 'num_nodes mode stream_key' header."""
    with open(path, "w") as f:
        f.write(f"{gog.num_nodes} {gog.mode} {gog.stream_key}\n")
        for src, dst, mult in gog.edges:
            f.write(f"{src} {dst} {mult}\n")
