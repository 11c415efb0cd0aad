"""Importance sampling of graph-of-graphs structures from a similarity
matrix under a fixed degree allocation.

Two modes: with-replacement draws k_i independent neighbors per node from
the categorical distribution S[i, .] / sum(S[i, .]) and records duplicates
as edge multiplicity, which makes expected edge counts exactly
k_i * S[i, j] / sum_m S[i, m], from row CDFs built once per sampler out of
the dense S.  Each draw's constants (its node's key id, its counter, its
row's CDF offset and last positive column) are prepared once with the CDFs,
so a sample keys, searches and counts only its sum(k) draws.
Without-replacement draws k_i distinct neighbors by perturbed keys
(log(u) / w order statistics, Efraimidis & Spirakis 2006): a row-wise
partition of the keys gives every row's k_i-th largest key, and the row
keeps the keys at or above it, read in column order.  Where keys tie at that
threshold, the row keeps the first k_i columns of a stable descending key
order over its positive weights.  That mode streams the similarity in row
blocks of about ``_BLOCK_BYTES`` (``rows(r0, r1)`` of the factor form), so
it never holds an N x N array; each row's keys and threshold are those of
the whole matrix, so blocking leaves the edges as they are.  The blocks of one draw, and of the preparation pass that counts
each row's mass and support, are spread over the usable CPUs, as many as
a fixed budget for the blocks in flight allows: the caller's thread and
threads made for that call alone pull whole blocks from one queue, and each
block writes only its own rows; the call joins its threads before it
returns.  The block boundaries stay fixed, because the bits of a ``rows``
product depend on them.

Per-node randomness is keyed by (seed, stream id, node id) counters, so one
sample is reproducible bit-for-bit regardless of how rows are scheduled.
"""

from __future__ import annotations

import collections
import logging
import os
from dataclasses import dataclass

import numpy as np

from .degree_alloc import DegreeAllocation
from .rng import key_uniforms, mix, vector_keys
from .similarity import DegenerateRowError, Similarity

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
# _WORKERS - 1 made for the call
_WORKERS = _usable_cpus()
# bytes of block-sized arrays that the threads of one call may hold at once.
# A thread holds two (its key buffer, and a spare that holds the counter
# bits, the rows and the partitioned copy in turn) plus two boolean masks of
# an eighth of one each.  Counted as four per thread, that caps a call with
# full 512 KiB blocks at four threads, so its peak stays that of a dense
# 1024 x 1024 S however many CPUs there are.
_INFLIGHT_BYTES = 1 << 23


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
    exactly one call.  One block runs in the caller's thread alone.  Joins
    the threads it made before it returns, and raises the first error among
    the calls."""
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
    # imported here, so a process that never runs a block on a thread skips it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(parts - 1, thread_name_prefix="samgog-blocks") as pool:
        futures = [pool.submit(run) for _ in range(parts - 1)]
        run()
        for future in futures:
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
        if not (
            isinstance(e, np.ndarray) and e.ndim == 2 and e.shape[1] == 3
            and e.dtype.kind in "iu"
        ):
            raise ValueError(
                f"GoG edges must be an (E, 3) integer array, got {type(e).__name__} "
                f"of shape {np.shape(e)} and dtype {np.asarray(e).dtype}"
            )
        if not e.size:
            return
        # one reduction per column: an unsigned view maps a negative endpoint
        # past n, so one max bounds an endpoint column on both sides
        src, dst, mult = e[:, 0], e[:, 1], e[:, 2]
        unsigned = np.dtype(f"u{e.itemsize}")
        n = self.num_nodes
        if src.view(unsigned).max() >= n or dst.view(unsigned).max() >= n:
            outside = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
            bad = int(np.flatnonzero(outside)[0])
            raise ValueError(
                f"GoG edge {bad} {tuple(e[bad].tolist())} has an endpoint "
                f"outside [0, {n})"
            )
        if mult.min() < 1:
            raise ValueError("edge multiplicities must be >= 1")
        if np.count_nonzero(src == dst):
            raise ValueError("GoG contains a self-edge")

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
        if n == 0:
            raise ValueError("cannot sample a GoG from an empty similarity (0 nodes)")
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
        if (row_sums <= 0.0).any():
            bad = int(np.nonzero(row_sums <= 0.0)[0][0])
            raise DegenerateRowError(
                f"node {bad} has no positive off-diagonal similarity"
            )
        self.config = config
        self.num_nodes = n
        k = allocation.k.astype(np.int64)

        if config.mode == WITHOUT_REPLACEMENT:
            self.sim = sim
            self._node_ids = np.arange(n, dtype=np.uint64)
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
        # searchsorted call across all nodes.  Per draw, prepared here once:
        # its node's key id, its counter within the node, the row offset that
        # shifts its uniform onto that row's CDF, and the flat index of the
        # row's last positive-mass column, which clips overflow from float
        # roundoff back into the row.
        cdf = np.cumsum(s, axis=1) / row_sums[:, None]
        self._flat_cdf = (cdf + np.arange(n)[:, None]).ravel()
        last_positive = n - 1 - np.argmax(s[:, ::-1] > 0.0, axis=1)
        draw_node = np.repeat(np.arange(n), k)
        first_draw = np.cumsum(k) - k
        self._draw_ids = draw_node.astype(np.uint64)
        self._draw_counter = (
            np.arange(draw_node.size) - first_draw[draw_node]
        ).astype(np.uint64)
        self._draw_offset = draw_node.astype(np.float64)
        self._draw_last = draw_node * n + last_positive[draw_node]

    def sample(self, stream_id: int) -> GoGGraph:
        base = mix(self.config.seed, stream_id, 0x5A11)
        n = self.num_nodes
        if self.config.mode == WITH_REPLACEMENT:
            u = key_uniforms(vector_keys(base, self._draw_ids), self._draw_counter)
            u += self._draw_offset
            # flat index node * n + dst of each draw's column
            pair = self._flat_cdf.searchsorted(u, side="right")
            np.minimum(pair, self._draw_last, out=pair)
            pair.sort()
            # runs of equal pairs are the edges, their lengths the
            # multiplicities; head[i] marks the start of a run or the end, so
            # a draw of no pairs gives head = [True] and no edges
            head = np.empty(pair.size + 1, dtype=bool)
            head[0] = head[-1] = True
            np.not_equal(pair[1:], pair[:-1], out=head[1:-1])
            bounds = head.nonzero()[0]
            edges = np.empty((bounds.size - 1, 3), dtype=np.int64)
            np.divmod(pair[bounds[:-1]], n, out=(edges[:, 0], edges[:, 1]))
            np.subtract(bounds[1:], bounds[:-1], out=edges[:, 2])
        else:
            keys = vector_keys(base, self._node_ids)
            ke = self.k_effective
            kmax = max(int(ke.max()), 1)
            # row i's threshold is its ke[i]-th largest key: entry kmax - ke[i]
            # of its kmax largest keys in ascending order; a row with
            # ke[i] = 0 gets +inf instead and keeps nothing
            at = np.minimum(kmax - ke, kmax - 1)
            keeps_none = ke == 0
            ends = np.cumsum(ke)
            edges = np.empty((int(ends[-1]), 3), dtype=np.int64)

            def draw(blocks):
                # this call's own buffers, so draws may run concurrently
                key_buf = np.empty((_block_rows(n), n))
                spare = np.empty_like(key_buf)
                for r0, r1 in blocks:
                    key = key_uniforms(
                        keys[r0:r1, None], self._node_ids[None, :], open_low=True,
                        out=key_buf[: r1 - r0], scratch=spare[: r1 - r0],
                    )
                    w = self.sim.rows(r0, r1, out=spare[: r1 - r0])
                    # a weight under about 1e-307 may overflow its key to
                    # -inf, the key of a zero weight
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        np.divide(np.log(key, out=key), w, out=key)
                    off_support = w <= 0.0
                    key[off_support] = -np.inf
                    # the thresholds, from a partition of a copy of the keys;
                    # w is not read again (the factor form built it in spare)
                    part = spare[: r1 - r0]
                    np.copyto(part, key)
                    part.partition(n - kmax, axis=1)
                    tail = part[:, n - kmax :]
                    tail.sort(axis=1)
                    threshold = tail[np.arange(r1 - r0), at[r0:r1]]
                    threshold[keeps_none[r0:r1]] = np.inf
                    keep = key >= threshold[:, None]
                    flat = np.flatnonzero(keep)
                    lo, hi = ends[r0] - ke[r0], ends[r1 - 1]
                    if flat.size != hi - lo:
                        # a row whose keys tie at its threshold keeps more
                        # than ke[i]; it keeps instead the first ke[i] of its
                        # positive-weight columns in a stable descending key
                        # order: every key above the threshold, then the
                        # lowest-numbered columns at it
                        extra = np.count_nonzero(keep, axis=1) != ke[r0:r1]
                        for i in np.flatnonzero(extra):
                            cols = np.flatnonzero(~off_support[i])
                            by_key = cols[np.argsort(-key[i, cols], kind="stable")]
                            keep[i] = False
                            keep[i, by_key[: ke[r0 + i]]] = True
                        flat = np.flatnonzero(keep)
                    # row-major order: by row, then by column
                    np.remainder(flat, n, out=edges[lo:hi, 1])

            _map_blocks(n, draw)
            edges[:, 0] = np.repeat(np.arange(n), ke)
            edges[:, 2] = 1
        return GoGGraph(
            edges=edges, num_nodes=n, mode=self.config.mode, stream_key=base
        )


def edge_homophily(gog: GoGGraph, true_labels: np.ndarray) -> float:
    """Multiplicity-weighted fraction of edges joining same-label nodes."""
    labels = np.asarray(true_labels)
    if len(labels) != gog.num_nodes:
        raise ValueError(
            f"edge homophily needs one label per GoG node: got {len(labels)} "
            f"labels for {gog.num_nodes} nodes"
        )
    e = gog.edges
    if not e.size:
        raise EmptyGoGError("edge homophily undefined on an empty GoG")
    mult = e[:, 2]
    same = labels[e[:, 0]] == labels[e[:, 1]]
    return float(mult.dot(same) / mult.sum())


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
