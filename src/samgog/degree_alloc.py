"""Integer degree pre-allocation for graph-of-graphs nodes.

Every node starts at k_min; the surplus above that floor is shared out in
three stages: labeled vs unlabeled nodes at ratio rho1 per capita, majority
vs minority classes inside the labeled set, and the unlabeled set in
proportion to how many training graphs fall in each node's size window.
rho2 is the ratio of the two class groups' totals, not of their per-node
shares; it is the only rho2 rule.  All real-valued shares become integers
by largest-remainder rounding, ties broken by ascending index, so totals
are conserved exactly.

``AllocConfig`` takes integer degree bounds, so ``k_min <= d_bar <= k_max``
alone keeps the budget round(N * d_bar) inside [N * k_min, N * k_max].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .data import GraphDataset, SplitSpec


class InfeasibleAllocationError(Exception):
    """Requested degree budget cannot satisfy the bounds."""


@dataclass(frozen=True)
class AllocConfig:
    d_bar: float = 5.0
    k_min: int = 3
    k_max: int = 100
    rho1: float = 5.0
    rho2: float = 3.0
    window_r: int = 20

    def __post_init__(self):
        if not (isinstance(self.k_min, Integral) and isinstance(self.k_max, Integral)):
            raise InfeasibleAllocationError(
                f"k_min and k_max must be integers, got "
                f"k_min={self.k_min!r}, k_max={self.k_max!r}"
            )
        if not (self.k_min <= self.d_bar <= self.k_max):
            raise InfeasibleAllocationError(
                f"need k_min <= d_bar <= k_max, got "
                f"({self.k_min}, {self.d_bar}, {self.k_max})"
            )
        for name, rho in (("rho1", self.rho1), ("rho2", self.rho2)):
            if not 1.0 <= rho < math.inf:
                raise InfeasibleAllocationError(
                    f"{name} must be finite and >= 1, got {rho}"
                )
        if self.k_min < 0 or self.window_r < 0:
            raise InfeasibleAllocationError("invalid allocation parameters")


@dataclass(frozen=True)
class DegreeAllocation:
    k: np.ndarray  # (N,) int64
    total: int

    def __post_init__(self):
        k = self.k
        if not isinstance(k, np.ndarray) or k.ndim != 1:
            raise InfeasibleAllocationError(
                f"allocation k must be a 1-D numpy array, got {type(k).__name__} "
                f"of shape {np.shape(k)}"
            )
        if k.dtype.kind not in "iu":
            # a float k names its first non-whole entry, any other dtype node 0
            if k.dtype.kind == "f":
                off = np.flatnonzero(np.floor(k) != k)
            else:
                off = np.arange(k.size)
            node = f"node {off[0]} has k = {k[off[0]]}, " if off.size else ""
            raise InfeasibleAllocationError(
                f"allocation k must be integers: {node}dtype {k.dtype}"
            )
        if k.size and k.min() < 0:
            bad = int(np.argmax(k < 0))
            raise InfeasibleAllocationError(f"node {bad} has negative degree {k[bad]}")
        if int(k.sum()) != self.total:
            raise InfeasibleAllocationError("allocation total does not match k")


def target_total_degree(n: int, d_bar: float) -> int:
    """The conserved degree budget round(N * d_bar)."""
    return int(round(n * d_bar))


def largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative real shares (summing to ``total``) to integers that
    sum to exactly ``total``: floor everything, then hand the leftover units
    to the largest fractional parts, ties by ascending index."""
    shares = np.asarray(shares, dtype=np.float64)
    if shares.size == 0:
        if total != 0:
            raise InfeasibleAllocationError("cannot allocate to zero recipients")
        return np.zeros(0, dtype=np.int64)
    if np.any(shares < -1e-9):
        raise InfeasibleAllocationError("negative share")
    floored = np.floor(np.maximum(shares, 0.0)).astype(np.int64)
    leftover = total - int(floored.sum())
    if leftover < 0 or leftover > shares.size:
        raise InfeasibleAllocationError(
            f"shares sum {shares.sum():.6g} inconsistent with total {total}"
        )
    if leftover:
        frac = shares - floored
        order = np.lexsort((np.arange(shares.size), -frac))
        floored[order[:leftover]] += 1
    return floored


def labeled_priority_split(
    delta: int, n_labeled: int, n_unlabeled: int, rho1: float
) -> tuple[int, int]:
    """Split surplus degrees so labeled nodes get rho1 times the per-capita
    share of unlabeled nodes."""
    if delta < 0 or n_labeled < 1 or n_unlabeled < 1:
        raise InfeasibleAllocationError("labeled/unlabeled split needs delta >= 0 and both groups")
    labeled_share = delta * rho1 * n_labeled / (rho1 * n_labeled + n_unlabeled)
    parts = largest_remainder(np.array([labeled_share, delta - labeled_share]), delta)
    return int(parts[0]), int(parts[1])


def class_group_split(
    delta_labeled: int,
    class_counts: np.ndarray,
    rho2: float,
) -> np.ndarray:
    """Per-class degree totals for the labeled surplus.

    Majority group = classes with count above the median count; with all
    counts tied there is no majority and the ratio collapses to 1 (count-
    proportional shares).  Classes with no labeled nodes receive nothing.
    """
    counts = np.asarray(class_counts, dtype=np.int64)
    if delta_labeled < 0:
        raise InfeasibleAllocationError("negative labeled surplus")
    out = np.zeros(counts.size, dtype=np.int64)
    present = np.nonzero(counts > 0)[0]
    if present.size == 0:
        if delta_labeled:
            raise InfeasibleAllocationError("no labeled nodes to receive degrees")
        return out
    median = np.median(counts[present])
    major = present[counts[present] > median]
    minor = present[counts[present] <= median]

    if major.size == 0 or minor.size == 0:
        # all counts tied: both groups equal, ratio forced to 1
        shares = delta_labeled * counts[present] / counts[present].sum()
        out[present] = largest_remainder(shares, delta_labeled)
        return out

    major_total = delta_labeled * rho2 / (1.0 + rho2)
    group_totals = largest_remainder(
        np.array([major_total, delta_labeled - major_total]), delta_labeled
    )
    for group, group_total in ((major, group_totals[0]), (minor, group_totals[1])):
        shares = group_total * counts[group] / counts[group].sum()
        out[group] = largest_remainder(shares, int(group_total))
    return out


def size_window_weights(
    unlabeled_sizes: np.ndarray, train_sizes: np.ndarray, window_r: int
) -> np.ndarray:
    """Per-node count of training graphs whose size falls inside the node's
    window [s - r, s + r]; uniform fallback when every window is empty."""
    unlabeled_sizes = np.asarray(unlabeled_sizes, dtype=np.int64)
    train_sizes = np.sort(np.asarray(train_sizes, dtype=np.int64))
    lo = np.searchsorted(train_sizes, unlabeled_sizes - window_r, side="left")
    hi = np.searchsorted(train_sizes, unlabeled_sizes + window_r, side="right")
    weights = (hi - lo).astype(np.float64)
    if unlabeled_sizes.size and weights.sum() == 0.0:
        weights = np.ones_like(weights)
    return weights


def allocate_degrees(
    split: SplitSpec, dataset: GraphDataset, config: AllocConfig
) -> DegreeAllocation:
    """Run the three allocation stages and clamp to bounds.

    Nodes pushed above k_max are capped and their excess flows to the
    unclamped nodes with the highest real-valued entitlement, each filled up
    to k_max in turn, so every node is inside [k_min, k_max] and the total is
    untouched.
    """
    n = len(dataset)
    if n < 2:
        raise InfeasibleAllocationError("allocation needs at least 2 nodes")
    total = target_total_degree(n, config.d_bar)

    labeled = np.array(sorted(split.train_idx), dtype=np.int64)
    unlabeled = np.array(
        sorted(set(range(n)) - set(split.train_idx)), dtype=np.int64
    )
    if labeled.size == 0:
        raise InfeasibleAllocationError("allocation requires a labeled train set")

    k = np.full(n, config.k_min, dtype=np.int64)
    entitlement = np.full(n, float(config.k_min))
    surplus = total - n * config.k_min

    if surplus > 0:
        if unlabeled.size == 0:
            delta_l, delta_u = surplus, 0
        else:
            delta_l, delta_u = labeled_priority_split(
                surplus, labeled.size, unlabeled.size, config.rho1
            )

        labels = dataset.labels()
        class_counts = np.bincount(
            labels[labeled], minlength=dataset.num_classes
        )
        per_class = class_group_split(delta_l, class_counts, config.rho2)
        for c in range(dataset.num_classes):
            members = labeled[labels[labeled] == c]
            if members.size == 0:
                continue
            share = per_class[c] / members.size
            extra = largest_remainder(np.full(members.size, share), int(per_class[c]))
            k[members] += extra
            entitlement[members] += share

        if unlabeled.size:
            sizes = dataset.sizes()
            weights = size_window_weights(
                sizes[unlabeled], sizes[labeled], config.window_r
            )
            shares = delta_u * weights / weights.sum()
            k[unlabeled] += largest_remainder(shares, delta_u)
            entitlement[unlabeled] += shares

    # clamp, then fill the open nodes' room in entitlement order; no node
    # ends above k_max, so one pass suffices
    over = k > config.k_max
    excess = int((k[over] - config.k_max).sum())
    if excess:
        k[over] = config.k_max
        open_nodes = np.nonzero(k < config.k_max)[0]
        order = open_nodes[np.lexsort((open_nodes, -entitlement[open_nodes]))]
        room = config.k_max - k[order]
        filled = np.cumsum(room)
        if filled.size == 0 or filled[-1] < excess:
            raise InfeasibleAllocationError("no capacity left to absorb excess")
        k[order] += np.clip(excess - filled + room, 0, room)

    alloc = DegreeAllocation(k=k, total=total)
    if np.any(k < config.k_min) or np.any(k > config.k_max):
        raise InfeasibleAllocationError("allocation violates degree bounds")
    return alloc


# ---------------------------------------------------------------------------
# Degree-ordering oracle (test-scale)
# ---------------------------------------------------------------------------


def allocation_objective(k: np.ndarray, prob: np.ndarray) -> float:
    return float(np.dot(np.asarray(k, dtype=np.float64), np.asarray(prob)))


def greedy_allocation(prob: np.ndarray, config: AllocConfig) -> DegreeAllocation:
    """Fill nodes toward k_max in descending homophily-probability order
    (stable on ties), starting from the k_min floor."""
    prob = np.asarray(prob, dtype=np.float64)
    n = prob.size
    total = target_total_degree(n, config.d_bar)
    k = np.full(n, config.k_min, dtype=np.int64)
    remaining = total - n * config.k_min
    order = np.lexsort((np.arange(n), -prob))
    for i in order:
        if remaining == 0:
            break
        give = min(config.k_max - config.k_min, remaining)
        k[i] += give
        remaining -= give
    return DegreeAllocation(k=k, total=total)


def oracle_optimal_allocation(
    prob: np.ndarray, config: AllocConfig
) -> DegreeAllocation:
    """Exhaustive maximizer of sum(k_i * prob_i) under the degree constraints.

    Test-scale only (N <= 12); prunes branches that cannot reach the total.
    """
    prob = np.asarray(prob, dtype=np.float64)
    n = prob.size
    if n > 12:
        raise InfeasibleAllocationError("brute-force oracle limited to N <= 12")
    total = target_total_degree(n, config.d_bar)

    best_obj = -np.inf
    best_k: np.ndarray | None = None
    current = np.zeros(n, dtype=np.int64)

    def recurse(i: int, remaining: int, partial: float) -> None:
        nonlocal best_obj, best_k
        rest = n - i - 1
        if i == n:
            if remaining == 0 and partial > best_obj:
                best_obj = partial
                best_k = current.copy()
            return
        lo = max(config.k_min, remaining - rest * config.k_max)
        hi = min(config.k_max, remaining - rest * config.k_min)
        for val in range(lo, hi + 1):
            current[i] = val
            recurse(i + 1, remaining - val, partial + val * prob[i])

    recurse(0, total, 0.0)
    if best_k is None:
        raise InfeasibleAllocationError("no feasible allocation")
    return DegreeAllocation(k=best_k, total=total)


def dump_allocation(alloc: DegreeAllocation, path: str) -> None:
    """Two-column (node_id, k_i) audit dump with a total trailer."""
    with open(path, "w") as f:
        for i, val in enumerate(alloc.k):
            f.write(f"{i} {int(val)}\n")
        f.write(f"total {alloc.total}\n")
