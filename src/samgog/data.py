"""Graph-classification datasets: TUDataset text parsing, node features,
imbalance ratios, and imbalanced split generation.

Conventions: files on disk are 1-indexed (TUDataset format), everything in
memory is 0-indexed.  Graph labels are remapped to a contiguous [0, C) range
at parse time.  A dataset stores its graphs stacked, in graph order (see
``GraphDataset``); a graph's identity is its position.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .degree_alloc import largest_remainder
from .rng import generator

NODE_LABEL_ONEHOT = "node-label-onehot"
DEGREE_ONEHOT = "degree-onehot"
FEATURE_SCHEMES = (NODE_LABEL_ONEHOT, DEGREE_ONEHOT)  # built by build_features
PLANTED_GAUSSIAN = "planted-gaussian"  # make_planted_dataset's own features

DEFAULT_DEGREE_CAP = 256


class DatasetError(Exception):
    """Malformed or missing dataset input."""


class ParseError(DatasetError):
    """A mandatory file is missing or a line cannot be parsed."""


class IntegrityError(DatasetError):
    """Parsed content is internally inconsistent (reported with line number)."""


class FeatureConfigError(DatasetError):
    """Requested feature scheme is not available for this dataset."""


class UndefinedRatioError(DatasetError):
    """An imbalance ratio is undefined for the given inputs."""


class SplitError(DatasetError):
    """A requested split is infeasible or malformed."""


def _node_offsets(node_counts: np.ndarray) -> np.ndarray:
    """Each graph's first row in the stacked node arrays."""
    return np.cumsum(node_counts) - node_counts


def _stored(value, dtype) -> np.ndarray:
    """A read-only copy of ``value``."""
    array = np.array(value, dtype=dtype)
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class GraphDataset:
    """Every graph stacked in graph order, the block-diagonal layout the
    encoder trains on.  Graph g's nodes are rows ``node_offsets[g]`` to
    ``node_offsets[g] + node_counts[g]`` of ``node_features`` and
    ``node_labels``; its ``edge_counts[g]`` edges follow graph g - 1's in
    ``edges``, as local ids ``(u, v)`` with ``u <= v``.  A graph label of -1
    means unlabeled.

    The constructor checks the arrays once and stores read-only copies: a
    graph with no nodes, an edge outside ``[0, n)``, not canonical or
    repeated, a label outside ``[-1, num_classes)``, or counts that do not
    match the stacked arrays is an ``IntegrityError``.
    """

    node_features: np.ndarray  # (V, feature_dim) float64
    node_counts: np.ndarray  # (N,) int64
    edges: np.ndarray  # (E, 2) int64, local ids
    edge_counts: np.ndarray  # (N,) int64
    graph_labels: np.ndarray  # (N,) int64, -1 where absent
    num_classes: int
    feature_scheme: str
    node_labels: np.ndarray | None = None  # (V,) int64
    node_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.feature_scheme not in (*FEATURE_SCHEMES, PLANTED_GAUSSIAN):
            raise FeatureConfigError(f"unknown feature scheme {self.feature_scheme!r}")
        for name, dtype in (
            ("node_features", np.float64), ("node_counts", np.int64),
            ("edges", np.int64), ("edge_counts", np.int64),
            ("graph_labels", np.int64), ("node_labels", np.int64),
        ):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _stored(getattr(self, name), dtype))
        counts, edge_counts = self.node_counts, self.edge_counts
        labels, features = self.graph_labels, self.node_features
        num_nodes, num_edges = int(counts.sum()), int(edge_counts.sum())
        if not (counts.ndim == 1 and counts.shape == edge_counts.shape == labels.shape
                and features.ndim == 2 and len(features) == num_nodes
                and self.edges.shape == (num_edges, 2) and (edge_counts >= 0).all()):
            raise IntegrityError(
                f"{counts.size} node counts, {edge_counts.size} edge counts and "
                f"{labels.size} labels do not match node features of shape "
                f"{features.shape} and edges of shape {self.edges.shape}"
            )
        if (counts <= 0).any():
            raise IntegrityError(f"graph {np.argmax(counts <= 0)} has no nodes")
        offsets = _stored(_node_offsets(counts), np.int64)
        object.__setattr__(self, "node_offsets", offsets)
        _check_edges(self.edges, edge_counts, counts, offsets, num_nodes)
        outside = (labels < -1) | (labels >= self.num_classes)
        if outside.any():
            g = int(np.argmax(outside))
            raise IntegrityError(f"graph {g}: label {labels[g]} out of range")
        if self.node_labels is not None and self.node_labels.shape != (num_nodes,):
            raise IntegrityError(
                f"{self.node_labels.size} node labels for {num_nodes} nodes"
            )

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]

    def __len__(self) -> int:
        return self.node_counts.size

    def sizes(self) -> np.ndarray:
        return self.node_counts.copy()

    def labels(self) -> np.ndarray:
        """Labels as int64, -1 where absent."""
        return self.graph_labels.copy()

    def global_edges(self) -> np.ndarray:
        """``edges`` as rows of the stacked node arrays: each graph's local
        ids plus its node offset."""
        return self.edges + np.repeat(self.node_offsets, self.edge_counts)[:, None]


def _check_edges(edges, edge_counts, node_counts, offsets, num_nodes) -> None:
    """Raises for the first edge, in stacked order, that is outside its
    graph, not canonical, or a repeat of an earlier edge of its graph."""
    graph = np.repeat(np.arange(node_counts.size), edge_counts)
    u, v = edges[:, 0], edges[:, 1]
    n = node_counts[graph]
    bad = (u < 0) | (u > v) | (v >= n)
    first = int(np.argmax(bad)) if bad.any() else edges.shape[0]
    # only an edge before the first bad one can repeat a valid edge; a stable
    # sort puts each repeat after the edge it repeats
    start = offsets[graph[:first]]
    key = (u[:first] + start) * num_nodes + (v[:first] + start)
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if repeats.size:
        i = int(repeats.min())
        raise IntegrityError(f"graph {graph[i]}: duplicate edge ({u[i]}, {v[i]})")
    if first < edges.shape[0]:
        g, a, b, size = graph[first], u[first], v[first], n[first]
        if 0 <= a < size and 0 <= b < size:
            raise IntegrityError(f"graph {g}: edge ({a}, {b}) not canonicalized")
        raise IntegrityError(f"graph {g}: edge ({a}, {b}) outside [0, {size})")


@dataclass(frozen=True)
class SplitSpec:
    train_idx: tuple[int, ...]
    val_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    rho_class: float | None = None
    seed: int = 0

    def _lists(self):
        return ("train", self.train_idx), ("val", self.val_idx), ("test", self.test_idx)

    def __post_init__(self):
        owner = {}  # index -> the list it was first seen in
        for name, idx in self._lists():
            for i in idx:
                if i in owner:
                    if owner[i] == name:
                        raise SplitError(f"{name} index {i} appears twice")
                    raise SplitError(
                        f"index {i} is in both the {owner[i]} and {name} lists"
                    )
                owner[i] = name

    def validate(self, dataset: GraphDataset) -> None:
        n = len(dataset)
        for name, idx in self._lists():
            for i in idx:
                if not (0 <= i < n):
                    raise SplitError(f"{name} index {i} outside dataset of size {n}")
        for i in self.train_idx:
            if dataset.graph_labels[i] < 0:
                raise SplitError(f"train index {i} has no label")


# ---------------------------------------------------------------------------
# TUDataset text format
# ---------------------------------------------------------------------------


def _read_int_lines(path: str) -> list[int]:
    out = []
    with open(path, "r", newline=None) as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(int(line))
            except ValueError as e:
                raise ParseError(f"{path}:{ln}: expected integer, got {line!r}") from e
    return out


def _read_edge_lines(path: str) -> np.ndarray:
    """(src, dst, line_number) rows, 1-indexed global node ids."""
    out = []
    with open(path, "r", newline=None) as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}:{ln}: expected 'src, dst', got {line!r}")
            try:
                out.append((int(parts[0].strip()), int(parts[1].strip()), ln))
            except ValueError as e:
                raise ParseError(f"{path}:{ln}: expected integers, got {line!r}") from e
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def parse_tudataset(
    root_path: str,
    dataset_name: str,
    feature_scheme: str | None = None,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> GraphDataset:
    """Parse `<DS>_A.txt`, `<DS>_graph_indicator.txt`, `<DS>_graph_labels.txt`
    and the optional `<DS>_node_labels.txt` under ``root_path``.

    A graph's nodes are stacked in ascending file id, and its edges are
    deduplicated and sorted.  ``feature_scheme`` defaults to
    node-label-onehot when node labels exist, degree-onehot otherwise.
    """
    prefix = os.path.join(root_path, dataset_name)

    def require(suffix: str) -> str:
        path = f"{prefix}_{suffix}"
        if not os.path.isfile(path):
            raise ParseError(f"missing mandatory file {path}")
        return path

    edges = _read_edge_lines(require("A.txt"))
    indicator = np.array(_read_int_lines(require("graph_indicator.txt")), np.int64)
    graph_labels_raw = _read_int_lines(require("graph_labels.txt"))

    node_labels_path = f"{prefix}_node_labels.txt"
    node_labels_raw = (
        _read_int_lines(node_labels_path) if os.path.isfile(node_labels_path) else None
    )
    if node_labels_raw is not None and len(node_labels_raw) != len(indicator):
        raise IntegrityError(
            f"{node_labels_path}: {len(node_labels_raw)} node labels for "
            f"{len(indicator)} nodes"
        )

    num_graphs = len(graph_labels_raw)
    if num_graphs == 0:
        raise ParseError(f"{prefix}_graph_labels.txt: no graphs")
    if indicator.size and (indicator.min() < 1 or indicator.max() > num_graphs):
        raise IntegrityError(
            f"{prefix}_graph_indicator.txt: graph id outside [1, {num_graphs}]"
        )

    # file id - 1 of each stacked node, and the stacked row of each file id
    n_nodes = indicator.size
    node_graph = indicator - 1
    order = np.argsort(node_graph, kind="stable")
    row = np.empty(n_nodes, dtype=np.int64)
    row[order] = np.arange(n_nodes)
    counts = np.bincount(node_graph, minlength=num_graphs)

    # the first line with an id outside the file or an edge across graphs
    src, dst, line = edges.T
    outside = (src < 1) | (src > n_nodes) | (dst < 1) | (dst > n_nodes)
    graph_of = np.append(node_graph, -1)  # -1 for an id outside the file
    gs = graph_of[np.where(outside, n_nodes, src - 1)]
    gd = graph_of[np.where(outside, n_nodes, dst - 1)]
    bad = outside | (gs != gd)
    if bad.any():
        i = int(np.argmax(bad))
        if outside[i]:
            raise IntegrityError(
                f"{prefix}_A.txt:{line[i]}: node id outside [1, {n_nodes}]"
            )
        raise IntegrityError(
            f"{prefix}_A.txt:{line[i]}: edge ({src[i]}, {dst[i]}) crosses graphs "
            f"{gs[i] + 1} and {gd[i] + 1}"
        )

    # canonical pairs of stacked rows, deduplicated and sorted: by graph,
    # then by local (u, v)
    ru, rv = row[src - 1], row[dst - 1]
    lo, hi = np.divmod(np.unique(np.minimum(ru, rv) * n_nodes + np.maximum(ru, rv)),
                       max(n_nodes, 1))
    edge_graph = node_graph[order][lo]
    start = _node_offsets(counts)[edge_graph]

    distinct, labels = np.unique(graph_labels_raw, return_inverse=True)
    node_labels = None if node_labels_raw is None else np.array(node_labels_raw)[order]
    if feature_scheme is None:
        feature_scheme = (
            NODE_LABEL_ONEHOT if node_labels_raw is not None else DEGREE_ONEHOT
        )
    return GraphDataset(
        node_features=_features(feature_scheme, n_nodes, lo, hi, node_labels,
                                degree_cap),
        node_counts=counts,
        edges=np.column_stack((lo - start, hi - start)),
        edge_counts=np.bincount(edge_graph, minlength=num_graphs),
        graph_labels=labels,
        num_classes=distinct.size,
        feature_scheme=feature_scheme,
        node_labels=node_labels,
    )


def _write_lines(path: str, values) -> None:
    with open(path, "w") as f:
        f.write("".join(f"{value}\n" for value in values))


def write_tudataset(dataset: GraphDataset, root_path: str, dataset_name: str) -> None:
    """Emit the dataset in TUDataset text format (both edge directions, a
    self-loop once); graphs are numbered by position."""
    unlabeled = dataset.graph_labels < 0
    if unlabeled.any():
        raise DatasetError(f"graph {np.argmax(unlabeled)} has no label to serialize")
    os.makedirs(root_path, exist_ok=True)
    prefix = os.path.join(root_path, dataset_name)
    src, dst = (dataset.global_edges() + 1).T
    # each edge, then its reverse unless it is a self-loop
    lines = np.column_stack((src, dst, dst, src)).reshape(-1, 2)
    keep = np.column_stack((np.ones_like(src, dtype=bool), src != dst)).ravel()
    _write_lines(f"{prefix}_A.txt", (f"{a}, {b}" for a, b in lines[keep].tolist()))
    _write_lines(
        f"{prefix}_graph_indicator.txt",
        np.repeat(np.arange(1, len(dataset) + 1), dataset.node_counts).tolist(),
    )
    _write_lines(f"{prefix}_graph_labels.txt", dataset.graph_labels.tolist())
    if dataset.node_labels is not None:
        _write_lines(f"{prefix}_node_labels.txt", dataset.node_labels.tolist())


# ---------------------------------------------------------------------------
# Feature construction
# ---------------------------------------------------------------------------


def _features(scheme, num_nodes, src, dst, node_labels, degree_cap) -> np.ndarray:
    """One-hot node features over the stacked nodes, given the stacked edge
    endpoints ``src``/``dst`` and the node labels (None when absent)."""
    if degree_cap < 0:
        raise FeatureConfigError(f"need degree_cap >= 0, got degree_cap={degree_cap}")
    if scheme == NODE_LABEL_ONEHOT:
        if node_labels is None:
            raise FeatureConfigError(
                "node-label-onehot requested but node labels were not parsed"
            )
        distinct, column = np.unique(node_labels, return_inverse=True)
        dim = distinct.size
    elif scheme == DEGREE_ONEHOT:
        # a self-loop adds one to its node's degree
        degree = np.bincount(src, minlength=num_nodes)
        degree += np.bincount(dst[src != dst], minlength=num_nodes)
        dim = min(int(degree.max(initial=0)), degree_cap) + 1
        column = np.minimum(degree, dim - 1)
    else:
        raise FeatureConfigError(f"unknown feature scheme {scheme!r}")
    features = np.zeros((num_nodes, dim), dtype=np.float64)
    features[np.arange(num_nodes), column] = 1.0
    return features


def build_features(
    dataset: GraphDataset, scheme: str, degree_cap: int = DEFAULT_DEGREE_CAP
) -> GraphDataset:
    """Rebuild node features under the given scheme.

    node-label-onehot: one column per distinct node label in the dataset.
    degree-onehot: one column per degree value 0..max_degree, where degrees
    above ``degree_cap`` clamp into the last bucket.
    """
    src, dst = dataset.global_edges().T
    features = _features(scheme, dataset.node_features.shape[0], src, dst,
                         dataset.node_labels, degree_cap)
    return replace(dataset, node_features=features, feature_scheme=scheme)


# ---------------------------------------------------------------------------
# Imbalance ratios and head/tail partition
# ---------------------------------------------------------------------------


def compute_class_imbalance_ratio(dataset: GraphDataset, train_idx) -> float:
    """max class count / min class count over the training indices."""
    idx = np.asarray(train_idx, dtype=np.int64)
    labels = dataset.graph_labels[idx]
    unlabeled = labels < 0
    if unlabeled.any():
        i = idx[np.argmax(unlabeled)]
        raise UndefinedRatioError(f"train index {i} has no label")
    counts = np.bincount(labels, minlength=dataset.num_classes)
    if np.any(counts == 0):
        missing = [c for c in range(dataset.num_classes) if counts[c] == 0]
        raise UndefinedRatioError(f"classes {missing} absent from train set")
    return float(counts.max()) / float(counts.min())


def head_tail_partition(dataset: GraphDataset) -> tuple[list[int], list[int]]:
    """Largest ceil(0.2 N) graphs by node count vs the rest.

    Size ties are broken by ascending position, so among equal sizes the
    last graphs land in the head.
    """
    n = len(dataset)
    if n < 5:
        raise UndefinedRatioError(f"head/tail partition needs >= 5 graphs, got {n}")
    sizes = dataset.sizes()
    ids = np.arange(n)
    order = np.lexsort((ids, sizes))  # ascending size, then ascending id
    h = math.ceil(0.2 * n)
    head = sorted(int(i) for i in order[n - h :])
    tail = sorted(int(i) for i in order[: n - h])
    return head, tail


def compute_size_imbalance_ratio(dataset: GraphDataset) -> float:
    """Mean node count of the head graphs over mean node count of the tail."""
    head, tail = head_tail_partition(dataset)
    sizes = dataset.sizes()
    return float(sizes[head].mean()) / float(sizes[tail].mean())


# ---------------------------------------------------------------------------
# Split generation and split files
# ---------------------------------------------------------------------------


def make_class_imbalanced_split(
    dataset: GraphDataset,
    rho_class: float,
    train_fraction: float,
    val_fraction: float,
    seed: int,
) -> SplitSpec:
    """Training split with majority:minority = rho_class for a binary dataset.

    The majority role goes to the class with more graphs overall (class 0 on
    ties).  Remaining graphs are split into val/test uniformly at random.
    """
    if dataset.num_classes != 2:
        raise SplitError("class-imbalanced split generation requires 2 classes")
    if not 1 <= rho_class < math.inf:
        raise SplitError(f"rho_class must be finite and >= 1, got {rho_class}")
    if not math.isfinite(train_fraction):
        raise SplitError(f"train_fraction must be finite, got {train_fraction}")
    if not 0.0 <= val_fraction <= 1.0:
        raise SplitError(f"val_fraction must lie in [0, 1], got {val_fraction}")
    labels = dataset.labels()
    if np.any(labels < 0):
        raise SplitError("split generation requires labels on every graph")

    n = len(dataset)
    n_train = int(round(train_fraction * n))
    if not (2 <= n_train <= n):
        raise SplitError(f"train_fraction {train_fraction} gives {n_train} graphs")

    avail = np.array([(labels == c).sum() for c in range(2)], dtype=np.int64)
    major = int(np.argmax(avail))  # class 0 on ties by argmax convention
    minor = 1 - major

    maj_share = n_train * rho_class / (1.0 + rho_class)
    want = np.empty(2)
    want[major], want[minor] = maj_share, n_train - maj_share
    counts = largest_remainder(want, n_train)

    if counts[minor] < 1:
        raise SplitError(
            f"rho_class {rho_class} leaves no minority graphs in a train set of "
            f"{n_train}"
        )
    if counts[major] > avail[major] or counts[minor] > avail[minor]:
        maj_max = int(min(avail[major], n_train - 1))
        min_req = n_train - maj_max
        if min_req > avail[minor]:
            raise SplitError(
                f"no feasible train set of size {n_train} from class counts "
                f"{avail.tolist()}"
            )
        raise SplitError(
            f"rho_class {rho_class} infeasible for class counts {avail.tolist()}; "
            f"max achievable ratio at this train size is {maj_max / min_req:.4g}"
        )

    rng = generator(seed, 0xC1A55)
    train: list[int] = []
    for c in (0, 1):
        members = np.nonzero(labels == c)[0]
        picked = rng.permutation(members)[: counts[c]]
        train.extend(int(i) for i in picked)
    train = sorted(train)

    rest = np.array(sorted(set(range(n)) - set(train)), dtype=np.int64)
    rest = rng.permutation(rest)
    n_val = min(int(round(val_fraction * n)), len(rest))
    val = sorted(int(i) for i in rest[:n_val])
    test = sorted(int(i) for i in rest[n_val:])

    return SplitSpec(
        train_idx=tuple(train),
        val_idx=tuple(val),
        test_idx=tuple(test),
        rho_class=float(rho_class),
        seed=seed,
    )


def write_split(split: SplitSpec, path: str) -> None:
    """Three comma-separated index lines (train/val/test) under a header."""
    def fmt(x):
        return "none" if x is None else repr(float(x))

    with open(path, "w") as f:
        f.write(f"# rho_class={fmt(split.rho_class)} seed={split.seed}\n")
        for idx in (split.train_idx, split.val_idx, split.test_idx):
            f.write(",".join(str(i) for i in idx) + "\n")


def read_split(path: str) -> SplitSpec:
    with open(path, "r", newline=None) as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or not lines[0].startswith("#"):
        raise ParseError(f"{path}: missing split header comment")
    fields = dict(
        tok.split("=", 1) for tok in lines[0].lstrip("# ").split() if "=" in tok
    )

    def ratio(v):
        return None if v == "none" else float(v)

    def header(key, cast, default):
        v = fields.get(key, default)
        try:
            return cast(v)
        except ValueError as e:
            raise ParseError(f"{path}:1: expected a number for {key}, got {v!r}") from e

    body = lines[1:4]
    if len(body) < 3:
        raise ParseError(f"{path}: expected three index lines")
    for ln, line in enumerate(lines[4:], start=5):
        if line.strip():
            raise ParseError(f"{path}:{ln}: expected three index lines, got {line!r}")
    lists = []
    for ln, line in enumerate(body, start=2):
        try:
            lists.append(tuple(int(t) for t in line.split(",") if t.strip() != ""))
        except ValueError as e:
            raise ParseError(f"{path}:{ln}: expected integers, got {line!r}") from e
    return SplitSpec(
        train_idx=lists[0],
        val_idx=lists[1],
        test_idx=lists[2],
        rho_class=header("rho_class", ratio, "none"),
        seed=header("seed", int, "0"),
    )


def labels_with_test_masked(dataset: GraphDataset, split: SplitSpec) -> np.ndarray:
    """Label view for training paths: test entries are -1."""
    labels = dataset.labels()
    labels[list(split.test_idx)] = -1
    return labels


# ---------------------------------------------------------------------------
# Synthetic fixtures
# ---------------------------------------------------------------------------


def make_planted_dataset(
    num_graphs: int = 200,
    seed: int = 0,
    feature_dim: int = 4,
    min_nodes: int = 8,
    max_nodes: int = 16,
    signal: float = 1.0,
    noise: float = 0.0,
    edge_prob: float = 0.3,
) -> GraphDataset:
    """Binary dataset whose label is recoverable from node features.

    Class c graphs get mean feature ``signal`` in coordinate c plus Gaussian
    noise; with ``noise=0`` the classes have class-distinct constant features.
    """
    if feature_dim < 2:
        raise DatasetError("planted dataset needs feature_dim >= 2")
    if not 1 <= min_nodes <= max_nodes:
        raise DatasetError(
            "planted dataset needs 1 <= min_nodes <= max_nodes, "
            f"got min_nodes={min_nodes}, max_nodes={max_nodes}"
        )
    if not 0.0 <= edge_prob <= 1.0:  # NaN fails too
        raise DatasetError(
            f"planted dataset needs 0 <= edge_prob <= 1, got edge_prob={edge_prob}"
        )
    if not (math.isfinite(signal) and math.isfinite(noise)):
        raise DatasetError(
            f"planted dataset needs finite signal and noise, got signal={signal}, "
            f"noise={noise}"
        )
    rng = generator(seed, 0x9D0)
    pairs = {}  # n -> every pair u < v of n nodes, in row-major order
    sizes, edges, features = [], [], []
    for g in range(num_graphs):
        # the size stays a scalar draw: bounded integers buffer per call
        n = int(rng.integers(min_nodes, max_nodes + 1))
        if n not in pairs:
            pairs[n] = np.column_stack(np.triu_indices(n, 1))
        # one uniform per pair, so the kept pairs come out sorted
        keep = rng.random(len(pairs[n])) < edge_prob
        feats = noise * rng.standard_normal((n, feature_dim))
        feats[:, g % 2] += signal
        sizes.append(n)
        edges.append(pairs[n][keep])
        features.append(feats)
    return GraphDataset(
        node_features=np.concatenate([np.zeros((0, feature_dim)), *features]),
        node_counts=sizes,
        edges=np.concatenate([np.zeros((0, 2), np.int64), *edges]),
        edge_counts=[len(e) for e in edges],
        graph_labels=np.arange(num_graphs) % 2,
        num_classes=2,
        feature_scheme=PLANTED_GAUSSIAN,
    )


def make_path_graph_dataset(sizes, labels=None) -> GraphDataset:
    """Path graphs with the given node counts; handy for size-ratio fixtures."""
    sizes = np.asarray(sizes, dtype=np.int64)
    local = np.arange(sizes.sum()) - np.repeat(_node_offsets(sizes), sizes)
    # every node but its graph's last links to the next one
    u = local[local < np.repeat(sizes - 1, sizes)]
    num_classes = 2 if labels is None else max(int(max(labels)) + 1, 2)
    return GraphDataset(
        node_features=np.ones((local.size, 1)),
        node_counts=sizes,
        edges=np.column_stack((u, u + 1)),
        edge_counts=np.maximum(sizes - 1, 0),
        graph_labels=np.full(sizes.size, -1) if labels is None else labels,
        num_classes=num_classes,
        feature_scheme=DEGREE_ONEHOT,
    )
