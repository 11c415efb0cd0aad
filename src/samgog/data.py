"""Graph-classification datasets: TUDataset text parsing, node features,
imbalance ratios, and imbalanced split generation.

Conventions: files on disk are 1-indexed (TUDataset format), everything in
memory is 0-indexed.  Graph labels are remapped to a contiguous [0, C) range
at parse time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class InputGraph:
    """One classification instance: adjacency, features, optional label."""

    id: int
    edges: tuple[tuple[int, int], ...]  # canonical (min, max) pairs, deduped
    node_features: np.ndarray  # (size, feature_dim) float64
    label: int | None
    node_labels: tuple[int, ...] | None = None

    def __post_init__(self):
        n = self.node_features.shape[0]
        if n == 0:
            raise IntegrityError(f"graph {self.id} has no nodes")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IntegrityError(
                    f"graph {self.id}: edge ({u}, {v}) outside [0, {n})"
                )
            if (u, v) != (min(u, v), max(u, v)):
                raise IntegrityError(
                    f"graph {self.id}: edge ({u}, {v}) not canonicalized"
                )
            if (u, v) in seen:
                raise IntegrityError(f"graph {self.id}: duplicate edge ({u}, {v})")
            seen.add((u, v))
        if self.node_labels is not None and len(self.node_labels) != n:
            raise IntegrityError(f"graph {self.id}: node label count != size")

    @property
    def size(self) -> int:
        return self.node_features.shape[0]

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.size, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            if v != u:
                deg[v] += 1
        return deg


@dataclass(frozen=True)
class GraphDataset:
    graphs: tuple[InputGraph, ...]
    num_classes: int
    feature_scheme: str
    feature_dim: int

    def __post_init__(self):
        if self.feature_scheme not in (*FEATURE_SCHEMES, PLANTED_GAUSSIAN):
            raise FeatureConfigError(f"unknown feature scheme {self.feature_scheme!r}")
        for g in self.graphs:
            if g.node_features.shape[1] != self.feature_dim:
                raise IntegrityError(
                    f"graph {g.id}: feature dim {g.node_features.shape[1]} != "
                    f"{self.feature_dim}"
                )
            if g.label is not None and not (0 <= g.label < self.num_classes):
                raise IntegrityError(f"graph {g.id}: label {g.label} out of range")

    def __len__(self) -> int:
        return len(self.graphs)

    def sizes(self) -> np.ndarray:
        return np.array([g.size for g in self.graphs], dtype=np.int64)

    def labels(self) -> np.ndarray:
        """Labels as int64, -1 where absent."""
        return np.array(
            [-1 if g.label is None else g.label for g in self.graphs], dtype=np.int64
        )


@dataclass(frozen=True)
class SplitSpec:
    train_idx: tuple[int, ...]
    val_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    rho_class: float | None = None
    rho_size: float | None = None
    seed: int = 0

    def __post_init__(self):
        parts = (set(self.train_idx), set(self.val_idx), set(self.test_idx))
        total = len(self.train_idx) + len(self.val_idx) + len(self.test_idx)
        if len(parts[0] | parts[1] | parts[2]) != total:
            raise SplitError("split index lists overlap")

    def validate(self, dataset: GraphDataset) -> None:
        n = len(dataset)
        for name, idx in (
            ("train", self.train_idx),
            ("val", self.val_idx),
            ("test", self.test_idx),
        ):
            for i in idx:
                if not (0 <= i < n):
                    raise SplitError(f"{name} index {i} outside dataset of size {n}")
        for i in self.train_idx:
            if dataset.graphs[i].label is None:
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


def _read_edge_lines(path: str) -> list[tuple[int, int, int]]:
    """(src, dst, line_number) triples, 1-indexed global node ids."""
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
    return out


def parse_tudataset(
    root_path: str,
    dataset_name: str,
    feature_scheme: str | None = None,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> GraphDataset:
    """Parse `<DS>_A.txt`, `<DS>_graph_indicator.txt`, `<DS>_graph_labels.txt`
    and the optional `<DS>_node_labels.txt` under ``root_path``.

    ``feature_scheme`` defaults to node-label-onehot when node labels exist,
    degree-onehot otherwise.
    """
    prefix = os.path.join(root_path, dataset_name)

    def require(suffix: str) -> str:
        path = f"{prefix}_{suffix}"
        if not os.path.isfile(path):
            raise ParseError(f"missing mandatory file {path}")
        return path

    edges = _read_edge_lines(require("A.txt"))
    indicator = _read_int_lines(require("graph_indicator.txt"))
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
    if indicator and (min(indicator) < 1 or max(indicator) > num_graphs):
        raise IntegrityError(
            f"{prefix}_graph_indicator.txt: graph id outside [1, {num_graphs}]"
        )

    # global node id (1-indexed) -> (graph index, local node index); local
    # order follows ascending global id within each graph
    node_graph = np.array(indicator, dtype=np.int64) - 1
    order = np.argsort(node_graph, kind="stable")
    counts = np.bincount(node_graph, minlength=num_graphs)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local_index = np.empty(len(indicator), dtype=np.int64)
    local_index[order] = np.arange(len(indicator)) - np.repeat(starts, counts)

    per_graph_edges: list[set[tuple[int, int]]] = [set() for _ in range(num_graphs)]
    n_nodes = len(indicator)
    for src, dst, ln in edges:
        if not (1 <= src <= n_nodes and 1 <= dst <= n_nodes):
            raise IntegrityError(
                f"{prefix}_A.txt:{ln}: node id outside [1, {n_nodes}]"
            )
        gs, gd = node_graph[src - 1], node_graph[dst - 1]
        if gs != gd:
            raise IntegrityError(
                f"{prefix}_A.txt:{ln}: edge ({src}, {dst}) crosses graphs "
                f"{gs + 1} and {gd + 1}"
            )
        u, v = int(local_index[src - 1]), int(local_index[dst - 1])
        per_graph_edges[gs].add((min(u, v), max(u, v)))

    label_map = {lab: i for i, lab in enumerate(sorted(set(graph_labels_raw)))}
    num_classes = len(label_map)

    graphs = []
    for gid in range(num_graphs):
        n = int(counts[gid])
        if node_labels_raw is not None:
            members = order[starts[gid] : starts[gid] + counts[gid]]
            nl = tuple(node_labels_raw[int(m)] for m in members)
        else:
            nl = None
        graphs.append(
            InputGraph(
                id=gid,
                edges=tuple(sorted(per_graph_edges[gid])),
                node_features=np.zeros((n, 1), dtype=np.float64),
                label=label_map[graph_labels_raw[gid]],
                node_labels=nl,
            )
        )

    if feature_scheme is None:
        feature_scheme = (
            NODE_LABEL_ONEHOT if node_labels_raw is not None else DEGREE_ONEHOT
        )
    dataset = GraphDataset(
        graphs=tuple(graphs),
        num_classes=num_classes,
        feature_scheme=DEGREE_ONEHOT,  # placeholder until features are built
        feature_dim=1,
    )
    return build_features(dataset, feature_scheme, degree_cap=degree_cap)


def write_tudataset(dataset: GraphDataset, root_path: str, dataset_name: str) -> None:
    """Emit the dataset in TUDataset text format (both edge directions)."""
    os.makedirs(root_path, exist_ok=True)
    prefix = os.path.join(root_path, dataset_name)
    offsets = np.concatenate(([0], np.cumsum(dataset.sizes())))

    with open(f"{prefix}_A.txt", "w") as f:
        for g in dataset.graphs:
            base = offsets[g.id] + 1
            for u, v in g.edges:
                f.write(f"{base + u}, {base + v}\n")
                if u != v:
                    f.write(f"{base + v}, {base + u}\n")
    with open(f"{prefix}_graph_indicator.txt", "w") as f:
        for g in dataset.graphs:
            for _ in range(g.size):
                f.write(f"{g.id + 1}\n")
    with open(f"{prefix}_graph_labels.txt", "w") as f:
        for g in dataset.graphs:
            if g.label is None:
                raise DatasetError(f"graph {g.id} has no label to serialize")
            f.write(f"{g.label}\n")
    if all(g.node_labels is not None for g in dataset.graphs):
        with open(f"{prefix}_node_labels.txt", "w") as f:
            for g in dataset.graphs:
                for nl in g.node_labels:
                    f.write(f"{nl}\n")


# ---------------------------------------------------------------------------
# Feature construction
# ---------------------------------------------------------------------------


def build_features(
    dataset: GraphDataset, scheme: str, degree_cap: int = DEFAULT_DEGREE_CAP
) -> GraphDataset:
    """Rebuild node features under the given scheme.

    node-label-onehot: one column per distinct node label in the dataset.
    degree-onehot: one column per degree value 0..max_degree, where degrees
    above ``degree_cap`` clamp into the last bucket.
    """
    if scheme == NODE_LABEL_ONEHOT:
        if any(g.node_labels is None for g in dataset.graphs):
            raise FeatureConfigError(
                "node-label-onehot requested but node labels were not parsed"
            )
        distinct = sorted({nl for g in dataset.graphs for nl in g.node_labels})
        col = {lab: j for j, lab in enumerate(distinct)}
        dim = len(distinct)
        new_graphs = []
        for g in dataset.graphs:
            feats = np.zeros((g.size, dim), dtype=np.float64)
            for i, nl in enumerate(g.node_labels):
                feats[i, col[nl]] = 1.0
            new_graphs.append(replace(g, node_features=feats))
    elif scheme == DEGREE_ONEHOT:
        max_deg = 0
        all_degs = []
        for g in dataset.graphs:
            deg = g.degrees()
            all_degs.append(deg)
            if deg.size:
                max_deg = max(max_deg, int(deg.max()))
        dim = min(max_deg, degree_cap) + 1
        new_graphs = []
        for g, deg in zip(dataset.graphs, all_degs):
            feats = np.zeros((g.size, dim), dtype=np.float64)
            feats[np.arange(g.size), np.minimum(deg, dim - 1)] = 1.0
            new_graphs.append(replace(g, node_features=feats))
    else:
        raise FeatureConfigError(f"unknown feature scheme {scheme!r}")

    return GraphDataset(
        graphs=tuple(new_graphs),
        num_classes=dataset.num_classes,
        feature_scheme=scheme,
        feature_dim=dim,
    )


# ---------------------------------------------------------------------------
# Imbalance ratios and head/tail partition
# ---------------------------------------------------------------------------


def compute_class_imbalance_ratio(dataset: GraphDataset, train_idx) -> float:
    """max class count / min class count over the training indices."""
    counts = np.zeros(dataset.num_classes, dtype=np.int64)
    for i in train_idx:
        lab = dataset.graphs[i].label
        if lab is None:
            raise UndefinedRatioError(f"train index {i} has no label")
        counts[lab] += 1
    if np.any(counts == 0):
        missing = [c for c in range(dataset.num_classes) if counts[c] == 0]
        raise UndefinedRatioError(f"classes {missing} absent from train set")
    return float(counts.max()) / float(counts.min())


def head_tail_partition(dataset: GraphDataset) -> tuple[list[int], list[int]]:
    """Largest ceil(0.2 N) graphs by node count vs the rest.

    Size ties are broken by ascending graph id, so among equal sizes the
    highest ids land in the head.
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
    if rho_class < 1:
        raise SplitError(f"rho_class must be >= 1, got {rho_class}")
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
        rho_size=None,
        seed=seed,
    )


def write_split(split: SplitSpec, path: str) -> None:
    """Three comma-separated index lines (train/val/test) under a header."""
    def fmt(x):
        return "none" if x is None else repr(float(x))

    with open(path, "w") as f:
        f.write(
            f"# rho_class={fmt(split.rho_class)} rho_size={fmt(split.rho_size)} "
            f"seed={split.seed}\n"
        )
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

    def num(key):
        v = fields.get(key, "none")
        return None if v == "none" else float(v)

    body = lines[1:4]
    if len(body) < 3:
        raise ParseError(f"{path}: expected three index lines")
    lists = []
    for ln in body:
        ln = ln.strip()
        lists.append(tuple(int(t) for t in ln.split(",") if t.strip() != ""))
    return SplitSpec(
        train_idx=lists[0],
        val_idx=lists[1],
        test_idx=lists[2],
        rho_class=num("rho_class"),
        rho_size=num("rho_size"),
        seed=int(fields.get("seed", 0)),
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
    # min_nodes = 0 is left to InputGraph, which rejects an empty graph by id
    if not 0 <= min_nodes <= max_nodes:
        raise DatasetError(
            "planted dataset needs 0 <= min_nodes <= max_nodes, "
            f"got min_nodes={min_nodes}, max_nodes={max_nodes}"
        )
    rng = generator(seed, 0x9D0)
    graphs = []
    for gid in range(num_graphs):
        label = gid % 2
        n = int(rng.integers(min_nodes, max_nodes + 1))
        edges = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < edge_prob:
                    edges.add((u, v))
        feats = noise * rng.standard_normal((n, feature_dim))
        feats[:, label] += signal
        graphs.append(
            InputGraph(
                id=gid,
                edges=tuple(sorted(edges)),
                node_features=feats,
                label=label,
            )
        )
    return GraphDataset(
        graphs=tuple(graphs),
        num_classes=2,
        feature_scheme=PLANTED_GAUSSIAN,
        feature_dim=feature_dim,
    )


def make_path_graph_dataset(sizes, labels=None) -> GraphDataset:
    """Path graphs with the given node counts; handy for size-ratio fixtures."""
    graphs = []
    for gid, n in enumerate(sizes):
        edges = tuple((i, i + 1) for i in range(n - 1))
        lab = None if labels is None else int(labels[gid])
        graphs.append(
            InputGraph(
                id=gid,
                edges=edges,
                node_features=np.ones((n, 1), dtype=np.float64),
                label=lab,
            )
        )
    num_classes = 1 if labels is None else int(max(labels)) + 1
    return GraphDataset(
        graphs=tuple(graphs),
        num_classes=max(num_classes, 2) if labels is not None else 2,
        feature_scheme=DEGREE_ONEHOT,
        feature_dim=1,
    )
