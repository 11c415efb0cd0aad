import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from samgog import data
from samgog import rng as rng_mod
from samgog.degree_alloc import AllocConfig, InfeasibleAllocationError
from samgog.encoder import EncoderConfig
from samgog.similarity import build_prob_matrix


def stack(graphs, node_labels=None):
    """A two-class dataset from (local edges, node count, label) per graph,
    with one all-zero feature column."""
    edges = [np.array(e, dtype=np.int64).reshape(-1, 2) for e, _, _ in graphs]
    sizes = [n for _, n, _ in graphs]
    return data.GraphDataset(
        node_features=np.zeros((sum(sizes), 1)), node_counts=sizes,
        edges=np.concatenate(edges), edge_counts=[len(e) for e in edges],
        graph_labels=[label for *_, label in graphs], num_classes=2,
        feature_scheme=data.DEGREE_ONEHOT, node_labels=node_labels,
    )


def write_minimal_dataset(tmp_path, name="MINI"):
    """One 2-node graph with a single edge."""
    (tmp_path / f"{name}_A.txt").write_text("1, 2\n2, 1\n")
    (tmp_path / f"{name}_graph_indicator.txt").write_text("1\n1\n")
    (tmp_path / f"{name}_graph_labels.txt").write_text("1\n")
    return tmp_path


class TestParser:
    def test_minimal_single_graph(self, tmp_path):
        write_minimal_dataset(tmp_path)
        ds = data.parse_tudataset(str(tmp_path), "MINI")
        assert len(ds) == 1
        assert ds.node_counts.tolist() == [2]
        assert ds.edges.tolist() == [[0, 1]]
        assert ds.labels().tolist() == [0]  # remapped to contiguous range

    def test_missing_file_names_the_file(self, tmp_path):
        write_minimal_dataset(tmp_path)
        (tmp_path / "MINI_graph_labels.txt").unlink()
        with pytest.raises(data.ParseError, match="MINI_graph_labels.txt"):
            data.parse_tudataset(str(tmp_path), "MINI")

    def test_cross_graph_edge_reports_line_number(self, tmp_path):
        (tmp_path / "BAD_A.txt").write_text("1, 2\n2, 3\n")
        (tmp_path / "BAD_graph_indicator.txt").write_text("1\n1\n2\n")
        (tmp_path / "BAD_graph_labels.txt").write_text("1\n2\n")
        with pytest.raises(data.IntegrityError, match="BAD_A.txt:2"):
            data.parse_tudataset(str(tmp_path), "BAD")

    # a blank line before each bad line, so the line number counts blanks
    @pytest.mark.parametrize(
        "file, text, message",
        [
            ("graph_labels", "1\n\nx\n",
             r"MINI_graph_labels.txt:3: expected integer, got 'x'"),
            ("A", "1, 2\n\n1, 2, 1\n",
             r"MINI_A.txt:3: expected 'src, dst', got '1, 2, 1'"),
            ("A", "1, 2\n\n2, one\n",
             r"MINI_A.txt:3: expected integers, got '2, one'"),
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, file, text, message):
        write_minimal_dataset(tmp_path)
        (tmp_path / f"MINI_{file}.txt").write_text(text)
        with pytest.raises(data.ParseError, match=message):
            data.parse_tudataset(str(tmp_path), "MINI")

    def test_crlf_and_spacing_tolerated(self, tmp_path):
        (tmp_path / "W_A.txt").write_bytes(b"1,2\r\n2, 1\r\n")
        (tmp_path / "W_graph_indicator.txt").write_bytes(b"1\r\n1\r\n")
        (tmp_path / "W_graph_labels.txt").write_bytes(b"5\r\n")
        ds = data.parse_tudataset(str(tmp_path), "W")
        assert ds.edges.tolist() == [[0, 1]]

    def test_labels_remap_contiguous(self, tmp_path):
        (tmp_path / "L_A.txt").write_text("1, 2\n3, 4\n")
        (tmp_path / "L_graph_indicator.txt").write_text("1\n1\n2\n2\n")
        (tmp_path / "L_graph_labels.txt").write_text("-1\n1\n")
        ds = data.parse_tudataset(str(tmp_path), "L")
        assert ds.labels().tolist() == [0, 1]
        assert ds.num_classes == 2

    def test_graph_without_nodes_rejected(self, tmp_path):
        (tmp_path / "E_A.txt").write_text("1, 2\n")
        (tmp_path / "E_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "E_graph_labels.txt").write_text("0\n1\n")
        with pytest.raises(data.IntegrityError, match="graph 1 has no nodes"):
            data.parse_tudataset(str(tmp_path), "E")
        with pytest.raises(data.IntegrityError, match="graph 1 has no nodes"):
            stack([((), 1, 0), ((), 0, 0)])

    def test_round_trip_reproduces_structure(self, tmp_path):
        rng = np.random.default_rng(7)
        graphs = []
        for _ in range(10):
            n = int(rng.integers(2, 9))
            edges = set()
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        edges.add((u, v))
            graphs.append((sorted(edges), n, int(rng.integers(0, 2))))
        num_nodes = sum(n for _, n, _ in graphs)
        ds = stack(graphs, node_labels=rng.integers(0, 3, size=num_nodes))
        data.write_tudataset(ds, str(tmp_path), "RT")
        parsed = data.parse_tudataset(str(tmp_path), "RT")
        for name in ("node_counts", "edges", "edge_counts", "graph_labels",
                     "node_labels"):
            assert np.array_equal(getattr(parsed, name), getattr(ds, name)), name

    def test_round_trip_numbers_graphs_by_position(self, tmp_path):
        ds = stack([([(0, 1), (1, 2)], 3, 1), ([(0, 1)], 2, 0)])
        data.write_tudataset(ds, str(tmp_path), "ID")
        parsed = data.parse_tudataset(str(tmp_path), "ID")
        assert parsed.node_counts.tolist() == [3, 2]
        assert parsed.labels().tolist() == [1, 0]
        assert parsed.edges.tolist() == [[0, 1], [1, 2], [0, 1]]
        assert parsed.edge_counts.tolist() == [2, 1]

    def test_parse_write_parse_keeps_the_stacked_arrays(self, tmp_path):
        # interleaved graph ids, unsorted and repeated edges, a self-loop and
        # a one-node graph: the first parse canonicalizes, the second repeats it
        (tmp_path / "S_A.txt").write_text("5, 1\n1, 5\n3, 5\n4, 2\n2, 4\n6, 6\n")
        (tmp_path / "S_graph_indicator.txt").write_text("1\n2\n1\n2\n1\n2\n3\n")
        (tmp_path / "S_graph_labels.txt").write_text("7\n-2\n7\n")
        (tmp_path / "S_node_labels.txt").write_text("0\n1\n2\n1\n0\n2\n5\n")
        first = data.parse_tudataset(str(tmp_path), "S")
        assert first.node_counts.tolist() == [3, 3, 1]
        assert first.edges.tolist() == [[0, 2], [1, 2], [0, 1], [2, 2]]
        assert first.edge_counts.tolist() == [2, 2, 0]
        assert first.labels().tolist() == [1, 0, 1]
        assert first.node_labels.tolist() == [0, 2, 0, 1, 1, 2, 5]
        data.write_tudataset(first, str(tmp_path / "out"), "S")
        second = data.parse_tudataset(str(tmp_path / "out"), "S")
        for name in ("node_features", "node_counts", "edges", "edge_counts",
                     "graph_labels", "node_labels", "node_offsets"):
            assert np.array_equal(getattr(second, name), getattr(first, name)), name
        assert (second.num_classes, second.feature_scheme, second.feature_dim) == (
            first.num_classes, first.feature_scheme, first.feature_dim
        )

    def test_unlabeled_graph_is_not_written(self, tmp_path):
        ds = stack([((), 1, 0), ((), 1, -1)])
        with pytest.raises(data.DatasetError, match="graph 1 has no label"):
            data.write_tudataset(ds, str(tmp_path), "U")
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(graph_labels=[0, 2]), r"graph 1: label 2 out of range"),
        (dict(graph_labels=[-2, 0]), r"graph 0: label -2 out of range"),
        (dict(node_labels=[1, 2]), r"2 node labels for 3 nodes"),
        (dict(node_features=np.ones((4, 2))), r"node features of shape \(4, 2\)"),
        (dict(node_features=np.ones(3)), r"node features of shape \(3,\)"),
        (dict(edge_counts=[1, 1]), r"2 edge counts .* edges of shape \(1, 2\)"),
        (dict(edge_counts=[-1, 2]), r"2 edge counts .* edges of shape \(1, 2\)"),
        (dict(edges=[[0, 1, 1]], edge_counts=[0, 1]), r"edges of shape \(1, 3\)"),
        (dict(graph_labels=[0]), r"and 1 labels do not match"),
    ],
)
def test_inconsistent_arrays_rejected_by_name(change, message):
    arrays = dict(
        node_features=np.ones((3, 2)), node_counts=[1, 2], edges=[[0, 1]],
        edge_counts=[0, 1], graph_labels=[0, 1], num_classes=2,
        feature_scheme=data.PLANTED_GAUSSIAN,
    )
    data.GraphDataset(**arrays)
    with pytest.raises(data.IntegrityError, match=message):
        data.GraphDataset(**{**arrays, **change})


def test_stored_arrays_are_read_only():
    features = np.ones((3, 2))
    ds = data.GraphDataset(
        node_features=features, node_counts=[1, 2], edges=[[0, 1]],
        edge_counts=[0, 1], graph_labels=[0, 1], num_classes=2,
        feature_scheme=data.PLANTED_GAUSSIAN, node_labels=[4, 5, 6],
    )
    for name in ("node_features", "node_counts", "edges", "edge_counts",
                 "graph_labels", "node_labels", "node_offsets"):
        array = getattr(ds, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # the dataset holds copies, and hands out fresh label and size arrays
    features[0, 0] = 9.0
    assert ds.node_features[0, 0] == 1.0
    for fresh in (ds.labels(), ds.sizes()):
        fresh[0] = 7
    assert ds.graph_labels[0] == 0 and ds.node_counts[0] == 1


def check_edges_one_by_one(graph_id, edges, n):
    """The per-edge check each graph ran on its input before the dataset
    checked every edge at once, kept as the oracle for the first bad edge
    and its message."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise data.IntegrityError(f"graph {graph_id}: edge ({u}, {v}) outside [0, {n})")
        if (u, v) != (min(u, v), max(u, v)):
            raise data.IntegrityError(f"graph {graph_id}: edge ({u}, {v}) not canonicalized")
        if (u, v) in seen:
            raise data.IntegrityError(f"graph {graph_id}: duplicate edge ({u}, {v})")
        seen.add((u, v))


def graph_seven(edges, n):
    """Seven one-node graphs, then an n-node graph with ``edges``: graph 7."""
    return stack([((), 1, 0)] * 7 + [(edges, n, 0)])


class TestInputGraph:
    """The dataset constructor's check of each input graph's edges."""

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((0, 3),), r"graph 7: edge \(0, 3\) outside \[0, 3\)"),
            (((-1, 1),), r"graph 7: edge \(-1, 1\) outside \[0, 3\)"),
            (((2, 1),), r"graph 7: edge \(2, 1\) not canonicalized"),
            (((0, 1), (1, 2), (0, 1)), r"graph 7: duplicate edge \(0, 1\)"),
        ],
    )
    def test_bad_edge_names_graph_and_edge(self, edges, message):
        with pytest.raises(data.IntegrityError, match=message):
            graph_seven(edges, 3)


    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(
            st.tuples(st.integers(-2, 5), st.integers(-2, 5)), max_size=8
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_first_bad_edge_matches_per_edge_check(self, n, edges):
        # random lists mix out-of-range, reversed, duplicate and self-loop
        # edges, with the bad one at any position
        edges = tuple(edges)
        try:
            check_edges_one_by_one(7, edges, n)
        except data.IntegrityError as expected:
            with pytest.raises(data.IntegrityError) as raised:
                graph_seven(edges, n)
            assert type(raised.value) is type(expected)
            assert str(raised.value) == str(expected)
        else:
            ds = graph_seven(edges, n)
            assert ds.edges.tolist() == [list(e) for e in edges]


@pytest.mark.parametrize("low, high", [(10, 5), (-1, 4), (0, 4), (0, 0)])
def test_planted_node_range_names_both_fields(low, high):
    message = rf"1 <= min_nodes <= max_nodes, got min_nodes={low}, max_nodes={high}"
    with pytest.raises(data.DatasetError, match=message):
        data.make_planted_dataset(num_graphs=4, min_nodes=low, max_nodes=high)


@pytest.mark.parametrize("edge_prob", [1.5, -0.1, float("nan"), float("inf")])
def test_planted_edge_prob_outside_unit_interval_rejected(edge_prob):
    with pytest.raises(data.DatasetError, match=r"0 <= edge_prob <= 1, got edge_prob="):
        data.make_planted_dataset(num_graphs=4, edge_prob=edge_prob)


@pytest.mark.parametrize("num_graphs", [0, -2])
def test_planted_needs_a_graph(num_graphs):
    with pytest.raises(data.DatasetError, match=f"num_graphs >= 1, got {num_graphs}"):
        data.make_planted_dataset(num_graphs=num_graphs)


def planted_one_pair_at_a_time(
    num_graphs, seed, feature_dim=4, min_nodes=8, max_nodes=16, signal=1.0,
    noise=0.0, edge_prob=0.3,
):
    """Brute-force oracle: the generator as one rng.random() call per node
    pair, the loop that make_planted_dataset's vector draw replaced."""
    rng = rng_mod.generator(seed, 0x9D0)
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
        graphs.append((gid, label, tuple(sorted(edges)), feats))
    return graphs


class TestPlantedDataset:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize(
        "min_nodes, max_nodes, edge_prob, noise",
        [
            (8, 16, 0.3, 0.0),
            (1, 2, 0.5, 1.0),
            (1, 1, 0.3, 0.5),
            (2, 30, 0.3, 1.55),
            (3, 9, 0.0, 0.5),
            (3, 9, 1.0, 0.5),
            (5, 5, 0.7, 2.0),
        ],
    )
    def test_matches_one_pair_at_a_time(self, seed, min_nodes, max_nodes, edge_prob, noise):
        kwargs = dict(
            min_nodes=min_nodes, max_nodes=max_nodes, edge_prob=edge_prob, noise=noise
        )
        ds = data.make_planted_dataset(num_graphs=40, seed=seed, **kwargs)
        oracle = planted_one_pair_at_a_time(40, seed, **kwargs)
        assert len(ds) == len(oracle)
        assert ds.labels().tolist() == [label for _, label, _, _ in oracle]
        assert ds.node_counts.tolist() == [len(feats) for *_, feats in oracle]
        assert ds.edge_counts.tolist() == [len(edges) for _, _, edges, _ in oracle]
        assert ds.edges.tolist() == [
            list(e) for _, _, edges, _ in oracle for e in edges
        ]
        assert ds.node_features.tobytes() == b"".join(
            feats.tobytes() for *_, feats in oracle
        )

    def test_scale_dataset_keeps_its_bytes(self):
        # digest recorded from the one-call-per-pair generator, which hashed
        # each graph's (id, label, size, edge count), edges and features
        ds = data.make_planted_dataset(num_graphs=2000, seed=7, noise=0.5)
        h = hashlib.sha256()
        edge_offsets = np.cumsum(ds.edge_counts) - ds.edge_counts
        for g in range(len(ds)):
            n, e = ds.node_counts[g], ds.edge_counts[g]
            h.update(np.array([g, ds.graph_labels[g], n, e], dtype=np.int64).tobytes())
            h.update(ds.edges[edge_offsets[g]:edge_offsets[g] + e].tobytes())
            o = ds.node_offsets[g]
            h.update(ds.node_features[o:o + n].tobytes())
        assert h.hexdigest() == (
            "fec5441ae19797118b148454e3058709c4e0eb6d923a74e37e54a46ce836b5cc"
        )


class TestFeatures:
    def test_degree_onehot_path_graph(self):
        ds = data.make_path_graph_dataset([3], labels=[0])
        built = data.build_features(ds, data.DEGREE_ONEHOT)
        assert built.feature_dim == 3  # max degree 2
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[2, 1] = 1.0  # endpoints: degree 1
        expected[1, 2] = 1.0  # middle: degree 2
        assert np.array_equal(built.node_features, expected)

    def test_node_label_onehot_dim_counts_distinct_labels(self, tmp_path):
        write_minimal_dataset(tmp_path)
        (tmp_path / "MINI_node_labels.txt").write_text("4\n9\n")
        ds = data.parse_tudataset(str(tmp_path), "MINI")
        assert ds.feature_scheme == data.NODE_LABEL_ONEHOT
        assert ds.feature_dim == 2
        assert np.array_equal(
            ds.node_features, np.array([[1.0, 0.0], [0.0, 1.0]])
        )

    def test_node_label_scheme_without_labels_rejected(self):
        ds = data.make_path_graph_dataset([3, 4], labels=[0, 1])
        with pytest.raises(data.FeatureConfigError):
            data.build_features(ds, data.NODE_LABEL_ONEHOT)

    def test_degree_cap_clamps(self):
        ds = stack([([(0, i) for i in range(1, 8)], 8, 0)])
        built = data.build_features(ds, data.DEGREE_ONEHOT, degree_cap=3)
        assert built.feature_dim == 4
        assert built.node_features[0, 3] == 1.0  # degree 7 clamped

    def test_negative_degree_cap_rejected(self):
        ds = data.make_path_graph_dataset([3, 4], labels=[0, 1])
        with pytest.raises(data.FeatureConfigError, match="degree_cap=-1"):
            data.build_features(ds, data.DEGREE_ONEHOT, degree_cap=-1)

    @given(st.integers(min_value=5, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_feature_rows_are_exact_onehot(self, n, seed):
        ds = data.make_planted_dataset(num_graphs=n, seed=seed, min_nodes=2, max_nodes=7)
        built = data.build_features(ds, data.DEGREE_ONEHOT)
        feats = built.node_features
        assert np.all(feats.sum(axis=1) == 1.0)
        assert np.all((feats == 0.0) | (feats == 1.0))


class TestRatios:
    def test_class_ratio_direct_quotient(self):
        labels = [0] * 90 + [1] * 10
        ds = data.make_path_graph_dataset([3] * 100, labels=labels)
        assert data.compute_class_imbalance_ratio(ds, range(100)) == 9.0

    def test_class_ratio_balance(self):
        ds = data.make_path_graph_dataset([3] * 100, labels=[0] * 50 + [1] * 50)
        assert data.compute_class_imbalance_ratio(ds, range(100)) == 1.0

    def test_class_ratio_seven_three(self):
        ds = data.make_path_graph_dataset([3] * 100, labels=[0] * 70 + [1] * 30)
        assert data.compute_class_imbalance_ratio(ds, range(100)) == pytest.approx(7 / 3)

    def test_class_ratio_missing_class_rejected(self):
        ds = data.make_path_graph_dataset([3] * 10, labels=[0] * 5 + [1] * 5)
        with pytest.raises(data.UndefinedRatioError):
            data.compute_class_imbalance_ratio(ds, range(5))

    def test_size_ratio_single_head_element(self):
        ds = data.make_path_graph_dataset([10, 10, 10, 10, 50])
        assert data.compute_size_imbalance_ratio(ds) == 5.0

    def test_size_ratio_equal_sizes(self):
        ds = data.make_path_graph_dataset([7] * 10)
        assert data.compute_size_imbalance_ratio(ds) == 1.0

    def test_size_ratio_one_to_hundred(self):
        ds = data.make_path_graph_dataset(list(range(1, 101)))
        assert data.compute_size_imbalance_ratio(ds) == pytest.approx(
            90.5 / 40.5, abs=1e-12
        )

    def test_size_ratio_needs_five_graphs(self):
        ds = data.make_path_graph_dataset([3, 4, 5, 6])
        with pytest.raises(data.UndefinedRatioError):
            data.compute_size_imbalance_ratio(ds)


class TestHeadTail:
    def test_increasing_sizes_head_is_top_two(self):
        ds = data.make_path_graph_dataset(list(range(2, 12)))
        head, tail = data.head_tail_partition(ds)
        assert head == [8, 9]
        assert tail == list(range(8))

    def test_equal_sizes_tiebreak_puts_last_ids_in_head(self):
        ds = data.make_path_graph_dataset([5] * 10)
        head, tail = data.head_tail_partition(ds)
        assert head == [8, 9]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        sizes = [int(s) for s in rng.integers(2, 40, size=50)]
        ds = data.make_path_graph_dataset(sizes)
        head, tail = data.head_tail_partition(ds)
        # brute-force oracle: full sort of (size, id) pairs
        order = sorted(range(50), key=lambda i: (sizes[i], i))
        expected_head = sorted(order[-10:])
        assert head == expected_head
        assert tail == sorted(set(range(50)) - set(expected_head))
        assert all(
            sizes[h] > sizes[t] or (sizes[h] == sizes[t] and h > t)
            for h in head
            for t in tail
        )


class TestSplits:
    def make_balanced(self, n=200):
        return data.make_planted_dataset(num_graphs=n, seed=5, min_nodes=3, max_nodes=9)

    def test_rho_nine_train_counts(self):
        ds = self.make_balanced(200)
        split = data.make_class_imbalanced_split(ds, 9.0, 0.5, 0.25, seed=1)
        labels = ds.labels()
        counts = np.bincount(labels[list(split.train_idx)], minlength=2)
        assert sorted(counts.tolist()) == [10, 90]

    def test_rho_one_equal_counts(self):
        ds = self.make_balanced(100)
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=1)
        labels = ds.labels()
        counts = np.bincount(labels[list(split.train_idx)], minlength=2)
        assert counts.tolist() == [25, 25]

    def test_same_seed_identical(self):
        ds = self.make_balanced(100)
        a = data.make_class_imbalanced_split(ds, 3.0, 0.5, 0.25, seed=9)
        b = data.make_class_imbalanced_split(ds, 3.0, 0.5, 0.25, seed=9)
        assert a == b

    def test_partition_covers_dataset(self):
        ds = self.make_balanced(100)
        s = data.make_class_imbalanced_split(ds, 3.0, 0.5, 0.25, seed=9)
        assert sorted(s.train_idx + s.val_idx + s.test_idx) == list(range(100))

    @given(
        rho=st.floats(min_value=1.0, max_value=9.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_requested_ratio_within_one_graph_rounding(self, rho, seed):
        ds = self.make_balanced(200)
        split = data.make_class_imbalanced_split(ds, rho, 0.5, 0.25, seed=seed)
        got = data.compute_class_imbalance_ratio(ds, split.train_idx)
        counts = np.bincount(ds.labels()[list(split.train_idx)], minlength=2)
        lo, hi = min(counts), max(counts)
        # moving one graph across classes must bracket the requested ratio
        assert (hi - 1) / (lo + 1) <= rho <= (hi + 1) / max(lo - 1, 1)
        assert got == hi / lo

    @staticmethod
    def rounded_counts(n_train, rho, major):
        """Per-class train counts by largest remainder written out by hand:
        floor both shares, then the leftover graph goes to the larger
        fraction, ties to the lower class index."""
        maj_share = n_train * rho / (1.0 + rho)
        want = {major: maj_share, 1 - major: n_train - maj_share}
        counts = {c: math.floor(w) for c, w in want.items()}
        leftover = n_train - sum(counts.values())
        for c in sorted(want, key=lambda c: (counts[c] - want[c], c))[:leftover]:
            counts[c] += 1
        return [counts[0], counts[1]]

    @pytest.mark.parametrize("major", [0, 1])
    @pytest.mark.parametrize(
        "n_train, rho",
        # majority shares 7.5, 5.5, 10.5 and 13.5 are exact .5 ties
        [(10, 3.0), (11, 1.0), (12, 7.0), (15, 9.0), (20, 9.0), (17, 2.5),
         (13, 1.7), (20, 1.0), (19, 4.0)],
    )
    def test_train_counts_follow_largest_remainder(self, n_train, rho, major):
        labels = [major] * 22 + [1 - major] * 18
        ds = data.make_path_graph_dataset([3] * 40, labels=labels)
        split = data.make_class_imbalanced_split(ds, rho, n_train / 40, 0.25, seed=2)
        counts = np.bincount(ds.labels()[list(split.train_idx)], minlength=2)
        assert counts.tolist() == self.rounded_counts(n_train, rho, major)

    def test_infeasible_ratio_reports_max_achievable(self):
        ds = data.make_path_graph_dataset([3] * 20, labels=[0] * 12 + [1] * 8)
        with pytest.raises(data.SplitError, match="max achievable"):
            data.make_class_imbalanced_split(ds, 15.0, 0.8, 0.1, seed=0)

    @pytest.mark.parametrize("val_fraction", [-0.25, 1.5])
    def test_val_fraction_outside_unit_interval_rejected(self, val_fraction):
        ds = self.make_balanced(40)
        with pytest.raises(data.SplitError, match="val_fraction"):
            data.make_class_imbalanced_split(ds, 1.0, 0.5, val_fraction, seed=0)

    def test_multiclass_dataset_rejected(self):
        ds = data.make_path_graph_dataset([3] * 30, labels=[0, 1, 2] * 10)
        with pytest.raises(data.SplitError, match="2 classes"):
            data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=0)

    def test_split_file_round_trip(self, tmp_path):
        ds = self.make_balanced(60)
        split = data.make_class_imbalanced_split(ds, 2.0, 0.5, 0.25, seed=4)
        path = tmp_path / "split.txt"
        data.write_split(split, str(path))
        back = data.read_split(str(path))
        assert back == split

    def test_empty_val_round_trip(self, tmp_path):
        split = data.SplitSpec(train_idx=(0, 1), val_idx=(), test_idx=(2,), seed=3)
        path = tmp_path / "s.txt"
        data.write_split(split, str(path))
        assert data.read_split(str(path)) == split

    def test_header_drops_rho_size_and_old_headers_parse(self, tmp_path):
        split = data.SplitSpec(
            train_idx=(0, 1), val_idx=(), test_idx=(2,), rho_class=2.0, seed=3
        )
        path = tmp_path / "s.txt"
        data.write_split(split, str(path))
        assert path.read_text().splitlines()[0] == "# rho_class=2.0 seed=3"
        path.write_text("# rho_class=2.0 rho_size=none seed=3\n0,1\n\n2\n")
        assert data.read_split(str(path)) == split

    @pytest.mark.parametrize(
        "text, where",
        [
            ("# seed=1\n0,1\n2,x\n3\n", ":3:"),
            ("# rho_class=abc seed=1\n0,1\n2\n3\n", ":1:"),
            ("# rho_size=none seed=abc\n0,1\n2\n3\n", ":1:"),
            # graphs 4 and 5 would be in no list
            ("# seed=1\n0,1\n2\n3\n\n4,5\n", ":6:"),
        ],
    )
    def test_malformed_split_file_names_path_and_line(self, tmp_path, text, where):
        path = tmp_path / "s.txt"
        path.write_text(text)
        with pytest.raises(data.ParseError, match=f"s.txt{where}"):
            data.read_split(str(path))

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# seed=1\n0,1\n2\n3\n\n  \n")
        assert data.read_split(str(path)) == data.SplitSpec((0, 1), (2,), (3,), seed=1)

    @pytest.mark.parametrize(
        "lists, message",
        [
            (((1, 1), (), (2,)), "train index 1 appears twice"),
            (((0,), (2, 3), (3,)), "index 3 is in both the val and test lists"),
            (((4, 0), (), (4,)), "index 4 is in both the train and test lists"),
        ],
    )
    def test_repeated_split_index_names_its_lists(self, tmp_path, lists, message):
        with pytest.raises(data.SplitError, match=message):
            data.SplitSpec(*lists)
        path = tmp_path / "s.txt"
        path.write_text("# seed=0\n" + "".join(
            ",".join(map(str, idx)) + "\n" for idx in lists
        ))
        with pytest.raises(data.SplitError, match=message):
            data.read_split(str(path))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["rho_class", "train_fraction", "rho1", "rho2"])
def test_non_finite_ratio_rejected_by_name(name, value):
    if name in ("rho1", "rho2"):
        with pytest.raises(InfeasibleAllocationError, match=name):
            AllocConfig(**{name: value})
        return
    ds = data.make_path_graph_dataset([3] * 40, labels=[0, 1] * 20)
    ratios = {"rho_class": 3.0, "train_fraction": 0.5, name: value}
    with pytest.raises(data.SplitError, match=name):
        data.make_class_imbalanced_split(ds, val_fraction=0.25, seed=0, **ratios)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["logits", "epsilon_gin", "signal", "noise"])
def test_non_finite_input_rejected_where_it_enters(name, value):
    if name == "logits":
        with pytest.raises(ValueError, match="logits must be finite: row 1"):
            build_prob_matrix(
                np.array([[0.0, 1.0], [value, 0.0]]), np.array([-1, -1]),
                np.zeros(2, dtype=bool),
            )
    elif name == "epsilon_gin":
        with pytest.raises(ValueError, match="epsilon_gin"):
            EncoderConfig(arch="gin", epsilon_gin=value)
    else:
        with pytest.raises(data.DatasetError, match=name):
            data.make_planted_dataset(num_graphs=4, **{name: value})


def test_labels_with_test_masked():
    ds = data.make_path_graph_dataset([3] * 6, labels=[0, 1, 0, 1, 0, 1])
    split = data.SplitSpec(train_idx=(0, 1), val_idx=(2,), test_idx=(3, 4, 5))
    view = data.labels_with_test_masked(ds, split)
    assert view.tolist() == [0, 1, 0, -1, -1, -1]
    assert ds.labels().tolist() == [0, 1, 0, 1, 0, 1]  # original untouched
