import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from samgog import data


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
        g = ds.graphs[0]
        assert g.size == 2
        assert g.edges == ((0, 1),)
        assert g.label == 0  # remapped to contiguous range

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

    def test_crlf_and_spacing_tolerated(self, tmp_path):
        (tmp_path / "W_A.txt").write_bytes(b"1,2\r\n2, 1\r\n")
        (tmp_path / "W_graph_indicator.txt").write_bytes(b"1\r\n1\r\n")
        (tmp_path / "W_graph_labels.txt").write_bytes(b"5\r\n")
        ds = data.parse_tudataset(str(tmp_path), "W")
        assert ds.graphs[0].edges == ((0, 1),)

    def test_labels_remap_contiguous(self, tmp_path):
        (tmp_path / "L_A.txt").write_text("1, 2\n3, 4\n")
        (tmp_path / "L_graph_indicator.txt").write_text("1\n1\n2\n2\n")
        (tmp_path / "L_graph_labels.txt").write_text("-1\n1\n")
        ds = data.parse_tudataset(str(tmp_path), "L")
        assert [g.label for g in ds.graphs] == [0, 1]
        assert ds.num_classes == 2

    def test_graph_without_nodes_rejected(self, tmp_path):
        (tmp_path / "E_A.txt").write_text("1, 2\n")
        (tmp_path / "E_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "E_graph_labels.txt").write_text("0\n1\n")
        with pytest.raises(data.IntegrityError, match="graph 1 has no nodes"):
            data.parse_tudataset(str(tmp_path), "E")
        with pytest.raises(data.IntegrityError, match="graph 0 has no nodes"):
            data.make_planted_dataset(num_graphs=2, min_nodes=0, max_nodes=0)

    def test_round_trip_reproduces_structure(self, tmp_path):
        rng = np.random.default_rng(7)
        graphs = []
        for gid in range(10):
            n = int(rng.integers(2, 9))
            edges = set()
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        edges.add((u, v))
            graphs.append(
                data.InputGraph(
                    id=gid,
                    edges=tuple(sorted(edges)),
                    node_features=np.zeros((n, 1)),
                    label=int(rng.integers(0, 2)),
                    node_labels=tuple(int(x) for x in rng.integers(0, 3, size=n)),
                )
            )
        ds = data.GraphDataset(
            graphs=tuple(graphs), num_classes=2,
            feature_scheme=data.DEGREE_ONEHOT, feature_dim=1,
        )
        data.write_tudataset(ds, str(tmp_path), "RT")
        parsed = data.parse_tudataset(str(tmp_path), "RT")
        assert len(parsed) == len(ds)
        for orig, back in zip(ds.graphs, parsed.graphs):
            assert back.size == orig.size
            assert back.edges == orig.edges
            assert back.label == orig.label
            assert back.node_labels == orig.node_labels


class TestInputGraph:
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
            data.InputGraph(id=7, edges=edges, node_features=np.ones((3, 1)), label=0)


@pytest.mark.parametrize("low, high", [(10, 5), (-1, 4)])
def test_planted_node_range_names_both_fields(low, high):
    message = rf"0 <= min_nodes <= max_nodes, got min_nodes={low}, max_nodes={high}"
    with pytest.raises(data.DatasetError, match=message):
        data.make_planted_dataset(num_graphs=4, min_nodes=low, max_nodes=high)


class TestFeatures:
    def test_degree_onehot_path_graph(self):
        ds = data.make_path_graph_dataset([3], labels=[0])
        built = data.build_features(ds, data.DEGREE_ONEHOT)
        assert built.feature_dim == 3  # max degree 2
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[2, 1] = 1.0  # endpoints: degree 1
        expected[1, 2] = 1.0  # middle: degree 2
        assert np.array_equal(built.graphs[0].node_features, expected)

    def test_node_label_onehot_dim_counts_distinct_labels(self, tmp_path):
        write_minimal_dataset(tmp_path)
        (tmp_path / "MINI_node_labels.txt").write_text("4\n9\n")
        ds = data.parse_tudataset(str(tmp_path), "MINI")
        assert ds.feature_scheme == data.NODE_LABEL_ONEHOT
        assert ds.feature_dim == 2
        assert np.array_equal(
            ds.graphs[0].node_features, np.array([[1.0, 0.0], [0.0, 1.0]])
        )

    def test_node_label_scheme_without_labels_rejected(self):
        ds = data.make_path_graph_dataset([3, 4], labels=[0, 1])
        with pytest.raises(data.FeatureConfigError):
            data.build_features(ds, data.NODE_LABEL_ONEHOT)

    def test_degree_cap_clamps(self):
        star = data.InputGraph(
            id=0,
            edges=tuple((0, i) for i in range(1, 8)),
            node_features=np.zeros((8, 1)),
            label=0,
        )
        ds = data.GraphDataset(
            graphs=(star,), num_classes=2,
            feature_scheme=data.DEGREE_ONEHOT, feature_dim=1,
        )
        built = data.build_features(ds, data.DEGREE_ONEHOT, degree_cap=3)
        assert built.feature_dim == 4
        assert built.graphs[0].node_features[0, 3] == 1.0  # degree 7 clamped

    @given(st.integers(min_value=5, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_feature_rows_are_exact_onehot(self, n, seed):
        ds = data.make_planted_dataset(num_graphs=n, seed=seed, min_nodes=2, max_nodes=7)
        built = data.build_features(ds, data.DEGREE_ONEHOT)
        for g in built.graphs:
            feats = g.node_features
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


def test_labels_with_test_masked():
    ds = data.make_path_graph_dataset([3] * 6, labels=[0, 1, 0, 1, 0, 1])
    split = data.SplitSpec(train_idx=(0, 1), val_idx=(2,), test_idx=(3, 4, 5))
    view = data.labels_with_test_masked(ds, split)
    assert view.tolist() == [0, 1, 0, -1, -1, -1]
    assert ds.labels().tolist() == [0, 1, 0, 1, 0, 1]  # original untouched
