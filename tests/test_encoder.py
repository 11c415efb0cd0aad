import hashlib
import tracemalloc

import numpy as np
import pytest

from samgog import data, nn
from samgog import encoder as enc
from samgog.rng import generator


def relative_error(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.abs(a - b) / denom


def central_differences(loss_at, params, step=1e-5):
    numeric = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        numeric[i] = (loss_at(up) - loss_at(down)) / (2 * step)
    return numeric


def dense_normalized_oracle(n, edges):
    """Independent A_hat = D^{-1/2} (A + I) D^{-1/2} via explicit loops."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u][v] = 1.0
        a[v][u] = 1.0
    for i in range(n):
        a[i][i] += 1.0
    out = np.zeros((n, n))
    deg = [sum(a[i]) for i in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = a[i][j] / np.sqrt(deg[i]) / np.sqrt(deg[j])
    return out


def dense_blocks(ds, op):
    """Each graph's diagonal block of the batched operator, densified."""
    dense = op @ np.eye(int(ds.sizes().sum()))
    ends = np.cumsum(ds.sizes())
    return [dense[e - n : e, e - n : e] for e, n in zip(ends, ds.sizes())]


def stack(graphs):
    """A two-class dataset from (local edges, node features, label) per graph."""
    edges = [np.array(e, dtype=np.int64).reshape(-1, 2) for e, _, _ in graphs]
    return data.GraphDataset(
        node_features=np.concatenate([f for _, f, _ in graphs]),
        node_counts=[len(f) for _, f, _ in graphs],
        edges=np.concatenate(edges), edge_counts=[len(e) for e in edges],
        graph_labels=[label for *_, label in graphs], num_classes=2,
        feature_scheme=data.DEGREE_ONEHOT,
    )


def graph(ds, g):
    """Graph g's node features and local edge list."""
    first_node, first_edge = ds.node_offsets[g], ds.edge_counts[:g].sum()
    return (ds.node_features[first_node:first_node + ds.node_counts[g]],
            ds.edges[first_edge:first_edge + ds.edge_counts[g]].tolist())


def tiny_dataset(num_graphs=3, feature_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for gid in range(num_graphs):
        n = int(rng.integers(3, 6))
        edges = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    edges.add((u, v))
        graphs.append((sorted(edges), rng.normal(size=(n, feature_dim)), gid % 2))
    return stack(graphs)


class TestGcnLayer:
    def test_isolated_node_identity_weights(self):
        x = np.array([[2.0, -3.0]])
        out = enc.gcn_layer_forward(x, [], np.eye(2))
        assert np.array_equal(out, np.array([[2.0, 0.0]]))  # ReLU(x)

    def test_two_node_hand_computed_propagation(self):
        # A_hat for a single edge with self-loops is 1/2 everywhere, so each
        # node aggregates (x0 + x1) / 2 = 1 for all-ones inputs and weights
        x = np.ones((2, 1))
        out = enc.gcn_layer_forward(x, [(0, 1)], np.ones((1, 1)))
        assert np.allclose(out, np.ones((2, 1)), atol=1e-15)

    def test_random_graph_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        edges = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 2))
        prop = dense_normalized_oracle(5, edges)
        expected = np.maximum(prop @ x @ w, 0.0)
        assert np.allclose(enc.gcn_layer_forward(x, edges, w), expected, atol=1e-12)


class TestGinLayer:
    def mlp_weights(self, d_in, d_out, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(d_in, 4)),
            rng.normal(size=4),
            rng.normal(size=(4, d_out)),
            rng.normal(size=d_out),
        )

    def oracle_mlp(self, z, weights):
        w1, b1, w2, b2 = weights
        return np.maximum(z @ w1 + b1, 0.0) @ w2 + b2

    def test_isolated_node_is_mlp_of_h(self):
        x = np.array([[1.0, -2.0]])
        weights = self.mlp_weights(2, 3)
        out = enc.gin_layer_forward(x, [], weights, epsilon=0.0)
        assert np.allclose(out, self.oracle_mlp(x, weights), atol=1e-14)

    def test_star_center_aggregates_three_leaves(self):
        leaf = np.array([0.5, -1.0])
        center = np.array([2.0, 1.0])
        x = np.vstack([center, leaf, leaf, leaf])
        weights = self.mlp_weights(2, 2, seed=1)
        eps = 0.25
        out = enc.gin_layer_forward(x, [(0, 1), (0, 2), (0, 3)], weights, eps)
        expected_center = self.oracle_mlp(
            ((1 + eps) * center + 3 * leaf)[None, :], weights
        )
        assert np.allclose(out[0], expected_center[0], atol=1e-12)

    def test_random_graph_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        x = rng.normal(size=(4, 3))
        weights = self.mlp_weights(3, 3, seed=2)
        a = np.zeros((4, 4))
        for u, v in edges:
            a[u, v] = a[v, u] = 1.0
        expected = self.oracle_mlp(1.1 * x + a @ x, weights)
        out = enc.gin_layer_forward(x, edges, weights, epsilon=0.1)
        assert np.allclose(out, expected, atol=1e-12)


class TestEncodeDataset:
    def test_identical_graphs_identical_rows(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        ds = stack([([(0, 1), (1, 2)], feats, i % 2) for i in range(4)])
        config = enc.EncoderConfig(hidden_dim=5)
        state = enc.init_encoder_state(ds, config, seed=3)
        h, logits = enc.encode_dataset(ds, config, state)
        assert np.array_equal(h[0], h[1]) and np.array_equal(h[0], h[3])
        assert np.array_equal(logits[0], logits[2])

    def test_zero_head_weights_give_uniform_softmax(self):
        ds = tiny_dataset()
        config = enc.EncoderConfig(hidden_dim=4)
        state = enc.init_encoder_state(ds, config, seed=1)
        views = state.views()
        views["head.W2"][...] = 0.0
        views["head.b2"][...] = 0.0
        _, logits = enc.encode_dataset(ds, config, state)
        assert np.all(logits == 0.0)
        assert np.allclose(nn.softmax_rows(logits), 0.5, atol=1e-15)

    def test_matches_layer_by_layer_composition(self):
        ds = tiny_dataset(num_graphs=3, feature_dim=3, seed=7)
        config = enc.EncoderConfig(arch=enc.ARCH_GCN, num_layers=2, hidden_dim=4)
        state = enc.init_encoder_state(ds, config, seed=11)
        views = state.views()
        h, logits = enc.encode_dataset(ds, config, state)
        for gi in range(len(ds)):
            x, edges = graph(ds, gi)
            x = enc.gcn_layer_forward(x, edges, views["layer1.W"])
            x = enc.gcn_layer_forward(x, edges, views["layer2.W"])
            h_row = x.mean(axis=0)
            assert np.allclose(h[gi], h_row, atol=1e-12)
            z = np.maximum(h_row @ views["head.W1"] + views["head.b1"], 0.0)
            assert np.allclose(logits[gi], z @ views["head.W2"] + views["head.b2"],
                               atol=1e-12)

    def test_gin_matches_layer_by_layer_composition(self):
        ds = tiny_dataset(num_graphs=3, feature_dim=3, seed=7)
        config = enc.EncoderConfig(arch=enc.ARCH_GIN, num_layers=2, hidden_dim=4,
                                   epsilon_gin=0.3)
        state = enc.init_encoder_state(ds, config, seed=11)
        views = state.views()
        h, logits = enc.encode_dataset(ds, config, state)
        for gi in range(len(ds)):
            x, edges = graph(ds, gi)
            for layer in (1, 2):
                mlp = tuple(views[f"layer{layer}.{k}"] for k in ("W1", "b1", "W2", "b2"))
                x = enc.gin_layer_forward(x, edges, mlp, 0.3)
            h_row = x.mean(axis=0)
            assert np.allclose(h[gi], h_row, atol=1e-12)
            z = np.maximum(h_row @ views["head.W1"] + views["head.b1"], 0.0)
            assert np.allclose(logits[gi], z @ views["head.W2"] + views["head.b2"],
                               atol=1e-12)

    def test_sum_readout(self):
        ds = tiny_dataset(num_graphs=2, seed=8)
        config = enc.EncoderConfig(readout=enc.READOUT_SUM, hidden_dim=3)
        state = enc.init_encoder_state(ds, config, seed=2)
        views = state.views()
        h, _ = enc.encode_dataset(ds, config, state)
        x, edges = graph(ds, 0)
        x = enc.gcn_layer_forward(x, edges, views["layer1.W"])
        x = enc.gcn_layer_forward(x, edges, views["layer2.W"])
        assert np.allclose(h[0], x.sum(axis=0), atol=1e-12)

    def test_permutation_invariant_readout(self):
        rng = np.random.default_rng(9)
        n = 6
        edges = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4))
        feats = rng.normal(size=(n, 3))
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        permuted_edges = tuple(
            (min(inv[u], inv[v]), max(inv[u], inv[v])) for u, v in edges
        )
        ds = stack([(edges, feats, 0), (sorted(permuted_edges), feats[perm], 0)])
        for arch in (enc.ARCH_GCN, enc.ARCH_GIN):
            config = enc.EncoderConfig(arch=arch, hidden_dim=4)
            state = enc.init_encoder_state(ds, config, seed=13)
            h, logits = enc.encode_dataset(ds, config, state)
            assert np.allclose(h[0], h[1], atol=1e-9)
            assert np.allclose(logits[0], logits[1], atol=1e-9)

    def test_bitwise_determinism(self):
        ds = tiny_dataset(seed=10)
        config = enc.EncoderConfig(hidden_dim=4)
        runs = []
        for _ in range(2):
            state = enc.init_encoder_state(ds, config, seed=21)
            runs.append(enc.encode_dataset(ds, config, state))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])


class TestGradients:
    @pytest.mark.parametrize("arch", [enc.ARCH_GCN, enc.ARCH_GIN])
    @pytest.mark.parametrize("readout", [enc.READOUT_MEAN, enc.READOUT_SUM])
    def test_analytic_matches_central_differences(self, arch, readout):
        ds = tiny_dataset(num_graphs=3, feature_dim=3, seed=14)
        config = enc.EncoderConfig(arch=arch, num_layers=2, hidden_dim=4,
                                   readout=readout)
        state = enc.init_encoder_state(ds, config, seed=15)
        # jitter every tensor (biases included) so no pre-activation sits
        # exactly on a ReLU kink, where the two-sided difference is undefined
        state.params += 0.05 * np.random.default_rng(42).normal(
            size=state.params.shape
        )
        assert state.params.size <= 200
        labels = ds.labels()
        labeled = np.arange(len(ds))

        _, grad, _, _ = enc.supervised_loss_and_grad(
            ds, config, state, labels, labeled, train=False
        )

        def loss_at(flat):
            probe = nn.ModelState(spec=state.spec, params=flat.copy())
            loss, _, _, _ = enc.supervised_loss_and_grad(
                ds, config, probe, labels, labeled, train=False
            )
            return loss

        err = relative_error(grad, central_differences(loss_at, state.params))
        assert err.max() < 1e-4

    @pytest.mark.parametrize("arch", [enc.ARCH_GCN, enc.ARCH_GIN])
    @pytest.mark.parametrize("readout", [enc.READOUT_MEAN, enc.READOUT_SUM])
    def test_dropout_gradient_matches_central_differences(self, arch, readout):
        ds = tiny_dataset(num_graphs=3, feature_dim=3, seed=14)
        config = enc.EncoderConfig(arch=arch, num_layers=2, hidden_dim=4,
                                   readout=readout, dropout=0.3)
        state = enc.init_encoder_state(ds, config, seed=15)
        state.params += 0.05 * np.random.default_rng(42).normal(
            size=state.params.shape
        )
        labels = ds.labels()
        labeled = np.arange(len(ds))

        def loss_and_grad(flat):
            # a fresh stream per evaluation draws the same dropout masks
            probe = nn.ModelState(spec=state.spec, params=flat.copy(),
                                  rng=generator(16))
            loss, grad, _, _ = enc.supervised_loss_and_grad(
                ds, config, probe, labels, labeled, train=True
            )
            return loss, grad

        _, grad = loss_and_grad(state.params)
        numeric = central_differences(lambda f: loss_and_grad(f)[0], state.params)
        assert relative_error(grad, numeric).max() < 1e-4

    def test_gradient_zero_when_confident(self):
        ds = tiny_dataset(num_graphs=2, seed=16)
        config = enc.EncoderConfig(hidden_dim=3)
        state = enc.init_encoder_state(ds, config, seed=17)
        state.params *= 50.0  # saturate the head so training labels are certain
        labels = ds.labels()
        loss, grad, _, logits = enc.supervised_loss_and_grad(
            ds, config, state, labels, np.arange(len(ds)), train=False
        )
        pred = logits.argmax(axis=1)
        if np.all(pred == labels):  # only meaningful when confidently correct
            assert loss < 1e-6
            assert np.linalg.norm(grad) < 1e-5


class TestOperators:
    @pytest.mark.parametrize("arch", [enc.ARCH_GCN, enc.ARCH_GIN])
    def test_input_self_loops_are_ignored(self, arch):
        feats = np.random.default_rng(3).normal(size=(4, 2))
        edges = ((0, 1), (1, 2), (2, 3))
        looped = ((0, 0), (0, 1), (1, 2), (2, 2), (2, 3))
        ds = stack([(edges, feats, 0), (looped, feats, 1)])
        op = enc.build_operators(ds, enc.EncoderConfig(arch=arch))
        plain, with_loops = dense_blocks(ds, op)
        assert np.array_equal(plain, with_loops)
        if arch == enc.ARCH_GCN:
            oracle = dense_normalized_oracle(4, edges)
            assert np.allclose(with_loops, oracle, atol=1e-15)
        else:
            assert np.all(np.diag(with_loops) == 1.0)  # the (1 + eps) x term

    def test_layer_oracles_ignore_input_self_loops(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2))
        w = rng.normal(size=(2, 2))
        mlp = (rng.normal(size=(2, 3)), rng.normal(size=3),
               rng.normal(size=(3, 2)), rng.normal(size=2))
        edges, looped = [(0, 1), (1, 2)], [(0, 1), (1, 1), (1, 2)]
        assert np.array_equal(
            enc.gcn_layer_forward(x, edges, w), enc.gcn_layer_forward(x, looped, w)
        )
        assert np.array_equal(
            enc.gin_layer_forward(x, edges, mlp, 0.3),
            enc.gin_layer_forward(x, looped, mlp, 0.3),
        )

    @pytest.mark.parametrize(
        "arch, digest",
        [
            (enc.ARCH_GCN, "88ea19c790f502681f7f3bf6a4432f75efa8fb7a57fda06f34f322d4e073d21d"),
            (enc.ARCH_GIN, "3efebea9c9e4028f5ae91a3fb02418549e6cf43e9aee32a67efeb002fa52ca78"),
        ],
    )
    def test_loop_free_operators_keep_their_bytes(self, arch, digest):
        # digests recorded from the dense per-graph operators that preceded
        # the self-loop rule (GIN's held the adjacency A alone): loop-free
        # graphs must keep every bit
        ds = data.make_planted_dataset(num_graphs=12, seed=3)
        config = enc.EncoderConfig(arch=arch)
        blocks = dense_blocks(ds, enc.build_operators(ds, config))
        if arch == enc.ARCH_GIN:
            blocks = [b - (1.0 + config.epsilon_gin) * np.eye(len(b)) for b in blocks]
        assert hashlib.sha256(b"".join(b.tobytes() for b in blocks)).hexdigest() == digest


def test_supervised_step_holds_no_full_gather():
    """One encoder step at 3000 graphs peaks below two nnz x hidden float64
    arrays.  An unchunked product gathers one such array on top of the layer
    caches and gradients; the chunked one gathers about 2**13 entries."""
    ds = data.make_planted_dataset(num_graphs=3000, seed=7, noise=0.5)
    config = enc.EncoderConfig(hidden_dim=16)
    state = enc.init_encoder_state(ds, config, 303)
    op = enc.build_operators(ds, config)
    labeled = np.arange(0, len(ds), 2)
    tracemalloc.start()
    try:
        enc.supervised_loss_and_grad(ds, config, state, ds.labels(), labeled, op=op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gather = op.cols.size * config.hidden_dim * 8
    assert peak < 2 * gather


@pytest.fixture(scope="module")
def planted_3000():
    ds = data.make_planted_dataset(num_graphs=3000, seed=7, noise=0.5)
    config = enc.EncoderConfig(hidden_dim=16)
    state = enc.init_encoder_state(ds, config, 303)
    return ds, config, state, enc.build_operators(ds, config)


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_supervised_step_keeps_only_what_backward_reads(planted_3000):
    """One encoder step at 3000 graphs peaks under 4.5 node-level
    activations (V x hidden float64): each ReLU keeps its boolean sign, not
    its float output, and each row's cache goes once its gradients are
    taken.  Float ReLU outputs, each held to the end of backward, take it
    to about 6.7."""
    ds, config, state, op = planted_3000
    activation = len(ds.node_features) * config.hidden_dim * 8
    labeled = np.arange(0, len(ds), 2)
    peak = traced_peak(lambda: enc.supervised_loss_and_grad(
        ds, config, state, ds.labels(), labeled, op=op))
    assert peak < 4.5 * activation


def test_encode_dataset_keeps_no_caches(planted_3000):
    """An eval pass at 3000 graphs peaks under 2.75 activations: it caches
    no layer input and no ReLU sign.  Caching them takes it to about 3.4."""
    ds, config, state, op = planted_3000
    activation = len(ds.node_features) * config.hidden_dim * 8
    peak = traced_peak(lambda: enc.encode_dataset(ds, config, state, op=op))
    assert peak < 2.75 * activation


def test_unlabeled_graph_in_the_labeled_subset_is_named():
    ds = tiny_dataset(num_graphs=3, seed=4)
    config = enc.EncoderConfig(hidden_dim=4)
    state = enc.init_encoder_state(ds, config, 5)
    labels = np.array([0, -1, 1])
    with pytest.raises(ValueError, match=r"row 1 has label -1 outside \[0, 2\)"):
        enc.supervised_loss_and_grad(ds, config, state, labels, [0, 1])
