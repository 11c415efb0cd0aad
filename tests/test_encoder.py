import hashlib

import numpy as np
import pytest

from samgog import data, nn
from samgog import encoder as enc


def relative_error(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.abs(a - b) / denom


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
        graphs.append(
            data.InputGraph(
                id=gid,
                edges=tuple(sorted(edges)),
                node_features=rng.normal(size=(n, feature_dim)),
                label=gid % 2,
            )
        )
    return data.GraphDataset(
        graphs=tuple(graphs), num_classes=2,
        feature_scheme=data.DEGREE_ONEHOT, feature_dim=feature_dim,
    )


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
        g = data.InputGraph(
            id=0, edges=((0, 1), (1, 2)),
            node_features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            label=0,
        )
        graphs = tuple(
            data.InputGraph(id=i, edges=g.edges, node_features=g.node_features.copy(),
                            label=i % 2)
            for i in range(4)
        )
        ds = data.GraphDataset(graphs=graphs, num_classes=2,
                               feature_scheme=data.DEGREE_ONEHOT, feature_dim=2)
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
        for gi, g in enumerate(ds.graphs):
            x = g.node_features
            x = enc.gcn_layer_forward(x, g.edges, views["layer1.W"])
            x = enc.gcn_layer_forward(x, g.edges, views["layer2.W"])
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
        for gi, g in enumerate(ds.graphs):
            x = g.node_features
            for layer in (1, 2):
                mlp = tuple(views[f"layer{layer}.{k}"] for k in ("W1", "b1", "W2", "b2"))
                x = enc.gin_layer_forward(x, g.edges, mlp, 0.3)
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
        g = ds.graphs[0]
        x = enc.gcn_layer_forward(g.node_features, g.edges, views["layer1.W"])
        x = enc.gcn_layer_forward(x, g.edges, views["layer2.W"])
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
        g1 = data.InputGraph(id=0, edges=edges, node_features=feats, label=0)
        g2 = data.InputGraph(id=1, edges=tuple(sorted(permuted_edges)),
                             node_features=feats[perm], label=0)
        ds = data.GraphDataset(graphs=(g1, g2), num_classes=2,
                               feature_scheme=data.DEGREE_ONEHOT, feature_dim=3)
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

        step = 1e-5
        numeric = np.zeros_like(grad)
        base = state.params
        for i in range(base.size):
            up = base.copy()
            up[i] += step
            down = base.copy()
            down[i] -= step
            numeric[i] = (loss_at(up) - loss_at(down)) / (2 * step)
        err = relative_error(grad, numeric)
        assert err.max() < 1e-4

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
        ds = data.GraphDataset(
            graphs=(
                data.InputGraph(id=0, edges=edges, node_features=feats, label=0),
                data.InputGraph(id=1, edges=looped, node_features=feats, label=1),
            ),
            num_classes=2, feature_scheme=data.DEGREE_ONEHOT, feature_dim=2,
        )
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
