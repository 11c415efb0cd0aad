"""Batched GNN encoder (GCN or GIN) producing graph embeddings and
classification logits, with hand-derived reverse-mode gradients.

The architecture is fixed: ``num_layers`` propagation layers, mean or sum
readout, then a linear+ReLU+linear head to class logits.  GCN layers apply
ReLU(A_hat X W) with symmetric self-loop normalization; GIN layers apply a
two-layer MLP to (1 + eps) x + sum of neighbor features.  All graphs share one
block-diagonal ``SymmetricOperator`` over their stacked nodes, so every layer
is one pass over the whole dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GraphDataset
from .nn import (
    ModelState,
    ParamSpec,
    SymmetricOperator,
    cross_entropy_and_dlogits,
    dropout_mask,
    init_model_state,
    mlp2_backward,
    mlp2_forward,
    normalize_adjacency,
    propagate_backward_inplace,
    propagate_forward,
    relu,
)

ARCH_GCN = "gcn"
ARCH_GIN = "gin"
READOUT_MEAN = "mean"
READOUT_SUM = "sum"


@dataclass(frozen=True)
class EncoderConfig:
    arch: str = ARCH_GCN
    num_layers: int = 2
    hidden_dim: int = 32
    dropout: float = 0.0
    epsilon_gin: float = 0.0
    readout: str = READOUT_MEAN

    def __post_init__(self):
        if self.arch not in (ARCH_GCN, ARCH_GIN):
            raise ValueError(f"unknown encoder arch {self.arch!r}")
        if self.num_layers < 1 or self.hidden_dim < 1:
            raise ValueError("num_layers and hidden_dim must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        if self.readout not in (READOUT_MEAN, READOUT_SUM):
            raise ValueError(f"unknown readout {self.readout!r}")


def encoder_param_spec(
    config: EncoderConfig, feature_dim: int, num_classes: int
) -> ParamSpec:
    entries = []
    d_in = feature_dim
    for layer in range(1, config.num_layers + 1):
        if config.arch == ARCH_GCN:
            entries.append((f"layer{layer}.W", (d_in, config.hidden_dim)))
        else:
            entries.append((f"layer{layer}.W1", (d_in, config.hidden_dim)))
            entries.append((f"layer{layer}.b1", (config.hidden_dim,)))
            entries.append((f"layer{layer}.W2", (config.hidden_dim, config.hidden_dim)))
            entries.append((f"layer{layer}.b2", (config.hidden_dim,)))
        d_in = config.hidden_dim
    entries.append(("head.W1", (config.hidden_dim, config.hidden_dim)))
    entries.append(("head.b1", (config.hidden_dim,)))
    entries.append(("head.W2", (config.hidden_dim, num_classes)))
    entries.append(("head.b2", (num_classes,)))
    return ParamSpec(tuple(entries))


def init_encoder_state(
    dataset: GraphDataset,
    config: EncoderConfig,
    seed: int,
    optimizer: str = "adam",
    learning_rate: float = 0.01,
    schedule: str = "constant",
) -> ModelState:
    spec = encoder_param_spec(config, dataset.feature_dim, dataset.num_classes)
    return init_model_state(
        spec, (seed, 0xE7C), optimizer=optimizer,
        learning_rate=learning_rate, schedule=schedule,
    )


# ---------------------------------------------------------------------------
# Graph operators
# ---------------------------------------------------------------------------


def _adjacency(n: int, edges) -> np.ndarray:
    """Symmetric 0/1 adjacency with input self-loops dropped: GCN adds exactly
    one self-loop in its normalization, and GIN's (1 + eps) x term is the
    node's own share."""
    a = np.zeros((n, n), dtype=np.float64)
    for u, v in edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    np.fill_diagonal(a, 0.0)
    return a


def build_operators(dataset: GraphDataset, config: EncoderConfig) -> SymmetricOperator:
    """One block-diagonal operator over every graph's nodes, stacked in graph
    order: D^{-1/2} (A + I) D^{-1/2} for GCN, A + (1 + eps) I for GIN.  Input
    self-loops are dropped, as in ``_adjacency``."""
    sizes = dataset.sizes()
    edges = np.concatenate(
        [np.array(g.edges, dtype=np.int64).reshape(-1, 2) + off
         for g, off in zip(dataset.graphs, np.cumsum(sizes) - sizes)]
    )
    edges = edges[edges[:, 0] != edges[:, 1]]
    gcn = config.arch == ARCH_GCN
    diagonal = 1.0 if gcn else 1.0 + config.epsilon_gin
    return SymmetricOperator(int(sizes.sum()), edges[:, 0], edges[:, 1], 1.0,
                             diagonal=diagonal, normalize=gcn)


# ---------------------------------------------------------------------------
# Single-layer public entry points (oracle targets)
# ---------------------------------------------------------------------------


def gcn_layer_forward(features: np.ndarray, edges, weights: np.ndarray) -> np.ndarray:
    """ReLU(A_hat @ features @ weights) for one graph given its edge list."""
    prop = normalize_adjacency(_adjacency(features.shape[0], edges))
    out, _ = propagate_forward(prop, features, weights, activation=True)
    return out


def gin_layer_forward(
    features: np.ndarray, edges, mlp_weights, epsilon: float
) -> np.ndarray:
    """MLP((1 + epsilon) x + sum of neighbor features) for one graph."""
    a = _adjacency(features.shape[0], edges)
    w1, b1, w2, b2 = mlp_weights
    agg = (1.0 + epsilon) * features + a @ features
    out, _ = mlp2_forward(agg, w1, b1, w2, b2)
    return out


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------


def _forward(dataset, config, views, rng, train, op):
    """Returns (H, logits, cache).  Each layer is one pass over every graph's
    nodes; its dropout mask is one draw from ``rng`` over all of them."""
    if op is None:
        op = build_operators(dataset, config)
    p = config.dropout if train else 0.0
    sizes = dataset.sizes()
    x = np.vstack([g.node_features for g in dataset.graphs])
    layer_caches = []
    for layer in range(1, config.num_layers + 1):
        if config.arch == ARCH_GCN:
            w = views[f"layer{layer}.W"]
            x, cache = propagate_forward(op, x, w, activation=True)
        else:
            w1 = views[f"layer{layer}.W1"]
            b1 = views[f"layer{layer}.b1"]
            w2 = views[f"layer{layer}.W2"]
            b2 = views[f"layer{layer}.b2"]
            x, cache = mlp2_forward(op @ x, w1, b1, w2, b2)
        mask = None
        if p > 0.0:
            mask = dropout_mask(rng, x.shape, p)
            x = x * mask
        layer_caches.append((cache, mask))
    h = np.add.reduceat(x, np.cumsum(sizes) - sizes, axis=0)
    if config.readout == READOUT_MEAN:
        h = h / sizes[:, None]

    w1, b1 = views["head.W1"], views["head.b1"]
    w2, b2 = views["head.W2"], views["head.b2"]
    z1 = h @ w1 + b1
    r1 = relu(z1)
    head_mask = None
    if p > 0.0:
        head_mask = dropout_mask(rng, r1.shape, p)
        r1_dropped = r1 * head_mask
    else:
        r1_dropped = r1
    logits = r1_dropped @ w2 + b2
    cache = (op, sizes, layer_caches, h, z1, r1_dropped, head_mask)
    return h, logits, cache


def _backward(config, views, cache, dlogits, grad_views):
    op, sizes, layer_caches, h, z1, r1_dropped, head_mask = cache
    w1, w2 = views["head.W1"], views["head.W2"]

    grad_views["head.W2"] += r1_dropped.T @ dlogits
    grad_views["head.b2"] += dlogits.sum(axis=0)
    dr1 = dlogits @ w2.T
    if head_mask is not None:
        dr1 = dr1 * head_mask
    dz1 = dr1 * (z1 > 0)
    grad_views["head.W1"] += h.T @ dz1
    grad_views["head.b1"] += dz1.sum(axis=0)
    dh = dz1 @ w1.T

    if config.readout == READOUT_MEAN:
        dh = dh / sizes[:, None]
    dx = np.repeat(dh, sizes, axis=0)
    for layer in range(config.num_layers, 0, -1):
        # drop each layer's cache once its gradients are taken
        layer_cache, mask = layer_caches.pop()
        if mask is not None:
            dx *= mask
        if config.arch == ARCH_GCN:
            dx, dw, _ = propagate_backward_inplace(
                layer_cache, dx, input_grad=layer > 1
            )
            grad_views[f"layer{layer}.W"] += dw
        else:
            dagg, dw1, db1, dw2, db2 = mlp2_backward(layer_cache, dx)
            grad_views[f"layer{layer}.W1"] += dw1
            grad_views[f"layer{layer}.b1"] += db1
            grad_views[f"layer{layer}.W2"] += dw2
            grad_views[f"layer{layer}.b2"] += db2
            if layer > 1:
                dx = op @ dagg


def encode_dataset(
    dataset: GraphDataset,
    config: EncoderConfig,
    state: ModelState,
    train: bool = False,
    op: SymmetricOperator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Graph embeddings H (N x hidden) and class logits (N x C)."""
    h, logits, _ = _forward(dataset, config, state.views(), state.rng, train, op)
    return h, logits


def supervised_loss_and_grad(
    dataset: GraphDataset,
    config: EncoderConfig,
    state: ModelState,
    labels: np.ndarray,
    labeled_idx,
    train: bool = True,
    op: SymmetricOperator | None = None,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy over the labeled graphs and its gradient with
    respect to every encoder and head parameter.

    Returns (loss, flat gradient, H, logits); H and logits come from the same
    pass that produced the gradient.
    """
    views = state.views()
    h, logits, cache = _forward(dataset, config, views, state.rng, train, op)
    loss, dlogits = cross_entropy_and_dlogits(
        logits, np.asarray(labels), np.asarray(labeled_idx)
    )
    grad = np.zeros_like(state.params)
    grad_views = state.spec.views(grad)
    _backward(config, views, cache, dlogits, grad_views)
    return loss, grad, h, logits
