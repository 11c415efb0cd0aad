"""Batched GNN encoder (GCN or GIN) producing graph embeddings and
classification logits.

The architecture is fixed: ``num_layers`` propagation layers, mean or sum
readout, then a linear+ReLU+linear head to class logits.  GCN layers apply
ReLU(A_hat X W) with symmetric self-loop normalization; GIN layers apply a
two-layer MLP to (1 + eps) x + sum of neighbor features.  All graphs share one
block-diagonal ``SymmetricOperator`` over their stacked nodes, so every layer
is one pass over the whole dataset.  Layers and head are one layer table of
dense maps (``nn.table_forward``), so the arch decides only the table's rows
and the operator, and ``nn.dense_backward`` gives every gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import GraphDataset
from .nn import (
    ModelState,
    SymmetricOperator,
    cross_entropy_and_dlogits,
    dense_forward,
    init_model_state,
    normalize_adjacency,
    table_backward,
    table_forward,
    table_param_spec,
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
        if not math.isfinite(self.epsilon_gin):
            raise ValueError(f"epsilon_gin must be finite, got {self.epsilon_gin}")


def _layer_table(config: EncoderConfig, num_classes: int) -> list[tuple]:
    """The encoder's ``nn`` layer table: per layer, one GCN map or GIN's
    two-map MLP, then the two head maps, which follow the readout."""
    hidden = config.hidden_dim
    rows = []
    for layer in range(1, config.num_layers + 1):
        name = f"layer{layer}"
        if config.arch == ARCH_GCN:
            rows.append((f"{name}.W", None, True, hidden, True, True))
        else:
            rows.append((f"{name}.W1", f"{name}.b1", True, hidden, True, False))
            rows.append((f"{name}.W2", f"{name}.b2", False, hidden, False, True))
    rows.append(("head.W1", "head.b1", True, hidden, False, True))
    rows.append(("head.W2", "head.b2", False, num_classes, False, False))
    return rows


def init_encoder_state(
    dataset: GraphDataset,
    config: EncoderConfig,
    seed: int,
    learning_rate: float = 0.01,
) -> ModelState:
    """Glorot-initialized encoder parameters under Adam at a constant rate."""
    spec = table_param_spec(
        _layer_table(config, dataset.num_classes), dataset.feature_dim
    )
    return init_model_state(spec, (seed, 0xE7C), learning_rate=learning_rate)


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
    """One block-diagonal operator over the dataset's stacked nodes:
    D^{-1/2} (A + I) D^{-1/2} for GCN, A + (1 + eps) I for GIN.  Input
    self-loops are dropped, as in ``_adjacency``."""
    edges = dataset.global_edges()
    edges = edges[edges[:, 0] != edges[:, 1]]
    gcn = config.arch == ARCH_GCN
    diagonal = 1.0 if gcn else 1.0 + config.epsilon_gin
    return SymmetricOperator(len(dataset.node_features), edges[:, 0], edges[:, 1],
                             1.0, diagonal=diagonal, normalize=gcn)


# ---------------------------------------------------------------------------
# Single-layer public entry points (oracle targets)
# ---------------------------------------------------------------------------


def gcn_layer_forward(features: np.ndarray, edges, weights: np.ndarray) -> np.ndarray:
    """ReLU(A_hat @ features @ weights) for one graph given its edge list."""
    prop = normalize_adjacency(_adjacency(features.shape[0], edges))
    out, _ = dense_forward(prop @ features, weights, relu=True)
    return out


def gin_layer_forward(
    features: np.ndarray, edges, mlp_weights, epsilon: float
) -> np.ndarray:
    """MLP((1 + epsilon) x + sum of neighbor features) for one graph."""
    a = _adjacency(features.shape[0], edges)
    w1, b1, w2, b2 = mlp_weights
    agg = (1.0 + epsilon) * features + a @ features
    hidden, _ = dense_forward(agg, w1, b1, relu=True)
    out, _ = dense_forward(hidden, w2, b2)
    return out


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------


def _forward(dataset, config, views, rng, train, op, caches=None):
    """Returns (H, logits).  Each layer is one pass over every graph's nodes;
    its dropout mask is one draw from ``rng`` over all of them.  When
    ``caches`` is a list, it receives the layers' caches and then the
    head's, for ``_backward``."""
    p = config.dropout if train else 0.0
    table = _layer_table(config, dataset.num_classes)
    # the table never writes its input, so the stored features need no copy
    x = table_forward(table[:-2], dataset.node_features, views, op, p, rng, caches)
    h = np.add.reduceat(x, dataset.node_offsets, axis=0)
    del x  # the node-level output: backward reads only the caches
    if config.readout == READOUT_MEAN:
        h = h / dataset.node_counts[:, None]
    logits = table_forward(table[-2:], h, views, None, p, rng, caches)
    return h, logits


def _backward(dataset, config, op, caches, dlogits, grad_views):
    sizes = dataset.node_counts
    table = _layer_table(config, dataset.num_classes)
    dh = table_backward(table[-2:], caches, dlogits, None, grad_views, True)
    if config.readout == READOUT_MEAN:
        dh = dh / sizes[:, None]
    # no name here keeps the node-level gradient, so the table can drop it
    table_backward(
        table[:-2], caches, np.repeat(dh, sizes, axis=0), op, grad_views, False
    )


def encode_dataset(
    dataset: GraphDataset,
    config: EncoderConfig,
    state: ModelState,
    op: SymmetricOperator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode graph embeddings H (N x hidden) and class logits (N x C).
    The pass keeps no layer caches: each node-level activation is dropped
    once the next is computed."""
    if op is None:
        op = build_operators(dataset, config)
    return _forward(dataset, config, state.views(), state.rng, False, op)


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
    if op is None:
        op = build_operators(dataset, config)
    caches = []
    h, logits = _forward(dataset, config, state.views(), state.rng, train, op, caches)
    loss, dlogits = cross_entropy_and_dlogits(
        logits, np.asarray(labels), np.asarray(labeled_idx)
    )
    grad = np.zeros_like(state.params)
    _backward(dataset, config, op, caches, dlogits, state.spec.views(grad))
    return loss, grad, h, logits
