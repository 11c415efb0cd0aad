"""Node classification over sampled graph-of-graphs structures, evaluation
metrics, and the full training pipeline.

The downstream model is a plain GCN over GoG nodes whose input features are
the encoder's graph embeddings.  Edge multiplicities act as weights; the
sampled edges are symmetrized, get self-loops, and are degree normalized
into the sparse operator the encoder also uses.  Encoder and downstream
model train on separate losses with separate optimizers; sampled structure
is a constant input to the downstream model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import (
    GraphDataset,
    SplitSpec,
    head_tail_partition,
    labels_with_test_masked,
)
from .degree_alloc import AllocConfig, allocate_degrees
from .encoder import EncoderConfig, encode_dataset, init_encoder_state, build_operators
from .encoder import supervised_loss_and_grad as encoder_loss_and_grad
from .nn import (
    ModelState,
    SymmetricOperator,
    TrainingError,
    cross_entropy_and_dlogits,
    init_model_state,
    optimizer_step,
    table_backward,
    table_forward,
    table_param_spec,
)
from .sampler import GoGGraph, GoGSampler, SamplerConfig, edge_homophily
from .similarity import build_prob_matrix, similarity_matrix

_EVAL_STREAM_BASE = 1 << 40
_FINAL_STREAM_BASE = 1 << 41


@dataclass(frozen=True)
class GoGClassifierConfig:
    num_layers: int = 2
    hidden_dim: int = 64
    dropout: float = 0.0

    def __post_init__(self):
        if self.num_layers < 1 or self.hidden_dim < 1:
            raise ValueError("num_layers and hidden_dim must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    balanced_accuracy: float
    macro_f1: float
    per_class_accuracy: tuple[float, ...]
    head_accuracy: float
    tail_accuracy: float
    edge_homophily_mean: float
    edge_homophily_std: float


@dataclass(frozen=True)
class CurvePoint:
    epoch: int
    encoder_loss: float
    downstream_loss: float
    val_balanced_accuracy: float
    mean_edge_homophily: float


@dataclass(frozen=True)
class PipelineResult:
    encoder: ModelState
    downstream: ModelState
    metrics: MetricsReport
    curve: tuple[CurvePoint, ...] = field(default=())
    final_gogs: tuple[GoGGraph, ...] = field(default=())


# ---------------------------------------------------------------------------
# Downstream GCN
# ---------------------------------------------------------------------------


def _layer_table(config: GoGClassifierConfig, num_classes: int) -> list[tuple]:
    """The GCN's ``nn`` layer table: every layer propagates, and all but the
    last, which gives the logits, apply ReLU and dropout."""
    rows = []
    for layer in range(1, config.num_layers + 1):
        hidden = layer < config.num_layers
        width = config.hidden_dim if hidden else num_classes
        rows.append((f"gog{layer}.W", f"gog{layer}.b", hidden, width, True, hidden))
    return rows


def init_downstream_state(
    in_dim: int,
    num_classes: int,
    config: GoGClassifierConfig,
    seed: int,
    optimizer: str = "adam",
    learning_rate: float = 0.01,
    schedule: str = "constant",
) -> ModelState:
    spec = table_param_spec(_layer_table(config, num_classes), in_dim)
    return init_model_state(
        spec, (seed, 0xD09), optimizer=optimizer,
        learning_rate=learning_rate, schedule=schedule,
    )


def gog_propagation_matrix(gog: GoGGraph) -> SymmetricOperator:
    """D^{-1/2} (W + W^T + I) D^{-1/2}, W the multiplicity-weighted adjacency
    of the sampled edges."""
    e = gog.edges
    return SymmetricOperator(gog.num_nodes, e[:, 0], e[:, 1], e[:, 2], normalize=True)


def _downstream_forward(prop, h, state, config, train):
    """Returns (logits, layer table, caches)."""
    p = config.dropout if train else 0.0
    views = state.views()
    table = _layer_table(config, views[f"gog{config.num_layers}.b"].size)
    # center the pooled embeddings: ReLU stacks over all-nonnegative inputs
    # are prone to dead-unit collapse
    x = h - h.mean(axis=0)
    logits, caches = table_forward(table, x, views, prop, p, state.rng)
    return logits, table, caches


def downstream_forward(
    prop: SymmetricOperator,
    h: np.ndarray,
    state: ModelState,
    config: GoGClassifierConfig,
) -> np.ndarray:
    """Eval-mode logits per GoG node for a propagation matrix from
    ``gog_propagation_matrix``."""
    logits, _, _ = _downstream_forward(prop, h, state, config, False)
    return logits


def downstream_loss_and_grad(
    prop: SymmetricOperator,
    h: np.ndarray,
    state: ModelState,
    config: GoGClassifierConfig,
    labels: np.ndarray,
    labeled_idx,
    train: bool = True,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy on labeled GoG nodes and its parameter gradient."""
    logits, table, caches = _downstream_forward(prop, h, state, config, train)
    loss, dlogits = cross_entropy_and_dlogits(
        logits, np.asarray(labels), np.asarray(labeled_idx)
    )
    grad = np.zeros_like(state.params)
    table_backward(table, caches, dlogits, prop, state.spec.views(grad), False)
    return loss, grad, logits


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def compute_metrics(
    predictions: np.ndarray,
    true_labels: np.ndarray,
    head_idx=None,
    tail_idx=None,
    num_classes: int | None = None,
    edge_homophily_mean: float = float("nan"),
    edge_homophily_std: float = float("nan"),
) -> MetricsReport:
    """Accuracy, balanced accuracy (mean per-class recall), macro-F1, and
    head/tail accuracy over positions given by head_idx/tail_idx."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.size == 0 or pred.shape != true.shape:
        raise ValueError("predictions and labels must be equal-length, non-empty")
    c = int(num_classes if num_classes is not None else max(pred.max(), true.max()) + 1)

    accuracy = float((pred == true).mean())
    # confusion[t, p] counts graphs of class t predicted as p; index c holds
    # labels outside [0, c), such as an unlabeled graph's -1: they count
    # against accuracy but belong to no class
    t_idx, p_idx = (np.where((x >= 0) & (x < c), x, c) for x in (true, pred))
    confusion = np.bincount(t_idx * (c + 1) + p_idx, minlength=(c + 1) ** 2)
    confusion = confusion.reshape(c + 1, c + 1)
    tp = np.diag(confusion)[:c].astype(np.float64)
    actual, predicted = confusion[:c].sum(axis=1), confusion[:, :c].sum(axis=0)
    # recall is nan for a class with no graphs, precision 0 for a class never
    # predicted, and F1 0 for a class with no true positive
    recalls = np.divide(tp, actual, out=np.full(c, np.nan), where=actual > 0)
    precision = np.divide(tp, predicted, out=np.zeros(c), where=predicted > 0)
    f1s = np.divide(
        2.0 * precision * recalls, precision + recalls, out=np.zeros(c), where=tp > 0
    )
    balanced = float(np.nanmean(recalls))
    macro_f1 = float(np.mean(f1s))

    def subset_accuracy(idx):
        if idx is None:
            return float("nan")
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return float("nan")
        return float((pred[idx] == true[idx]).mean())

    return MetricsReport(
        accuracy=accuracy,
        balanced_accuracy=balanced,
        macro_f1=macro_f1,
        per_class_accuracy=tuple(recalls.tolist()),
        head_accuracy=subset_accuracy(head_idx),
        tail_accuracy=subset_accuracy(tail_idx),
        edge_homophily_mean=edge_homophily_mean,
        edge_homophily_std=edge_homophily_std,
    )


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def _check_finite(label: str, *values) -> None:
    """Stages run under ``np.errstate(all="ignore")``; divergence surfaces
    here as an error naming the stage and the epoch."""
    if not all(np.isfinite(v).all() for v in values):
        raise TrainingError(f"{label} diverged: non-finite output")


def _mean_eval_logits(sampler, h, state, config, stream_base, count):
    """Mean downstream logits over ``count`` freshly sampled GoGs."""
    acc = None
    gogs = []
    for j in range(count):
        gog = sampler.sample(stream_base + j)
        gogs.append(gog)
        prop = gog_propagation_matrix(gog)
        logits = downstream_forward(prop, h, state, config)
        acc = logits if acc is None else acc + logits
    return acc / count, gogs


def _observable_homophily(gog: GoGGraph, observable_labels: np.ndarray) -> float:
    """Edge homophily restricted to edges whose both endpoints carry an
    observable label; nan when no such edge exists."""
    src = observable_labels[gog.edges[:, 0]]
    dst = observable_labels[gog.edges[:, 1]]
    mult = gog.edges[:, 2]
    observed = (src >= 0) & (dst >= 0)
    total = mult.dot(observed)
    if total == 0:
        return float("nan")
    return float(mult.dot(observed & (src == dst)) / total)


def _set_up(dataset: GraphDataset, split: SplitSpec):
    """The checks both trainers run before training, in order, and what they
    read: the labels with the test graphs' masked, and the train, val and
    test index lists."""
    split.validate(dataset)
    if len(split.train_idx) == 0:
        raise TrainingError("training requires a non-empty labeled train set")
    if len(split.test_idx) == 0:
        raise TrainingError("pipeline evaluation requires a non-empty test set")
    # training reads these labels on the train graphs only (the losses on the
    # train list, P on the train mask), though they also hold val labels
    observable = labels_with_test_masked(dataset, split)
    return observable, list(split.train_idx), list(split.val_idx), list(split.test_idx)


def _val_score(logits, observable, val_list) -> float:
    """Balanced accuracy of ``logits`` (one column per class) on the
    validation graphs."""
    return compute_metrics(
        logits[val_list].argmax(axis=1), observable[val_list],
        num_classes=logits.shape[1],
    ).balanced_accuracy


def _test_report(dataset, test_list, logits, homophilies=()) -> MetricsReport:
    """The ``MetricsReport`` of ``logits`` on the test graphs: head and tail
    accuracy over ``head_tail_partition``'s test graphs (nan under 5 graphs),
    and the mean and spread of ``homophilies`` (nan when there are none)."""
    head, tail = (None, None)
    if len(dataset) >= 5:
        head_all, tail_all = head_tail_partition(dataset)
        test_pos = {g: p for p, g in enumerate(test_list)}
        head = [test_pos[g] for g in head_all if g in test_pos]
        tail = [test_pos[g] for g in tail_all if g in test_pos]
    nan = float("nan")
    return compute_metrics(
        logits[test_list].argmax(axis=1),
        dataset.labels()[test_list],
        head_idx=head,
        tail_idx=tail,
        num_classes=dataset.num_classes,
        edge_homophily_mean=float(np.mean(homophilies)) if homophilies else nan,
        edge_homophily_std=float(np.std(homophilies)) if homophilies else nan,
    )


def train_full_pipeline(
    dataset: GraphDataset,
    split: SplitSpec,
    alloc_config: AllocConfig,
    encoder_config: EncoderConfig,
    sampler_config: SamplerConfig,
    downstream_config: GoGClassifierConfig,
    epochs: int,
    seed: int,
    encoder_lr: float = 0.01,
    downstream_lr: float = 0.01,
    eval_samples: int | None = None,
) -> PipelineResult:
    """Train encoder and GoG classifier per the sampled-GoG recipe and
    evaluate on the test indices.

    Per epoch: the encoder's supervised loss and gradient; P and S rebuilt
    from its eval-mode logits; ``samples_per_epoch`` GoGs sampled and one
    downstream step on the mean gradient; validation; then the encoder step.
    Model selection keeps the parameters with the best validation balanced
    accuracy, i.e. the encoder whose embeddings were scored; test metrics
    come from mean logits over fresh GoGs sampled at evaluation time.
    """
    observable, train_list, val_list, test_list = _set_up(dataset, split)
    t = sampler_config.samples_per_epoch
    n_eval = eval_samples if eval_samples is not None else t
    if n_eval < 1:
        raise ValueError(f"eval_samples must be >= 1, got {eval_samples}")

    train_mask = np.zeros(len(dataset), dtype=bool)
    train_mask[train_list] = True

    allocation = allocate_degrees(split, dataset, alloc_config)
    op = build_operators(dataset, encoder_config)

    def sampler_for(logits):
        prob = build_prob_matrix(logits, observable, train_mask)
        sim = similarity_matrix(prob, zero_diagonal=True)
        return GoGSampler(sim, allocation, sampler_config)

    enc_state = init_encoder_state(
        dataset, encoder_config, seed, learning_rate=encoder_lr
    )
    down_state = init_downstream_state(
        encoder_config.hidden_dim, dataset.num_classes, downstream_config,
        seed, learning_rate=downstream_lr,
    )
    best = {
        "score": -np.inf,
        "epoch": 0,
        "encoder": enc_state.params.copy(),
        "downstream": down_state.params.copy(),
    }
    curve: list[CurvePoint] = []

    for epoch in range(1, epochs + 1):
        with np.errstate(all="ignore"):
            enc_loss, enc_grad, h, logits = encoder_loss_and_grad(
                dataset, encoder_config, enc_state, observable, train_list,
                train=True, op=op,
            )
            if encoder_config.dropout > 0.0:
                # similarity must come from a dropout-free pass
                h, logits = encode_dataset(dataset, encoder_config, enc_state, op=op)
        _check_finite(f"encoder step at epoch {epoch}", enc_loss, enc_grad, h, logits)
        sampler = sampler_for(logits)

        grad_sum = np.zeros_like(down_state.params)
        loss_sum = 0.0
        homo_vals = []
        for j in range(t):
            gog = sampler.sample(epoch * t + j)
            prop = gog_propagation_matrix(gog)
            with np.errstate(all="ignore"):
                loss_j, grad_j, _ = downstream_loss_and_grad(
                    prop, h, down_state, downstream_config,
                    observable, train_list, train=True,
                )
            _check_finite(f"downstream step at epoch {epoch}", loss_j, grad_j)
            grad_sum += grad_j
            loss_sum += loss_j
            homo_vals.append(_observable_homophily(gog, observable))
        down_loss = loss_sum / t
        optimizer_step(down_state, grad_sum / t)

        if val_list:
            with np.errstate(all="ignore"):
                val_logits, _ = _mean_eval_logits(
                    sampler, h, down_state, downstream_config,
                    _EVAL_STREAM_BASE + epoch * n_eval, n_eval,
                )
            _check_finite(f"validation forward at epoch {epoch}", val_logits)
            val_score = _val_score(val_logits, observable, val_list)
        else:
            val_score = float("nan")
        if not val_list or val_score >= best["score"]:
            best.update(
                score=val_score if val_list else 0.0,
                epoch=epoch,
                encoder=enc_state.params.copy(),
                downstream=down_state.params.copy(),
            )
        optimizer_step(enc_state, enc_grad)  # after selection, which scored h
        curve.append(
            CurvePoint(
                epoch=epoch,
                encoder_loss=enc_loss,
                downstream_loss=down_loss,
                val_balanced_accuracy=val_score,
                # nan, without nanmean's warning, when no GoG had an edge
                # between observable labels
                mean_edge_homophily=float(np.nanmean(homo_vals))
                if not all(map(math.isnan, homo_vals))
                else float("nan"),
            )
        )

    # restore the selected parameters and evaluate on test indices
    enc_state.params[...] = best["encoder"]
    down_state.params[...] = best["downstream"]
    final = f"final evaluation with the parameters of epoch {best['epoch']}"
    with np.errstate(all="ignore"):
        h, logits = encode_dataset(dataset, encoder_config, enc_state, op=op)
    _check_finite(final, h, logits)
    sampler = sampler_for(logits)
    with np.errstate(all="ignore"):
        test_logits, eval_gogs = _mean_eval_logits(
            sampler, h, down_state, downstream_config, _FINAL_STREAM_BASE, n_eval
        )
    _check_finite(final, test_logits)

    labels_true = dataset.labels()
    homos = [edge_homophily(g, labels_true) for g in eval_gogs if g.edges.size]
    return PipelineResult(
        encoder=enc_state, downstream=down_state,
        metrics=_test_report(dataset, test_list, test_logits, homos),
        curve=tuple(curve), final_gogs=tuple(eval_gogs),
    )


def train_encoder_baseline(
    dataset: GraphDataset,
    split: SplitSpec,
    encoder_config: EncoderConfig,
    epochs: int,
    seed: int,
    learning_rate: float = 0.01,
) -> MetricsReport:
    """Encoder-only reference: classify straight from the encoder head with
    no graph-of-graphs stage.

    It shares with ``train_full_pipeline`` the set-up checks, the encoder's
    initialization and its Adam at a constant rate, the selection rule (the
    parameters with the best validation balanced accuracy, the later epoch
    on ties, the last epoch without a validation set) and the test report,
    head and tail accuracy included; it reports no edge homophily.
    """
    observable, train_list, val_list, test_list = _set_up(dataset, split)
    op = build_operators(dataset, encoder_config)
    enc_state = init_encoder_state(
        dataset, encoder_config, seed, learning_rate=learning_rate
    )
    best_params = enc_state.params.copy()
    best_score = -np.inf
    for epoch in range(1, epochs + 1):
        with np.errstate(all="ignore"):
            loss, grad, _, _ = encoder_loss_and_grad(
                dataset, encoder_config, enc_state, observable, train_list,
                train=True, op=op,
            )
        _check_finite(f"encoder step at epoch {epoch}", loss, grad)
        optimizer_step(enc_state, grad)
        if val_list:
            with np.errstate(all="ignore"):
                _, logits = encode_dataset(dataset, encoder_config, enc_state, op=op)
            _check_finite(f"validation forward at epoch {epoch}", logits)
            score = _val_score(logits, observable, val_list)
            if score >= best_score:
                best_score = score
                best_params = enc_state.params.copy()
        else:
            best_params = enc_state.params.copy()

    enc_state.params[...] = best_params
    with np.errstate(all="ignore"):
        _, logits = encode_dataset(dataset, encoder_config, enc_state, op=op)
    _check_finite("final evaluation", logits)
    return _test_report(dataset, test_list, logits)
