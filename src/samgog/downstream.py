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
    ParamSpec,
    SymmetricOperator,
    TrainingError,
    cross_entropy_and_dlogits,
    dropout_mask,
    init_model_state,
    optimizer_step,
    propagate_backward_inplace,
    propagate_forward,
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


def downstream_param_spec(
    config: GoGClassifierConfig, in_dim: int, num_classes: int
) -> ParamSpec:
    entries = []
    d_in = in_dim
    for layer in range(1, config.num_layers + 1):
        d_out = num_classes if layer == config.num_layers else config.hidden_dim
        entries.append((f"gog{layer}.W", (d_in, d_out)))
        entries.append((f"gog{layer}.b", (d_out,)))
        d_in = d_out
    return ParamSpec(tuple(entries))


def init_downstream_state(
    in_dim: int,
    num_classes: int,
    config: GoGClassifierConfig,
    seed: int,
    optimizer: str = "adam",
    learning_rate: float = 0.01,
    schedule: str = "constant",
) -> ModelState:
    spec = downstream_param_spec(config, in_dim, num_classes)
    return init_model_state(
        spec, (seed, 0xD09), optimizer=optimizer,
        learning_rate=learning_rate, schedule=schedule,
    )


def gog_propagation_matrix(gog: GoGGraph) -> SymmetricOperator:
    """D^{-1/2} (W + W^T + I) D^{-1/2}, W the multiplicity-weighted adjacency
    of the sampled edges."""
    e = gog.edges
    return SymmetricOperator(gog.num_nodes, e[:, 0], e[:, 1], e[:, 2], normalize=True)


def _downstream_forward(prop, h, views, config, rng, train):
    p = config.dropout if train else 0.0
    # center the pooled embeddings: ReLU stacks over all-nonnegative inputs
    # are prone to dead-unit collapse
    x = h - h.mean(axis=0)
    caches = []
    for layer in range(1, config.num_layers + 1):
        w = views[f"gog{layer}.W"]
        b = views[f"gog{layer}.b"]
        last = layer == config.num_layers
        x, cache = propagate_forward(prop, x, w, activation=not last, bias=b)
        mask = None
        if p > 0.0 and not last:
            mask = dropout_mask(rng, x.shape, p)
            x = x * mask
        caches.append((cache, mask))
    return x, caches


def downstream_forward(
    prop: SymmetricOperator,
    h: np.ndarray,
    state: ModelState,
    config: GoGClassifierConfig,
    train: bool = False,
) -> np.ndarray:
    """Logits per GoG node for a propagation matrix from
    ``gog_propagation_matrix``."""
    logits, _ = _downstream_forward(prop, h, state.views(), config, state.rng, train)
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
    views = state.views()
    logits, caches = _downstream_forward(prop, h, views, config, state.rng, train)
    loss, dlogits = cross_entropy_and_dlogits(
        logits, np.asarray(labels), np.asarray(labeled_idx)
    )
    grad = np.zeros_like(state.params)
    grad_views = state.spec.views(grad)
    dx = dlogits
    for layer in range(config.num_layers, 0, -1):
        cache, mask = caches.pop()
        if mask is not None:
            dx *= mask
        dx, dw, db = propagate_backward_inplace(cache, dx, input_grad=layer > 1)
        grad_views[f"gog{layer}.W"] += dw
        grad_views[f"gog{layer}.b"] += db
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
    recalls = []
    f1s = []
    for cls in range(c):
        actual = true == cls
        predicted = pred == cls
        tp = float((actual & predicted).sum())
        if actual.sum() > 0:
            recalls.append(tp / actual.sum())
        else:
            recalls.append(float("nan"))
        if actual.sum() == 0 and predicted.sum() == 0:
            f1s.append(0.0)
        else:
            precision = tp / predicted.sum() if predicted.sum() else 0.0
            recall = tp / actual.sum() if actual.sum() else 0.0
            f1s.append(
                0.0
                if precision + recall == 0.0
                else 2.0 * precision * recall / (precision + recall)
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
        per_class_accuracy=tuple(recalls),
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
        logits = downstream_forward(prop, h, state, config, train=False)
        acc = logits if acc is None else acc + logits
    return acc / count, gogs


def _observable_homophily(gog: GoGGraph, observable_labels: np.ndarray) -> float:
    """Edge homophily restricted to edges whose both endpoints carry an
    observable label; nan when no such edge exists."""
    if gog.edges.size == 0:
        return float("nan")
    lab = observable_labels
    src, dst = gog.edges[:, 0], gog.edges[:, 1]
    keep = (lab[src] >= 0) & (lab[dst] >= 0)
    if not np.any(keep):
        return float("nan")
    mult = gog.edges[keep, 2]
    same = lab[src[keep]] == lab[dst[keep]]
    return float(mult[same].sum() / mult.sum())


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
    optimizer: str = "adam",
    lr_schedule: str = "constant",
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
    split.validate(dataset)
    if len(split.train_idx) == 0:
        raise TrainingError("training requires a non-empty labeled train set")
    if len(split.test_idx) == 0:
        raise TrainingError("pipeline evaluation requires a non-empty test set")
    t = sampler_config.samples_per_epoch
    n_eval = eval_samples if eval_samples is not None else max(t, 1)
    if n_eval < 1:
        raise ValueError(f"eval_samples must be >= 1, got {eval_samples}")

    observable = labels_with_test_masked(dataset, split)
    train_only = np.full(len(dataset), -1, dtype=np.int64)
    train_list = list(split.train_idx)
    train_only[train_list] = observable[train_list]
    train_mask = train_only >= 0

    allocation = allocate_degrees(split, dataset, alloc_config)
    op = build_operators(dataset, encoder_config)

    def sampler_for(logits):
        prob = build_prob_matrix(logits, train_only, train_mask)
        sim = similarity_matrix(prob, zero_diagonal=True)
        return GoGSampler(sim, allocation, sampler_config)

    enc_state = init_encoder_state(
        dataset, encoder_config, seed,
        optimizer=optimizer, learning_rate=encoder_lr, schedule=lr_schedule,
    )
    down_state = init_downstream_state(
        encoder_config.hidden_dim, dataset.num_classes, downstream_config,
        seed, optimizer=optimizer, learning_rate=downstream_lr,
        schedule=lr_schedule,
    )
    val_list = list(split.val_idx)
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
                dataset, encoder_config, enc_state, train_only, train_list,
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
                    train_only, train_list, train=True,
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
            val_score = compute_metrics(
                val_logits[val_list].argmax(axis=1), observable[val_list],
                num_classes=dataset.num_classes,
            ).balanced_accuracy
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
                mean_edge_homophily=float(np.nanmean(homo_vals))
                if homo_vals
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
    test_list = list(split.test_idx)
    predictions = test_logits[test_list].argmax(axis=1)

    head, tail = (None, None)
    if len(dataset) >= 5:
        head_all, tail_all = head_tail_partition(dataset)
        test_pos = {g: p for p, g in enumerate(test_list)}
        head = [test_pos[g] for g in head_all if g in test_pos]
        tail = [test_pos[g] for g in tail_all if g in test_pos]

    homos = [edge_homophily(g, labels_true) for g in eval_gogs if g.edges.size]
    metrics = compute_metrics(
        predictions,
        labels_true[test_list],
        head_idx=head,
        tail_idx=tail,
        num_classes=dataset.num_classes,
        edge_homophily_mean=float(np.mean(homos)) if homos else float("nan"),
        edge_homophily_std=float(np.std(homos)) if homos else float("nan"),
    )
    return PipelineResult(
        encoder=enc_state, downstream=down_state, metrics=metrics,
        curve=tuple(curve), final_gogs=tuple(eval_gogs),
    )


def train_encoder_baseline(
    dataset: GraphDataset,
    split: SplitSpec,
    encoder_config: EncoderConfig,
    epochs: int,
    seed: int,
    learning_rate: float = 0.01,
    optimizer: str = "adam",
) -> MetricsReport:
    """Encoder-only reference: classify straight from the encoder head with
    no graph-of-graphs stage, same selection rule as the full pipeline."""
    split.validate(dataset)
    if len(split.test_idx) == 0:
        raise TrainingError("pipeline evaluation requires a non-empty test set")
    observable = labels_with_test_masked(dataset, split)
    train_list = list(split.train_idx)
    val_list = list(split.val_idx)
    op = build_operators(dataset, encoder_config)
    enc_state = init_encoder_state(
        dataset, encoder_config, seed,
        optimizer=optimizer, learning_rate=learning_rate,
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
            score = compute_metrics(
                logits[val_list].argmax(axis=1), observable[val_list],
                num_classes=dataset.num_classes,
            ).balanced_accuracy
            if score >= best_score:
                best_score = score
                best_params = enc_state.params.copy()
        else:
            best_params = enc_state.params.copy()

    enc_state.params[...] = best_params
    with np.errstate(all="ignore"):
        _, logits = encode_dataset(dataset, encoder_config, enc_state, op=op)
    _check_finite("final evaluation", logits)
    labels_true = dataset.labels()
    test_list = list(split.test_idx)
    predictions = logits[test_list].argmax(axis=1)
    return compute_metrics(
        predictions, labels_true[test_list], num_classes=dataset.num_classes
    )
