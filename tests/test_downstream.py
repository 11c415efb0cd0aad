import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from samgog import data, nn
from samgog import downstream as ds_mod
from samgog.degree_alloc import AllocConfig, allocate_degrees
from samgog.encoder import EncoderConfig, encode_dataset, init_encoder_state
from samgog.rng import generator
from samgog.sampler import GoGGraph, GoGSampler, SamplerConfig, WITHOUT_REPLACEMENT
from samgog.similarity import build_prob_matrix, similarity_matrix


def make_gog(edge_rows, n):
    edges = (
        np.array(edge_rows, dtype=np.int64)
        if edge_rows
        else np.zeros((0, 3), dtype=np.int64)
    )
    return GoGGraph(edges=edges, num_nodes=n, mode=WITHOUT_REPLACEMENT)


def central_differences(loss_at, params, step=1e-5):
    numeric = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        numeric[i] = (loss_at(up) - loss_at(down)) / (2 * step)
    return numeric


def max_relative_error(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float((np.abs(a - b) / denom).max())


class TestDownstreamForward:
    def test_zero_weights_give_uniform_logits(self):
        config = ds_mod.GoGClassifierConfig(hidden_dim=4)
        state = ds_mod.init_downstream_state(3, 2, config, seed=1)
        state.params[...] = 0.0
        gog = make_gog([[0, 1, 1], [1, 0, 1]], 2)
        h = np.random.default_rng(0).normal(size=(2, 3))
        prop = ds_mod.gog_propagation_matrix(gog)
        logits = ds_mod.downstream_forward(prop, h, state, config)
        assert np.all(logits == 0.0)
        assert np.allclose(nn.softmax_rows(logits), 0.5)

    def test_edgeless_gog_reduces_to_per_node_transform(self):
        config = ds_mod.GoGClassifierConfig(hidden_dim=4)
        state = ds_mod.init_downstream_state(3, 2, config, seed=2)
        views = state.views()
        h = np.random.default_rng(1).normal(size=(5, 3))
        gog = make_gog([], 5)
        prop = ds_mod.gog_propagation_matrix(gog)
        logits = ds_mod.downstream_forward(prop, h, state, config)
        # with only self-loops the propagation matrix is the identity, so
        # each row is the same per-node MLP of the centered embedding
        centered = h - h.mean(axis=0)
        for i in range(5):
            hidden = np.maximum(
                centered[i] @ views["gog1.W"] + views["gog1.b"], 0.0
            )
            expected = hidden @ views["gog2.W"] + views["gog2.b"]
            assert np.allclose(logits[i], expected, atol=1e-12)

    def test_matches_dense_oracle(self):
        config = ds_mod.GoGClassifierConfig(hidden_dim=4)
        state = ds_mod.init_downstream_state(3, 2, config, seed=3)
        views = state.views()
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 3))
        rows = [[0, 1, 2], [1, 2, 1], [3, 4, 1], [4, 0, 3], [2, 0, 1]]
        gog = make_gog(rows, 5)

        # independent oracle: build weighted adjacency by loops
        w = np.zeros((5, 5))
        for src, dst, mult in rows:
            w[src][dst] += mult
        w = w + w.T
        for i in range(5):
            w[i][i] += 1.0
        deg = w.sum(axis=1)
        prop = w / np.sqrt(deg)[:, None] / np.sqrt(deg)[None, :]
        centered = h - h.mean(axis=0)
        hidden = np.maximum(
            prop @ centered @ views["gog1.W"] + views["gog1.b"], 0.0
        )
        expected = prop @ hidden @ views["gog2.W"] + views["gog2.b"]

        built = ds_mod.gog_propagation_matrix(gog)
        logits = ds_mod.downstream_forward(built, h, state, config)
        assert np.allclose(logits, expected, atol=1e-12)

    def test_gradient_matches_central_differences(self):
        config = ds_mod.GoGClassifierConfig(num_layers=2, hidden_dim=5)
        state = ds_mod.init_downstream_state(4, 2, config, seed=5)
        state.params += 0.05 * np.random.default_rng(7).normal(
            size=state.params.shape
        )
        assert state.params.size <= 200
        rng = np.random.default_rng(3)
        h = rng.normal(size=(6, 4))
        gog = make_gog(
            [[0, 1, 1], [1, 2, 2], [2, 3, 1], [3, 4, 1], [4, 5, 2], [5, 0, 1]], 6
        )
        prop = ds_mod.gog_propagation_matrix(gog)
        labels = np.array([0, 1, 0, 1, 0, 1])
        labeled = np.array([0, 1, 2, 3])

        _, grad, _ = ds_mod.downstream_loss_and_grad(
            prop, h, state, config, labels, labeled, train=False
        )

        def loss_at(flat):
            probe = nn.ModelState(spec=state.spec, params=flat.copy())
            loss, _, _ = ds_mod.downstream_loss_and_grad(
                prop, h, probe, config, labels, labeled, train=False
            )
            return loss

        assert max_relative_error(grad, central_differences(loss_at, state.params)) < 1e-4

    def test_dropout_gradient_matches_central_differences(self):
        config = ds_mod.GoGClassifierConfig(num_layers=3, hidden_dim=5, dropout=0.3)
        state = ds_mod.init_downstream_state(4, 2, config, seed=5)
        state.params += 0.05 * np.random.default_rng(7).normal(
            size=state.params.shape
        )
        assert state.params.size <= 200
        h = np.random.default_rng(3).normal(size=(6, 4))
        prop = ds_mod.gog_propagation_matrix(make_gog(
            [[0, 1, 1], [1, 2, 2], [2, 3, 1], [3, 4, 1], [4, 5, 2], [5, 0, 1]], 6
        ))
        labels = np.array([0, 1, 0, 1, 0, 1])
        labeled = np.array([0, 1, 2, 3])

        def loss_and_grad(flat):
            # a fresh stream per evaluation draws the same dropout masks
            probe = nn.ModelState(spec=state.spec, params=flat.copy(),
                                  rng=generator(8))
            loss, grad, _ = ds_mod.downstream_loss_and_grad(
                prop, h, probe, config, labels, labeled, train=True
            )
            return loss, grad

        _, grad = loss_and_grad(state.params)
        numeric = central_differences(lambda f: loss_and_grad(f)[0], state.params)
        assert max_relative_error(grad, numeric) < 1e-4


class TestComputeMetrics:
    def test_perfect_predictions(self):
        m = ds_mod.compute_metrics(np.array([0, 1, 2]), np.array([0, 1, 2]))
        assert m.accuracy == 1.0
        assert m.balanced_accuracy == 1.0
        assert m.macro_f1 == 1.0

    def test_all_majority_on_ninety_ten(self):
        true = np.array([0] * 90 + [1] * 10)
        pred = np.zeros(100, dtype=int)
        m = ds_mod.compute_metrics(pred, true, num_classes=2)
        assert m.accuracy == pytest.approx(0.9)
        assert m.balanced_accuracy == pytest.approx(0.5)

    def test_hand_confusion_matrix(self):
        true = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        pred = np.array([0, 0, 1, 2, 1, 1, 0, 2, 2, 1])
        m = ds_mod.compute_metrics(pred, true, num_classes=3)
        assert m.accuracy == pytest.approx(0.6)
        assert m.per_class_accuracy[0] == pytest.approx(0.5)
        assert m.per_class_accuracy[1] == pytest.approx(2 / 3)
        assert m.per_class_accuracy[2] == pytest.approx(2 / 3)
        assert m.balanced_accuracy == pytest.approx((0.5 + 2 / 3 + 2 / 3) / 3)
        assert m.macro_f1 == pytest.approx((4 / 7 + 4 / 7 + 2 / 3) / 3)

    def test_absent_class_contributes_zero_f1(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        m = ds_mod.compute_metrics(pred, true, num_classes=3)
        assert m.macro_f1 == pytest.approx(2 / 3)  # classes 0, 1 perfect; 2 empty

    def test_balanced_fixture_equates_accuracy_and_balanced(self):
        rng = np.random.default_rng(5)
        true = np.array([0] * 25 + [1] * 25)
        pred = rng.integers(0, 2, size=50)
        m = ds_mod.compute_metrics(pred, true, num_classes=2)
        assert m.balanced_accuracy == pytest.approx(m.accuracy, abs=1e-12)

    def test_head_tail_accuracy(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 0])
        m = ds_mod.compute_metrics(pred, true, head_idx=[0, 1], tail_idx=[2, 3])
        assert m.head_accuracy == pytest.approx(0.5)
        assert m.tail_accuracy == pytest.approx(0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ds_mod.compute_metrics(np.zeros(0, dtype=int), np.zeros(0, dtype=int))


def per_class_loop_metrics(
    predictions, true_labels, head_idx=None, tail_idx=None, num_classes=None
):
    """compute_metrics as one Python pass per class: the oracle for its
    confusion-matrix form."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    c = int(num_classes if num_classes is not None else max(pred.max(), true.max()) + 1)
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
        precision = tp / predicted.sum() if predicted.sum() else 0.0
        recall = tp / actual.sum() if actual.sum() else 0.0
        f1s.append(
            0.0
            if precision + recall == 0.0
            else 2.0 * precision * recall / (precision + recall)
        )

    def subset_accuracy(idx):
        if idx is None or len(idx) == 0:
            return float("nan")
        idx = np.asarray(idx, dtype=np.int64)
        return float((pred[idx] == true[idx]).mean())

    return ds_mod.MetricsReport(
        accuracy=float((pred == true).mean()),
        balanced_accuracy=float(np.nanmean(recalls)),
        macro_f1=float(np.mean(f1s)),
        per_class_accuracy=tuple(recalls),
        head_accuracy=subset_accuracy(head_idx),
        tail_accuracy=subset_accuracy(tail_idx),
        edge_homophily_mean=float("nan"),
        edge_homophily_std=float("nan"),
    )


@st.composite
def scored_predictions(draw):
    """Predictions in [0, c), labels in [-1, c) (-1: an unlabeled graph),
    some classes absent, optional head/tail position lists and class count."""
    c = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    present = draw(st.lists(st.integers(0, c - 1), min_size=1, unique=True))
    true = draw(st.lists(st.sampled_from([-1, *present]), min_size=n, max_size=n))
    if all(t < 0 for t in true):
        true[0] = present[0]  # a class-less label set has no balanced accuracy
    pred = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    positions = st.none() | st.lists(st.integers(0, n - 1), max_size=n)
    num_classes = draw(st.sampled_from([None, c]))
    return pred, true, draw(positions), draw(positions), num_classes


@given(scored_predictions())
@settings(max_examples=300, deadline=None)
def test_confusion_matrix_metrics_match_the_per_class_loop(case):
    pred, true, head, tail, num_classes = case
    got = ds_mod.compute_metrics(
        np.array(pred), np.array(true), head_idx=head, tail_idx=tail,
        num_classes=num_classes,
    )
    want = per_class_loop_metrics(pred, true, head, tail, num_classes)
    assert all(isinstance(x, float) for x in got.per_class_accuracy)
    for field in dataclasses.fields(ds_mod.MetricsReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        # the same bits; nan compares as nan
        assert np.array(a, dtype=np.float64).tobytes() == \
            np.array(b, dtype=np.float64).tobytes(), field.name


def pipeline_configs(hidden=6):
    return dict(
        alloc_config=AllocConfig(d_bar=4, k_min=2, k_max=20),
        encoder_config=EncoderConfig(hidden_dim=hidden),
        sampler_config=SamplerConfig(seed=13, samples_per_epoch=2),
        downstream_config=ds_mod.GoGClassifierConfig(hidden_dim=hidden),
    )


class TestFullPipeline:
    def test_separable_classes_reach_perfect_accuracy(self):
        ds = data.make_planted_dataset(num_graphs=40, seed=2, noise=0.0)
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=3)
        res = ds_mod.train_full_pipeline(
            ds, split, epochs=50, seed=4, **pipeline_configs()
        )
        assert res.metrics.accuracy == 1.0
        assert res.metrics.balanced_accuracy == 1.0

    def test_loss_decreases_on_separable_task(self):
        ds = data.make_planted_dataset(num_graphs=40, seed=2, noise=0.0)
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=3)
        res = ds_mod.train_full_pipeline(
            ds, split, epochs=50, seed=4, **pipeline_configs()
        )
        assert res.curve[-1].downstream_loss < res.curve[0].downstream_loss
        assert res.curve[-1].encoder_loss < res.curve[0].encoder_loss

    def test_zero_epochs_returns_untrained_metrics(self):
        ds = data.make_planted_dataset(num_graphs=30, seed=5, noise=0.5)
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=6)
        res = ds_mod.train_full_pipeline(
            ds, split, epochs=0, seed=7, **pipeline_configs()
        )
        assert res.curve == ()
        assert 0.0 <= res.metrics.accuracy <= 1.0

    def test_same_seed_reproduces_report_exactly(self):
        ds = data.make_planted_dataset(num_graphs=30, seed=8, noise=0.8)
        split = data.make_class_imbalanced_split(ds, 3.0, 0.5, 0.25, seed=9)
        a = ds_mod.train_full_pipeline(
            ds, split, epochs=8, seed=10, **pipeline_configs()
        )
        b = ds_mod.train_full_pipeline(
            ds, split, epochs=8, seed=10, **pipeline_configs()
        )
        # nan-aware equality: head/tail accuracy is nan when the partition
        # misses the test set
        np.testing.assert_equal(a.metrics.__dict__, b.metrics.__dict__)
        np.testing.assert_equal(
            [p.__dict__ for p in a.curve], [p.__dict__ for p in b.curve]
        )

    def test_test_labels_cannot_influence_training(self):
        base = data.make_planted_dataset(num_graphs=30, seed=11, noise=0.8)
        split = data.make_class_imbalanced_split(base, 1.0, 0.5, 0.25, seed=12)
        flipped_graphs = list(base.graphs)
        for i in split.test_idx:
            g = flipped_graphs[i]
            flipped_graphs[i] = data.InputGraph(
                id=g.id, edges=g.edges, node_features=g.node_features,
                label=1 - g.label, node_labels=g.node_labels,
            )
        flipped = data.GraphDataset(
            graphs=tuple(flipped_graphs), num_classes=2,
            feature_scheme=base.feature_scheme, feature_dim=base.feature_dim,
        )
        a = ds_mod.train_full_pipeline(
            base, split, epochs=6, seed=13, **pipeline_configs()
        )
        b = ds_mod.train_full_pipeline(
            flipped, split, epochs=6, seed=13, **pipeline_configs()
        )
        # training trajectories identical; only the final scoring differs
        assert a.curve == b.curve
        assert a.metrics.accuracy == pytest.approx(1.0 - b.metrics.accuracy)

    def test_divergence_reports_epoch(self):
        ds = data.make_planted_dataset(num_graphs=20, seed=14, noise=0.5)
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=15)
        cfg = pipeline_configs()
        with pytest.raises(nn.TrainingError, match="encoder step at epoch 2"):
            ds_mod.train_full_pipeline(
                ds, split, epochs=3, seed=16, encoder_lr=1e150, **cfg
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "epochs, rates, stage",
        [
            (3, {"downstream_lr": 1e200}, "validation forward at epoch 1"),
            # without a validation set the last epoch is selected, with its
            # diverged downstream step
            (1, {"downstream_lr": 1e200, "val_fraction": 0.0},
             "final evaluation with the parameters of epoch 1"),
        ],
    )
    def test_divergence_names_the_stage(self, epochs, rates, stage):
        rates = dict(rates)
        val_fraction = rates.pop("val_fraction", 0.25)
        ds = data.make_planted_dataset(num_graphs=20, seed=14, noise=0.5)
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, val_fraction, seed=15)
        with pytest.raises(nn.TrainingError, match=stage):
            ds_mod.train_full_pipeline(
                ds, split, epochs=epochs, seed=16, **rates, **pipeline_configs()
            )

    @pytest.mark.filterwarnings("error")
    def test_epoch_with_no_observable_edge_records_nan_homophily(self):
        # two labeled graphs among twelve, one neighbour each: neither
        # epoch's draw joins them, so no edge has two observable labels
        ds = data.make_planted_dataset(
            num_graphs=12, seed=1, noise=0.5, min_nodes=3, max_nodes=4
        )
        split = data.SplitSpec((0, 1), (), tuple(range(2, 12)))
        res = ds_mod.train_full_pipeline(
            ds, split, AllocConfig(d_bar=1, k_min=1, k_max=1),
            EncoderConfig(hidden_dim=4), SamplerConfig(seed=0, samples_per_epoch=1),
            ds_mod.GoGClassifierConfig(hidden_dim=4), epochs=2, seed=3,
        )
        assert [math.isnan(p.mean_edge_homophily) for p in res.curve] == [True, True]

    def test_zero_eval_samples_rejected_by_name(self):
        ds = data.make_planted_dataset(num_graphs=20, seed=14, noise=0.5)
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=15)
        with pytest.raises(ValueError, match="eval_samples must be >= 1, got 0"):
            ds_mod.train_full_pipeline(
                ds, split, epochs=1, seed=16, eval_samples=0, **pipeline_configs()
            )

    def test_empty_test_set_rejected_before_training(self, monkeypatch):
        ds = data.make_planted_dataset(num_graphs=20, seed=14, noise=0.5)
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.5, seed=15)
        assert split.test_idx == ()

        def no_training(*args, **kwargs):
            raise AssertionError("an epoch ran on a split with no test graphs")

        monkeypatch.setattr(ds_mod, "encoder_loss_and_grad", no_training)
        with pytest.raises(
            nn.TrainingError, match="pipeline evaluation requires a non-empty test set"
        ):
            ds_mod.train_full_pipeline(
                ds, split, epochs=40, seed=16, **pipeline_configs()
            )

    @pytest.mark.filterwarnings("error")
    def test_diverging_encoder_step_is_not_selected(self):
        # epoch 1 scores the initial encoder; its diverged step comes after
        ds = data.make_planted_dataset(num_graphs=20, seed=14, noise=0.5)
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=15)
        res = ds_mod.train_full_pipeline(
            ds, split, epochs=1, seed=16, encoder_lr=1e150, **pipeline_configs()
        )
        assert np.isfinite(res.metrics.balanced_accuracy)
        assert np.isfinite(res.metrics.edge_homophily_mean)

    @pytest.mark.parametrize("dataset_seed", [22, 23])
    def test_selected_parameters_reproduce_the_best_validation_score(self, dataset_seed):
        ds = data.make_planted_dataset(num_graphs=40, seed=dataset_seed, noise=0.8)
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=21)
        cfg = pipeline_configs()
        res = ds_mod.train_full_pipeline(ds, split, epochs=10, seed=22, **cfg)
        best = max(p.val_balanced_accuracy for p in res.curve)
        # ties keep the later epoch
        epoch = max(p.epoch for p in res.curve if p.val_balanced_accuracy == best)

        # re-score the selected parameters on that epoch's validation streams
        observable = data.labels_with_test_masked(ds, split)
        train_only = np.full(len(ds), -1)
        train_only[list(split.train_idx)] = observable[list(split.train_idx)]
        h, logits = encode_dataset(ds, cfg["encoder_config"], res.encoder)
        prob = build_prob_matrix(logits, train_only, train_only >= 0)
        sampler = GoGSampler(
            similarity_matrix(prob),
            allocate_degrees(split, ds, cfg["alloc_config"]),
            cfg["sampler_config"],
        )
        n_eval = cfg["sampler_config"].samples_per_epoch
        val_logits, _ = ds_mod._mean_eval_logits(
            sampler, h, res.downstream, cfg["downstream_config"],
            ds_mod._EVAL_STREAM_BASE + epoch * n_eval, n_eval,
        )
        val = list(split.val_idx)
        score = ds_mod.compute_metrics(
            val_logits[val].argmax(axis=1), observable[val], num_classes=2
        ).balanced_accuracy
        assert score == best


def test_encoder_baseline_runs_and_scores():
    ds = data.make_planted_dataset(num_graphs=30, seed=17, noise=0.0)
    split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=18)
    report = ds_mod.train_encoder_baseline(
        ds, split, EncoderConfig(hidden_dim=6), epochs=40, seed=19
    )
    assert report.accuracy == 1.0


def test_encoder_baseline_rejects_empty_test_set(monkeypatch):
    ds = data.make_planted_dataset(num_graphs=20, seed=14, noise=0.5)
    split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.5, seed=15)
    assert split.test_idx == ()

    def no_training(*args, **kwargs):
        raise AssertionError("an epoch ran on a split with no test graphs")

    monkeypatch.setattr(ds_mod, "encoder_loss_and_grad", no_training)
    with pytest.raises(
        nn.TrainingError, match="pipeline evaluation requires a non-empty test set"
    ):
        ds_mod.train_encoder_baseline(ds, split, EncoderConfig(), epochs=40, seed=16)


def test_encoder_baseline_reports_head_and_tail_accuracy():
    # at zero epochs the baseline scores the initial encoder, whose test
    # predictions are counted here by hand
    ds = data.make_planted_dataset(
        num_graphs=40, seed=17, noise=1.0, min_nodes=4, max_nodes=16
    )
    split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=18)
    config = EncoderConfig(hidden_dim=6)
    report = ds_mod.train_encoder_baseline(ds, split, config, epochs=0, seed=19)

    _, logits = encode_dataset(ds, config, init_encoder_state(ds, config, 19))
    correct = logits.argmax(axis=1) == ds.labels()
    head, tail = data.head_tail_partition(ds)
    test = set(split.test_idx)
    head_test = [g for g in head if g in test]
    tail_test = [g for g in tail if g in test]
    assert head_test and tail_test
    assert report.head_accuracy == sum(correct[head_test]) / len(head_test)
    assert report.tail_accuracy == sum(correct[tail_test]) / len(tail_test)
    assert math.isnan(report.edge_homophily_mean)


def test_encoder_baseline_rejects_empty_train_set():
    ds = data.make_planted_dataset(num_graphs=20, seed=14, noise=0.5)
    split = data.SplitSpec((), (), tuple(range(20)))
    with pytest.raises(
        nn.TrainingError, match="training requires a non-empty labeled train set"
    ):
        ds_mod.train_encoder_baseline(ds, split, EncoderConfig(), epochs=0, seed=16)


@pytest.mark.filterwarnings("error")
def test_encoder_baseline_divergence_names_the_final_evaluation():
    # without a validation set the last epoch is selected, with its diverged step
    ds = data.make_planted_dataset(num_graphs=30, seed=17, noise=0.0)
    split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.0, seed=18)
    with pytest.raises(nn.TrainingError, match="final evaluation"):
        ds_mod.train_encoder_baseline(
            ds, split, EncoderConfig(hidden_dim=6), epochs=1, seed=19,
            learning_rate=1e200,
        )


def training_digest(arch, readout, dropout):
    """SHA-256 of a short pipeline run's final encoder and downstream
    parameters and of every curve point."""
    ds = data.make_planted_dataset(num_graphs=60, seed=7, noise=1.55)
    split = data.make_class_imbalanced_split(ds, 9.0, 0.5, 0.25, seed=202)
    res = ds_mod.train_full_pipeline(
        ds, split,
        AllocConfig(d_bar=8, k_min=3, k_max=100),
        EncoderConfig(arch=arch, readout=readout, hidden_dim=8, dropout=dropout),
        SamplerConfig(seed=7, samples_per_epoch=2),
        ds_mod.GoGClassifierConfig(num_layers=3, hidden_dim=8, dropout=dropout),
        epochs=4, seed=303, eval_samples=2,
    )
    h = hashlib.sha256(res.encoder.params.tobytes())
    h.update(res.downstream.params.tobytes())
    h.update(np.array([dataclasses.astuple(p) for p in res.curve]).tobytes())
    return h.hexdigest()


# recorded before the encoder and the downstream GCN shared one dense-map
# backward; the same with one BLAS thread or the default
TRAINING_DIGESTS = {
    ("gcn", "mean", 0.0): "9a52c67b629f8830863dc7816355fa40fdee5ad982facf08fc0cc0a313bdbd35",
    ("gcn", "mean", 0.3): "0bf574b3ace77b3bac968787b2946de4004165d13dcdc2d01bb7d49b1d74e880",
    ("gcn", "sum", 0.0): "da19d3b179b26a1e6d2a65d36b22eb1f16a0fe3cd2ad39e0dbc44944484d7727",
    ("gcn", "sum", 0.3): "045245d71ab77772f7c27bd265db5151359a638b5c87ed26440f457957576b88",
    ("gin", "mean", 0.0): "0b5f1dd8bfa11ece754e4f7f5afdb015a6693b092f03be946a7cf0505a819c07",
    ("gin", "mean", 0.3): "18ec9b18ff8ce1517c3134fd472286394ff3519fcef16ee5f3d281b72bd71c94",
    ("gin", "sum", 0.0): "6cc743751de34327df4ab7363e50d3f4d2e0784587a243bf4e3e5ab4d18ac9de",
    ("gin", "sum", 0.3): "61cfe7706e5e0d9a289351b62fe6ab35ad8a29f0850e898444426cb8b3d1b3c2",
}


@pytest.mark.parametrize("arch, readout, dropout", sorted(TRAINING_DIGESTS))
def test_training_keeps_its_bytes(arch, readout, dropout):
    assert training_digest(arch, readout, dropout) == TRAINING_DIGESTS[arch, readout, dropout]
