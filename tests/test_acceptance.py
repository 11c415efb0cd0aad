"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

The PTC-MR reproduction target is soft: it runs only when the raw dataset
files are available locally (data/PTC_MR or $SAMGOG_PTC_MR).
"""

import math
import os
import time

import numpy as np
import pytest

from samgog import data, nn, theory
from samgog import downstream as dm
from samgog import encoder as enc
from samgog import sampler as sp
from samgog import similarity as sim
from samgog.degree_alloc import (
    AllocConfig,
    DegreeAllocation,
    allocate_degrees,
    target_total_degree,
)
from samgog.encoder import EncoderConfig
from samgog.rng import generator
from samgog.sampler import GoGSampler, SamplerConfig


def report(criterion: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"\nACCEPTANCE {criterion}: {status} ({detail}; {elapsed:.2f}s of "
        f"{budget:.0f}s budget)"
    )
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion}: exceeded {budget}s budget"


def test_criterion_01_edge_homophily_exact():
    start = time.perf_counter()
    same = sp.GoGGraph(
        edges=np.array([[0, 1, 1], [1, 2, 2], [2, 0, 1]]), num_nodes=3,
        mode=sp.WITH_REPLACEMENT,
    )
    ok = sp.edge_homophily(same, np.zeros(3, dtype=int)) == 1.0

    bipartite = sp.GoGGraph(
        edges=np.array([[0, 2, 1], [1, 3, 1], [2, 1, 2]]), num_nodes=4,
        mode=sp.WITH_REPLACEMENT,
    )
    ok &= sp.edge_homophily(bipartite, np.array([0, 0, 1, 1])) == 0.0

    three_of_four = sp.GoGGraph(
        edges=np.array([[0, 1, 1], [1, 0, 1], [2, 3, 1], [3, 0, 1]]),
        num_nodes=4, mode=sp.WITHOUT_REPLACEMENT,
    )
    ok &= sp.edge_homophily(three_of_four, np.array([0, 0, 1, 1])) == 0.75
    report(1, ok, "three hand fixtures exact", time.perf_counter() - start, 1.0)


def test_criterion_02_similarity_degeneracy():
    start = time.perf_counter()
    n = 20
    labels = np.arange(n) % 2
    logits = np.zeros((n, 2))
    prob = sim.build_prob_matrix(logits, labels, np.ones(n, dtype=bool))
    s = sim.similarity_matrix(prob, zero_diagonal=True)
    indicator = (labels[:, None] == labels[None, :]).astype(float)
    np.fill_diagonal(indicator, 0.0)
    ok = np.array_equal(s.S, indicator)

    # every node has 9 same-class candidates >= k_min = 3
    k = np.full(n, 3, dtype=np.int64)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    homophilies = []
    for stream in range(5):
        gog = sp.GoGSampler(
            s, alloc,
            SamplerConfig(mode=sp.WITHOUT_REPLACEMENT, seed=11),
        ).sample(stream)
        homophilies.append(sp.edge_homophily(gog, labels))
    ok &= all(h == 1.0 for h in homophilies)
    report(
        2, ok, "one-hot similarity is the label indicator; sampled homophily 1.0",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_03_greedy_allocation_optimality():
    start = time.perf_counter()
    result = theory.check_degree_ordering(num_trials=500, n_max=6, seed=2024)
    report(
        3, result.passed and result.failures == 0,
        f"greedy = brute force on {result.trials} random instances",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_04_allocation_conservation():
    start = time.perf_counter()
    failures = 0
    clamped_cases = 0
    for trial in range(1000):
        rng = generator(0xACC4, trial)
        n = int(rng.integers(4, 30))
        k_min = int(rng.integers(0, 4))
        k_max = k_min + int(rng.integers(1, 6))  # tight caps force clamping
        d_bar = float(rng.uniform(k_min, k_max))
        sizes = [int(x) for x in rng.integers(2, 40, size=n)]
        labels = [int(x) for x in rng.integers(0, 2, size=n)]
        labels[0], labels[1] = 0, 1
        ds = data.make_path_graph_dataset(sizes, labels=labels)
        n_train = int(rng.integers(2, n))
        train = set(int(i) for i in rng.choice(n, size=n_train, replace=False))
        train |= {0, 1}
        rest = tuple(sorted(set(range(n)) - train))
        split = data.SplitSpec(
            train_idx=tuple(sorted(train)), val_idx=(), test_idx=rest
        )
        config = AllocConfig(
            d_bar=d_bar, k_min=k_min, k_max=k_max,
            rho1=float(rng.uniform(1, 9)), rho2=float(rng.uniform(1, 9)),
            window_r=int(rng.integers(0, 8)),
        )
        alloc = allocate_degrees(split, ds, config)
        if np.any(alloc.k == k_max):
            clamped_cases += 1
        if alloc.k.sum() != target_total_degree(n, d_bar):
            failures += 1
        if np.any(alloc.k < k_min) or np.any(alloc.k > k_max):
            failures += 1
    report(
        4, failures == 0,
        f"1000 allocations conserve the budget ({clamped_cases} touched the cap)",
        time.perf_counter() - start, 10.0,
    )


def test_criterion_05_sampling_inclusion_premise():
    start = time.perf_counter()
    result = theory.check_sampling_unbiasedness(
        num_trials=10000, matrix_size=10, seed=5
    )
    report(
        5, result.passed,
        "empirical inclusion within 4 binomial SE per entry "
        f"(worst err {result.details['worst_error']:.4f} vs bound "
        f"{result.details['worst_bound']:.4f})",
        time.perf_counter() - start, 60.0,
    )


def test_criterion_06_expected_homophily_consistency():
    start = time.perf_counter()
    trials = 10**5
    ok = True
    details = []
    for fixture in range(3):
        rng = generator(0xE06, fixture)
        logits = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        labels[0], labels[1] = 0, 1
        prob = sim.build_prob_matrix(logits, labels, np.zeros(6, dtype=bool))
        s = sim.similarity_matrix(prob, zero_diagonal=True)
        k = rng.integers(1, 5, size=6).astype(np.int64)
        alloc = DegreeAllocation(k=k, total=int(k.sum()))
        closed = sim.expected_homophily(s, labels, alloc)
        sampler = GoGSampler(
            s, alloc, SamplerConfig(mode=sp.WITH_REPLACEMENT, seed=fixture)
        )
        values = np.fromiter(
            (sp.edge_homophily(sampler.sample(t), labels) for t in range(trials)),
            dtype=np.float64, count=trials,
        )
        sigma = values.std(ddof=1) / math.sqrt(trials)
        gap = abs(values.mean() - closed)
        ok &= gap <= 3.0 * sigma
        details.append(f"{gap / sigma:.2f} sigma" if sigma > 0 else "exact")
    report(
        6, ok, "Monte-Carlo mean within 3 sigma on 3 fixtures: " + ", ".join(details),
        time.perf_counter() - start, 60.0,
    )


def test_criterion_07_variance_decay():
    start = time.perf_counter()
    sweep = theory.check_variance_decay(
        t_values=(1, 2, 4, 8, 16, 32), replicates=30, seed=0
    )
    ok = sweep.passed(slope_band=(-1.3, -0.7), min_r_squared=0.8)
    report(
        7, ok,
        f"log-log slope {sweep.fitted_slope:.3f} in [-1.3, -0.7], "
        f"R^2 {sweep.r_squared:.3f} >= 0.8",
        time.perf_counter() - start, 600.0,
    )


def _central_difference_check(loss_at, params, analytic, step=1e-5):
    numeric = np.zeros_like(analytic)
    for i in range(params.size):
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        numeric[i] = (loss_at(up) - loss_at(down)) / (2 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


def test_criterion_08_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    graphs = []
    for gid in range(3):
        n = int(rng.integers(3, 6))
        edges = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    edges.add((u, v))
        graphs.append((sorted(edges), rng.normal(size=(n, 3))))
    ds = data.GraphDataset(
        node_features=np.concatenate([feats for _, feats in graphs]),
        node_counts=[len(feats) for _, feats in graphs],
        edges=np.array([e for edges, _ in graphs for e in edges]).reshape(-1, 2),
        edge_counts=[len(edges) for edges, _ in graphs],
        graph_labels=np.arange(3) % 2, num_classes=2,
        feature_scheme=data.DEGREE_ONEHOT,
    )
    labels = ds.labels()
    labeled = np.arange(len(ds))
    worst = {}
    for arch in (enc.ARCH_GCN, enc.ARCH_GIN):
        config = EncoderConfig(arch=arch, num_layers=2, hidden_dim=4)
        state = enc.init_encoder_state(ds, config, seed=8)
        state.params += 0.05 * rng.normal(size=state.params.shape)
        assert state.params.size <= 200
        _, grad, _, _ = enc.supervised_loss_and_grad(
            ds, config, state, labels, labeled, train=False
        )

        def encoder_loss(flat, config=config):
            probe = nn.ModelState(spec=config_spec, params=flat.copy())
            loss, _, _, _ = enc.supervised_loss_and_grad(
                ds, config, probe, labels, labeled, train=False
            )
            return loss

        config_spec = state.spec
        worst[arch] = _central_difference_check(encoder_loss, state.params, grad)

    down_config = dm.GoGClassifierConfig(num_layers=2, hidden_dim=5)
    down_state = dm.init_downstream_state(4, 2, down_config, seed=9)
    down_state.params += 0.05 * rng.normal(size=down_state.params.shape)
    assert down_state.params.size <= 200
    h = rng.normal(size=(6, 4))
    gog = sp.GoGGraph(
        edges=np.array(
            [[0, 1, 1], [1, 2, 2], [2, 3, 1], [3, 4, 1], [4, 5, 2], [5, 0, 1]]
        ),
        num_nodes=6, mode=sp.WITH_REPLACEMENT,
    )
    prop = dm.gog_propagation_matrix(gog)
    glabels = np.array([0, 1, 0, 1, 0, 1])
    glabeled = np.arange(4)
    _, dgrad, _ = dm.downstream_loss_and_grad(
        prop, h, down_state, down_config, glabels, glabeled, train=False
    )

    def downstream_loss(flat):
        probe = nn.ModelState(spec=down_state.spec, params=flat.copy())
        loss, _, _ = dm.downstream_loss_and_grad(
            prop, h, probe, down_config, glabels, glabeled, train=False
        )
        return loss

    worst["downstream"] = _central_difference_check(
        downstream_loss, down_state.params, dgrad
    )
    ok = all(v < 1e-4 for v in worst.values())
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    report(8, ok, "max relative errors " + detail, time.perf_counter() - start, 30.0)


def test_criterion_09_monotonicity():
    start = time.perf_counter()
    result = theory.check_rule_monotonicity(num_trials=1000, seed=9)
    report(
        9, result.passed and result.failures == 0,
        f"curve increasing and label ordering held on "
        f"{result.trials - result.skipped} valid trials "
        f"({result.skipped} skipped)",
        time.perf_counter() - start, 10.0,
    )


def test_criterion_10_imbalance_ratio_fidelity():
    start = time.perf_counter()
    ds = data.make_planted_dataset(num_graphs=200, seed=10, noise=0.5)
    split = data.make_class_imbalanced_split(ds, 9.0, 0.5, 0.25, seed=44)
    rho = data.compute_class_imbalance_ratio(ds, split.train_idx)
    counts = np.bincount(ds.labels()[list(split.train_idx)], minlength=2)
    lo, hi = int(counts.min()), int(counts.max())
    # within one-graph rounding of the requested 9:1
    ok = (hi - 1) / (lo + 1) <= 9.0 <= (hi + 1) / max(lo - 1, 1)
    ok &= rho == hi / lo

    sizes_ds = data.make_path_graph_dataset(list(range(1, 101)))
    rho_size = data.compute_size_imbalance_ratio(sizes_ds)
    ok &= abs(rho_size - 90.5 / 40.5) <= 1e-12
    report(
        10, ok,
        f"rho_class {rho:.4f} (counts {hi}:{lo}), rho_size exact to 1e-12",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_11_planted_signal_end_to_end():
    start = time.perf_counter()
    ds = data.make_planted_dataset(num_graphs=200, seed=7, noise=1.55)
    split = data.make_class_imbalanced_split(ds, 9.0, 0.5, 0.25, seed=202)
    assert data.compute_class_imbalance_ratio(ds, split.train_idx) == 9.0
    encoder_config = EncoderConfig(hidden_dim=16)
    result = dm.train_full_pipeline(
        ds, split,
        AllocConfig(d_bar=8, k_min=3, k_max=100),
        encoder_config,
        SamplerConfig(seed=7, samples_per_epoch=4),
        dm.GoGClassifierConfig(hidden_dim=16),
        epochs=80, seed=303, eval_samples=8,
    )
    baseline = dm.train_encoder_baseline(
        ds, split, encoder_config, epochs=80, seed=303
    )
    got = result.metrics.balanced_accuracy
    ref = baseline.balanced_accuracy
    ok = got >= 0.90 and got > ref
    report(
        11, ok,
        f"pipeline balanced accuracy {got:.4f} >= 0.90 and > encoder-only "
        f"{ref:.4f}",
        time.perf_counter() - start, 120.0,
    )


def _ptcmr_root():
    candidates = []
    env = os.environ.get("SAMGOG_PTC_MR")
    if env:
        candidates.append(env)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates.append(os.path.join(here, "data", "PTC_MR"))
    for root in candidates:
        if os.path.isfile(os.path.join(root, "PTC_MR_A.txt")):
            return root
    return None


def test_criterion_12_ptcmr_soft_target():
    root = _ptcmr_root()
    if root is None:
        pytest.skip(
            "PTC-MR files not present (data/PTC_MR or $SAMGOG_PTC_MR); "
            "soft reproduction target skipped"
        )
    start = time.perf_counter()
    ds = data.parse_tudataset(root, "PTC_MR")
    assert len(ds) == 344 and ds.num_classes == 2
    assert ds.feature_dim == 18  # distinct node labels
    accs = []
    for run in range(5):
        split = data.make_class_imbalanced_split(ds, 1.0, 0.5, 0.25, seed=run)
        result = dm.train_full_pipeline(
            ds, split,
            AllocConfig(d_bar=5, k_min=3, k_max=100),
            EncoderConfig(arch=enc.ARCH_GIN, hidden_dim=32),
            SamplerConfig(seed=run, samples_per_epoch=1),
            dm.GoGClassifierConfig(hidden_dim=64),
            epochs=500, seed=run, eval_samples=4,
        )
        accs.append(result.metrics.accuracy)
    mean_acc = float(np.mean(accs))
    report(
        12, mean_acc >= 0.52,
        f"PTC-MR mean test accuracy {mean_acc:.4f} over 5 seeds",
        time.perf_counter() - start, 600.0,
    )
