"""Executable checks of the framework's formal claims: greedy degree
allocation is optimal, with-replacement sampling hits its target inclusion
probabilities, sampled-structure training variance decays like 1/t, and the
homophily-probability curve is monotone in a node's own-class confidence.

Each check is deterministic given its seed and returns a report that can be
rendered as JSON or one pass/fail line.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .degree_alloc import (
    AllocConfig,
    DegreeAllocation,
    allocation_objective,
    greedy_allocation,
    oracle_optimal_allocation,
    target_total_degree,
)
from .downstream import (
    GoGClassifierConfig,
    downstream_forward,
    downstream_loss_and_grad,
    gog_propagation_matrix,
    init_downstream_state,
)
from .nn import SymmetricOperator, TrainingError
from .rng import generator, mix
from .sampler import (
    GoGSampler,
    SamplerConfig,
    WITH_REPLACEMENT,
    empirical_inclusion_matrix,
)
from .similarity import FactorSimilarity, SimilarityMatrix, homophily_prob_all
from .similarity import expected_inclusion_matrix


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    trials: int
    failures: int
    skipped: int = 0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: {self.failures} failures / "
            f"{self.trials} trials ({self.skipped} skipped)"
        )


@dataclass(frozen=True)
class VarianceSweepResult:
    t_values: tuple[int, ...]
    variance_estimates: tuple[float, ...]
    fitted_slope: float
    r_squared: float
    inconclusive: bool = False

    def __post_init__(self):
        if list(self.t_values) != sorted(set(self.t_values)):
            raise ValueError("t_values must be strictly increasing")

    def passed(self, slope_band=(-1.3, -0.7), min_r_squared=0.8) -> bool:
        if self.inconclusive:
            return False
        return (
            slope_band[0] <= self.fitted_slope <= slope_band[1]
            and self.r_squared >= min_r_squared
        )

    def to_dict(self) -> dict:
        return {
            "name": "variance_decay",
            "t_values": list(self.t_values),
            "variance_estimates": list(self.variance_estimates),
            "fitted_slope": self.fitted_slope,
            "r_squared": self.r_squared,
            "inconclusive": self.inconclusive,
            "passed": self.passed(),
        }

    def summary_line(self) -> str:
        if self.inconclusive:
            return "INCONCLUSIVE variance_decay: degenerate variance estimates"
        status = "PASS" if self.passed() else "FAIL"
        return (
            f"{status} variance_decay: slope {self.fitted_slope:.3f}, "
            f"R^2 {self.r_squared:.3f}"
        )


# ---------------------------------------------------------------------------
# Degree-ordering optimality
# ---------------------------------------------------------------------------


def _random_feasible_allocation(rng, n, config) -> np.ndarray:
    total = target_total_degree(n, config.d_bar)
    k = np.full(n, config.k_min, dtype=np.int64)
    remaining = total - n * config.k_min
    while remaining > 0:
        open_nodes = np.nonzero(k < config.k_max)[0]
        i = int(rng.choice(open_nodes))
        k[i] += 1
        remaining -= 1
    return k


def check_degree_ordering(num_trials: int = 500, n_max: int = 6, seed: int = 0) -> CheckReport:
    """Greedy fill-by-probability must match the brute-force optimum, and
    swapping degrees into probability order must never lower the objective."""
    if n_max > 8:
        raise ValueError("brute-force check limited to n_max <= 8")
    failures = 0
    worst = None
    for trial in range(num_trials):
        rng = generator(seed, 0x1E1, trial)
        n = int(rng.integers(2, n_max + 1))
        prob = rng.random(n)
        k_min = int(rng.integers(0, 3))
        k_max = k_min + int(rng.integers(1, 5))
        d_bar = float(rng.uniform(k_min, k_max))
        config = AllocConfig(d_bar=d_bar, k_min=k_min, k_max=k_max)

        greedy = greedy_allocation(prob, config)
        brute = oracle_optimal_allocation(prob, config)
        g_obj = allocation_objective(greedy.k, prob)
        b_obj = allocation_objective(brute.k, prob)
        ok = abs(g_obj - b_obj) <= 1e-9

        k = _random_feasible_allocation(rng, n, config)
        base_obj = allocation_objective(k, prob)
        for i in range(n):
            for j in range(n):
                if prob[i] > prob[j] and k[i] < k[j]:
                    swapped = k.copy()
                    swapped[i], swapped[j] = k[j], k[i]
                    if allocation_objective(swapped, prob) < base_obj - 1e-12:
                        ok = False
        if not ok:
            failures += 1
            if worst is None:
                worst = {"trial": trial, "greedy": g_obj, "brute": b_obj}
    return CheckReport(
        name="degree_ordering_optimality",
        passed=failures == 0,
        trials=num_trials,
        failures=failures,
        details={"worst": worst} if worst else {},
    )


# ---------------------------------------------------------------------------
# Sampling unbiasedness
# ---------------------------------------------------------------------------


def check_sampling_unbiasedness(
    num_trials: int = 10000, matrix_size: int = 10, seed: int = 0
) -> CheckReport:
    """Empirical with-replacement edge counts vs k_i S[i,j] / sum_m S[i,m],
    per entry within four binomial standard errors."""
    rng = generator(seed, 0x7E0)
    s = rng.random((matrix_size, matrix_size))
    s = 0.5 * (s + s.T)
    np.fill_diagonal(s, 0.0)
    sim = SimilarityMatrix(S=s, diagonal_zeroed=True)
    k = rng.integers(1, 5, size=matrix_size).astype(np.int64)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    config = SamplerConfig(mode=WITH_REPLACEMENT, seed=mix(seed, 0x7E1))

    emp = empirical_inclusion_matrix(sim, alloc, config, num_trials)
    expected = expected_inclusion_matrix(sim, alloc)
    p = sim.S / sim.S.sum(axis=1, keepdims=True)
    bound = 4.0 * np.sqrt(p * (1.0 - p) * k[:, None] / num_trials)
    err = np.abs(emp - expected)
    bad = err > bound + 1e-12
    failures = int(bad.sum())
    # report the tightest entry among those with sampling randomness
    ratio = np.where(bound > 0, err / np.maximum(bound, 1e-300), 0.0)
    worst_idx = np.unravel_index(np.argmax(ratio), err.shape)
    return CheckReport(
        name="sampling_unbiasedness",
        passed=failures == 0,
        trials=num_trials,
        failures=failures,
        details={
            "matrix_size": matrix_size,
            "worst_entry": [int(worst_idx[0]), int(worst_idx[1])],
            "worst_error": float(err[worst_idx]),
            "worst_bound": float(bound[worst_idx]),
        },
    )


# ---------------------------------------------------------------------------
# Variance decay with sample count
# ---------------------------------------------------------------------------


def fit_log_log_slope(t_values, variances) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(variance) against log(t)."""
    x = np.log(np.asarray(t_values, dtype=np.float64))
    y = np.log(np.asarray(variances, dtype=np.float64))
    x_c = x - x.mean()
    y_c = y - y.mean()
    slope = float((x_c * y_c).sum() / (x_c * x_c).sum())
    resid = y_c - slope * x_c
    ss_tot = float((y_c * y_c).sum())
    r2 = 1.0 - float((resid * resid).sum()) / ss_tot if ss_tot > 0 else 0.0
    return slope, r2


def _variance_task(seed: int):
    """Fixed similarity matrix, allocation, and node features for the
    variance sweep: a noisy two-class layout of 24 nodes where training never
    saturates."""
    n = 24
    rng = generator(seed, 0xFA5)
    labels = np.arange(n) % 2
    own = rng.uniform(0.6, 0.9, size=n)
    p = np.zeros((n, 2))
    p[np.arange(n), labels] = own
    p[np.arange(n), 1 - labels] = 1.0 - own
    sim = FactorSimilarity(P=p, diagonal_zeroed=True)
    k = np.full(n, 4, dtype=np.int64)
    alloc = DegreeAllocation(k=k, total=int(k.sum()))
    h = rng.normal(size=(n, 6)) + 0.8 * p @ np.array([[1.0] * 3 + [0.0] * 3,
                                                      [0.0] * 3 + [1.0] * 3])
    masked = labels.astype(np.int64)
    labeled_idx = np.arange(n)
    return sim, alloc, h, masked, labeled_idx


def check_variance_decay(
    t_values=(1, 2, 4, 8, 16, 32),
    replicates: int = 30,
    seed: int = 0,
    epochs: int = 30,
) -> VarianceSweepResult:
    """Train the downstream model with t sampled structures per step under a
    diminishing learning rate; the replicate variance of the final full-graph
    embeddings should scale like 1/t."""
    if (len(t_values) < 2 or min(t_values) < 1
            or list(t_values) != sorted(set(t_values))):
        raise ValueError(
            "t_values needs at least two strictly increasing values, each >= 1; "
            f"got {tuple(t_values)}"
        )
    if replicates < 2:
        raise ValueError("variance estimation needs at least 2 replicates")
    sim, alloc, h, labels, labeled_idx = _variance_task(seed)
    config = GoGClassifierConfig(num_layers=2, hidden_dim=8)
    # the complete similarity-weighted graph the sampled structures approximate
    iu, ju = np.triu_indices(sim.num_nodes, 1)
    full_prop = SymmetricOperator(sim.num_nodes, iu, ju, sim.S[iu, ju], normalize=True)

    variances = []
    for t in t_values:
        finals = []
        for rep in range(replicates):
            sampler = GoGSampler(
                sim, alloc,
                SamplerConfig(mode=WITH_REPLACEMENT, seed=mix(seed, t, rep)),
            )
            # the same init across replicates
            state = init_downstream_state(h.shape[1], 2, config, seed)
            for epoch in range(1, epochs + 1):
                grad_sum = None
                for j in range(t):
                    gog = sampler.sample(epoch * t + j)
                    prop = gog_propagation_matrix(gog)
                    _, grad, _ = downstream_loss_and_grad(
                        prop, h, state, config, labels, labeled_idx, train=False
                    )
                    grad_sum = grad if grad_sum is None else grad_sum + grad
                grad = grad_sum / t
                if not np.all(np.isfinite(grad)):
                    raise TrainingError("non-finite gradient; halting")
                state.params -= (0.3 / epoch) * grad  # SGD at eta_s = 0.3 / s
            final = downstream_forward(full_prop, h, state, config)
            finals.append(final.ravel())
        stacked = np.vstack(finals)
        variances.append(float(stacked.var(axis=0, ddof=1).mean()))

    if any(not math.isfinite(v) or v <= 0.0 for v in variances):
        return VarianceSweepResult(
            t_values=tuple(int(t) for t in t_values),
            variance_estimates=tuple(variances),
            fitted_slope=float("nan"),
            r_squared=float("nan"),
            inconclusive=True,
        )
    slope, r2 = fit_log_log_slope(t_values, variances)
    return VarianceSweepResult(
        t_values=tuple(int(t) for t in t_values),
        variance_estimates=tuple(variances),
        fitted_slope=slope,
        r_squared=r2,
    )


# ---------------------------------------------------------------------------
# Monotonicity of the homophily-probability curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassConfidenceMass:
    """Population sums of predicted class probability split by true class:
    ``true0_pred0`` is the total predicted class-0 probability over nodes
    whose true class is 0, and so on."""

    true0_pred0: float
    true0_pred1: float
    true1_pred0: float
    true1_pred1: float

    def valid(self) -> bool:
        """Dominance: each class's own-class mass exceeds its cross mass."""
        return (
            0.0 < self.true0_pred1 < self.true0_pred0
            and 0.0 < self.true1_pred0 < self.true1_pred1
        )


def homophily_prob_curve(x: float, mass: ClassConfidenceMass) -> float:
    """Expected homophily probability of a true-class-0 node whose own
    predicted class-0 probability is x, against the fixed population mass."""
    numer = mass.true0_pred0 * x + mass.true0_pred1 * (1.0 - x)
    denom = (mass.true0_pred0 + mass.true1_pred0) * x + (
        mass.true0_pred1 + mass.true1_pred1
    ) * (1.0 - x)
    return numer / denom


def population_mass(p: np.ndarray, labels: np.ndarray) -> ClassConfidenceMass:
    labels = np.asarray(labels)
    return ClassConfidenceMass(
        true0_pred0=float(p[labels == 0, 0].sum()),
        true0_pred1=float(p[labels == 0, 1].sum()),
        true1_pred0=float(p[labels == 1, 0].sum()),
        true1_pred1=float(p[labels == 1, 1].sum()),
    )


def check_rule_monotonicity(num_trials: int = 1000, seed: int = 0) -> CheckReport:
    """(a) the curve is strictly increasing on a 100-point grid for random
    valid mass constants; (b) on random probability matrices satisfying the
    dominance constraints, a labeled node's homophily probability strictly
    exceeds a matched unlabeled node's."""
    failures = 0
    skipped = 0
    grid = np.linspace(0.005, 0.995, 100)
    for trial in range(num_trials):
        rng = generator(seed, 0x3070, trial)
        # (a) curve monotonicity for a valid random mass draw
        cross0 = rng.uniform(0.05, 1.0)
        cross1 = rng.uniform(0.05, 1.0)
        mass = ClassConfidenceMass(
            true0_pred0=cross0 + rng.uniform(0.05, 2.0),
            true0_pred1=cross0,
            true1_pred0=cross1,
            true1_pred1=cross1 + rng.uniform(0.05, 2.0),
        )
        values = np.array([homophily_prob_curve(x, mass) for x in grid])
        if not np.all(np.diff(values) > 0.0):
            failures += 1
            continue

        # (b) labeled-vs-unlabeled ordering on a concrete probability matrix
        n = int(rng.integers(4, 16))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 0  # the matched pair shares true class 0
        labels[2] = 1  # both classes present
        own = rng.uniform(0.5, 0.99, size=n)
        p = np.zeros((n, 2))
        p[np.arange(n), labels] = own
        p[np.arange(n), 1 - labels] = 1.0 - own
        p[0] = [1.0, 0.0]  # labeled node: exact one-hot
        p[1, 0] = rng.uniform(0.05, 0.95)  # unlabeled node: soft confidence
        p[1, 1] = 1.0 - p[1, 0]

        if not population_mass(p, labels).valid():
            skipped += 1
            continue
        # self-similarity kept: the comparison context
        sim = FactorSimilarity(P=p, diagonal_zeroed=False)
        prob_labeled, prob_unlabeled = homophily_prob_all(sim, labels)[:2]
        if not prob_labeled > prob_unlabeled:
            failures += 1
    return CheckReport(
        name="homophily_curve_monotonicity",
        passed=failures == 0,
        trials=num_trials,
        failures=failures,
        skipped=skipped,
        details={"grid_points": len(grid)},
    )


def run_all_checks(
    seed: int = 0,
    ordering_trials: int = 500,
    unbiasedness_trials: int = 10000,
    monotonicity_trials: int = 1000,
    t_values=(1, 2, 4, 8, 16, 32),
    replicates: int = 30,
) -> dict:
    """Run every check; returns a JSON-ready report dictionary.  The sweep
    runs first, so bad ``t_values`` fail before any other check runs."""
    sweep = check_variance_decay(
        t_values=t_values, replicates=replicates, seed=seed
    )
    reports = [
        check_degree_ordering(num_trials=ordering_trials, seed=seed),
        check_sampling_unbiasedness(num_trials=unbiasedness_trials, seed=seed),
        check_rule_monotonicity(num_trials=monotonicity_trials, seed=seed),
    ]
    all_passed = all(r.passed for r in reports) and sweep.passed()
    return {
        "seed": seed,
        "all_passed": all_passed,
        "checks": [r.to_dict() for r in reports] + [sweep.to_dict()],
        "lines": [r.summary_line() for r in reports] + [sweep.summary_line()],
    }
