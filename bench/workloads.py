"""The benchmark's workloads and the measurement loop that runs them.

Every workload has a set-up (build the inputs through the public API) and a
unit of work that is repeated with identical inputs, so each repeat must
reproduce the first one exactly.  The workload seed only picks the random
streams the GoG sampler draws from; the dataset, split and model
initialisation stay those of the acceptance criterion each workload comes
from, so that criterion's check still applies to every seed.
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from samgog import data, downstream, rng, sampler, similarity
from samgog.degree_alloc import AllocConfig, DegreeAllocation
from samgog.encoder import EncoderConfig

import tracer as tr

# after every unit of work, set-up is timed again at least this often and
# for at least this long, so its median samples the whole run
SETUPS_PER_UNIT = 2
SETUP_SECONDS_PER_UNIT = 0.2
MAX_SETUPS_PER_UNIT = 500
# untraced runs time at least this many units of work; traced runs at
# least one (untraced, traced) pair
MIN_UNITS = 3

# end-to-end metric -> unit, direction
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "balanced_accuracy": ("ratio", "higher"),
    "edge_homophily": ("ratio", "higher"),
}


@dataclass(frozen=True)
class Outcome:
    """What one unit of work produced, and how much of it passed its checks."""

    busy_s: float
    fingerprint: bytes  # exact bytes every repeat must reproduce
    balanced_accuracy: float
    edge_homophily: float
    attempted: int
    failed: int


# ---------------------------------------------------------------------------
# pipeline-small / pipeline-large: one train_full_pipeline call per unit
# ---------------------------------------------------------------------------

# criterion 11's dataset, split and model initialisation
DATASET_SEED = 7
SPLIT = dict(rho_class=9.0, train_fraction=0.5, val_fraction=0.25, seed=202)
MODEL_SEED = 303


@dataclass(frozen=True)
class PipelineWorkload:
    name: str
    num_graphs: int
    noise: float
    epochs: int
    samples_per_epoch: int
    eval_samples: int
    learning_rate: float
    accuracy_floor: float | None

    @property
    def samples_per_unit(self) -> int:
        # per epoch: training draws plus validation draws; then the final eval
        per_epoch = self.samples_per_epoch + self.eval_samples
        return self.epochs * per_epoch + self.eval_samples

    def setup(self, seed: int):
        ds = data.make_planted_dataset(
            num_graphs=self.num_graphs, seed=DATASET_SEED, noise=self.noise
        )
        split = data.make_class_imbalanced_split(ds, **SPLIT)
        return ds, split

    def unit(self, inputs, seed: int, first: bool) -> Outcome:
        ds, split = inputs
        start = perf_counter()
        result = downstream.train_full_pipeline(
            ds, split,
            AllocConfig(d_bar=8, k_min=3, k_max=100),
            EncoderConfig(hidden_dim=16),
            sampler.SamplerConfig(seed=seed, samples_per_epoch=self.samples_per_epoch),
            downstream.GoGClassifierConfig(hidden_dim=16),
            epochs=self.epochs,
            seed=MODEL_SEED,
            encoder_lr=self.learning_rate,
            downstream_lr=self.learning_rate,
            eval_samples=self.eval_samples,
        )
        busy = perf_counter() - start
        m = result.metrics
        curve = np.array(
            [
                (c.encoder_loss, c.downstream_loss, c.val_balanced_accuracy,
                 c.mean_edge_homophily)
                for c in result.curve
            ],
            dtype=np.float64,
        )
        ok = (
            len(result.curve) == self.epochs
            and bool(np.all(np.isfinite(curve[:, :2])))
            and math.isfinite(m.balanced_accuracy)
            and (self.accuracy_floor is None or m.balanced_accuracy >= self.accuracy_floor)
        )
        quality = np.array([m.balanced_accuracy, m.edge_homophily_mean])
        return Outcome(
            busy_s=busy,
            fingerprint=quality.tobytes() + curve.tobytes(),
            balanced_accuracy=m.balanced_accuracy,
            edge_homophily=m.edge_homophily_mean,
            attempted=1,
            failed=0 if ok else 1,
        )


# ---------------------------------------------------------------------------
# sampler-tiny: many sample() + edge_homophily() calls on criterion 6's
# fixtures
# ---------------------------------------------------------------------------


@dataclass
class Fixture:
    labels: np.ndarray
    sim: similarity.SimilarityMatrix
    allocation: DegreeAllocation
    gog_sampler: sampler.GoGSampler


@dataclass(frozen=True)
class SamplerWorkload:
    name: str
    num_fixtures: int
    draws_per_fixture: int

    @property
    def samples_per_unit(self) -> int:
        return self.num_fixtures * self.draws_per_fixture

    def setup(self, seed: int) -> list[Fixture]:
        fixtures = []
        for f in range(self.num_fixtures):
            g = rng.generator(0xE06, f)
            logits = g.normal(size=(6, 2))
            labels = g.integers(0, 2, size=6)
            labels[0], labels[1] = 0, 1
            prob = similarity.build_prob_matrix(logits, labels, np.zeros(6, dtype=bool))
            sim = similarity.similarity_matrix(prob, zero_diagonal=True)
            k = g.integers(1, 5, size=6).astype(np.int64)
            alloc = DegreeAllocation(k=k, total=int(k.sum()))
            config = sampler.SamplerConfig(
                mode=sampler.WITH_REPLACEMENT, seed=rng.mix(seed, f)
            )
            fixtures.append(Fixture(labels, sim, alloc, sampler.GoGSampler(sim, alloc, config)))
        return fixtures

    def unit(self, fixtures: list[Fixture], seed: int, first: bool) -> Outcome:
        t_count = self.draws_per_fixture
        values = np.empty((len(fixtures), t_count), dtype=np.float64)
        # neighbour-majority vote: per class, the summed score of nodes whose
        # sampled neighbours mostly share their label (ties score one half)
        vote_score = np.zeros(2)
        vote_count = np.zeros(2)
        busy = 0.0
        for f, fx in enumerate(fixtures):
            draw = fx.gog_sampler.sample
            labels = fx.labels
            for t in range(t_count):
                start = perf_counter()
                gog = draw(t)
                h = sampler.edge_homophily(gog, labels)
                busy += perf_counter() - start
                values[f, t] = h
                if first:
                    src, dst, mult = gog.edges.T
                    same = (labels[src] == labels[dst]) * mult
                    n = labels.size
                    share = np.bincount(src, same, n) / np.bincount(src, mult, n)
                    score = (share > 0.5) + 0.5 * (share == 0.5)
                    vote_score += np.bincount(labels, score, 2)
                    vote_count += np.bincount(labels, minlength=2)
        ok = bool(np.all((values >= 0.0) & (values <= 1.0)))
        # criterion 6: the Monte-Carlo mean lies within 3 sigma of the
        # closed-form expectation on every fixture
        for f, fx in enumerate(fixtures):
            closed = similarity.expected_homophily(fx.sim, fx.labels, fx.allocation)
            sigma = values[f].std(ddof=1) / math.sqrt(t_count)
            ok &= bool(abs(values[f].mean() - closed) <= 3.0 * sigma)
        calls = values.size
        return Outcome(
            busy_s=busy,
            fingerprint=values.tobytes(),
            balanced_accuracy=float((vote_score / vote_count).mean()) if first else math.nan,
            edge_homophily=float(values.mean()),
            attempted=calls,
            failed=0 if ok else calls,
        )


WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            "pipeline-small", num_graphs=200, noise=1.55, epochs=80,
            samples_per_epoch=4, eval_samples=8, learning_rate=0.01,
            accuracy_floor=0.90,
        ),
        PipelineWorkload(
            "pipeline-large", num_graphs=2000, noise=0.5, epochs=8,
            samples_per_epoch=2, eval_samples=2, learning_rate=0.05,
            accuracy_floor=None,
        ),
        SamplerWorkload("sampler-tiny", num_fixtures=3, draws_per_fixture=10_000),
    )
}


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------


def _timed_setup(workload, seed: int, times: list[float]):
    start = perf_counter()
    inputs = workload.setup(seed)
    times.append(perf_counter() - start)
    return inputs


def _more_setups(workload, seed: int, times: list[float]) -> None:
    begin = len(times)
    while len(times) - begin < SETUPS_PER_UNIT or (
        sum(times[begin:]) < SETUP_SECONDS_PER_UNIT
        and len(times) - begin < MAX_SETUPS_PER_UNIT
    ):
        _timed_setup(workload, seed, times)


def _repeat(step, start: float, seconds: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then again while the next
    call is expected to end within ``seconds`` of ``start``."""
    count, last = 0, 0.0
    while count < minimum or perf_counter() - start + last <= seconds:
        began = perf_counter()
        step()
        last = perf_counter() - began
        count += 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail record)."""
    start = perf_counter()
    setup_times: list[float] = []
    inputs = _timed_setup(workload, seed, setup_times)
    outcomes: list[Outcome] = []
    detail = {"setup_s": setup_times}

    def untraced():
        outcomes.append(workload.unit(inputs, seed, first=not outcomes))

    if not trace:
        peak_rss = []

        def step():
            untraced()
            if not peak_rss:
                # ru_maxrss only grows: read it before repeated set-ups and
                # units leave a fragmented heap behind
                peak_rss.append(_peak_rss_mb())
            _more_setups(workload, seed, setup_times)

        _repeat(step, start, seconds, MIN_UNITS)
        train_s = statistics.median(o.busy_s for o in outcomes)
        first = outcomes[0]
        values = {
            "setup_s": statistics.median(setup_times),
            "train_s": train_s,
            "samples_per_s": workload.samples_per_unit / train_s,
            "peak_rss_mb": peak_rss[0],
            "balanced_accuracy": first.balanced_accuracy,
            "edge_homophily": first.edge_homophily,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    else:
        tracer = tr.Tracer()
        with tr.installed(tracer):
            traced_inputs = workload.setup(seed)
        setup_end = len(tracer.spans)
        unit_ranges = []

        def pair():
            untraced()
            begin = len(tracer.spans)
            with tr.installed(tracer):
                outcomes.append(workload.unit(traced_inputs, seed, first=False))
            unit_ranges.append((begin, len(tracer.spans)))

        _repeat(pair, start, seconds, 1)
        plain_s = [o.busy_s for o in outcomes[0::2]]
        traced_s = [o.busy_s for o in outcomes[1::2]]
        overhead = statistics.median(traced_s) - statistics.median(plain_s)
        metrics = tr.layer_metrics(
            tracer.layer_totals(0, setup_end),
            [tracer.layer_totals(*r) for r in unit_ranges],
            overhead,
        )
        detail.update(
            untraced_unit_s=plain_s, traced_unit_s=traced_s,
            wrappers_fired=sorted(tracer.fired), trace=tracer.to_json(),
        )

    # every repeat, traced or not, must reproduce the first unit exactly
    reference = outcomes[0].fingerprint
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(
        o.attempted if o.fingerprint != reference else o.failed for o in outcomes
    )
    detail["unit_s"] = [o.busy_s for o in outcomes]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail
