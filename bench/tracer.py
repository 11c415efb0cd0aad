"""Layer spans for the traced benchmark run.

Timing wrappers are installed on the module attributes the pipeline looks
up at call time (``samgog.downstream.gog_propagation_matrix``,
``samgog.sampler.key_uniforms``, ...), so no library source changes.  Each
wrapped call records one span: name, start, end, parent span and the counts
measured at that boundary.  Spans stay in memory; the caller writes them out
when the run ends.

A layer's self time is its span minus its child spans.  The root span of a
pipeline unit is ``train_full_pipeline`` itself, so its self time is the
pipeline's own glue: ``train_s`` minus every layer span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter

# the pipeline draws validation and final-evaluation GoGs from stream ids
# at or above 2**40 and training GoGs below it
EVAL_STREAM_BASE = 1 << 40

# (module looked up in, attribute, span name, counter)
# A counter maps (args, result) to the counts recorded on the span.
WRAPPED = (
    ("samgog.data", "make_planted_dataset", "data.dataset", None),
    ("samgog.data", "make_class_imbalanced_split", "data.split", None),
    ("samgog.downstream", "train_full_pipeline", "downstream.pipeline", None),
    ("samgog.downstream", "allocate_degrees", "degree_alloc.allocate", None),
    ("samgog.downstream", "build_operators", "encoder.operators", None),
    ("samgog.downstream", "encoder_loss_and_grad", "encoder.step",
     lambda args, out: {"encoder.graphs": len(args[0])}),
    ("samgog.downstream", "encode_dataset", "encoder.encode",
     lambda args, out: {"encoder.graphs": len(args[0])}),
    ("samgog.downstream", "build_prob_matrix", "similarity.prob", None),
    ("samgog.similarity", "build_prob_matrix", "similarity.prob", None),
    ("samgog.downstream", "similarity_matrix", "similarity.matrix",
     lambda args, out: {"similarity.matrix_bytes": out.S.nbytes}),
    ("samgog.similarity", "similarity_matrix", "similarity.matrix",
     lambda args, out: {"similarity.matrix_bytes": out.S.nbytes}),
    ("samgog.sampler", "key_uniforms", "rng.key_uniforms",
     lambda args, out: {"rng.uniforms": out.size}),
    ("samgog.downstream", "gog_propagation_matrix", "downstream.propagation",
     lambda args, out: {"downstream.propagation_bytes": out.nbytes}),
    ("samgog.downstream", "downstream_loss_and_grad", "downstream.step", None),
    ("samgog.downstream", "downstream_forward", "downstream.eval_forward", None),
    ("samgog.downstream", "optimizer_step", "nn.optimizer_step", None),
    ("samgog.downstream", "edge_homophily", "sampler.edge_homophily", None),
    ("samgog.sampler", "edge_homophily", "sampler.edge_homophily", None),
)
# GoGSampler is replaced by a subclass whose construction is the
# ``sampler.prepare`` span and whose ``sample`` is a draw span.
WRAPPED_SAMPLER = (("samgog.downstream", "GoGSampler"), ("samgog.sampler", "GoGSampler"))

# per-layer metric -> unit, direction; spans report self time in seconds
PER_LAYER = {
    "sampler.train_draw_s": ("s", "lower"),
    "sampler.eval_draw_s": ("s", "lower"),
    "sampler.draw_s": ("s", "lower"),
    "sampler.prepare_s": ("s", "lower"),
    "sampler.edge_homophily_s": ("s", "lower"),
    "sampler.samples": ("count", "lower"),
    "sampler.edges": ("count", "higher"),
    "sampler.degree_fill": ("ratio", "higher"),
    "rng.key_uniforms_s": ("s", "lower"),
    "rng.uniforms": ("count", "lower"),
    "similarity.prob_s": ("s", "lower"),
    "similarity.matrix_s": ("s", "lower"),
    "similarity.matrix_bytes": ("bytes", "lower"),
    "downstream.propagation_s": ("s", "lower"),
    "downstream.propagation_bytes": ("bytes", "lower"),
    "downstream.step_s": ("s", "lower"),
    "downstream.eval_forward_s": ("s", "lower"),
    "downstream.self_s": ("s", "lower"),
    "encoder.step_s": ("s", "lower"),
    "encoder.encode_s": ("s", "lower"),
    "encoder.graphs": ("count", "lower"),
    "encoder.operators_s": ("s", "lower"),
    "degree_alloc.allocate_s": ("s", "lower"),
    "data.dataset_s": ("s", "lower"),
    "data.split_s": ("s", "lower"),
    "nn.optimizer_step_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# span name -> self-time metric; both draw kinds also add to sampler.draw_s
_SELF_TIME = {
    "data.dataset": "data.dataset_s",
    "data.split": "data.split_s",
    "downstream.pipeline": "downstream.self_s",
    "degree_alloc.allocate": "degree_alloc.allocate_s",
    "encoder.operators": "encoder.operators_s",
    "encoder.step": "encoder.step_s",
    "encoder.encode": "encoder.encode_s",
    "similarity.prob": "similarity.prob_s",
    "similarity.matrix": "similarity.matrix_s",
    "sampler.prepare": "sampler.prepare_s",
    "sampler.train_draw": "sampler.train_draw_s",
    "sampler.eval_draw": "sampler.eval_draw_s",
    "sampler.edge_homophily": "sampler.edge_homophily_s",
    "rng.key_uniforms": "rng.key_uniforms_s",
    "downstream.propagation": "downstream.propagation_s",
    "downstream.step": "downstream.step_s",
    "downstream.eval_forward": "downstream.eval_forward_s",
    "nn.optimizer_step": "nn.optimizer_step_s",
}
_COUNTS = (
    "sampler.samples", "sampler.edges", "sampler.budget", "rng.uniforms",
    "similarity.matrix_bytes", "downstream.propagation_bytes", "encoder.graphs",
)


class Tracer:
    """In-memory span log: each span is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.fired: set[str] = set()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_totals(self, begin: int, end: int) -> dict[str, float]:
        """Per-layer self times and counts summed over spans[begin:end]."""
        self_s = self.self_times()
        totals = dict.fromkeys([*_SELF_TIME.values(), *_COUNTS], 0.0)
        for i in range(begin, end):
            name, _, _, _, counts = self.spans[i]
            totals[_SELF_TIME[name]] += self_s[i]
            if counts:
                for key, value in counts.items():
                    totals[key] += value
        return totals

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent", "counts"],
            "spans": [
                [index[n], start, end, parent, counts]
                for n, start, end, parent, counts in self.spans
            ],
        }


def layer_metrics(setup: dict, units: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics of one set-up plus the mean traced unit of work."""
    k = len(units)
    out = {
        key: setup[key] + sum(u[key] for u in units) / k for key in setup
    }
    out["sampler.draw_s"] = out["sampler.train_draw_s"] + out["sampler.eval_draw_s"]
    budget = out.pop("sampler.budget")
    out["sampler.degree_fill"] = out["sampler.edges"] / budget
    out["trace.overhead_s"] = overhead_s
    return {name: {"value": out[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def _wrap(tracer: Tracer, key: str, fn, name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.fired.add(key)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            tracer.spans[idx][4] = counter(args, out)
        return out

    return wrapper


def _traced_sampler_class(tracer: Tracer, base: type, key: str) -> type:
    class TracedGoGSampler(base):
        def __init__(self, sim, allocation, config):
            tracer.fired.add(key)
            idx = tracer.open("sampler.prepare")
            try:
                super().__init__(sim, allocation, config)
            finally:
                tracer.close(idx)
            self._bench_budget = int(allocation.k.sum())

        def sample(self, stream_id):
            tracer.fired.add(f"{key}.sample")
            eval_draw = stream_id >= EVAL_STREAM_BASE
            idx = tracer.open("sampler.eval_draw" if eval_draw else "sampler.train_draw")
            try:
                gog = super().sample(stream_id)
            finally:
                tracer.close(idx)
            tracer.spans[idx][4] = {
                "sampler.samples": 1,
                "sampler.edges": int(gog.edges[:, 2].sum()) if gog.edges.size else 0,
                "sampler.budget": self._bench_budget,
            }
            return gog

    return TracedGoGSampler


def wrapper_keys() -> set[str]:
    """Every wrapper the tracer installs; each must fire on some workload."""
    keys = {f"{mod}.{attr}" for mod, attr, _, _ in WRAPPED}
    for mod, attr in WRAPPED_SAMPLER:
        keys |= {f"{mod}.{attr}", f"{mod}.{attr}.sample"}
    return keys


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore the
    original attributes."""
    saved = []
    try:
        for mod_name, attr, name, counter in WRAPPED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, f"{mod_name}.{attr}", fn, name, counter))
        for mod_name, attr in WRAPPED_SAMPLER:
            mod = importlib.import_module(mod_name)
            base = getattr(mod, attr)
            saved.append((mod, attr, base))
            setattr(mod, attr, _traced_sampler_class(tracer, base, f"{mod_name}.{attr}"))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
