"""Command-line experiment harness.

Subcommands: ``train`` (seeded repetitions of the full pipeline with CSV and
JSON metric emission), ``sweep-homophily`` (edge homophily as a function of
the target average degree), ``theory`` (the formal-claim checks), and the
``make-split`` / ``inspect-dataset`` utilities.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from . import theory
from .config import ConfigError, ExperimentConfig, load_config
from .data import (
    GraphDataset,
    ParseError,
    SplitSpec,
    compute_size_imbalance_ratio,
    make_class_imbalanced_split,
    make_planted_dataset,
    parse_tudataset,
    read_split,
    write_split,
)
from .degree_alloc import allocate_degrees, dump_allocation
from .downstream import CurvePoint, MetricsReport, PipelineResult, train_full_pipeline
from .encoder import encode_dataset, init_encoder_state
from .rng import mix
from .sampler import WITH_REPLACEMENT, GoGSampler, SamplerConfig, dump_gog, edge_homophily
from .similarity import (
    SimilarityMatrix,
    build_prob_matrix,
    expected_homophily,
    similarity_matrix,
)

METRIC_COLUMNS = (
    "run",
    "seed",
    *(f.name for f in fields(MetricsReport) if f.name != "per_class_accuracy"),
)
CURVE_COLUMNS = tuple(f.name for f in fields(CurvePoint))


def _csv_row(values) -> str:
    """One CSV line; floats at full round-trip precision."""
    cells = (f"{x:.17g}" if isinstance(x, float) else str(x) for x in values)
    return ",".join(cells) + "\n"


def load_dataset(config: ExperimentConfig) -> GraphDataset:
    v = config.values
    if v["dataset.kind"] == "planted":
        return make_planted_dataset(
            num_graphs=v["dataset.num_graphs"],
            seed=v["split.seed"],
            feature_dim=v["dataset.feature_dim"],
            min_nodes=v["dataset.min_nodes"],
            max_nodes=v["dataset.max_nodes"],
            signal=v["dataset.signal"],
            noise=v["dataset.noise"],
            edge_prob=v["dataset.edge_prob"],
        )
    scheme = None if v["dataset.feature_scheme"] == "auto" else v["dataset.feature_scheme"]
    dataset = parse_tudataset(
        v["dataset.path"], v["dataset.name"],
        feature_scheme=scheme, degree_cap=v["dataset.degree_cap"],
    )
    return dataset


def resolve_split(config: ExperimentConfig, dataset: GraphDataset) -> SplitSpec:
    v = config.values
    if v["split.file"]:
        split = read_split(v["split.file"])
        split.validate(dataset)
        return split
    return make_class_imbalanced_split(
        dataset,
        rho_class=v["split.rho_class"],
        train_fraction=v["split.train_fraction"],
        val_fraction=v["split.val_fraction"],
        seed=v["split.seed"],
    )


def _run_one(config: ExperimentConfig, dataset, split, run_index: int) -> PipelineResult:
    run_seed = mix(config.seed, run_index)
    eval_samples = config.values["eval_samples"] or None
    return train_full_pipeline(
        dataset,
        split,
        config.alloc_config(),
        config.encoder_config(),
        config.sampler_config(seed=mix(run_seed, 0x5EED)),
        config.downstream_config(),
        epochs=config.epochs,
        seed=run_seed,
        encoder_lr=config.values["encoder.lr"],
        downstream_lr=config.values["downstream.lr"],
        eval_samples=eval_samples,
    )


def run_experiment(
    config: ExperimentConfig,
    out_dir: str,
    dump_allocation_file: bool = False,
    dump_gogs: bool = False,
) -> int:
    """Execute the configured repetitions; writes metrics.csv, metrics.json
    and one training-curve CSV per run.  Returns a process exit status."""
    os.makedirs(out_dir, exist_ok=True)
    dataset = load_dataset(config)
    split = resolve_split(config, dataset)

    if dump_allocation_file:
        allocation = allocate_degrees(split, dataset, config.alloc_config())
        dump_allocation(allocation, os.path.join(out_dir, "allocation.txt"))

    results = [_run_one(config, dataset, split, r) for r in range(config.runs)]

    rows = [
        [r, mix(config.seed, r),
         *(getattr(res.metrics, column) for column in METRIC_COLUMNS[2:])]
        for r, res in enumerate(results)
    ]

    metrics_csv = os.path.join(out_dir, "metrics.csv")
    with open(metrics_csv, "w") as f:
        f.write(_csv_row(METRIC_COLUMNS))
        for row in rows:
            f.write(_csv_row(row))
        values = np.array([row[2:] for row in rows], dtype=np.float64)
        mean = values.mean(axis=0)
        std = values.std(axis=0)  # population stddev: rerunable from the rows
        f.write(_csv_row(["mean", "", *mean.tolist()]))
        f.write(_csv_row(["std", "", *std.tolist()]))

    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(
            {
                "runs": [
                    dict(zip(METRIC_COLUMNS, row), **{"run": int(row[0])})
                    for row in rows
                ],
                "mean": dict(zip(METRIC_COLUMNS[2:], mean.tolist())),
                "std": dict(zip(METRIC_COLUMNS[2:], std.tolist())),
            },
            f,
            indent=2,
        )

    for r, res in enumerate(results):
        with open(os.path.join(out_dir, f"curve_run{r}.csv"), "w") as f:
            f.write(_csv_row(CURVE_COLUMNS))
            for point in res.curve:
                f.write(_csv_row(astuple(point)))

    if dump_gogs and results:
        for j, gog in enumerate(results[0].final_gogs):
            dump_gog(gog, os.path.join(out_dir, f"gog_eval{j}.txt"))
    return 0


def emit_homophily_sweep(
    config: ExperimentConfig,
    degree_values,
    out_dir: str,
    samples_per_degree: int = 10,
) -> str:
    """Edge homophily (mean and stddev over sampled GoGs) and its closed-form
    expectation at each target average degree; one CSV row per degree.

    The sweep always samples with replacement, whatever ``sampler.mode`` says:
    that is the mode in which the closed form is the exact expectation.
    """
    os.makedirs(out_dir, exist_ok=True)
    dataset = load_dataset(config)
    split = resolve_split(config, dataset)
    labels = dataset.labels()

    enc_config = config.encoder_config()
    enc_state = init_encoder_state(dataset, enc_config, config.seed)
    _, logits = encode_dataset(dataset, enc_config, enc_state)
    train_mask = np.zeros(len(dataset), dtype=bool)
    train_mask[list(split.train_idx)] = True
    prob = build_prob_matrix(logits, labels, train_mask)  # reads train labels only
    # the with-replacement sampler and the closed form both read the dense S:
    # build it once for the whole sweep
    sim = SimilarityMatrix(S=similarity_matrix(prob, zero_diagonal=True).S,
                           diagonal_zeroed=True)

    path = os.path.join(out_dir, "homophily_sweep.csv")
    with open(path, "w") as f:
        f.write("d_bar,homophily_mean,homophily_std,expected_homophily\n")
        for d_bar in degree_values:
            base = config.alloc_config()
            # keep low-degree sweep points feasible: the floor cannot sit
            # above the target average
            alloc_config = replace(
                base, d_bar=float(d_bar), k_min=min(base.k_min, int(d_bar))
            )
            allocation = allocate_degrees(split, dataset, alloc_config)
            sampler = GoGSampler(
                sim, allocation,
                SamplerConfig(
                    mode=WITH_REPLACEMENT,
                    seed=mix(config.seed, 0x40, int(d_bar * 1000)),
                ),
            )
            values = [
                edge_homophily(sampler.sample(j), labels)
                for j in range(samples_per_degree)
            ]
            closed = expected_homophily(sim, labels, allocation)
            f.write(_csv_row(
                (float(d_bar), float(np.mean(values)), float(np.std(values)), closed)
            ))
    return path


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def _load(args) -> ExperimentConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return load_config(args.config, overrides)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samgog",
        description="Sampled graph-of-graphs learning benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_train = sub.add_parser("train", help="run seeded training repetitions")
    p_sweep = sub.add_parser(
        "sweep-homophily", help="edge homophily across target degrees"
    )
    p_theory = sub.add_parser("theory", help="run the formal-claim checks")
    p_split = sub.add_parser("make-split", help="generate and write a split file")
    p_inspect = sub.add_parser("inspect-dataset", help="print dataset statistics")

    # each subcommand takes only the flags it reads
    for p in (p_train, p_sweep, p_split, p_inspect):
        p.add_argument("--config", required=True, help="experiment config file")
    for p in (p_train, p_sweep, p_theory):
        p.add_argument("--seed", type=int, help="override the master seed")
    for p in (p_train, p_sweep, p_theory, p_split):
        p.add_argument("--out", default="results", help="output directory")

    p_train.add_argument(
        "--dump-allocation", action="store_true",
        help="write the degree allocation audit file",
    )
    p_train.add_argument(
        "--dump-gog", action="store_true",
        help="write the evaluation GoG edge lists of run 0",
    )
    p_sweep.add_argument(
        "--degrees", default="1,2,3,4,5,6,7,8,9,10",
        help="comma-separated target average degrees",
    )
    p_theory.add_argument("--ordering-trials", type=int, default=500)
    p_theory.add_argument("--unbiasedness-trials", type=int, default=10000)
    p_theory.add_argument("--monotonicity-trials", type=int, default=1000)
    p_theory.add_argument("--t-values", default="1,2,4,8,16,32")
    p_theory.add_argument("--replicates", type=int, default=30)
    p_theory.add_argument(
        "--json", dest="json_path", default=None,
        help="write the JSON report here ('-' for stdout)",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "train":
            return run_experiment(
                _load(args), args.out,
                dump_allocation_file=args.dump_allocation,
                dump_gogs=args.dump_gog,
            )

        if args.command == "sweep-homophily":
            degrees = [float(tok) for tok in args.degrees.split(",") if tok.strip()]
            path = emit_homophily_sweep(_load(args), degrees, args.out)
            print(path)
            return 0

        if args.command == "theory":
            t_values = tuple(
                int(tok) for tok in args.t_values.split(",") if tok.strip()
            )
            report = theory.run_all_checks(
                seed=args.seed if args.seed is not None else 0,
                ordering_trials=args.ordering_trials,
                unbiasedness_trials=args.unbiasedness_trials,
                monotonicity_trials=args.monotonicity_trials,
                t_values=t_values,
                replicates=args.replicates,
            )
            for line in report["lines"]:
                print(line)
            payload = json.dumps(report, indent=2)
            if args.json_path == "-":
                print(payload)
            else:
                os.makedirs(args.out, exist_ok=True)
                target = args.json_path or os.path.join(args.out, "theory.json")
                with open(target, "w") as f:
                    f.write(payload)
            return 0 if report["all_passed"] else 1

        if args.command == "make-split":
            config = load_config(args.config)
            dataset = load_dataset(config)
            split = resolve_split(config, dataset)
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "split.txt")
            write_split(split, path)
            print(path)
            return 0

        if args.command == "inspect-dataset":
            config = load_config(args.config)
            dataset = load_dataset(config)
            sizes = dataset.sizes()
            stats = {
                "num_graphs": len(dataset),
                "num_classes": dataset.num_classes,
                "feature_scheme": dataset.feature_scheme,
                "feature_dim": dataset.feature_dim,
                "avg_nodes": float(sizes.mean()),
                "avg_edges": float(
                    np.mean([len(g.edges) for g in dataset.graphs])
                ),
                "class_counts": np.bincount(
                    dataset.labels()[dataset.labels() >= 0],
                    minlength=dataset.num_classes,
                ).tolist(),
            }
            if len(dataset) >= 5:
                stats["rho_size"] = compute_size_imbalance_ratio(dataset)
            print(json.dumps(stats, indent=2))
            return 0
    except (ConfigError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # keep the exit-status contract: nonzero on failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
