#!/usr/bin/env python3
"""Run one benchmark workload against the library under ``src/``.

    python3 bench/run.py --workload pipeline-small --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced run.  The line before it records the machine and library
versions.  A detail record (per-repeat times, and the spans of a traced run)
is written to ``.bench_out/`` at the repository root.  Each invocation runs
one workload in its own process, so ``peak_rss_mb`` is that workload's own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads.  The hot paths are Python loops
    # and memory-bound N^2 passes, so a second thread does not shorten
    # train_s; it does make peak RSS flip by its 32 MB buffer between runs.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import samgog
    except ImportError as exc:
        print(f"bench: cannot import samgog from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(samgog.__file__).resolve().parent.parent != SRC:
        print(f"bench: samgog imported from {samgog.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    result, detail = workloads.run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "result": result, **detail}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps({"env": env, "detail": str(path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
