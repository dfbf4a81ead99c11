"""One benchmark step in a fresh interpreter; prints one JSON line.

Started by `run.py`, never by hand.  Roles:

  setup    import rotcav and solve one warm-up point
  measure  setup, then timed passes of the workload; with --trace,
           traced passes too, whose spans go to traces/<workload>-seed<n>.json
  oracle   dense-LU re-solve of chosen points of the workload
  blas     time a slice of the fig5 grid at a given BLAS thread count

The BLAS thread variables are set from --threads before numpy is first
imported, because OpenBLAS reads them when it loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "measure", "oracle", "blas"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--indices", default="", help="comma-separated point indices")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    def openblas(module) -> str | None:
        config = module.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version")

    return {
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": openblas(numpy),
        "scipy_openblas": openblas(scipy),
    }


def _warm_up(wl) -> float:
    """Solve the workload's first point untimed; returns when it is ready."""
    import workloads

    workloads.solve_points(wl.points[:1], wl.cutoffs)
    return time.monotonic()


def _measure(wl, seconds: float, spans_path: Path | None) -> dict:
    """Warm up, then timed passes; traced ones too when given a spans file."""
    import tracing
    import workloads

    out = {"ready": _warm_up(wl), "environment": environment()}
    out["params"] = [workloads.params_dict(p) for p in wl.points]
    out["sizes"] = tracing.sizes_computed(wl.cutoffs)
    rows, pass_s, traced_s = [], [], []
    tracer = tracing.Tracer()
    begin = time.perf_counter()
    while not pass_s or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        rows.append(wl.run_pass())
        pass_s.append(time.perf_counter() - t0)
        if spans_path:
            # Traced passes alternate with untraced ones, so both see
            # the same machine conditions.
            with tracing.installed(tracer):
                t0 = time.perf_counter()
                rows.append(wl.run_pass())
                traced_s.append(time.perf_counter() - t0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spans_path:
        layers = tracing.layer_metrics(tracer.spans, len(traced_s))
        layers["trace.overhead_frac"] = sum(traced_s) / sum(pass_s) - 1.0
        out["layers"] = layers
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps([dataclasses.asdict(s) for s in tracer.spans]))
        out["spans_file"] = str(spans_path.relative_to(SRC.parent))
    out["pass_s"] = pass_s
    out["rows"] = rows
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(args.threads)
    import rotcav

    if SRC not in Path(rotcav.__file__).resolve().parents:
        print(f"rotcav imported from {rotcav.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.build(args.workload, args.seed, args.smoke)
    if args.role == "setup":
        out = {"ready": _warm_up(wl)}
    elif args.role == "measure":
        spans = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        out = _measure(wl, args.seconds, spans if args.trace else None)
    elif args.role == "oracle":
        picks = [int(i) for i in args.indices.split(",") if i]
        out = {"rows": [workloads.dense_oracle(wl.points[i], wl.cutoffs) for i in picks]}
    else:
        points = wl.points[:: 100 if args.smoke else 10]
        _warm_up(wl)
        t0 = time.perf_counter()
        workloads.solve_points(points, wl.cutoffs)
        out = {"seconds": time.perf_counter() - t0, "points": len(points)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
