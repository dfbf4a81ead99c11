"""rotcav benchmark: one workload, one seed; prints its metrics as JSON.

    python3 perfbench/run.py --workload fig5 --seed 0 --seconds 10 --trace 0

Run it from the repository root; it imports rotcav from ./src.  Each
step runs in a fresh interpreter (`worker.py`) with every BLAS thread
variable set to 1, so a workload never shares a process with the
dense-LU oracle or with another set-up.  After one warm-up point the
measuring process repeats whole passes over the workload's grid until
--seconds have passed (at least one pass).

With --trace 0 it prints the end-to-end metrics:
  points_per_s  grid points solved per second over the timed passes
  peak_rss_mb   peak resident memory of the measuring process
  setup_s       median over three fresh interpreters of importing rotcav
                and solving one warm-up point of the workload
With --trace 1 traced passes alternate with untraced ones, and it
prints the per-layer metrics of `tracing.py` for one pass (the spans
themselves go to perfbench/traces/), the tracing overhead, the computed problem sizes, and the slowdown of a 20-point
fig5 slice at one BLAS thread per core against one thread.

Every run checks the outputs.  At the default seed each point must
match the frozen reference in reference/<workload>.json to relative
1e-9 (status and undefined values exactly); at any other seed a seeded
sample of points is re-solved with the dense LU oracle.  On drift it
prints the mismatches, reports correct=false and exits 1.  If it cannot
run at all it exits 2 and prints no result.

The line before the result carries the details: environment (BLAS
threads, library versions, nproc, git SHA), failed_frac (points whose
solve failed, over points attempted), pass times and set-up samples.
--smoke keeps a few points of each grid, for the self-test in tests/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUTS = ("g2_aa", "g2_bb", "n_a", "n_b")
DEFAULT_SEED = 0
REL_TOL = 1e-9
PARAM_REL_TOL = 1e-12
SETUP_SAMPLES = 3
ORACLE_POINTS = {"fig5": 8, "large_cutoff": 1, "strong_drive": 2}
BUDGET_S = 170.0
MAX_REPORTED_MISMATCHES = 10


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(ORACLE_POINTS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few points per grid")
    return parser.parse_args(argv)


class Runner:
    """Starts worker steps and keeps them within the run's time budget."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S

    def step(self, role: str, *extra: str, threads: int = 1, workload: str | None = None) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), role]
        cmd += ["--workload", workload or a.workload, "--seed", str(a.seed)]
        cmd += ["--threads", str(threads), *extra]
        if a.smoke:
            cmd.append("--smoke")
        # No .pyc files: the checkout stays clean and every set-up compiles
        # rotcav alike.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"time budget of {BUDGET_S:.0f} s used up before '{role}'")
        # CLOCK_MONOTONIC is shared by all processes on Linux, so the
        # worker's "ready" stamp is comparable with this one.
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker '{role}' exceeded the time budget") from None
        if proc.returncode != 0:
            raise BenchError(f"worker '{role}' exited with code {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["started"] = started
        return out


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _mismatches(got: list[dict], want: list[dict], label: str) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} points, expected {len(want)}"]
    found = []
    for i, (g, w) in enumerate(zip(got, want)):
        if g["status"] != w["status"]:
            found.append(f"{label} point {i}: status {g['status']!r}, expected {w['status']!r}")
        for name in OUTPUTS:
            x, y = g[name], w[name]
            if (x is None) != (y is None) or (
                x is not None and not math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)
            ):
                found.append(f"{label} point {i}: {name} = {x!r}, expected {y!r}")
    return found


def _params_mismatches(got: list[dict], want: list[dict]) -> list[str]:
    found = []
    for i, (g, w) in enumerate(zip(got, want)):
        for key, value in w.items():
            if not math.isclose(g[key], value, rel_tol=PARAM_REL_TOL, abs_tol=1e-15):
                found.append(f"point {i}: {key} = {g[key]!r}, reference has {value!r}")
    return found


def check(runner: Runner, measured: dict) -> tuple[list[str], str]:
    """Mismatches of every pass against the reference or the dense oracle."""
    a = runner.args
    passes = measured["rows"]
    if a.seed == DEFAULT_SEED:
        path = HERE / "reference" / f"{a.workload}.json"
        try:
            ref = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read reference {path}: {exc}") from exc
        count = len(measured["params"])
        want = ref["points"][:count]
        found = _params_mismatches(measured["params"], [p["params"] for p in want])
        want_rows = [{k: p[k] for k in (*OUTPUTS, "status")} for p in want]
        for n, rows in enumerate(passes):
            found += _mismatches(rows, want_rows, f"pass {n}")
        return found, f"reference {path.relative_to(ROOT)} ({count} points)"
    count = len(passes[0])
    picks = sorted(random.Random(a.seed).sample(range(count), min(ORACLE_POINTS[a.workload], count)))
    oracle = runner.step("oracle", "--indices", ",".join(map(str, picks)))["rows"]
    found = []
    for n, rows in enumerate(passes):
        found += _mismatches([rows[i] for i in picks], oracle, f"pass {n} vs dense oracle")
    return found, f"dense-LU oracle at points {picks}"


def run(args, units: dict[str, str]) -> tuple[dict, dict]:
    if not (ROOT / "src" / "rotcav" / "__init__.py").is_file():
        raise BenchError(f"no rotcav sources under {ROOT / 'src'}; run from a checkout")
    runner = Runner(args)
    nproc = len(os.sched_getaffinity(0))
    setup_s = []
    if not args.trace:
        for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
            sample = runner.step("setup")
            setup_s.append(sample["ready"] - sample["started"])
    extra = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    measured = runner.step("measure", *extra)
    setup_s.append(measured["ready"] - measured["started"])

    mismatches, checked = check(runner, measured)
    for line in mismatches[:MAX_REPORTED_MISMATCHES]:
        print(f"DRIFT {args.workload} seed {args.seed}: {line}", file=sys.stderr)
    if len(mismatches) > MAX_REPORTED_MISMATCHES:
        print(f"DRIFT ... {len(mismatches)} mismatches in all", file=sys.stderr)

    rows = [row for rows in measured["rows"] for row in rows]
    failed = sum(row["status"] == "solver-failure" for row in rows)
    sizes = measured["sizes"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": dict(measured["environment"], nproc=nproc, git_sha=_git_sha()),
        "failed_frac": failed / len(rows),
        "checked_against": checked,
        "pass_s": measured["pass_s"],
        "points_per_pass": len(measured["rows"][0]),
        "setup_samples_s": setup_s,
        "sizes_computed": sizes,
    }
    if args.trace:
        metrics = dict(measured["layers"], **sizes)
        t1 = runner.step("blas", workload="fig5")
        tn = runner.step("blas", workload="fig5", threads=nproc)
        metrics["blas.default_threads_slowdown"] = tn["seconds"] / t1["seconds"]
        detail["spans_file"] = measured["spans_file"]
        detail["blas_slice"] = {"points": t1["points"], "threads_1_s": t1["seconds"],
                                f"threads_{nproc}_s": tn["seconds"]}
    else:
        metrics = {
            "points_per_s": len(rows) / sum(measured["pass_s"]),
            "peak_rss_mb": measured["peak_rss_mb"],
            "setup_s": statistics.median(setup_s),
        }
    result = {
        "correct": not mismatches,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return detail, result


def _units(trace: int) -> dict[str, str]:
    """Name and unit of every metric the mode prints, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        detail, result = run(args, _units(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
