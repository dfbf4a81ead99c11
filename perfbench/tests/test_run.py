"""Self-test of the benchmark on tiny grids (a few points each).

    python3 -m pytest -q perfbench/tests

Checks that every metric BENCHMARK.json names is printed with its unit,
that a perturbed reference makes the run fail, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int, seed: int = 0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _copy(tmp_path: Path, with_src: bool = True) -> Path:
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"] + (["src"] if with_src else []):
        shutil.copytree(ROOT / path, tmp_path / path, ignore=skip)
    return tmp_path


@pytest.mark.parametrize(
    "workload, trace, seed",
    [("fig5", 0, 0), ("fig5", 1, 0), ("fig5", 0, 5), ("strong_drive", 0, 0), ("strong_drive", 1, 3)],
)
def test_every_metric_printed_with_unit(workload, trace, seed):
    proc = _run(ROOT, workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_self_times_account_for_run_point():
    result = _result(_run(ROOT, "fig5", 1))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    layers = [
        "dynamics.steady_state.self_s",
        "dynamics.build_liouvillian.self_s",
        "dynamics.validate.self_s",
        "observables.photon_statistics.self_s",
        "hamiltonian.build_h_eff.self_s",
        "fock.self_s",
    ]
    accounted = sum(metrics[k] for k in layers) + metrics["sweep.run_point.self_s"]
    assert accounted == pytest.approx(metrics["sweep.run_point.s"], rel=0.10)
    assert max(layers, key=metrics.get) == "dynamics.steady_state.self_s"
    assert metrics["dynamics.steady_state.calls"] == 3


@pytest.mark.parametrize("factor, passes", [(1 + 1e-6, False), (1 + 1e-11, True)])
def test_perturbed_reference(tmp_path, factor, passes):
    root = _copy(tmp_path)
    path = root / "perfbench" / "reference" / "fig5.json"
    ref = json.loads(path.read_text())
    ref["points"][1]["g2_bb"] *= factor
    path.write_text(json.dumps(ref))
    proc = _run(root, "fig5", 0)
    assert _result(proc)["correct"] is passes
    assert (proc.returncode == 0) is passes
    assert ("DRIFT" in proc.stderr) is not passes


def test_refuses_to_run_without_sources(tmp_path):
    proc = _run(_copy(tmp_path, with_src=False), "fig5", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
