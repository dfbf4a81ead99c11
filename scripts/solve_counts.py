#!/usr/bin/env python3
"""Count the work the jump-map solver does on named sets of points.

    python3 scripts/solve_counts.py [SET ...]

Each set (every set by default, in the order of SETS) is solved with
rotcav.sweep.solve_points on one basis, from the src/ of the checkout
that holds this script, and one line per set is printed from each
point's SolveRecord: the points and the failures; the applications of
S^-1 as total, median and max; the generator calls (L(rho)
evaluations); and the points that entered the Krylov phase.  Run as a
script, every BLAS runs on one thread unless the environment says
otherwise.  Run it on two checkouts and compare the tables:

    /path/to/old/scripts/solve_counts.py > old.txt
    /path/to/new/scripts/solve_counts.py > new.txt

The sets: fig5; fig4a at 21 x 21 and cutoffs (6,3) and (12,6); fig6 at
21 x 21; fig7a and fig7b; the 144-point strong grid
F {0.5, 1, 2, 3} x kappa2 {1, 0.3} x delta_f {0, 0.7} x g {0.3, 0.867, 2}
x delta {-3, 0, 3} at (8,4); unfiltered draws of the parameter box of the
solver's survey tests (seed 1, 600 at (6,3); seed 2, 120 at (8,4)); and
the points and cutoffs of the benchmark's strong_drive and large_cutoff
workloads at their default seed, taken from perfbench/workloads.py.  The
presets run at default resolution unless a size is named, and at their
own cutoffs unless others are.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import itertools
import math
import os
import statistics
import sys
from pathlib import Path

if __name__ == "__main__":  # before numpy loads; an importer keeps its own settings
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_variable, "1")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from rotcav.hamiltonian import SystemParams  # noqa: E402
from rotcav.sweep import SweepSpec, figure_preset, solve_points  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

COLUMNS = ("points", "failures", "S^-1 total", "median", "max", "generator calls", "Krylov points")


def _grid(spec: SweepSpec) -> list[SystemParams]:
    """The points of a sweep, in its row-major order."""
    axes = [axis.values().tolist() for axis in (spec.axis1, spec.axis2) if axis is not None]
    grid = itertools.product(*axes)
    return [dataclasses.replace(spec.fixed, **dict(zip(spec.axis_names, values))) for values in grid]


def _preset(name: str, count: int | None = None, cutoffs: tuple[int, int] | None = None):
    spec = figure_preset(name, count1=count, count2=count)
    return _grid(spec), cutoffs or spec.cutoffs


def _strong_grid():
    points = [
        SystemParams(delta=delta, g=g, kappa2=kappa2, drive_strength=f, delta_f=delta_f)
        for f, kappa2, delta_f, g, delta in itertools.product(
            (0.5, 1.0, 2.0, 3.0), (1.0, 0.3), (0.0, 0.7), (0.3, 0.867, 2.0), (-3.0, 0.0, 3.0)
        )
    ]
    return points, (8, 4)


def _box(seed: int, count: int, cutoffs: tuple[int, int]):
    """count seeded draws of the box: delta in [-10, 10]; g in [0, 10], a
    fifth of the draws log-uniform in [1e-6, 1]; kappa2 log-uniform in
    [1e-3, 10]; F log-uniform in [1e-6, 5]; delta_f in [-5, 5] for half the
    draws, else 0."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        g = 10.0 ** rng.uniform(-6.0, 0.0) if rng.random() < 0.2 else rng.uniform(0.0, 10.0)
        points.append(
            SystemParams(
                delta=rng.uniform(-10.0, 10.0),
                g=g,
                kappa2=10.0 ** rng.uniform(-3.0, 1.0),
                drive_strength=10.0 ** rng.uniform(-6.0, math.log10(5.0)),
                delta_f=rng.uniform(-5.0, 5.0) if rng.random() < 0.5 else 0.0,
            )
        )
    return points, cutoffs


def _workload(name: str):
    """The points and cutoffs of a benchmark workload at its default seed."""
    workload = workloads.build(name, workloads.DEFAULT_SEED)
    return workload.points, workload.cutoffs


SETS = {
    "fig5": lambda: _preset("fig5"),
    "fig4a_21_6_3": lambda: _preset("fig4a", 21),
    "fig4a_21_12_6": lambda: _preset("fig4a", 21, (12, 6)),
    "fig6_21": lambda: _preset("fig6", 21),
    "fig7a": lambda: _preset("fig7a"),
    "fig7b": lambda: _preset("fig7b"),
    "strong_grid": _strong_grid,
    "box_6_3": lambda: _box(1, 600, (6, 3)),
    "box_8_4": lambda: _box(2, 120, (8, 4)),
    "strong_drive": lambda: _workload("strong_drive"),
    "large_cutoff": lambda: _workload("large_cutoff"),
}


def counts(points: list[SystemParams], cutoffs: tuple[int, int]) -> tuple:
    """The COLUMNS of one set, from the SolveRecord of each of its points."""
    results = solve_points(points, cutoffs)
    solves = [result.solve for result in results]
    applications = [solve.applications for solve in solves]
    return (
        len(points),
        sum(isinstance(result, Exception) for result in results),
        sum(applications),
        statistics.median(applications),
        max(applications),
        sum(solve.generator_calls for solve in solves),
        sum(bool(solve.krylov_from) for solve in solves),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="*", metavar="SET", help=f"any of {', '.join(SETS)}; all by default")
    names = parser.parse_args(argv).sets or list(SETS)
    unknown = [name for name in names if name not in SETS]
    if unknown:
        parser.error(f"unknown set {', '.join(unknown)}; choose from {', '.join(SETS)}")
    width = max(map(len, names))
    print(f"{'set':<{width}}  " + "  ".join(COLUMNS))
    for name in names:
        row = counts(*SETS[name]())
        texts = (f"{value:g}" if isinstance(value, float) else str(value) for value in row)
        cells = (f"{text:>{len(column)}}" for text, column in zip(texts, COLUMNS))
        print(f"{name:<{width}}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
