"""Benchmark workloads: seeded inputs and one timed pass of each.

Every workload goes through the public rotcav API and is looked up on
the `rotcav.sweep` module at call time, so the tracer in `tracing.py`
sees the same calls a user's sweep makes.

The default seed reproduces the grids named below exactly; any other
seed shifts the grid by a seeded offset smaller than one grid step, so
a solver cannot be tuned to the exact grid values.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Callable

from rotcav import (
    SteadyStateError,
    SystemParams,
    annihilator_a,
    annihilator_b,
    build_basis,
    build_h_eff,
    build_liouvillian,
    optimal_g,
    photon_statistics,
    steady_state,
    sweep,
)
from rotcav.sweep import OUTPUT_NAMES, SweepAxis, SweepSpec

DEFAULT_SEED = 0
# Smoke runs keep only this many points of each grid.
SMOKE_POINTS = {"fig5": 3, "large_cutoff": 1, "strong_drive": 2}

# fig7a sweeps delta over [-4, 4] in 201 points; the nonreciprocity
# pair is offset by less than that step.
FIG7A_DELTA_STEP = 8.0 / 200
FAILED_ROW = {name: None for name in OUTPUT_NAMES} | {"status": sweep.STATUS_FAILURE}


@dataclass(frozen=True)
class Workload:
    name: str
    cutoffs: tuple[int, int]
    points: list[SystemParams]
    run_pass: Callable[[], list[dict]]  # one row (outputs + status) per point


def _offset(seed: int, step: float) -> float:
    return 0.0 if seed == DEFAULT_SEED else random.Random(seed).uniform(0.0, step)


def _stats_row(stats) -> dict:
    row = {name: getattr(stats, name) for name in OUTPUT_NAMES}
    vacuum = row["g2_aa"] is None or row["g2_bb"] is None
    row["status"] = sweep.STATUS_VACUUM if vacuum else sweep.STATUS_OK
    return row


def solve_points(points: list[SystemParams], cutoffs: tuple[int, int]) -> list[dict]:
    """Rows from `run_point`, one per point; a failed solve gives a failed row."""
    rows = []
    for p in points:
        try:
            stats = sweep.run_point(p, cutoffs)
        except SteadyStateError:
            rows.append(dict(FAILED_ROW))
        else:
            rows.append(_stats_row(stats))
    return rows


def _shrink(axis: SweepAxis, count: int) -> SweepAxis:
    """The first `count` values of the axis, as an axis of its own."""
    step = (axis.stop - axis.start) / (axis.count - 1)
    return SweepAxis(axis.name, axis.start, axis.start + (count - 1) * step, count)


def _sweep_workload(name: str, spec: SweepSpec, smoke: bool, render: bool) -> Workload:
    if smoke:
        spec = dataclasses.replace(spec, axis1=_shrink(spec.axis1, SMOKE_POINTS[name]))

    def run_pass() -> list[dict]:
        result = sweep.run_sweep(spec)
        if render:
            sweep.render_csv(result)
        return [dict(row.outputs, status=row.status) for row in result.rows]

    return Workload(name, spec.cutoffs, _sweep_points(spec), run_pass)


def _sweep_points(spec: SweepSpec) -> list[SystemParams]:
    name = spec.axis1.name
    return [dataclasses.replace(spec.fixed, **{name: float(v)}) for v in spec.axis1.values()]


def fig5(seed: int, smoke: bool = False) -> Workload:
    """The fig5 preset: 200 hopping values through the interference dip."""
    # Every output, not only the preset's g2_bb, so all four are checked.
    preset = dataclasses.replace(sweep.figure_preset("fig5"), outputs=OUTPUT_NAMES)
    axis = preset.axis1
    off = _offset(seed, (axis.stop - axis.start) / (axis.count - 1))
    spec = dataclasses.replace(
        preset, axis1=dataclasses.replace(axis, start=axis.start + off, stop=axis.stop + off)
    )
    return _sweep_workload("fig5", spec, smoke, render=True)


def large_cutoff(seed: int, smoke: bool = False) -> Workload:
    """The fig7a nonreciprocity pair (left, right drive) at cutoffs (10, 5)."""
    g = 5.0
    shift = math.sqrt(2.0) / 4.0 * g
    delta = -shift + _offset(seed, FIG7A_DELTA_STEP)
    points = [
        SystemParams(delta=delta, g=g, drive_strength=sweep.DEFAULT_DRIVE, delta_f=delta_f)
        for delta_f in (shift, -shift)
    ]
    if smoke:
        points = points[: SMOKE_POINTS["large_cutoff"]]
    cutoffs = (10, 5)
    return Workload("large_cutoff", cutoffs, points, lambda: solve_points(points, cutoffs))


def strong_drive(seed: int, smoke: bool = False) -> Workload:
    """Drive strength 0.5..2 in 8 points at the interference-optimal hopping."""
    start, stop, count = 0.5, 2.0, 8
    off = _offset(seed, (stop - start) / (count - 1))
    spec = SweepSpec(
        axis1=SweepAxis("drive_strength", start + off, stop + off, count),
        fixed=SystemParams(g=optimal_g(1.0, 1.0, sweep.DEFAULT_DRIVE)),
        cutoffs=(8, 4),
    )
    return _sweep_workload("strong_drive", spec, smoke, render=False)


BUILDERS = {"fig5": fig5, "large_cutoff": large_cutoff, "strong_drive": strong_drive}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    if name not in BUILDERS:
        raise ValueError(f"unknown workload '{name}'; choose from {tuple(BUILDERS)}")
    return BUILDERS[name](seed, smoke)


def dense_oracle(p: SystemParams, cutoffs: tuple[int, int]) -> dict:
    """Reference row from the dense Liouvillian and its LU steady state."""
    basis = build_basis(*cutoffs)
    a, b = annihilator_a(basis), annihilator_b(basis)
    lio = build_liouvillian(build_h_eff(p, basis), a, b, p.kappa1, p.kappa2)
    try:
        rho = steady_state(lio)
    except SteadyStateError:
        return dict(FAILED_ROW)
    return _stats_row(photon_statistics(rho, a, b))


def params_dict(p: SystemParams) -> dict:
    """The numeric fields of a parameter point; the drive port follows delta_f."""
    return {k: v for k, v in dataclasses.asdict(p).items() if k != "drive_direction"}
