"""Parameter sweeps over the steady-state solver, with figure presets.

A sweep evaluates the full pipeline (basis -> Hamiltonian -> steady
state -> statistics) on a 1D or 2D grid of model parameters and
collects one row per grid point, in row-major order (axis1 outer,
axis2 inner) regardless of how the points are evaluated.
Rows carry a status flag: 'ok', 'vacuum-undefined' when a requested g2
hits the empty-mode guard (so heatmaps can tell "blocked" from
"empty"), or 'solver-failure' (the row is kept, outputs empty).

Presets reproduce the data grids behind the standard result figures of
this model: blockade maps over (detuning, hopping), the interference
dip of the second harmonic versus hopping, the optimal-hopping curve
versus the second-harmonic loss, and the direction-resolved sweeps that
exhibit nonreciprocity under rotation.  Axis ranges not fixed by the
preset definitions (heatmap extents, point counts) are package
defaults and can be overridden.

CSV output is deterministic: header row, floats at 12 significant
digits, empty fields for undefined values, no timestamps.  JSON output
carries the same rows plus a metadata object echoing the sweep
specification (timestamps live only there).
"""

from __future__ import annotations

import dataclasses
import datetime
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import __version__ as _version
from .fock import FockBasis, build_basis
from .hamiltonian import SystemParams, finite_float, h_eff_builder, optimal_g, resonance_angular_condition
from .dynamics import SolveRecord, SteadyStateError, jump_map_steady_states
from .observables import PhotonStatistics, population_statistics

SWEEPABLE = ("delta", "g", "kappa2", "drive_strength", "delta_f")
OUTPUT_NAMES = ("g2_aa", "g2_bb", "n_a", "n_b")
DEFAULT_CUTOFFS = (6, 3)
DEFAULT_DRIVE = 0.05

STATUS_OK = "ok"
STATUS_VACUUM = "vacuum-undefined"
STATUS_FAILURE = "solver-failure"

PRESET_NAMES = ("fig4a", "fig4b", "fig5", "fig6", "fig7a", "fig7b", "fig8a", "fig8b")

# Fixed parameters of a sweep or a CLI point when nothing overrides them.
DEFAULT_FIXED = SystemParams(drive_strength=DEFAULT_DRIVE)


_PARAM_KEYS = tuple(field.name for field in dataclasses.fields(SystemParams))


def _reject_unknown(data: dict, known: tuple[str, ...], where: str) -> None:
    unknown = [key for key in data if key not in known]
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ValueError(f"unknown {where} key(s) {names}; choose from {known}")


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a JSON number, got {value!r}")
    return finite_float(value, key)


def params_from_dict(data: dict) -> SystemParams:
    """Inverse of :func:`dataclasses.asdict` on a parameter record.

    Absent keys keep the values of DEFAULT_FIXED; unknown keys and
    values that are not JSON numbers are rejected.
    """
    _reject_unknown(data, _PARAM_KEYS, "parameter")
    changes = {key: _number(value, key) for key, value in data.items()}
    return dataclasses.replace(DEFAULT_FIXED, **changes)


def max_rel_change(pairs) -> float | None:
    """Worst |coarse - fine| / |fine| over (coarse, fine) value pairs.

    Pairs with an undefined (None) side are skipped; None if no pair is
    defined on both sides.
    """
    changes = [
        abs(x - y) / max(abs(y), 1e-300)
        for x, y in pairs
        if x is not None and y is not None
    ]
    return max(changes) if changes else None


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in SWEEPABLE:
            raise ValueError(f"cannot sweep '{self.name}'; choose from {SWEEPABLE}")
        for key in ("start", "stop"):
            object.__setattr__(self, key, finite_float(getattr(self, key), f"axis '{self.name}' {key}"))
        if not math.isfinite(self.stop - self.start):  # np.linspace would fill the grid with NaN
            raise ValueError(f"axis '{self.name}' span stop - start overflows: {self.start} to {self.stop}")
        if isinstance(self.count, bool) or not isinstance(self.count, (int, np.integer)):
            raise ValueError(f"axis '{self.name}' count must be an integer, got {self.count!r}")
        object.__setattr__(self, "count", int(self.count))
        if self.count < 2:
            raise ValueError(f"axis '{self.name}' needs count >= 2, got {self.count}")
        if self.start == self.stop:
            raise ValueError(f"axis '{self.name}' is degenerate (start == stop)")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    fixed: SystemParams = DEFAULT_FIXED
    outputs: tuple[str, ...] = OUTPUT_NAMES
    cutoffs: tuple[int, int] = DEFAULT_CUTOFFS
    convergence_check: bool = False
    include_optimal_g: bool = False

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if not self.outputs:
            raise ValueError("at least one output must be requested")
        for name in self.outputs:
            if name not in OUTPUT_NAMES:
                raise ValueError(f"unknown output '{name}'; choose from {OUTPUT_NAMES}")
            if self.outputs.count(name) > 1:
                raise ValueError(f"output '{name}' is requested more than once")
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise ValueError("axis1 and axis2 sweep the same parameter")
        if len(self.cutoffs) != 2:
            raise ValueError(f"malformed sweep config: cutoffs {self.cutoffs!r} are not a pair")
        basis = FockBasis(*self.cutoffs)  # its checks: integers, each >= 1
        object.__setattr__(self, "cutoffs", (basis.na_cut, basis.nb_cut))
        for key in ("convergence_check", "include_optimal_g"):
            if not isinstance(getattr(self, key), (bool, np.bool_)):
                raise ValueError(f"{key} must be a bool, got {getattr(self, key)!r}")
            object.__setattr__(self, key, bool(getattr(self, key)))

    @property
    def axis_names(self) -> tuple[str, ...]:
        if self.axis2 is None:
            return (self.axis1.name,)
        return (self.axis1.name, self.axis2.name)

    @property
    def column_names(self) -> tuple[str, ...]:
        extra = ("optimal_g",) if self.include_optimal_g else ()
        return self.axis_names + self.outputs + extra + ("status",)


_AXIS_KEYS = tuple(field.name for field in dataclasses.fields(SweepAxis))
_SPEC_KEYS = tuple(field.name for field in dataclasses.fields(SweepSpec))


@dataclass(frozen=True)
class SweepRow:
    axis_values: tuple[float, ...]
    outputs: dict[str, float | None]
    status: str
    error: str | None = None  # a solver-failure row's SteadyStateError text
    solve: SolveRecord | None = dataclasses.field(default=None, compare=False)  # not written out


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow]
    convergence: dict[str, float | None] | None = None
    convergence_failures: int = 0  # solver failures at doubled cutoffs

    @property
    def any_failure(self) -> bool:
        return any(row.status == STATUS_FAILURE for row in self.rows)


def solve_points(
    params: Sequence[SystemParams], cutoffs: tuple[int, int] = DEFAULT_CUTOFFS
) -> list[PhotonStatistics | SteadyStateError]:
    """Steady-state statistics at each point, all solved on one basis.

    Returns one entry per point: its statistics, or the
    :class:`SteadyStateError` that stopped it, with the point attached.
    A point's result depends neither on the other points nor on how the
    solver chunks them.
    """
    basis = build_basis(*cutoffs)
    h_eff = h_eff_builder(basis)
    points = ((h_eff(p), p.kappa1, p.kappa2) for p in params)
    results: list[PhotonStatistics | SteadyStateError] = []
    for p, state in zip(params, jump_map_steady_states(points, basis), strict=True):
        if isinstance(state, SteadyStateError):
            label = ", ".join(f"{key}={value}" for key, value in dataclasses.asdict(p).items())
            error = type(state)(f"{state} [at {label}]", state.solve)
            error.__cause__ = state
            results.append(error)
        else:
            results.append(population_statistics(state))
    return results


def run_point(p: SystemParams, cutoffs: tuple[int, int] = DEFAULT_CUTOFFS) -> PhotonStatistics:
    """Steady-state statistics at a single parameter point.

    Undefined g2 values (empty mode) come back as None; solver failures
    propagate as :class:`SteadyStateError` with the point attached.
    """
    (stats,) = solve_points([p], cutoffs)
    if isinstance(stats, SteadyStateError):
        raise stats
    return stats


def _evaluate_grid(spec: SweepSpec, cutoffs: tuple[int, int]) -> list[SweepRow]:
    axes = [axis.values().tolist() for axis in (spec.axis1, spec.axis2) if axis is not None]
    grid = list(itertools.product(*axes))  # row-major
    params = [dataclasses.replace(spec.fixed, **dict(zip(spec.axis_names, values))) for values in grid]
    rows = []
    for axis_values, p, stats in zip(grid, params, solve_points(params, cutoffs)):
        error = None
        if isinstance(stats, SteadyStateError):
            outputs: dict[str, float | None] = {name: None for name in spec.outputs}
            status, error = STATUS_FAILURE, str(stats)
        else:
            outputs = {name: getattr(stats, name) for name in spec.outputs}
            status = STATUS_VACUUM if None in outputs.values() else STATUS_OK
        if spec.include_optimal_g:
            outputs["optimal_g"] = optimal_g(p.kappa1, p.kappa2, p.drive_strength)
        rows.append(SweepRow(axis_values, outputs, status, error, stats.solve))
    return rows


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point; deterministic row-major ordering.

    With convergence_check the whole grid is re-run at doubled cutoffs
    (considerably more expensive) and the worst relative change of each
    output is reported alongside the rows (None for an output that no
    point defines at both cutoffs), with the number of points whose
    doubled-cutoff solve failed.
    """
    rows = _evaluate_grid(spec, spec.cutoffs)
    if not spec.convergence_check:
        return SweepResult(spec, rows)
    doubled = (2 * spec.cutoffs[0], 2 * spec.cutoffs[1])
    rows_fine = _evaluate_grid(spec, doubled)
    convergence = {
        name: max_rel_change(
            (coarse.outputs[name], fine.outputs[name]) for coarse, fine in zip(rows, rows_fine)
        )
        for name in spec.outputs
    }
    failures = sum(row.status == STATUS_FAILURE for row in rows_fine)
    return SweepResult(spec, rows, convergence, failures)


def figure_preset(
    name: str, *, count1: int | None = None, count2: int | None = None
) -> SweepSpec:
    """Sweep specification reproducing the data grid of a result figure.

    All presets use kappa2 = kappa1 and F = 0.05 kappa1 (weak drive).
    The 4-panels sweep (detuning, hopping) without rotation; 5 sweeps
    hopping through the interference dip; 6 maps the dip condition over
    (kappa2, hopping) and appends the closed-form optimal hopping as an
    extra column; the 7/8 panels sweep detuning for both drive
    directions (the second axis is the signed Fizeau shift) at the
    two-photon-resonance rotation speed.  count1/count2 override the
    default grid resolutions.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset '{name}'; choose from {PRESET_NAMES}")
    weak = DEFAULT_DRIVE

    def ax(pname: str, start: float, stop: float, count: int, override: int | None):
        return SweepAxis(pname, start, stop, count if override is None else override)

    if name in ("fig4a", "fig4b"):
        return SweepSpec(
            axis1=ax("delta", -6.0, 6.0, 101, count1),
            axis2=ax("g", 0.0, 10.0, 101, count2),
            outputs=("g2_aa",) if name == "fig4a" else ("g2_bb",),
        )
    if name == "fig5":
        if count2 is not None:
            raise ValueError("preset 'fig5' sweeps one axis; count2 applies only to two-axis presets")
        return SweepSpec(
            axis1=ax("g", 0.1, 3.0, 200, count1),
            outputs=("g2_bb",),
        )
    if name == "fig6":
        return SweepSpec(
            axis1=ax("kappa2", 0.1, 3.0, 101, count1),
            axis2=ax("g", 0.1, 3.0, 101, count2),
            outputs=("g2_bb",),
            include_optimal_g=True,
        )
    # direction-resolved sweeps: strong hopping for the fundamental-mode
    # panels (a), interference-optimal hopping for the second-harmonic
    # panels (b); the rotation speed puts the Fizeau shift at the
    # two-photon-resonance value sqrt(2) g / 4 for either drive port.
    strong = name in ("fig7a", "fig8a")
    g_val = 5.0 if strong else optimal_g(1.0, 1.0, weak)
    shift = resonance_angular_condition(g_val)
    outputs = {
        "fig7a": ("g2_aa",),
        "fig7b": ("g2_bb",),
        "fig8a": ("n_a",),
        "fig8b": ("n_b",),
    }[name]
    return SweepSpec(
        axis1=ax("delta", -4.0, 4.0, 201, count1),
        axis2=ax("delta_f", shift, -shift, 2, count2),
        fixed=SystemParams(g=g_val, drive_strength=weak),
        outputs=outputs,
    )


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def _row_values(spec: SweepSpec, row: SweepRow, cell: Callable) -> list:
    """A row's cells in column order: each value through cell, then the status."""
    names = spec.column_names[len(row.axis_values) : -1]
    return [*map(cell, row.axis_values), *(cell(row.outputs.get(name)) for name in names), row.status]


def render_csv(result: SweepResult) -> str:
    """Deterministic CSV: header, 12-significant-digit floats, no timestamps."""
    lines = [",".join(result.spec.column_names)]
    lines += (",".join(_row_values(result.spec, row, _fmt)) for row in result.rows)
    return "\n".join(lines) + "\n"


def _round12(value: float | None) -> float | None:
    return None if value is None else float(f"{value:.12g}")


def spec_to_dict(spec: SweepSpec) -> dict:
    return dataclasses.asdict(spec) | {"outputs": list(spec.outputs), "cutoffs": list(spec.cutoffs)}


def _integer(value, key: str) -> int:
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _json(value, kind: type, key: str):
    """`value` if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ValueError(f"{key} must be a JSON {name}, got {value!r}")
    return value


def _flag(data: dict, key: str) -> bool:
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be a JSON boolean (true or false), got {value!r}")
    return value


def spec_from_dict(data: dict) -> SweepSpec:
    """Build a sweep specification from a config-file dictionary.

    The keys are those of :func:`spec_to_dict`; unknown keys and values
    of the wrong JSON type are rejected.
    """

    def axis(key):
        entry = data.get(key)
        if entry is None:
            return None
        _reject_unknown(_json(entry, dict, key), _AXIS_KEYS, "axis")
        return SweepAxis(
            str(entry["name"]),
            _number(entry["start"], "start"),
            _number(entry["stop"], "stop"),
            _integer(entry["count"], "count"),
        )

    if not isinstance(data, dict):
        raise ValueError(f"malformed sweep config: expected a JSON object, got {data!r}")
    if data.get("axis1") is None:
        raise ValueError("config must define axis1")
    try:
        _reject_unknown(data, _SPEC_KEYS, "config")
        cutoffs = _json(data.get("cutoffs", list(DEFAULT_CUTOFFS)), list, "cutoffs")
        return SweepSpec(
            axis1=axis("axis1"),
            axis2=axis("axis2"),
            fixed=params_from_dict(_json(data.get("fixed", {}), dict, "fixed")),
            outputs=tuple(_json(data.get("outputs", list(OUTPUT_NAMES)), list, "outputs")),
            cutoffs=tuple(_integer(cut, "cutoffs") for cut in cutoffs),
            convergence_check=_flag(data, "convergence_check"),
            include_optimal_g=_flag(data, "include_optimal_g"),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed sweep config: {exc!r}") from exc


def render_json(result: SweepResult) -> str:
    metadata = {
        "spec": spec_to_dict(result.spec),
        "generator": f"rotcav {_version}",
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if result.convergence is not None:
        metadata["convergence_max_rel_change"] = {
            k: _round12(v) for k, v in result.convergence.items()
        }
        metadata["convergence_failures"] = result.convergence_failures
    rows = [dict(zip(result.spec.column_names, _row_values(result.spec, row, _round12))) for row in result.rows]
    return json.dumps({"metadata": metadata, "rows": rows}, indent=2) + "\n"


def render(result: SweepResult, format: str) -> str:
    """The result as 'csv' or 'json' text."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format '{format}'; choose csv or json")
    return render_csv(result) if format == "csv" else render_json(result)


def emit(result: SweepResult, format: str, path) -> str:
    """Write the result as 'csv' or 'json'; returns the path written."""
    write_output(render(result, format), path, "sweep")
    return str(path)


def write_output(text: str, path, what: str) -> None:
    """Write text to path; an OSError names what output failed and where."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} output to {path}: {exc}") from exc
