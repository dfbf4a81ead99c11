import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import rotcav.dynamics as dynamics_mod
import rotcav.sweep as sweep_mod
from conftest import fail_at_points, refine_extremum
from rotcav import (
    DensityMatrix,
    SteadyStateError,
    SweepAxis,
    SweepSpec,
    SystemParams,
    emit,
    figure_preset,
    optimal_g,
    run_point,
    run_sweep,
)
from rotcav.sweep import (
    DEFAULT_FIXED,
    PRESET_NAMES,
    STATUS_FAILURE,
    STATUS_OK,
    STATUS_VACUUM,
    SweepResult,
    SweepRow,
    render_csv,
    max_rel_change,
    params_from_dict,
    render_json,
    spec_from_dict,
    spec_to_dict,
)


def _small_spec(**kwargs):
    defaults = dict(
        axis1=SweepAxis("g", 0.5, 1.5, 3),
        fixed=SystemParams(drive_strength=0.05),
        outputs=("g2_bb", "n_a"),
        cutoffs=(4, 2),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# ---------------------------------------------------------------- run_point


def test_run_point_without_drive_is_vacuum():
    stats = run_point(SystemParams(g=1.0, drive_strength=0.0), (4, 2))
    assert stats.n_a <= 1e-12 and stats.n_b <= 1e-12
    assert stats.g2_aa is None and stats.g2_bb is None
    assert stats.vacuum_undefined


def test_run_point_blockade_at_resonance():
    stats = run_point(SystemParams(g=5.0, drive_strength=0.05))
    assert stats.g2_aa < 1.0


def test_run_point_attaches_context_to_failures(monkeypatch):
    fail_at_points(monkeypatch, 1)
    p = SystemParams(g=1.0, kappa1=0.7, drive_strength=0.05, delta_f=-0.3)
    with pytest.raises(SteadyStateError, match="delta=") as info:
        run_point(p, (2, 1))
    label = str(info.value)
    for key, value in dataclasses.asdict(p).items():
        assert f"{key}={value}" in label, key


def test_run_point_never_allocates_a_superoperator():
    # A D^2 x D^2 complex array at cutoffs (10, 5) (D = 66) is 16 D^4 bytes.
    d = 11 * 6
    tracemalloc.start()
    try:
        run_point(SystemParams(g=5.0, drive_strength=0.05), (10, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * d**4


@pytest.mark.parametrize("delta, delta_f", [(0.3, 0.7), (-1.2, -0.9), (2.5, -2.5), (-0.4, 1.9)])
@pytest.mark.parametrize("drive", [0.05, 1.0])
def test_run_point_depends_on_delta_plus_delta_f_only(delta, delta_f, drive):
    shifted = run_point(SystemParams(delta=delta, g=1.3, drive_strength=drive, delta_f=delta_f))
    summed = run_point(SystemParams(delta=delta + delta_f, g=1.3, drive_strength=drive))
    assert shifted == summed


@pytest.mark.parametrize("delta", [0.4, 1.3, 6.0])
@pytest.mark.parametrize(
    "g, drive", [(1.0 / (4.0 * math.sqrt(2.0)), 0.05), (0.867, 0.05), (10.0, 0.05), (0.867, 1.0)]
)
def test_run_point_even_in_delta_without_fizeau_shift(delta, g, drive):
    # parity a -> -a, b -> -b with complex conjugation maps H(-delta) to -H(delta)
    plus = run_point(SystemParams(delta=delta, g=g, drive_strength=drive))
    minus = run_point(SystemParams(delta=-delta, g=g, drive_strength=drive))
    for name in ("g2_aa", "g2_bb", "n_a", "n_b"):
        assert getattr(minus, name) == pytest.approx(getattr(plus, name), rel=1e-10), name


# ------------------------------------------------------------------- axes


def test_axis_validation():
    with pytest.raises(ValueError):
        SweepAxis("g", 0.0, 1.0, 1)  # count < 2
    with pytest.raises(ValueError):
        SweepAxis("g", 1.0, 1.0, 5)  # degenerate
    with pytest.raises(ValueError):
        SweepAxis("kappa1", 0.0, 1.0, 5)  # not sweepable
    for start, stop, count, key in [
        (0.1, math.inf, 3, "stop"),
        (-math.inf, 1.0, 3, "start"),
        (math.nan, 1.0, 3, "start"),
        (10**400, 1.0, 3, "start"),  # an int beyond the float range
        (0.1, -(10**400), 3, "stop"),
        (0.1, 3.0, 2.5, "count"),
        (0.1, 3.0, 3.0, "count"),
        (0.1, 3.0, True, "count"),
        (0.1, 3.0, np.bool_(True), "count"),
        (0.1, 3.0, np.float64(3.0), "count"),
        (True, 2.0, 3, "start"),
        (np.bool_(False), 2.0, 3, "start"),
        (0.1, "1.0", 3, "stop"),
        (0.1, None, 3, "stop"),
    ]:
        with pytest.raises(ValueError, match=f"axis 'g' {key} must be"):
            SweepAxis("g", start, stop, count)


@pytest.mark.parametrize("start, stop", [(-1e308, 1e308), (1.7e308, -1.7e308)])
def test_axis_rejects_a_span_that_overflows(start, stop):
    # Both bounds are finite, but stop - start is not: the grid would be NaN.
    with pytest.raises(ValueError, match="axis 'delta' span stop - start overflows"):
        SweepAxis("delta", start, stop, 3)


def test_axis_stores_bounds_as_python_floats():
    # A float32 bound made np.linspace sweep a float32 grid, every interior
    # point ~1e-8 relative off the grid of the bounds the axis holds.
    axis = SweepAxis("g", np.float32(0.1), np.int64(1), 3)
    assert type(axis.start) is float and type(axis.stop) is float
    assert axis == SweepAxis("g", float(np.float32(0.1)), 1.0, 3)
    values = axis.values()
    assert values.dtype == np.float64
    np.testing.assert_array_equal(values, np.linspace(float(np.float32(0.1)), 1.0, 3))


def test_axis_and_preset_take_numpy_integer_counts():
    axis = SweepAxis("g", 0.1, 3.0, np.int64(5))
    assert axis == SweepAxis("g", 0.1, 3.0, 5) and type(axis.count) is int
    assert figure_preset("fig5", count1=np.int64(5)).axis1 == axis


def test_spec_validation():
    with pytest.raises(ValueError):
        _small_spec(outputs=("bogus",))
    with pytest.raises(ValueError):
        _small_spec(outputs=())
    with pytest.raises(ValueError):
        _small_spec(axis2=SweepAxis("g", 0.0, 1.0, 3))  # duplicate name


@pytest.mark.parametrize(
    "cutoffs, message",
    [
        ((4, 2, 1), "are not a pair"),
        ((4,), "are not a pair"),
        ((4.0, 2), "cutoffs must be integers"),
        ((True, 2), "cutoffs must be integers"),
        ((4, 0), "cutoffs must be >= 1"),
    ],
)
def test_spec_checks_cutoffs_when_built(cutoffs, message):
    with pytest.raises(ValueError, match=message):
        _small_spec(cutoffs=cutoffs)


def test_spec_stores_cutoffs_as_python_ints():
    spec = _small_spec(cutoffs=(np.int64(4), np.int64(2)))
    assert spec.cutoffs == (4, 2) and all(type(cut) is int for cut in spec.cutoffs)


def test_spec_rejects_duplicate_outputs():
    # A CSV would carry two g2_aa columns, and its JSON only one.
    with pytest.raises(ValueError, match="output 'g2_aa' is requested more than once"):
        _small_spec(outputs=("g2_aa", "n_a", "g2_aa"))


# ------------------------------------------------------------------ sweeps


def test_row_major_ordering():
    spec = _small_spec(
        axis1=SweepAxis("g", 1.0, 2.0, 2),
        axis2=SweepAxis("delta", -1.0, 1.0, 3),
        outputs=("n_a",),
        cutoffs=(2, 1),
    )
    result = run_sweep(spec)
    grid = [row.axis_values for row in result.rows]
    assert grid == [
        (1.0, -1.0),
        (1.0, 0.0),
        (1.0, 1.0),
        (2.0, -1.0),
        (2.0, 0.0),
        (2.0, 1.0),
    ]
    assert all(row.status == STATUS_OK for row in result.rows)


def test_sweep_determinism():
    spec = _small_spec()
    csv_a = render_csv(run_sweep(spec))
    csv_b = render_csv(run_sweep(spec))
    assert csv_a == csv_b


def test_vacuum_rows_flagged():
    spec = _small_spec(
        axis1=SweepAxis("drive_strength", 0.0, 0.05, 2),
        fixed=SystemParams(g=1.0, drive_strength=0.05),
        outputs=("g2_bb",),
        cutoffs=(3, 2),
    )
    result = run_sweep(spec)
    assert result.rows[0].status == STATUS_VACUUM
    assert result.rows[0].outputs["g2_bb"] is None
    assert result.rows[1].status == STATUS_OK
    assert result.rows[0].solve == dynamics_mod.SolveRecord()  # the undriven vacuum's: all zeros


def test_solver_failure_rows_kept(monkeypatch):
    fail_at_points(monkeypatch, 2)
    result = run_sweep(_small_spec())
    statuses = [row.status for row in result.rows]
    assert statuses == [STATUS_OK, STATUS_FAILURE, STATUS_OK]
    assert result.any_failure
    # the failed row is present in the CSV with empty outputs
    line = render_csv(result).splitlines()[2]
    assert line.endswith(STATUS_FAILURE)
    assert ",," in line


def test_certificate_failure_rows_kept(monkeypatch):
    # The certificate's ValueError becomes a SteadyStateError, whose rows
    # are flagged, instead of ending the sweep.
    validate = DensityMatrix.validate

    def picky(state):
        if state.matrix[0, 0].real < 0.9:  # the strongly driven points
            raise ValueError("state not positive: synthetic")
        validate(state)

    monkeypatch.setattr(DensityMatrix, "validate", picky)
    spec = _small_spec(
        axis1=SweepAxis("drive_strength", 0.05, 3.0, 3), fixed=SystemParams(g=0.867)
    )
    result = run_sweep(spec)
    assert [row.status for row in result.rows] == [STATUS_OK, STATUS_FAILURE, STATUS_FAILURE]
    assert [row.outputs["n_a"] is None for row in result.rows] == [False, True, True]
    # Every row carries its point's record, a failed one through its relabelled error.
    assert all(row.solve.applications > 0 for row in result.rows)


def test_swept_delta_f_reinfers_direction():
    spec = _small_spec(
        axis1=SweepAxis("delta_f", 0.5, -0.5, 2),
        fixed=SystemParams(g=1.0, drive_strength=0.05, delta_f=0.5),
        outputs=("n_a",),
        cutoffs=(2, 1),
    )
    result = run_sweep(spec)  # the sign of delta_f alone sets the drive port
    assert len(result.rows) == 2


def test_convergence_check_reports_outputs():
    spec = _small_spec(
        axis1=SweepAxis("g", 0.5, 1.0, 2),
        outputs=("g2_bb", "n_a"),
        cutoffs=(3, 2),
        convergence_check=True,
    )
    result = run_sweep(spec)
    assert set(result.convergence) == {"g2_bb", "n_a"}
    assert all(v >= 0 for v in result.convergence.values())


# ------------------------------------------------------------ chunked solves


def _chunk_points(monkeypatch, points: int, cutoffs) -> None:
    """Make the solver put `points` points in each chunk at these cutoffs."""
    d = (cutoffs[0] + 1) * (cutoffs[1] + 1)
    monkeypatch.setattr(dynamics_mod, "CHUNK_ENTRIES", points * d**2)


def test_fig4b_bytes_do_not_depend_on_the_chunk_size(monkeypatch):
    # Every point sits at another position of another chunk at each size.
    spec = figure_preset("fig4b", count1=21, count2=21)
    csv = {}
    for points in (1, 7, 32):
        _chunk_points(monkeypatch, points, spec.cutoffs)
        csv[points] = render_csv(run_sweep(spec))
    assert csv[7] == csv[1]
    assert csv[32] == csv[1]


def test_chunk_sizes_follow_the_entry_budget(monkeypatch):
    sizes = []
    real = dynamics_mod._solve_chunk

    def recorded(chunk, basis):
        sizes.append((basis.dim, len(chunk)))
        return real(chunk, basis)

    monkeypatch.setattr(dynamics_mod, "_solve_chunk", recorded)
    points = [SystemParams(g=g, drive_strength=0.05) for g in np.linspace(0.5, 1.5, 9)]
    for cutoffs in ((6, 3), (8, 4), (10, 5)):
        sweep_mod.solve_points(points, cutoffs)
    assert sizes == [(28, 8), (28, 1), (45, 3), (45, 3), (45, 3)] + [(66, 1)] * 9


# ----------------------------------------------------------------- presets


def test_fig5_preset_fidelity():
    spec = figure_preset("fig5")
    assert spec.axis1.name == "g"
    assert (spec.axis1.start, spec.axis1.stop, spec.axis1.count) == (0.1, 3.0, 200)
    assert spec.axis2 is None
    assert spec.fixed.delta == 0.0 and spec.fixed.delta_f == 0.0
    assert spec.fixed.kappa2 == spec.fixed.kappa1 == 1.0
    assert spec.fixed.drive_strength == 0.05
    assert spec.outputs == ("g2_bb",)


def test_fig4_presets_fidelity():
    for name, outputs in (("fig4a", ("g2_aa",)), ("fig4b", ("g2_bb",))):
        spec = figure_preset(name)
        assert spec.axis1.name == "delta" and spec.axis2.name == "g"
        assert spec.axis1.count == spec.axis2.count == 101
        assert spec.fixed.delta_f == 0.0  # no rotation
        assert spec.fixed.kappa2 == 1.0
        assert spec.fixed.drive_strength == 0.05
        assert spec.outputs == outputs


def test_fig6_preset_includes_overlay():
    spec = figure_preset("fig6")
    assert spec.axis1.name == "kappa2" and spec.axis2.name == "g"
    assert spec.include_optimal_g
    small = run_sweep(figure_preset("fig6", count1=2, count2=2))
    for row in small.rows:
        kappa2 = row.axis_values[0]
        assert row.outputs["optimal_g"] == pytest.approx(
            optimal_g(1.0, kappa2, 0.05), rel=1e-12
        )


def test_fig7_fig8_presets_fidelity():
    for name, outputs, g_val in (
        ("fig7a", ("g2_aa",), 5.0),
        ("fig7b", ("g2_bb",), optimal_g(1.0, 1.0, 0.05)),
        ("fig8a", ("n_a",), 5.0),
        ("fig8b", ("n_b",), optimal_g(1.0, 1.0, 0.05)),
    ):
        spec = figure_preset(name)
        assert spec.outputs == outputs
        assert spec.fixed.g == g_val
        assert spec.axis1.name == "delta"
        assert (spec.axis1.start, spec.axis1.stop) == (-4.0, 4.0)
        shift = np.sqrt(2) / 4 * g_val
        assert spec.axis2.name == "delta_f" and spec.axis2.count == 2
        assert spec.axis2.values() == pytest.approx([shift, -shift])


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        figure_preset("fig9")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_solve_every_point_on_a_coarse_grid(name):
    spec = figure_preset(name, count1=11, count2=None if name == "fig5" else 11)  # fig5 has one axis
    statuses = {row.status for row in run_sweep(spec).rows}
    assert STATUS_FAILURE not in statuses


@pytest.mark.parametrize("g", [0.867, 1.0 / (4.0 * math.sqrt(2.0))], ids=["g0.867", "exceptional"])
def test_strong_drive_grid_solves_every_point(g):
    # Near |delta| = 6 the scaled update of nearly empty states stalls at
    # roundoff above the stop threshold; such points must still certify.
    spec = SweepSpec(
        axis1=SweepAxis("delta", -6.0, 6.0, 7),
        axis2=SweepAxis("drive_strength", 0.5, 2.0, 4),
        fixed=SystemParams(g=g),
        cutoffs=(8, 4),
    )
    statuses = [row.status for row in run_sweep(spec).rows]
    assert STATUS_FAILURE not in statuses


@pytest.mark.parametrize("name", ["fig5", "fig7a", "fig7b"])
def test_weak_drive_presets_never_enter_the_krylov_phase(name):
    # The paper's blockade lives at weak drive: at default resolution every
    # row of these presets stops in the fixed-point loop.
    rows = run_sweep(figure_preset(name)).rows
    assert [row.axis_values for row in rows if row.solve.krylov_from] == []


def test_strong_drive_points_stop_early_or_enter_the_krylov_phase_at_8():
    # The drive sweep F = 0.5..2 at g* and cutoffs (8, 4): a point either
    # stops within JUMP_MAP_KRYLOV_ITERATIONS applications of S^-1 or, its
    # step still above JUMP_MAP_SLOW_STEP, enters the Krylov phase there.
    spec = SweepSpec(
        axis1=SweepAxis("drive_strength", 0.5, 2.0, 8),
        fixed=SystemParams(g=optimal_g(1.0, 1.0, 0.05)),
        cutoffs=(8, 4),
    )
    rows = run_sweep(spec).rows
    assert STATUS_FAILURE not in {row.status for row in rows}
    entry = dynamics_mod.JUMP_MAP_KRYLOV_ITERATIONS
    for row in rows:
        solve = row.solve
        assert solve.krylov_from == entry or (not solve.krylov_from and solve.applications <= entry), (
            row.axis_values, solve,
        )


def test_preset_count_override():
    spec = figure_preset("fig5", count1=11)
    assert spec.axis1.count == 11


def test_fig7a_preset_shows_nonreciprocity():
    # coarse version of the direction-resolved sweep: the left-drive
    # curve dips below 1 while the right-drive curve exceeds 1 near the
    # blockade point
    result = run_sweep(figure_preset("fig7a", count1=41))
    shift = float(np.sqrt(2) / 4 * 5.0)
    left = [r for r in result.rows if r.axis_values[1] == pytest.approx(shift)]
    right = [r for r in result.rows if r.axis_values[1] == pytest.approx(-shift)]
    assert len(left) == len(right) == 41
    window = [r for r in left if abs(r.axis_values[0] + shift) < 0.5]
    assert min(r.outputs["g2_aa"] for r in window) < 1.0
    window = [r for r in right if abs(r.axis_values[0] + shift) < 0.5]
    assert max(r.outputs["g2_aa"] for r in window) > 1.0


def test_direction_antisymmetry():
    # right-drive sweep == left-drive sweep with the shift sign flipped
    shift = float(np.sqrt(2) / 4 * 5.0)
    axis = SweepAxis("delta", -3.0, 3.0, 5)

    def curve(delta_f):
        spec = SweepSpec(
            axis1=axis,
            fixed=SystemParams(g=5.0, drive_strength=0.05, delta_f=delta_f),
            outputs=("g2_aa", "n_a"),
            cutoffs=(5, 2),
        )
        return run_sweep(spec)

    right = curve(-shift)
    flipped = curve(-abs(shift))
    for row_r, row_f in zip(right.rows, flipped.rows):
        for name in ("g2_aa", "n_a"):
            assert abs(row_r.outputs[name] - row_f.outputs[name]) <= 1e-10


# ------------------------------------------------------------------ output


def test_csv_shape_and_formatting(tmp_path):
    spec = _small_spec(
        axis1=SweepAxis("g", 1.0, 2.0, 2),
        axis2=SweepAxis("delta", 0.0, 1.0, 2),
        outputs=("n_a",),
        cutoffs=(2, 1),
    )
    result = run_sweep(spec)
    path = tmp_path / "grid.csv"
    emit(result, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "g,delta,n_a,status"
    assert len(lines) == 5  # header + 2x2 grid
    for line in lines[1:]:
        cells = line.split(",")
        value = float(cells[2])
        assert cells[2] == f"{value:.12g}"
        assert cells[3] == STATUS_OK


def test_json_round_trip_bit_exact(tmp_path):
    result = run_sweep(_small_spec())
    path = tmp_path / "grid.json"
    emit(result, "json", path)
    loaded = json.loads(path.read_text())
    assert loaded["metadata"]["spec"] == spec_to_dict(result.spec)
    assert len(loaded["rows"]) == len(result.rows)
    for row, entry in zip(result.rows, loaded["rows"]):
        assert entry["g"] == float(f"{row.axis_values[0]:.12g}")
        for name, value in row.outputs.items():
            if value is None:
                assert entry[name] is None
            else:
                assert entry[name] == float(f"{value:.12g}")
        assert entry["status"] == row.status


def test_json_null_for_vacuum(tmp_path):
    spec = _small_spec(
        axis1=SweepAxis("drive_strength", 0.0, 0.05, 2),
        outputs=("g2_bb",),
        cutoffs=(2, 1),
    )
    path = tmp_path / "v.json"
    emit(run_sweep(spec), "json", path)
    rows = json.loads(path.read_text())["rows"]
    assert rows[0]["g2_bb"] is None
    assert rows[0]["status"] == STATUS_VACUUM


def test_csv_and_json_rows_agree_cell_for_cell():
    # A synthetic result, with no solve: each JSON value is float of its CSV
    # cell, or null where the cell is empty, in the same column order.
    spec = SweepSpec(
        axis1=SweepAxis("kappa2", 0.1, 3.0, 2),
        axis2=SweepAxis("g", 0.1, 3.0, 2),
        outputs=("g2_aa", "g2_bb", "n_a"),
        include_optimal_g=True,
    )
    rows = [
        SweepRow((0.1, 0.1), {"g2_aa": 1 / 3, "g2_bb": 0.123456789012345, "n_a": 2.5e-7, "optimal_g": 0.75}, STATUS_OK),
        SweepRow((0.1, 3.0), {"g2_aa": None, "g2_bb": 12345.6789, "n_a": 1e-30, "optimal_g": 0.75}, STATUS_VACUUM),
        SweepRow(
            (3.0, 0.1),
            {"g2_aa": None, "g2_bb": None, "n_a": None, "optimal_g": 2 / 3},
            STATUS_FAILURE,
            "synthetic failure",
        ),
    ]
    result = SweepResult(spec, rows)
    header, *lines = render_csv(result).splitlines()
    entries = json.loads(render_json(result))["rows"]
    assert header.split(",") == list(spec.column_names)
    assert len(lines) == len(entries) == len(rows)
    for row, line, entry in zip(rows, lines, entries):
        cells = dict(zip(spec.column_names, line.split(",")))
        assert list(entry) == list(spec.column_names)
        assert entry.pop("status") == cells.pop("status") == row.status
        assert entry == {name: float(cell) if cell else None for name, cell in cells.items()}


@pytest.mark.parametrize(
    "changes",
    [
        {"cutoffs": (np.int64(4), np.int64(2))},
        {"axis1": SweepAxis("g", np.float32(0.5), 1.0, 2)},
        {"fixed": SystemParams(drive_strength=np.float32(0.05))},
    ],
    ids=["cutoffs", "axis", "fixed"],
)
def test_json_writes_numpy_scalars_of_a_spec(changes):
    spec = _small_spec(**changes)
    written = json.loads(render_json(SweepResult(spec, [])))["metadata"]["spec"]
    assert written == spec_to_dict(spec)


def test_spec_stores_outputs_as_a_tuple():
    spec = _small_spec(outputs=["g2_bb"])
    assert spec.outputs == ("g2_bb",) and hash(spec) == hash(_small_spec(outputs=("g2_bb",)))
    result = SweepResult(spec, [])
    assert render_csv(result) == "g,g2_bb,status\n"
    assert json.loads(render_json(result))["metadata"]["spec"]["outputs"] == ["g2_bb"]


def test_spec_stores_its_flags_as_python_bools():
    spec = _small_spec(convergence_check=np.bool_(False), include_optimal_g=np.bool_(True))
    assert type(spec.convergence_check) is bool and type(spec.include_optimal_g) is bool
    written = json.loads(render_json(SweepResult(spec, [])))["metadata"]["spec"]
    assert written == spec_to_dict(spec)
    for key in ("convergence_check", "include_optimal_g"):
        with pytest.raises(ValueError, match=f"{key} must be a bool, got 1"):
            _small_spec(**{key: 1})


def test_emit_rejects_unknown_format(tmp_path):
    result = run_sweep(_small_spec(axis1=SweepAxis("g", 1.0, 2.0, 2), cutoffs=(2, 1)))
    with pytest.raises(ValueError):
        emit(result, "xml", tmp_path / "x.xml")


def test_emit_surfaces_path_errors(tmp_path):
    result = run_sweep(_small_spec(axis1=SweepAxis("g", 1.0, 2.0, 2), cutoffs=(2, 1)))
    bad = tmp_path / "missing" / "out.csv"
    with pytest.raises(OSError, match=str(bad)):
        emit(result, "csv", bad)


def test_render_csv_excludes_timestamps():
    text = render_csv(run_sweep(_small_spec()))
    assert "created" not in text
    payload = json.loads(render_json(run_sweep(_small_spec())))
    assert "created_utc" in payload["metadata"]


# ------------------------------------------------------------------ config


def test_spec_dict_round_trip():
    spec = _small_spec(
        axis2=SweepAxis("delta", -1.0, 1.0, 4),
        convergence_check=True,
    )
    again = spec_from_dict(spec_to_dict(spec))
    assert again == spec


def test_spec_from_dict_defaults():
    spec = spec_from_dict({"axis1": {"name": "g", "start": 0.5, "stop": 1.5, "count": 4}})
    assert spec.outputs == ("g2_aa", "g2_bb", "n_a", "n_b")
    assert spec.cutoffs == (6, 3)
    assert spec.fixed == SystemParams(drive_strength=0.05)


def test_spec_from_dict_requires_axis1():
    with pytest.raises(ValueError):
        spec_from_dict({"outputs": ["n_a"]})


def test_spec_from_dict_rejects_malformed_entries():
    with pytest.raises(ValueError):
        spec_from_dict({"axis1": {"name": "g", "start": 0.1}})  # missing keys
    with pytest.raises(ValueError):
        spec_from_dict(
            {"axis1": {"name": "g", "start": 0.1, "stop": 1.0, "count": 3},
             "cutoffs": [4]}
        )


_AXIS = {"name": "g", "start": 0.5, "stop": 1.5, "count": 4}


@pytest.mark.parametrize(
    "config, key",
    [
        ({"axis1": _AXIS, "fixed": {"kapa2": 3}}, "kapa2"),
        ({"axis1": _AXIS, "fixed": {"drive_direction": "left"}}, "drive_direction"),
        ({"axis1": _AXIS, "output": ["n_a"]}, "output"),
        ({"axis1": {**_AXIS, "cout": 7}}, "cout"),
    ],
)
def test_spec_from_dict_rejects_unknown_keys(config, key):
    with pytest.raises(ValueError, match=repr(key)):
        spec_from_dict(config)


@pytest.mark.parametrize("flag", ["convergence_check", "include_optimal_g"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_spec_from_dict_requires_json_booleans(flag, value):
    with pytest.raises(ValueError, match=f"{flag} must be a JSON boolean"):
        spec_from_dict({"axis1": _AXIS, flag: value})


@pytest.mark.parametrize(
    "config, key",
    [
        ({"axis1": _AXIS, "cutoffs": [2.7, 1.9]}, "cutoffs"),
        ({"axis1": _AXIS, "cutoffs": [2, 1.5]}, "cutoffs"),
        ({"axis1": _AXIS, "cutoffs": [True, 1]}, "cutoffs"),
        ({"axis1": _AXIS, "cutoffs": ["2", 1]}, "cutoffs"),
        ({"axis1": {**_AXIS, "count": 3.9}}, "count"),
        ({"axis1": {**_AXIS, "count": True}}, "count"),
        ({"axis1": _AXIS, "axis2": {**_AXIS, "name": "delta", "count": 2.5}}, "count"),
    ],
)
def test_spec_from_dict_rejects_non_integers(config, key):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        spec_from_dict(config)


def test_spec_from_dict_accepts_whole_floats():
    spec = spec_from_dict({"axis1": {**_AXIS, "count": 4.0}, "cutoffs": [3.0, 2]})
    assert spec.axis1.count == 4 and spec.cutoffs == (3, 2)


# ------------------------------------------------------ parameter codec


def test_params_dict_round_trip_and_key_order():
    p = SystemParams(delta=-0.5, g=0.8, kappa2=1.5, drive_strength=0.1, delta_f=-0.2)
    data = dataclasses.asdict(p)
    assert list(data) == ["delta", "g", "kappa1", "kappa2", "drive_strength", "delta_f"]
    assert params_from_dict(json.loads(json.dumps(data))) == p
    assert params_from_dict({}) == DEFAULT_FIXED
    assert params_from_dict({"kappa2": 2}).kappa2 == 2.0


def test_max_rel_change():
    assert max_rel_change([(1.0, 2.0), (None, 1.0), (3.0, 3.0)]) == 0.5
    assert max_rel_change([(0.0, 0.0)]) == 0.0
    assert max_rel_change([(None, 1.0), (1.0, None)]) is None
    assert max_rel_change([]) is None


def test_convergence_undefined_when_no_pair_is_defined():
    spec = _small_spec(
        axis1=SweepAxis("delta", 0.0, 1.0, 2),
        fixed=SystemParams(drive_strength=0.0),
        outputs=("g2_bb", "n_b"),
        cutoffs=(2, 1),
        convergence_check=True,
    )
    result = run_sweep(spec)
    assert result.convergence == {"g2_bb": None, "n_b": 0.0}
    metadata = json.loads(render_json(result))["metadata"]
    assert metadata["convergence_max_rel_change"] == {"g2_bb": None, "n_b": 0.0}


def test_antibunching_optimal_at_zero_detuning():
    # along a detuning cut at strong hopping, g2_aa is minimized on
    # resonance with the fundamental mode
    spec = SweepSpec(
        axis1=SweepAxis("delta", -3.0, 3.0, 13),
        fixed=SystemParams(g=5.0, drive_strength=0.05),
        outputs=("g2_aa",),
    )
    result = run_sweep(spec)
    ys = [row.outputs["g2_aa"] for row in result.rows]
    assert result.rows[int(np.argmin(ys))].axis_values[0] == pytest.approx(0.0)


def test_dip_follows_optimal_curve_across_kappa2():
    # the valley of g2_bb over hopping tracks the closed form as the
    # second-harmonic loss varies
    for kappa2 in (0.5, 1.5, 2.5):
        predicted = optimal_g(1.0, kappa2, 0.05)
        axis = SweepAxis("g", 0.6 * predicted, 1.6 * predicted, 15)
        spec = SweepSpec(
            axis1=axis,
            fixed=SystemParams(kappa2=kappa2, drive_strength=0.05),
            outputs=("g2_bb",),
        )
        result = run_sweep(spec)
        xs = np.array([row.axis_values[0] for row in result.rows])
        ys = np.array([row.outputs["g2_bb"] for row in result.rows])
        refined, _ = refine_extremum(xs, ys, "min")
        assert abs(refined - predicted) / predicted < 0.05, f"kappa2={kappa2}"


# ------------------------------------------------------------- refinement


def test_refine_extremum_recovers_parabola_vertex():
    xs = np.linspace(0.0, 2.0, 21)
    ys = (xs - 0.735) ** 2 + 0.2
    x_ref, y_grid = refine_extremum(xs, ys, "min")
    assert x_ref == pytest.approx(0.735, abs=1e-12)
    assert y_grid == np.min(ys)


def test_refine_extremum_boundary_unrefined():
    xs = np.linspace(0.0, 1.0, 5)
    ys = xs.copy()
    assert refine_extremum(xs, ys, "min") == (0.0, 0.0)
    assert refine_extremum(xs, ys, "max") == (1.0, 1.0)


@pytest.mark.parametrize("where", ["xs", "ys"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_refine_extremum_rejects_non_finite_input(where, bad):
    xs = np.linspace(0.0, 2.0, 5)
    ys = (xs - 0.7) ** 2
    (xs if where == "xs" else ys)[2] = bad
    with pytest.raises(ValueError, match="finite"):
        refine_extremum(xs, ys, "min")


def test_refine_extremum_tie_breaks_small_x():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([5.0, 1.0, 1.0, 5.0])
    x_ref, _ = refine_extremum(xs, ys, "min")
    assert x_ref <= 1.5  # refined from the first (smaller-x) tie
    with pytest.raises(ValueError, match="kind"):
        refine_extremum(xs, np.array([3.0, 1.0, 2.0, 5.0]), "minimum")
