import ast
import dataclasses
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rotcav.dynamics as dynamics_mod
from conftest import fail_at_points
from rotcav import (
    DriveDirection,
    FizeauParams,
    SweepAxis,
    SweepSpec,
    SystemParams,
    build_basis,
    build_h_eff,
    fizeau_shift,
)
from rotcav.cli import main
from rotcav.dynamics import decay_hamiltonian
from rotcav.sweep import DEFAULT_FIXED, spec_to_dict


def test_invalid_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_invalid_flag_value_exits_1():
    with pytest.raises(SystemExit) as info:
        main(["point", "--g", "not-a-number"])
    assert info.value.code == 1


def test_bad_axis_string_is_error():
    assert main(["sweep", "--axis1", "g:0.5:1.5"]) == 1


def test_axis_whole_float_count_matches_config(tmp_path):
    # A config axis accepts "count": 4.0, and so does the flag.
    flag_out, config_out = tmp_path / "flag.csv", tmp_path / "config.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"axis1": {"name": "g", "start": 0.1, "stop": 3, "count": 4.0}}))
    common = ["--outputs", "n_a", "--na-cut", "2", "--nb-cut", "1"]
    assert main(["sweep", "--axis1", "g:0.1:3:4.0", *common, "--out", str(flag_out)]) == 0
    assert main(["sweep", "--config", str(cfg), *common, "--out", str(config_out)]) == 0
    assert flag_out.read_bytes() == config_out.read_bytes()
    assert len(flag_out.read_text().splitlines()) == 5


@pytest.mark.parametrize(
    "axis, key, config_axis",
    [
        ("g:abc:3:4", "start", None),
        ("g:0.1:abc:3", "stop", None),
        ("g:0.1:3:abc", "count", None),
        ("g:0.1:3:4.5", "count", {"name": "g", "start": 0.1, "stop": 3, "count": 4.5}),
        ("g:0.1:3:inf", "count", None),
        ("g:0.1:inf:3", "stop", {"name": "g", "start": 0.1, "stop": float("inf"), "count": 3}),
        ("g:nan:3:3", "start", {"name": "g", "start": float("nan"), "stop": 3, "count": 3}),
    ],
)
def test_axis_bad_field_is_named(tmp_path, capsys, axis, key, config_axis):
    assert main(["sweep", "--axis1", axis]) == 1
    captured = capsys.readouterr()
    assert f"{key} must be" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    if config_axis is not None:  # the config path rejects the same value, naming the same field
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"axis1": config_axis}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert f"{key} must be" in capsys.readouterr().err


def test_axis_whose_span_overflows_is_error(capsys):
    # Finite bounds whose difference overflows: an error that names the axis,
    # not a NaN grid point the user never gave.
    assert main(["sweep", "--axis1", "delta:-1e308:1e308:3", "--na-cut", "1", "--nb-cut", "1"]) == 1
    captured = capsys.readouterr()
    assert "axis 'delta' span stop - start overflows" in captured.err
    assert "RuntimeWarning" not in captured.err and "nan" not in captured.err
    assert captured.out == ""


def test_sweep_requires_axis_or_config():
    assert main(["sweep"]) == 1


def test_point_prints_statistics(capsys):
    code = main(["point", "--g", "0.867", "--na-cut", "4", "--nb-cut", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "g2_bb" in out and "status = ok" in out


def test_point_vacuum_flagged(capsys, tmp_path):
    out_file = tmp_path / "point.json"
    code = main(["point", "--drive-strength", "0", "--na-cut", "2", "--nb-cut", "1",
                 "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "undefined" in out and "vacuum-undefined" in out
    payload = json.loads(out_file.read_text())
    assert payload["status"] == "vacuum-undefined"
    assert payload["outputs"]["g2_aa"] is None


def test_point_convergence_check(capsys):
    code = main(["point", "--g", "1.0", "--na-cut", "3", "--nb-cut", "2",
                 "--convergence-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "convergence g2_bb" in out


def test_point_out_survives_a_doubled_cutoff_failure(monkeypatch, tmp_path, capsys):
    argv = ["point", "--g", "1.0", "--na-cut", "2", "--nb-cut", "1"]
    plain = tmp_path / "plain.json"
    assert main([*argv, "--out", str(plain)]) == 0
    fail_at_points(monkeypatch, 2)  # the (4, 2) solve; the (2, 1) one is point 1
    checked = tmp_path / "checked.json"
    assert main([*argv, "--convergence-check", "--out", str(checked)]) == 2
    assert "solver failure" in capsys.readouterr().err
    assert checked.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--axis1", "g:0.5:1.5:3", "--outputs", "n_a"],
        ["figure", "--name", "fig5", "--count1", "3"],
    ],
    ids=["sweep", "figure"],
)
def test_doubled_cutoff_failure_exits_2_with_rows_unchanged(argv, monkeypatch, tmp_path, capsys):
    argv = [*argv, "--na-cut", "2", "--nb-cut", "1", "--convergence-check"]
    plain = tmp_path / "plain.csv"
    assert main([*argv, "--out", str(plain)]) == 0
    assert "doubled cutoffs" not in capsys.readouterr().err
    fail_at_points(monkeypatch, 5)  # the second point of the doubled-cutoff pass
    failed = tmp_path / "failed.csv"
    assert main([*argv, "--out", str(failed)]) == 2
    assert "solver failure at 1 point(s) at doubled cutoffs" in capsys.readouterr().err
    assert failed.read_bytes() == plain.read_bytes()


def test_optimal_g_output(capsys):
    assert main(["optimal-g"]) == 0
    assert capsys.readouterr().out.strip() == "0.866746791168"


def test_fizeau_output(capsys):
    assert main(["fizeau", "--kappa1-si", "6283185.307179586"]) == 0
    out = capsys.readouterr().out
    assert "fizeau_shift_rad_s = 126796672.505" in out
    assert "fizeau_shift_kappa1" in out


def test_fizeau_cli_matches_library_at_another_wavelength(capsys):
    shift = fizeau_shift(FizeauParams(wavelength=1064e-9), DriveDirection.LEFT)
    assert shift == pytest.approx(1.847e8, rel=1e-3)
    assert main(["fizeau", "--wavelength", "1064e-9"]) == 0
    assert capsys.readouterr().out == f"fizeau_shift_rad_s = {shift:.12g}\n"


def test_fizeau_omega1_passes_through(capsys):
    shift = fizeau_shift(FizeauParams(omega1=1e15), DriveDirection.LEFT)
    assert main(["fizeau", "--omega1", "1e15", "--wavelength", "1064e-9"]) == 0
    assert capsys.readouterr().out == f"fizeau_shift_rad_s = {shift:.12g}\n"


def test_fizeau_zero_wavelength_exits_1(capsys):
    assert main(["fizeau", "--wavelength", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: r, wavelength, omega1 must be positive\n"
    assert captured.out == ""


@pytest.mark.parametrize("omega1", ["nan", "inf"])
def test_eigen_non_finite_omega1_exits_1(omega1, capsys):
    assert main(["eigen", "--omega1", omega1, "--na-cut", "2", "--nb-cut", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "omega1 must be finite" in captured.err


def test_eigen_output(capsys):
    code = main(["eigen", "--omega1", "100", "--g", "5",
                 "--na-cut", "4", "--nb-cut", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [float(x) for x in lines] == pytest.approx(
        [0.0, 100.0, 192.928932188, 207.071067812]
    )


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--axis1", "g:0.5:1.5:3", "--outputs", "g2_bb",
        "--na-cut", "3", "--nb-cut", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "g,g2_bb,status"
    assert len(lines) == 4


def test_sweep_stdout_and_determinism(capsys, tmp_path):
    argv = ["sweep", "--axis1", "g:0.5:1.5:3", "--outputs", "n_a",
            "--na-cut", "2", "--nb-cut", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_sweep_config_with_flag_override(tmp_path):
    config = {
        "axis1": {"name": "g", "start": 0.5, "stop": 1.5, "count": 2},
        "fixed": {"kappa2": 1.0, "drive_strength": 0.05},
        "outputs": ["n_b"],
        "cutoffs": [2, 1],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--kappa2", "2.0",
                 "--out", str(out_b)]) == 0
    assert out_a.read_text() != out_b.read_text()  # the override changed physics


def test_figure_preset_runs(tmp_path):
    out = tmp_path / "fig5.csv"
    code = main(["figure", "--name", "fig5", "--count1", "4",
                 "--na-cut", "3", "--nb-cut", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "g,g2_bb,status"
    assert len(lines) == 5


def test_figure_unknown_name_exits_1():
    with pytest.raises(SystemExit) as info:
        main(["figure", "--name", "fig9"])
    assert info.value.code == 1


def test_figure_json_format(tmp_path):
    out = tmp_path / "fig5.json"
    code = main(["figure", "--name", "fig5", "--count1", "3", "--format", "json",
                 "--na-cut", "2", "--nb-cut", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["spec"]["outputs"] == ["g2_bb"]
    assert len(payload["rows"]) == 3


def test_solver_failure_exit_2_with_partial_output(monkeypatch, tmp_path, capsys):
    fail_at_points(monkeypatch, 2)
    out = tmp_path / "partial.csv"
    code = main(["sweep", "--axis1", "g:0.5:1.5:3", "--outputs", "n_a",
                 "--na-cut", "2", "--nb-cut", "1", "--out", str(out)])
    assert code == 2
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + all three rows, failed row included
    assert lines[2].endswith("solver-failure")


def test_certificate_failure_exit_2_with_partial_output(monkeypatch, tmp_path, capsys):
    # No state passes a positivity tolerance of 1: every row is a solver failure.
    monkeypatch.setattr(dynamics_mod, "POSITIVITY_TOL", 1.0)
    out = tmp_path / "failed.csv"
    code = main(["sweep", "--axis1", "g:0.5:1.5:3", "--outputs", "n_a",
                 "--na-cut", "2", "--nb-cut", "1", "--out", str(out)])
    assert code == 2
    lines = out.read_text().splitlines()
    assert lines[0] == "g,n_a,status"
    assert [line.split(",")[-1] for line in lines[1:]] == ["solver-failure"] * 3


def test_point_certificate_failure_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(dynamics_mod, "POSITIVITY_TOL", 1.0)
    assert main(["point", "--g", "1.0", "--na-cut", "2", "--nb-cut", "1"]) == 2
    assert "solver failure: certificate failed: state not positive" in capsys.readouterr().err


def test_sweep_duplicate_output_exits_1(tmp_path, capsys):
    out = tmp_path / "dup.csv"
    code = main(["sweep", "--axis1", "g:0:1:3", "--outputs", "g2_aa,g2_aa", "--out", str(out)])
    assert code == 1
    assert "output 'g2_aa' is requested more than once" in capsys.readouterr().err
    assert not out.exists()


def test_point_solver_failure_exit_2(monkeypatch, capsys):
    fail_at_points(monkeypatch, 1)
    code = main(["point", "--g", "1.0", "--na-cut", "2", "--nb-cut", "1"])
    assert code == 2
    failures = [line for line in capsys.readouterr().err.splitlines() if "solver failure" in line]
    assert len(failures) == 1
    assert failures[0].startswith("solver failure: synthetic failure [at delta=")
    assert ", g=1.0, " in failures[0] and failures[0].endswith("]")


@pytest.mark.parametrize(
    "flags",
    [
        ["--drive-strength", "1e100"],
        ["--drive-strength", "1e200"],
        ["--g", "1e200"],
        ["--kappa2", "1e300"],
        ["--delta", "1e200"],
    ],
    ids=["F1e100", "F1e200", "g1e200", "kappa2-1e300", "delta1e200"],
)
def test_point_at_extreme_finite_inputs_keeps_the_exit_codes(flags, capsys):
    # A RuntimeWarning is an error in this suite: the point solves or fails
    # cleanly, without a NaN or an overflow on the way.
    assert main(["point", *flags]) in (0, 2)
    assert "Warning" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--delta", "1", "--drive-strength", "1e-16"],
        ["--delta", "-1", "--drive-strength", "1e-16"],
        ["--delta", "1", "--g", "0.5", "--drive-strength", "1e-17"],
    ],
    ids=["delta1-F1e-16", "delta-1-F1e-16", "delta1-g0.5-F1e-17"],
)
def test_point_at_tiny_drive_off_the_mirror_line_solves(flags, tmp_path):
    out = tmp_path / "point.json"
    assert main(["point", *flags, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    p = payload["params"]
    n_a = p["drive_strength"] ** 2 / ((p["delta"] + p["delta_f"]) ** 2 + 0.25)
    assert payload["outputs"]["n_a"] == pytest.approx(n_a, rel=1e-12, abs=0.0)


def test_sweep_at_huge_g_prints_no_negative_g2(tmp_path):
    # The two-photon populations at g = 1e100 are roundoff of either sign;
    # g2_aa read -3.2e-189 there.
    out = tmp_path / "huge_g.csv"
    assert main(["sweep", "--axis1", "g:1e100:1e200:3", "--delta", "1", "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    columns = [header.index("g2_aa"), header.index("g2_bb")]
    values = [float(row[i]) for row in rows for i in columns if row[i]]
    assert len(rows) == 3 and values and min(values) >= 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--delta", "1e308", "--delta-f", "1e308"],
        ["sweep", "--axis1", "delta:1e308:1.5e308:2", "--delta-f", "1e308"],
        ["eigen", "--omega1", "1e308", "--delta-f", "1e308"],
    ],
    ids=["point", "sweep", "eigen"],
)
def test_hamiltonian_that_overflows_exits_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Hamiltonian overflows the float range at detuning inf")


def _assert_failed_eigendecomposition_is_a_solver_failure_row(monkeypatch, tmp_path, capsys, delta):
    # The second point's eig raises, for its B = -i U H' U^dag
    # (dynamics._mirror_phases), which every driven point is factored from,
    # and for its decay-scaled B alike.  B is real on the mirror line
    # delta = 0 and complex off it.  That point alone fails, and stderr says
    # why.
    argv = ["sweep", "--axis1", "g:0.5:1.5:3", "--delta", str(delta), "--outputs", "n_a",
            "--na-cut", "2", "--nb-cut", "1"]
    plain = tmp_path / "plain.csv"
    assert main([*argv, "--out", str(plain)]) == 0
    basis, p = build_basis(2, 1), dataclasses.replace(DEFAULT_FIXED, delta=delta, g=1.0)
    h_prime = decay_hamiltonian(build_h_eff(p, basis), basis, p.kappa1, p.kappa2)
    b = dynamics_mod._mirror_phases(basis) * h_prime
    assert b.imag.any() == (delta != 0.0)
    failing = (b,) if delta else (b.real,)
    eig = np.linalg.eig

    def not_converging_near_failing(matrices):
        if any(np.allclose(m, f) for m in matrices for f in failing):
            raise np.linalg.LinAlgError("did not converge")
        return eig(matrices)

    monkeypatch.setattr(np.linalg, "eig", not_converging_near_failing)
    capsys.readouterr()
    failed = tmp_path / "failed.csv"
    assert main([*argv, "--out", str(failed)]) == 2
    rows, expected = failed.read_text().splitlines(), plain.read_text().splitlines()
    assert rows[2] == "1,,solver-failure"
    assert rows[:2] + rows[3:] == expected[:2] + expected[3:]
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("solver failure: no usable eigenbasis of H'"), line
    assert ", g=1.0, " in line, line


def test_failed_eigendecomposition_is_a_solver_failure_row(monkeypatch, tmp_path, capsys):
    _assert_failed_eigendecomposition_is_a_solver_failure_row(monkeypatch, tmp_path, capsys, 0.0)


def test_failed_eigendecomposition_off_the_mirror_line_is_a_solver_failure_row(monkeypatch, tmp_path, capsys):
    _assert_failed_eigendecomposition_is_a_solver_failure_row(monkeypatch, tmp_path, capsys, 0.5)


# ------------------------------------------------------- what gets imported

_EXCEPTIONAL_POINT = ["point", "--g", "0.17677669529663687", "--drive-strength", "1e-13",
                      "--na-cut", "10", "--nb-cut", "5"]
_DENSE_SETUP = (
    "basis = rotcav.build_basis(2, 1)\n"
    "ops = rotcav.annihilator_a(basis), rotcav.annihilator_b(basis)\n"
    "h = rotcav.build_h_eff(rotcav.SystemParams(g=1.0, drive_strength=0.1), basis)\n"
)
_DENSE_ORACLE = _DENSE_SETUP + "rotcav.steady_state(rotcav.build_liouvillian(h, *ops, 1.0, 1.0))\ncode = 0"
_DENSE_ORACLE_WITHOUT_SCIPY = _DENSE_SETUP + (
    "lio = rotcav.oracle.build_liouvillian(h, *ops, 1.0, 1.0)\n"
    "try:\n"
    "    rotcav.oracle.steady_state(lio)\n"
    "except ModuleNotFoundError:\n"
    "    code = 'ModuleNotFoundError'"
)


@pytest.mark.parametrize(
    "statement, expected_code, loads_scipy_linalg",
    [
        ("code = None", None, False),
        ("code = main(['point'])", 0, False),
        ("code = main(['point', '--convergence-check'])", 0, False),
        ("code = main(['figure', '--name', 'fig5', '--count1', '3'])", 0, False),
        ("code = main(['sweep', '--axis1', 'g:0.5:1:3', '--format', 'json'])", 0, False),
        (f"code = main({_EXCEPTIONAL_POINT!r})", 0, False),
        ("code = main(['eigen', '--omega1', '10'])", 0, False),
        ("code = main(['optimal-g'])", 0, False),
        ("code = main(['fizeau', '--kappa1-si', '6.28e6'])", 0, False),
        (_DENSE_ORACLE_WITHOUT_SCIPY, "ModuleNotFoundError", False),
        (_DENSE_ORACLE, 0, True),
    ],
    ids=["import", "point", "point-convergence-check", "fig5-sweep", "sweep-json", "exceptional-point",
         "eigen", "optimal-g", "fizeau", "dense-oracle-without-scipy", "dense-oracle"],
)
def test_scipy_linalg_is_imported_only_by_the_dense_oracle(statement, expected_code, loads_scipy_linalg):
    # In a fresh interpreter: scipy.linalg serves only the dense oracle, so the
    # solver, even at an exceptional point, never pays for its import.  Every
    # case but the dense oracle's runs with scipy unimportable, as in an install
    # without the test extra: any import of it raises ModuleNotFoundError.
    src = Path(dynamics_mod.__file__).parents[1]
    without_scipy = "" if loads_scipy_linalg else "sys.modules['scipy'] = None; "
    script = (
        f"import sys; {without_scipy}sys.path.insert(0, sys.argv[1]); import rotcav; from rotcav.cli import main\n"
        f"{statement}\n"
        "print(code, 'scipy.linalg' in sys.modules)"
    )
    command = [sys.executable, "-c", script, str(src)]
    out = subprocess.run(command, capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.splitlines()[-1] == f"{expected_code} {loads_scipy_linalg}"


def _imported_names(path: Path):
    """The dotted name of everything each import statement of a package module
    imports: `from .oracle import steady_state` gives rotcav.oracle.steady_state."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["rotcav" if node.level else "", node.module]))
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_only_the_oracle_imports_scipy_and_only_the_package_imports_the_oracle():
    # The production path must not gain a dependency on the dense oracle or on
    # scipy.  The package re-exports the three oracle names that the benchmark
    # imports from it.
    scipy_users, oracle_imports = set(), set()
    for path in sorted(Path(dynamics_mod.__file__).parent.glob("*.py")):
        for name in _imported_names(path):
            if name.split(".")[0] == "scipy":
                scipy_users.add(path.name)
            if name == "rotcav.oracle" or name.startswith("rotcav.oracle."):
                oracle_imports.add((path.name, name))
    assert scipy_users == {"oracle.py"}
    assert oracle_imports == {
        ("__init__.py", f"rotcav.oracle.{name}")
        for name in ("build_liouvillian", "photon_statistics", "steady_state")
    }


def test_every_imported_name_is_loaded():
    # Not in the package's __init__, whose imports are re-exports.
    unused = []
    for path in [*Path(dynamics_mod.__file__).parent.glob("[!_]*.py"), *Path(__file__).parent.glob("*.py")]:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        loaded = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [f"{path.name}: {name}" for name in bound if name not in loaded]
    assert unused == []


# ------------------------------------------------- parameters and config


def _config_with_left_shift(tmp_path):
    config = {
        "axis1": {"name": "delta", "start": -1.0, "stop": 1.0, "count": 2},
        "fixed": {"g": 0.8, "delta_f": 0.3},
        "outputs": ["n_a"],
        "cutoffs": [2, 1],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return cfg


def test_sweep_delta_f_override_flips_port(tmp_path, capsys):
    cfg = _config_with_left_shift(tmp_path)
    code = main(["sweep", "--config", str(cfg), "--delta-f", "-0.3", "--format", "json"])
    assert code == 0
    fixed = json.loads(capsys.readouterr().out)["metadata"]["spec"]["fixed"]
    assert fixed["delta_f"] == -0.3
    assert fixed["g"] == 0.8
    assert "direction" not in fixed


@pytest.mark.parametrize(
    "argv", [["point"], ["sweep", "--axis1", "g:0:1:2"], ["eigen", "--omega1", "1"]]
)
def test_direction_flag_is_gone(argv, capsys):
    # the sign of --delta-f is the drive port
    with pytest.raises(SystemExit) as info:
        main([*argv, "--direction", "right"])
    assert info.value.code == 1
    assert "unrecognized arguments: --direction right" in capsys.readouterr().err


def test_sweep_flags_keep_config_port_when_delta_f_untouched(tmp_path, capsys):
    cfg = _config_with_left_shift(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--g", "1.1", "--format", "json"]) == 0
    fixed = json.loads(capsys.readouterr().out)["metadata"]["spec"]["fixed"]
    assert (fixed["g"], fixed["delta_f"]) == (1.1, 0.3)


def test_point_params_match_sweep_fixed_record(tmp_path, capsys):
    out_file = tmp_path / "point.json"
    flags = ["--delta", "-0.5", "--g", "0.867", "--kappa2", "1.2", "--delta-f", "0.3"]
    assert main(["point", *flags, "--na-cut", "2", "--nb-cut", "1",
                 "--out", str(out_file)]) == 0
    params = json.loads(out_file.read_text())["params"]
    spec = SweepSpec(
        axis1=SweepAxis("g", 0.5, 1.0, 2),
        fixed=SystemParams(delta=-0.5, g=0.867, kappa2=1.2, drive_strength=0.05,
                           delta_f=0.3),
    )
    expected = spec_to_dict(spec)["fixed"]
    assert list(params) == list(expected)
    assert params == expected
    # the same flags on a sweep echo the same record
    capsys.readouterr()
    assert main(["sweep", "--axis1", "g:0.5:1:2", *flags, "--na-cut", "2",
                 "--nb-cut", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["spec"]["fixed"] == params


@pytest.mark.parametrize(
    "entry, key",
    [
        ({"fixed": {"kapa2": 3}}, "kapa2"),
        ({"cutof": [2, 1]}, "cutof"),
        ({"fixed": {"direction": "left"}}, "direction"),
    ],
)
def test_sweep_config_unknown_key_is_error(tmp_path, capsys, entry, key):
    config = {"axis1": {"name": "g", "start": 0.5, "stop": 1.0, "count": 2},
              "cutoffs": [2, 1], **entry}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert repr(key) in capsys.readouterr().err


_G_AXIS = {"name": "g", "start": 0.5, "stop": 1.0, "count": 2}


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"fixed": []}, "fixed must be a JSON object"),
        ({"outputs": "g2_bb"}, "outputs must be a JSON array"),
        ({"axis1": "g"}, "axis1 must be a JSON object"),
        ({"axis1": None}, "config must define axis1"),
        ({"fixed": {"drive_strength": True}}, "drive_strength must be a JSON number"),
        ({"axis1": {**_G_AXIS, "start": True}}, "start must be a JSON number"),
        ({"axis1": {**_G_AXIS, "stop": False}}, "stop must be a JSON number"),
        # json reads a 401-digit integer as a Python int, beyond the float range
        ({"fixed": {"delta": 10**400}}, "error: delta must be finite"),
        ({"axis1": {**_G_AXIS, "start": 10**400}}, "error: start must be finite"),
    ],
    ids=[
        "fixed-list", "outputs-string", "axis-string", "axis-null", "fixed-bool", "start-bool",
        "stop-bool", "fixed-int-beyond-float", "start-int-beyond-float",
    ],
)
def test_sweep_config_wrong_json_type_is_error(tmp_path, capsys, entry, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"axis1": _G_AXIS, "cutoffs": [2, 1], **entry}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_sweep_config_string_boolean_is_error(tmp_path, capsys):
    config = {"axis1": {"name": "g", "start": 0.5, "stop": 1.0, "count": 2},
              "cutoffs": [2, 1], "convergence_check": "false"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "convergence_check must be a JSON boolean" in captured.err
    assert captured.out == ""


def test_sweep_convergence_undefined_without_defined_pairs(tmp_path, capsys):
    out = tmp_path / "undef.json"
    code = main(["sweep", "--axis1", "delta:0:1:2", "--drive-strength", "0",
                 "--outputs", "g2_bb,n_a", "--convergence-check",
                 "--na-cut", "2", "--nb-cut", "1", "--format", "json", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "convergence g2_bb: max rel change undefined" in err
    assert "convergence n_a: max rel change 0.000e+00" in err  # defined: 0 vs 0
    metadata = json.loads(out.read_text())["metadata"]
    assert metadata["convergence_max_rel_change"] == {"g2_bb": None, "n_a": 0.0}
    assert metadata["convergence_failures"] == 0


def test_sweep_json_records_doubled_cutoff_failures(monkeypatch, tmp_path, capsys):
    # Delta = -4 fails at the doubled cutoffs (12, 6), the third point solved;
    # Delta = -3 does not.
    fail_at_points(monkeypatch, 3)
    out = tmp_path / "failed.json"
    code = main(["sweep", "--axis1", "delta:-4:-3:2", "--g", "2", "--drive-strength", "2",
                 "--convergence-check", "--format", "json", "--out", str(out)])
    assert code == 2
    assert "solver failure at 1 point(s) at doubled cutoffs" in capsys.readouterr().err
    assert json.loads(out.read_text())["metadata"]["convergence_failures"] == 1


# The strong-drive point g = 2, delta = -4, F = 2 converges so slowly at the
# doubled cutoffs (12, 6) that the fixed-point loop ran out of its 1000
# iterations; the Krylov phase finishes it.
def test_point_convergence_check_at_strong_drive(capsys):
    code = main(["point", "--g", "2", "--delta", "-4", "--drive-strength", "2", "--convergence-check"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = [line for line in captured.out.splitlines() if line.startswith("convergence ")]
    assert len(lines) == 4


def test_sweep_convergence_check_at_strong_drive(tmp_path, capsys):
    out = tmp_path / "strong.json"
    code = main(["sweep", "--axis1", "delta:-4:-3:2", "--g", "2", "--drive-strength", "2",
                 "--convergence-check", "--format", "json", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["metadata"]["convergence_failures"] == 0


@pytest.mark.parametrize(
    "argv, name",
    [
        (["point", "--g", "nan"], "g"),
        (["point", "--kappa2", "inf"], "kappa2"),
        (["point", "--delta-f=-inf"], "delta_f"),
        (["sweep", "--axis1", "g:0.5:1:2", "--delta", "nan"], "delta"),
        (["optimal-g", "--drive-strength", "inf"], "drive_strength"),
    ],
)
def test_non_finite_parameter_is_error(argv, name, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert f"{name} must be finite" in capsys.readouterr().err


def test_optimal_g_rejects_negative_drive(capsys):
    assert main(["optimal-g", "--drive-strength", "-0.1"]) == 1
    assert "drive_strength must be >= 0" in capsys.readouterr().err


def test_sweep_config_fractional_cutoffs_is_error(tmp_path, capsys):
    config = {"axis1": {"name": "g", "start": 0.5, "stop": 1.0, "count": 3.9},
              "cutoffs": [2.7, 1.9]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "must be an integer" in captured.err
    assert captured.out == ""


def test_sweep_config_cutoffs_must_be_a_pair(tmp_path, capsys):
    config = {"axis1": {"name": "g", "start": 0.5, "stop": 1.0, "count": 3},
              "cutoffs": [6, 3, 9]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "malformed sweep config" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ["5", "null"])
def test_sweep_config_not_an_object_is_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "malformed sweep config" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--count1", "--count2"])
def test_figure_zero_count_is_error(flag, capsys):
    assert main(["figure", "--name", "fig4a", flag, "0"]) == 1
    captured = capsys.readouterr()
    assert "needs count >= 2, got 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("count2", ["0", "3"])
def test_figure_count2_on_a_one_axis_preset_is_error(count2, capsys):
    # fig5 sweeps one axis: a second-axis count is an error, not ignored.
    assert main(["figure", "--name", "fig5", "--count1", "2", "--count2", count2]) == 1
    captured = capsys.readouterr()
    assert "preset 'fig5' sweeps one axis" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--omega1", "0"], "omega1 must be positive"),
        (["--kappa1-si", "0"], "--kappa1-si must be finite and positive"),
        (["--kappa1-si=-6.28e6"], "--kappa1-si must be finite and positive"),
        (["--kappa1-si", "inf"], "--kappa1-si must be finite and positive"),
        (["--n", "nan"], "n must be finite"),
        (["--radius", "inf"], "r must be finite"),
    ],
)
def test_fizeau_rejects_bad_numbers(argv, message, capsys):
    assert main(["fizeau", *argv]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


# Closed forms whose finite inputs overflow: one error line, exit 1, no
# traceback and nothing on stdout.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["optimal-g", "--kappa2", "1e200"], "error: optimal g at kappa1 1.0, kappa2 1e+200, f 0.05 must be finite"),
        (["optimal-g", "--drive-strength", "1e155"], "error: optimal g at kappa1 1.0, kappa2 1.0, f 1e+155"),
        (["fizeau", "--omega1", "1e308", "--radius", "1e10"], "error: the Fizeau shift of FizeauParams("),
        (["fizeau", "--omega1", "1e300", "--kappa1-si", "1e-300"], "error: fizeau_shift_kappa1 at 1.04"),
    ],
    ids=["optimal-g-kappa2", "optimal-g-drive", "fizeau-rad-s", "fizeau-kappa1"],
)
def test_closed_form_that_overflows_is_error(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1 and "must be finite, got inf" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_sweep_optimal_g_column_that_overflows_is_error(tmp_path, capsys):
    config = {"axis1": {"name": "kappa2", "start": 1e200, "stop": 2e200, "count": 2},
              "cutoffs": [2, 1], "include_optimal_g": True}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: optimal g at kappa1 1.0, kappa2 1e+200, f 0.05 must be finite, got inf\n"
    assert captured.out == ""
