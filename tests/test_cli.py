import json
import warnings

import pytest

import rotcav.dynamics as dynamics_mod
from conftest import fail_at_points
from rotcav import SweepAxis, SweepSpec, SystemParams
from rotcav.cli import main
from rotcav.sweep import spec_to_dict


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


def test_sweep_requires_axis_or_config():
    assert main(["sweep"]) == 1


def test_inconsistent_direction_is_error(capsys):
    assert main(["point", "--delta-f", "0.5", "--direction", "right"]) == 1
    assert "delta_f" in capsys.readouterr().err


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


def test_optimal_g_output(capsys):
    assert main(["optimal-g"]) == 0
    assert capsys.readouterr().out.strip() == "0.866746791168"


def test_fizeau_output(capsys):
    assert main(["fizeau", "--kappa1-si", "6283185.307179586"]) == 0
    out = capsys.readouterr().out
    assert "fizeau_shift_rad_s = 126796672.505" in out
    assert "fizeau_shift_kappa1" in out


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
    assert "solver failure" in capsys.readouterr().err


# ------------------------------------------------- parameters and config


def _config_with_left_shift(tmp_path):
    config = {
        "axis1": {"name": "delta", "start": -1.0, "stop": 1.0, "count": 2},
        "fixed": {"g": 0.8, "delta_f": 0.3, "direction": "left"},
        "outputs": ["n_a"],
        "cutoffs": [2, 1],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return cfg


@pytest.mark.parametrize("port_flags", [[], ["--direction", "right"]])
def test_sweep_delta_f_override_reinfers_port(tmp_path, capsys, port_flags):
    cfg = _config_with_left_shift(tmp_path)
    code = main(["sweep", "--config", str(cfg), "--delta-f", "-0.3", *port_flags,
                 "--format", "json"])
    assert code == 0
    fixed = json.loads(capsys.readouterr().out)["metadata"]["spec"]["fixed"]
    assert fixed["delta_f"] == -0.3
    assert fixed["direction"] == "right"
    assert fixed["g"] == 0.8


def test_sweep_override_with_contradicting_port_is_error(tmp_path, capsys):
    cfg = _config_with_left_shift(tmp_path)
    code = main(["sweep", "--config", str(cfg), "--delta-f", "-0.3",
                 "--direction", "left"])
    assert code == 1
    assert "delta_f < 0 requires right drive" in capsys.readouterr().err


def test_sweep_flags_keep_config_port_when_delta_f_untouched(tmp_path, capsys):
    cfg = _config_with_left_shift(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--g", "1.1", "--format", "json"]) == 0
    fixed = json.loads(capsys.readouterr().out)["metadata"]["spec"]["fixed"]
    assert (fixed["g"], fixed["delta_f"], fixed["direction"]) == (1.1, 0.3, "left")


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
    [({"fixed": {"kapa2": 3}}, "kapa2"), ({"cutof": [2, 1]}, "cutof")],
)
def test_sweep_config_unknown_key_is_error(tmp_path, capsys, entry, key):
    config = {"axis1": {"name": "g", "start": 0.5, "stop": 1.0, "count": 2},
              "cutoffs": [2, 1], **entry}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert repr(key) in capsys.readouterr().err


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
    change = json.loads(out.read_text())["metadata"]["convergence_max_rel_change"]
    assert change == {"g2_bb": None, "n_a": 0.0}


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


@pytest.mark.parametrize("flag", ["--count1", "--count2"])
def test_figure_zero_count_is_error(flag, capsys):
    assert main(["figure", "--name", "fig4a", flag, "0"]) == 1
    captured = capsys.readouterr()
    assert "needs count >= 2, got 0" in captured.err
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
