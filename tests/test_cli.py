import json

import pytest

import rotcav.sweep as sweep_mod
from rotcav import SteadyStateError
from rotcav.cli import main


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
    real = sweep_mod.jump_map_steady_state
    calls = {"n": 0}

    def flaky(h_eff, a, b, kappa1, kappa2):
        calls["n"] += 1
        if calls["n"] == 2:
            raise SteadyStateError("synthetic failure")
        return real(h_eff, a, b, kappa1, kappa2)

    monkeypatch.setattr(sweep_mod, "jump_map_steady_state", flaky)
    out = tmp_path / "partial.csv"
    code = main(["sweep", "--axis1", "g:0.5:1.5:3", "--outputs", "n_a",
                 "--na-cut", "2", "--nb-cut", "1", "--out", str(out)])
    assert code == 2
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + all three rows, failed row included
    assert lines[2].endswith("solver-failure")


def test_point_solver_failure_exit_2(monkeypatch, capsys):
    def boom(h_eff, a, b, kappa1, kappa2):
        raise SteadyStateError("synthetic failure")

    monkeypatch.setattr(sweep_mod, "jump_map_steady_state", boom)
    code = main(["point", "--g", "1.0", "--na-cut", "2", "--nb-cut", "1"])
    assert code == 2
    assert "solver failure" in capsys.readouterr().err
