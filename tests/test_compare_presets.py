import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_presets.py"
_spec = importlib.util.spec_from_file_location("compare_presets", SCRIPT)
compare_presets = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_presets)

HEADER = "delta,g2_aa,g2_bb,status\n"
ROWS = ["-1,0.5,1.25,ok\n", "0,0.25,,vacuum-undefined\n", "1,0.5,2,ok\n"]


def _write(directory: Path, rows, name="fig5.csv") -> Path:
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(HEADER + "".join(rows))
    return directory


def test_identical_outputs_move_nothing(tmp_path, capsys):
    old, new = _write(tmp_path / "old", ROWS), _write(tmp_path / "new", ROWS)
    assert compare_presets.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == "fig5.csv: 3 rows, 0 cells moved\n"


def test_moved_cells_are_counted_with_their_worst_change(tmp_path, capsys):
    moved = [ROWS[0].replace("1.25", "1.2500000001"), ROWS[1], ROWS[2].replace(",2,", ",2.000000002,")]
    old, new = _write(tmp_path / "old", ROWS), _write(tmp_path / "new", moved)
    assert compare_presets.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert out == "fig5.csv: 3 rows, 2 cells moved, worst relative change 1e-09\n"


@pytest.mark.parametrize(
    "rows",
    [
        ROWS[:2],
        [ROWS[0], ROWS[1], ROWS[2].replace("ok", "solver-failure")],
        [ROWS[0], ROWS[1].replace(",,", ",3,"), ROWS[2]],
    ],
    ids=["row-count", "status", "empty-cell"],
)
def test_structural_mismatch_exits_1(tmp_path, rows, capsys):
    old, new = _write(tmp_path / "old", ROWS), _write(tmp_path / "new", rows)
    assert compare_presets.main([str(old), str(new)]) == 1
    assert "MISMATCH fig5.csv" in capsys.readouterr().err


def test_missing_csv_exits_1(tmp_path):
    old = _write(_write(tmp_path / "old", ROWS), ROWS, name="fig6.csv")
    new = _write(tmp_path / "new", ROWS)
    assert compare_presets.main([str(old), str(new)]) == 1


def _write_json(directory: Path, created: str, convergence: float, cutoffs=(6, 3)) -> Path:
    directory.mkdir(exist_ok=True)
    metadata = {
        "spec": {"cutoffs": list(cutoffs)},
        "created_utc": created,
        "convergence_max_rel_change": {"g2_bb": convergence},
    }
    rows = [{"g": 0.1, "g2_bb": 0.25, "status": "ok"}, {"g": 0.2, "g2_bb": None, "status": "vacuum-undefined"}]
    (directory / "fig5_convergence.json").write_text(json.dumps({"metadata": metadata, "rows": rows}))
    return directory


def test_json_outputs_compare_rows_and_convergence_but_not_timestamps(tmp_path, capsys):
    old = _write_json(tmp_path / "old", "2026-01-01T00:00:00", 4.5e-08)
    same = _write_json(tmp_path / "same", "2026-01-02T00:00:00", 4.5e-08)
    moved = _write_json(tmp_path / "moved", "2026-01-02T00:00:00", 4.5000001e-08)
    assert compare_presets.main([str(old), str(same)]) == 0
    assert capsys.readouterr().out == "fig5_convergence.json: 3 rows, 0 cells moved\n"
    assert compare_presets.main([str(old), str(moved)]) == 0
    assert "3 rows, 1 cells moved, worst relative change 2.2e-08" in capsys.readouterr().out


def test_json_metadata_change_exits_1(tmp_path, capsys):
    old = _write_json(tmp_path / "old", "2026-01-01T00:00:00", 4.5e-08)
    new = _write_json(tmp_path / "new", "2026-01-01T00:00:00", 4.5e-08, cutoffs=(8, 4))
    assert compare_presets.main([str(old), str(new)]) == 1
    assert "MISMATCH fig5_convergence.json: header differs" in capsys.readouterr().err
