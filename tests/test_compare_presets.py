import importlib.util
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
