import importlib.util
from pathlib import Path

import pytest

from rotcav import SteadyStateError
from rotcav.sweep import solve_points

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "solve_counts.py"
_spec = importlib.util.spec_from_file_location("solve_counts", SCRIPT)
solve_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_counts)


def test_large_cutoff_line_counts_every_record(capsys):
    # The pair at cutoffs (10, 5): the line is the sums of the points' own
    # records, without asserting any count that roundoff may move.
    assert solve_counts.main(["large_cutoff"]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert header.split()[0] == "set" and header.endswith("  ".join(solve_counts.COLUMNS))
    results = solve_points(*solve_counts.SETS["large_cutoff"]())
    applications = sorted(result.solve.applications for result in results)
    expected = [
        len(results),
        sum(isinstance(result, SteadyStateError) for result in results),
        sum(applications),
        (applications[0] + applications[1]) / 2,
        applications[-1],
        sum(result.solve.generator_calls for result in results),
        sum(bool(result.solve.krylov_from) for result in results),
    ]
    name, *cells = line.split()
    assert name == "large_cutoff" and [float(cell) for cell in cells] == expected
    assert expected[:2] == [2, 0]


def test_unknown_set_is_an_error(capsys):
    with pytest.raises(SystemExit) as info:
        solve_counts.main(["fig9"])
    assert info.value.code == 2
    assert "unknown set fig9" in capsys.readouterr().err
