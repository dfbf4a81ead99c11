"""Byte-for-byte comparison of CLI outputs against committed golden files.

The files under tests/data/golden were written by
`sh tests/data/golden/make_golden.sh`; each case below runs the same
command.  A mismatch means the CLI's numbers or format changed.  Do not
regenerate the files to make a change pass; a regeneration needs a
stated physics or format reason.
"""

from pathlib import Path

import pytest

import rotcav.sweep as sweep_mod
from rotcav.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
SMALL = ["--na-cut", "4", "--nb-cut", "2"]

CASES = {
    "fig5.csv": ["figure", "--name", "fig5", "--count1", "9", *SMALL],
    "fig7a.csv": ["figure", "--name", "fig7a", "--count1", "9", *SMALL],
    "point.json": ["point", "--delta", "-0.5", "--g", "0.867", "--kappa2", "1.2",
                   "--delta-f", "0.3", *SMALL],
    "sweep_override.csv": ["sweep", "--config", str(GOLDEN / "sweep_config.json"),
                           "--delta-f", "-0.2", "--drive-strength", "0.1"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()



@pytest.mark.parametrize("points", [1, 7, 32])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_does_not_depend_on_the_chunk_size(name, points, tmp_path, monkeypatch):
    # Every golden case runs at cutoffs (4, 2), D = 15.
    monkeypatch.setattr(sweep_mod, "CHUNK_ENTRIES", points * 15**2)
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
