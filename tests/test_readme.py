import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    """The python block under README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_block_prints_what_its_comments_say(tmp_path, monkeypatch, capsys):
    block = _library_block()
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 3
    for out, comment in zip(printed, comments):
        if comment.startswith("SolveRecord("):
            assert out == comment
            continue
        expected = [float(x) for x in re.findall(r"~([-+0-9.e]+)", comment)]
        values = [float(x) for x in out.split()]
        assert len(values) == len(expected) > 0
        # each value to one significant digit
        assert [f"{v:.0e}" for v in values] == [f"{x:.0e}" for x in expected], (out, comment)
    rows = (tmp_path / "fig5.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0].split(",")[0] == "g" and len(rows) == 1 + 200
