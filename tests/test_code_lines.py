import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""A module.

Its docstring.
"""

# a comment
LIMIT = 3  # trailing comment


def f(x):
    """One line."""
    return x + LIMIT
'''


def _checkout(root: Path, source: str) -> Path:
    package = root / "src" / "rotcav"
    package.mkdir(parents=True)
    (package / "m.py").write_text(source, encoding="utf-8")
    return root


def test_counts_each_kind_of_line():
    assert code_lines.count_lines(MODULE) == {"total": 12, "code": 3, "docstring": 5, "comment": 1, "blank": 3}


def test_same_ast_tells_a_docstring_edit_from_a_code_edit(tmp_path, capsys):
    old = _checkout(tmp_path / "old", MODULE)
    docs = _checkout(tmp_path / "docs", MODULE.replace("Its docstring.", "Another\n\ndocstring.").replace("# a comment\n", ""))
    code = _checkout(tmp_path / "code", MODULE.replace("LIMIT = 3", "LIMIT = 4"))
    verdicts = []
    for checkout in (docs, code):
        assert code_lines.main(["--checkout", str(checkout), "--same-ast", str(old)]) == 0
        header, line, total = capsys.readouterr().out.splitlines()
        assert header.split()[-1] == "ast" and line.split()[0] == "m.py" and total.split()[0] == "all"
        verdicts.append(line.split()[-1])
    assert verdicts == ["same", "differs"]
