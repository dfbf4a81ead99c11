#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of each rotcav module.

    python3 scripts/code_lines.py [--checkout DIR] [--same-ast OLD_CHECKOUT]

For each module under DIR/src/rotcav (DIR is the checkout that holds this
script unless named), one line gives its total, code, docstring, comment
and blank lines, and a last line sums them.  A line is code if a token
touches it that is none of a comment, NL, NEWLINE, INDENT, DEDENT or a
docstring (the first statement of a module, class or function, if it is a
string); else it is a docstring line if a docstring touches it, a comment
line if a comment does, and blank otherwise.

With --same-ast, each line also says whether ast.dump of the module's tree
with its docstrings removed is identical to that of the same module under
OLD_CHECKOUT/src/rotcav: "same" where it is, "differs" where it is not and
"new" where OLD_CHECKOUT has no such module.  Comments are not in the tree,
so "same" means that only docstrings, comments and layout changed.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

COLUMNS = ("total", "code", "docstring", "comment", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring(node: ast.AST) -> ast.Expr | None:
    """The docstring statement of a module, class or function node, or None."""
    if isinstance(node, _SCOPES) and node.body:
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            return first
    return None


def count_lines(source: str) -> dict[str, int]:
    """The total, code, docstring, comment and blank lines of a module's source."""
    docs = filter(None, map(_docstring, ast.walk(ast.parse(source))))
    spans = {(doc.lineno, doc.col_offset) for doc in docs}
    code, docstring, comment = set(), set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        lines = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.STRING and token.start in spans:
            docstring.update(lines)
        elif token.type == tokenize.COMMENT:
            comment.update(lines)
        elif token.type not in _NOT_CODE:
            code.update(lines)
    total = len(source.splitlines())
    docstring -= code
    comment -= code | docstring
    blank = total - len(code) - len(docstring) - len(comment)
    return dict(zip(COLUMNS, (total, len(code), len(docstring), len(comment), blank)))


def stripped_dump(source: str) -> str:
    """ast.dump of a module's tree with every docstring statement removed."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if _docstring(node) is not None:
            node.body = node.body[1:]
    return ast.dump(tree)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--same-ast", type=Path, metavar="OLD_CHECKOUT")
    args = parser.parse_args(argv)
    modules = sorted((args.checkout / "src" / "rotcav").glob("*.py"))
    header = f"{'module':<16}" + "".join(f"{column:>10}" for column in COLUMNS)
    print(header + ("  ast" if args.same_ast else ""))
    sums = dict.fromkeys(COLUMNS, 0)
    for path in modules:
        source = path.read_text(encoding="utf-8")
        counts = count_lines(source)
        line = f"{path.name:<16}" + "".join(f"{counts[column]:>10}" for column in COLUMNS)
        if args.same_ast:
            old = args.same_ast / "src" / "rotcav" / path.name
            if not old.exists():
                verdict = "new"
            else:
                same = stripped_dump(old.read_text(encoding="utf-8")) == stripped_dump(source)
                verdict = "same" if same else "differs"
            line += f"  {verdict}"
        print(line)
        for column in COLUMNS:
            sums[column] += counts[column]
    print(f"{'all':<16}" + "".join(f"{sums[column]:>10}" for column in COLUMNS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
