#!/usr/bin/env python3
"""Count the lines of the package's source files.

    python3 tools/count_lines.py [FILE ...]

Prints, for ``src/memsfde/*.py`` (or the files given), one line per file
with its total and code lines, then the two totals: the total number of
lines, and the code lines, which are the non-blank lines that are neither a
comment line nor part of a module, class or function docstring.
A line that holds code and a trailing comment counts as code.  Uses only the
standard library's ``ast``.
"""

from __future__ import annotations

import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers (1-based) covered by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of one source file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text, filename=path))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )
    return len(lines), code


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or sorted(glob.glob(os.path.join(ROOT, "src", "memsfde", "*.py")))
    totals = [count(path) for path in paths]
    width = max(len(os.path.relpath(path, ROOT)) for path in paths)
    for path, (total, code) in zip(paths, totals):
        print(f"{os.path.relpath(path, ROOT):<{width}}  {total:>5} total  {code:>5} code")
    print(f"total lines: {sum(t for t, _ in totals)}")
    print(f"code lines outside docstrings and comments: {sum(c for _, c in totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
