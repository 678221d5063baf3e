#!/usr/bin/env python3
"""List the functions of ``src/memsfde`` that no shipped run reaches.

    python3 tools/reach.py

Runs every ``configs/*.cfg`` (at most 400 particles) and ``selftest --out``
in one process under ``sys.setprofile``, then prints each run's exit code,
each function never entered as ``file:line name (lines)``, and a summary.
"""

import ast
import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "memsfde"


def functions(node, prefix=""):
    """Yield (first line, qualified name, line count) of every def under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield first, prefix + child.name, child.end_lineno - first + 1
        yield from functions(child, prefix + child.name + "." if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else prefix)


def run(*argv) -> int:
    from memsfde import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def main() -> None:
    sys.path.insert(0, str(SRC.parent))
    reached = set()  # (file, first line) of every code object entered
    sys.setprofile(lambda f, event, _: event == "call" and reached.add((f.f_code.co_filename, f.f_code.co_firstlineno)))
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted((ROOT / "configs").glob("*.cfg")):
            text = re.sub(r"(?m)^particles = (\d+)", lambda m: f"particles = {min(int(m[1]), 400)}", cfg.read_text())
            Path(tmp, cfg.name).write_text(text)
            problem = re.search(r"(?m)^problem = (\w+)", text)[1]
            print(cfg.name, "exit", run(problem, "--config", f"{tmp}/{cfg.name}", "--out", f"{tmp}/{problem}"))
        print("selftest exit", run("selftest", "--out", f"{tmp}/selftest"))
    sys.setprofile(None)
    found = [(str(p), *f) for p in sorted(SRC.glob("*.py")) for f in functions(ast.parse(p.read_text()))]
    missed = [(path, first, name, n) for path, first, name, n in found if (path, first) not in reached]
    for path, first, name, n in missed:
        print(f"  {os.path.relpath(path, ROOT)}:{first} {name} ({n})")
    print(f"{len(found) - len(missed)} of {len(found)} reached; {len(missed)} unreached, {sum(m[3] for m in missed)} lines")


if __name__ == "__main__":
    main()
