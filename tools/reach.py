#!/usr/bin/env python3
"""List the functions of ``src/memsfde`` that no shipped run or acceptance
criterion reaches, those that only a criterion reaches, and the options that
no run sets.

    python3 tools/reach.py

Runs every ``configs/*.cfg`` (at most 400 particles) and ``selftest --out``,
then the acceptance criteria (``tests/test_acceptance.py``, through
``pytest.main``), in one process under ``sys.setprofile``.  It prints each
run's exit code and the criteria's pytest exit code, then each function
that no run and no criterion entered as ``file:line name (lines)`` with a
summary, then in the same form the functions that a criterion entered and
no run did.
Then, for every function a run reached, it prints each parameter with a literal
default (one ``ast.literal_eval`` takes) that no run's call set to another value,
as ``file:line fn(name=default) never other``, read from the call's
``frame.f_locals`` on entry; a value counts as the default when it has the
default's type and ``repr``, so -0.0 is another value than 0.0.  A
generator's locals change between entries, so its options are not listed.
"""

import ast
import contextlib
import inspect
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "memsfde"


def functions(node, prefix=""):
    """Yield (first line, qualified name, line count, literal defaults) of
    every def under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield first, prefix + child.name, child.end_lineno - first + 1, literal_defaults(child)
        yield from functions(child, prefix + child.name + "." if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else prefix)


def literal_defaults(fn: ast.FunctionDef) -> dict:
    """``{name: default}`` for each parameter of ``fn`` whose default is a literal."""
    args = fn.args.posonlyargs + fn.args.args
    pairs = list(zip(args[len(args) - len(fn.args.defaults) :], fn.args.defaults))
    pairs += [(a, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    out = {}
    for arg, node in pairs:
        with contextlib.suppress(ValueError, TypeError, SyntaxError):
            out[arg.arg] = ast.literal_eval(node)
    return out


def is_default(value, default) -> bool:
    return type(value) is type(default) and repr(value) == repr(default)


def run(*argv) -> int:
    from memsfde import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def listing(functions) -> None:
    for path, first, name, n in functions:
        print(f"  {os.path.relpath(path, ROOT)}:{first} {name} ({n})")


def main() -> None:
    sys.path.insert(0, str(SRC.parent))
    found = [(str(p), *f) for p in sorted(SRC.glob("*.py")) for f in functions(ast.parse(p.read_text()))]
    # (file, first line) -> the literal defaults no call has yet set otherwise
    unset = {(path, first): dict(defaults) for path, first, _, _, defaults in found if defaults}
    # (file, first line) of every code object entered by a run, then by a criterion
    by_runs, by_criteria = set(), set()
    reached = by_runs

    def profile(frame, event, _):
        if event != "call":
            return
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        reached.add(key)
        options = unset.get(key) if reached is by_runs else None
        if options and code.co_flags & inspect.CO_GENERATOR:
            del unset[key]
        elif options:
            args = frame.f_locals
            for name in [n for n, default in options.items() if not is_default(args[n], default)]:
                del options[name]

    sys.setprofile(profile)
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted((ROOT / "configs").glob("*.cfg")):
            text = re.sub(r"(?m)^particles = (\d+)", lambda m: f"particles = {min(int(m[1]), 400)}", cfg.read_text())
            Path(tmp, cfg.name).write_text(text)
            problem = re.search(r"(?m)^problem = (\w+)", text)[1]
            print(cfg.name, "exit", run(problem, "--config", f"{tmp}/{cfg.name}", "--out", f"{tmp}/{problem}"))
        print("selftest exit", run("selftest", "--out", f"{tmp}/selftest"))
    reached = by_criteria
    with contextlib.redirect_stdout(io.StringIO()):
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])
    sys.setprofile(None)
    print("acceptance criteria exit", int(status))
    missed = [(path, first, name, n) for path, first, name, n, _ in found if (path, first) not in by_runs | by_criteria]
    listing(missed)
    print(f"{len(found) - len(missed)} of {len(found)} reached; {len(missed)} unreached, {sum(m[3] for m in missed)} lines")
    only = [(path, first, name, n) for path, first, name, n, _ in found if (path, first) in by_criteria - by_runs]
    listing(only)
    print(f"{len(only)} reached only by an acceptance criterion, {sum(m[3] for m in only)} lines")
    never = [
        f"  {os.path.relpath(path, ROOT)}:{first} {name}({option}={default!r}) never other"
        for path, first, name, _, _ in found
        if (path, first) in by_runs
        for option, default in unset.get((path, first), {}).items()
    ]
    print("\n".join(never))
    print(f"{len(never)} options of reached functions never set to another value")


if __name__ == "__main__":
    main()
