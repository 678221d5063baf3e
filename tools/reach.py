#!/usr/bin/env python3
"""List the functions of ``src/memsfde`` that no shipped run reaches, and
the options that no run sets.

    python3 tools/reach.py

Runs every ``configs/*.cfg`` (at most 400 particles) and ``selftest --out``
in one process under ``sys.setprofile``, then prints each run's exit code,
each function never entered as ``file:line name (lines)``, and a summary.
Then, for every reached function, it prints each parameter with a literal
default (one ``ast.literal_eval`` takes) that no call set to another value,
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


def main() -> None:
    sys.path.insert(0, str(SRC.parent))
    found = [(str(p), *f) for p in sorted(SRC.glob("*.py")) for f in functions(ast.parse(p.read_text()))]
    # (file, first line) -> the literal defaults no call has yet set otherwise
    unset = {(path, first): dict(defaults) for path, first, _, _, defaults in found if defaults}
    reached = set()  # (file, first line) of every code object entered

    def profile(frame, event, _):
        if event != "call":
            return
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        reached.add(key)
        options = unset.get(key)
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
    sys.setprofile(None)
    missed = [(path, first, name, n) for path, first, name, n, _ in found if (path, first) not in reached]
    for path, first, name, n in missed:
        print(f"  {os.path.relpath(path, ROOT)}:{first} {name} ({n})")
    print(f"{len(found) - len(missed)} of {len(found)} reached; {len(missed)} unreached, {sum(m[3] for m in missed)} lines")
    never = [
        f"  {os.path.relpath(path, ROOT)}:{first} {name}({option}={default!r}) never other"
        for path, first, name, _, _ in found
        if (path, first) in reached
        for option, default in unset.get((path, first), {}).items()
    ]
    print("\n".join(never))
    print(f"{len(never)} options of reached functions never set to another value")


if __name__ == "__main__":
    main()
