"""Every exported name resolves and every imported name is read, so a
deletion cannot leave a dangling export or an orphaned import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import memsfde

MODULES = ["memsfde"] + sorted(
    name for _, name, _ in pkgutil.iter_modules(memsfde.__path__, prefix="memsfde.") if name != "memsfde.__main__"
)
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_package_and_library_modules_export():
    assert "memsfde" in EXPORTING
    assert len(EXPORTING) >= 8


@pytest.mark.parametrize("module_name", EXPORTING)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__)), "duplicate names in __all__"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(
    path.relative_to(ROOT).as_posix()
    for pattern in ("src/memsfde/*.py", "tests/*.py", "tools/*.py")
    for path in ROOT.glob(pattern)
)


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name the module imports and never reads,
    unless its ``__all__`` lists it or its line carries ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        literal = isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
        if literal and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            kept.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in kept and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


def test_every_checked_file_is_found():
    assert {"src/memsfde/adjoint.py", "tests/test_exports.py", "tools/reach.py"} <= set(CHECKED)


@pytest.mark.parametrize("relpath", CHECKED)
def test_no_unused_imports(relpath):
    assert unused_imports((ROOT / relpath).read_text()) == []


def test_unused_import_rule():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path as osp\n"
        "from math import inf, nan as missing\n"
        "import json  # noqa: F401\n"
        "__all__ = ['inf']\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (4, "missing")]
