"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import memsfde

MODULES = ["memsfde"] + sorted(
    name for _, name, _ in pkgutil.iter_modules(memsfde.__path__, prefix="memsfde.") if name != "memsfde.__main__"
)
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_package_and_library_modules_export():
    assert "memsfde" in EXPORTING
    assert len(EXPORTING) >= 9


@pytest.mark.parametrize("module_name", EXPORTING)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__)), "duplicate names in __all__"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
