"""Every public name resolves: a name removed from a module must also leave
its `__all__` and the package's re-exports."""

import ast
import importlib
from pathlib import Path

import pytest

import muxepi

MODULES = ("graph", "selection", "dynamics", "mmca", "experiments")


def _package_imports():
    """(module, name) for each `from .module import name` in muxepi/__init__.py."""
    tree = ast.parse(Path(muxepi.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_exist(module):
    mod = importlib.import_module(f"muxepi.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_exist_and_are_exported():
    imports = _package_imports()
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"muxepi.{module}")
        assert getattr(muxepi, name) is getattr(mod, name), (module, name)
        if module in MODULES:
            assert name in mod.__all__, (module, name)


def test_source_lines_fit_in_100_characters():
    long = [(path.name, lineno, len(line))
            for path in sorted(Path(muxepi.__file__).parent.glob("*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > 100]
    assert long == []
