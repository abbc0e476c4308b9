"""Every public name resolves, and each is declared once: in its module's `__all__`,
which the package re-exports."""

import importlib
from pathlib import Path
from types import ModuleType

import pytest

import muxepi

MODULES = ("graph", "selection", "dynamics", "mmca", "experiments")
ERRORS = ("ConfigError", "InvalidArgumentError", "MuxepiError", "NonConvergenceError")


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_exist(module):
    mod = importlib.import_module(f"muxepi.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_exist_and_are_exported():
    owners: dict = {}
    for module in MODULES:
        mod = importlib.import_module(f"muxepi.{module}")
        for name in mod.__all__:
            # a star import would silently shadow a name two modules export
            assert owners.setdefault(name, module) == module, (name, owners[name], module)
            assert getattr(muxepi, name) is getattr(mod, name), (module, name)
    public = {name for name, value in vars(muxepi).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(owners) | set(ERRORS)


def test_source_lines_fit_in_100_characters():
    long = [(path.name, lineno, len(line))
            for path in sorted(Path(muxepi.__file__).parent.glob("*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > 100]
    assert long == []
