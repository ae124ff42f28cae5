"""The package's public names resolve.

A stale ``__all__`` entry fails only on ``import *``, and a stale package
import fails every test at collection, so both are checked by name here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gossipmask

MODULES = sorted(m.name for m in pkgutil.iter_modules(gossipmask.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"gossipmask.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"gossipmask.{name}.__all__ lists missing names {missing}"


def test_package_imports_public_names_that_exist():
    tree = ast.parse(Path(gossipmask.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, f"the package imports from outside: {node.module}"
        module = importlib.import_module(f"gossipmask.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert hasattr(module, alias.name), \
                f"gossipmask.{node.module} has no {alias.name}"
            assert public is None or alias.name in public, \
                f"gossipmask.{node.module}.__all__ does not list {alias.name}"
