"""The package's public names resolve, and so do the trainer names the
benchmark rebinds.

A stale ``__all__`` entry fails only on ``import *``, and a stale package
import fails every test at collection, so both are checked by name here.
"""

import ast
import importlib
import importlib.util
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


# ------------------------------------------------- the benchmark's bindings

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Traced names the trainer has not bound since it evaluated through the
# cache-free ``_logits``: the benchmark's ``nn.forward`` span reads zero
# calls until it traces ``_logits`` instead (ROADMAP item 1). Listed so
# that a name dropped by mistake cannot hide among them.
UNBOUND_ON_TRAINER = {"forward"}


def _load(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _swapped_on_trainer(path):
    """Names ``bench/workloads.py`` rebinds through ``_swapped(trainer, {...})``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_swapped"
                and getattr(node.args[0], "id", None) == "trainer"):
            names.update(key.value for key in node.args[1].keys)
    return names


def test_benchmark_traces_and_swaps_names_the_trainer_binds():
    # a traced or swapped name the trainer does not bind is skipped by the
    # benchmark, and its span or timing then silently reads zero
    from gossipmask import trainer
    traced = {attr for _, attr, owners in _load(BENCH / "spans.py").TRACED
              if "trainer" in owners}
    swapped = _swapped_on_trainer(BENCH / "workloads.py")
    assert {"gossip_mask_round", "build_states", "init_params",
            "loss_and_grad_v"} <= swapped
    unbound = {name for name in traced | swapped if not hasattr(trainer, name)}
    assert unbound == UNBOUND_ON_TRAINER
