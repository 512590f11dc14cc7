"""Export lists name only what exists.

A name dropped from a module must leave that module's ``__all__`` and the
package's re-exports with it; a stale ``__all__`` entry breaks
``from fewbench.<module> import *``.
"""

import ast
import importlib
import pkgutil

import pytest

import fewbench

MODULES = sorted(m.name for m in pkgutil.iter_modules(fewbench.__path__, "fewbench."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_reexports_public_names_of_their_modules():
    with open(fewbench.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"fewbench.{node.module}")
        for alias in node.names:
            assert getattr(fewbench, alias.asname or alias.name) is getattr(module, alias.name)
            if hasattr(module, "__all__"):
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"


@pytest.mark.parametrize("name", MODULES)
def test_modules_import_no_private_names_of_each_other(name):
    """A ``_``-prefixed name is private to its module, so no other fewbench
    module imports it."""
    with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "fewbench"
        ):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert private == [], f"{name} imports {private} from {node.module}"
