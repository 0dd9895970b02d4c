"""The public names the benchmark harness calls still resolve in ``maxrigid``.

The harness under ``perfbench/`` is read here with ``ast`` only, never
imported: every ``CALLS`` entry of ``worker.py`` and every attribute the
harness reads off the imported package (``mr.<name>``) must exist.  The
package's ``__all__`` is checked against what it actually binds.
"""

import ast
import importlib
import pathlib
import types

import pytest

import maxrigid

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _calls():
    for node in ast.walk(_tree("worker.py")):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CALLS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("worker.py defines no CALLS")


def _package_attributes():
    """Dotted names read off ``mr`` or ``self.mr`` in the harness, outermost only."""
    names = set()
    for source in ("gen.py", "worker.py"):
        for node in ast.walk(_tree(source)):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id == "mr":
                names.add(".".join(reversed(chain)))
            elif chain and chain[-1] == "mr" and isinstance(node, ast.Name) and node.id == "self":
                names.add(".".join(reversed(chain[:-1])))
    return sorted(n for n in names if n)


def _resolve(dotted):
    obj = maxrigid
    path = "maxrigid"
    for part in dotted.split("."):
        path += "." + part
        if not hasattr(obj, part):
            importlib.import_module(path)  # a submodule the harness imports itself
        obj = getattr(obj, part)
    return obj


def test_harness_names_were_found():
    assert len(_calls()) >= 10
    assert {"sample_offsets", "all_family_choices", "cli.rep_to_dict"} <= set(_package_attributes())


@pytest.mark.parametrize("name", _calls())
def test_calls_resolve(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", _package_attributes())
def test_package_attributes_resolve(name):
    _resolve(name)


def test_all_is_the_public_namespace():
    """Every public non-module name is exported once, and nothing else is.

    ``__init__`` derives ``__all__`` by this same rule, so the fault left
    to catch is a helper import leaking into the public names (say a bare
    ``from typing import Any``); the pinned count of 58 fails on it.
    """
    public = {
        name
        for name, obj in vars(maxrigid).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert sorted(maxrigid.__all__) == sorted(public)
    assert len(maxrigid.__all__) == 58
