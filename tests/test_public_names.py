"""The demos and the benchmark must only use names the package has.

Each script is read with ``ast``, not run: every ``from faultfilter...
import X`` must resolve, and so must every attribute ``alias.X`` of a
name bound to a faultfilter module (``import faultfilter as ff``,
``from faultfilter import bench_cli``).  Removing or renaming a public
name then fails here, not only in a demo or benchmark run.
"""
import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def package_uses(tree):
    """(line, module, name) of every faultfilter name the tree uses."""
    aliases, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "faultfilter" or a.name.startswith("faultfilter."):
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "faultfilter"):
            for a in node.names:
                uses.append((node.lineno, node.module, a.name))
                value = getattr(importlib.import_module(node.module), a.name, None)
                if isinstance(value, types.ModuleType):
                    aliases[a.asname or a.name] = value.__name__
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.append((node.lineno, aliases[node.value.id], node.attr))
    return uses


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_names_resolve(path):
    uses = package_uses(ast.parse(path.read_text(), filename=str(path)))
    missing = [f"{path.name}:{line}: {module}.{name}" for line, module, name in uses
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, "names gone from the package: " + ", ".join(missing)


def test_scripts_are_checked():
    names = {p.name for p in SCRIPTS}
    assert {"workloads.py", "data_driven_design.py"} <= names
    uses = package_uses(ast.parse((ROOT / "perfbench" / "workloads.py").read_text()))
    assert ("faultfilter", "DesignConfig") in {(m, n) for _, m, n in uses}
