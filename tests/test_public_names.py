"""The demos, the benchmark and the README must only use names the package has.

Each script, and each ```python block of README.md, is read with
``ast``, not run: every ``from faultfilter...
import X`` must resolve, and so must every attribute ``alias.X`` of a
name bound to a faultfilter module (``import faultfilter as ff``,
``from faultfilter import bench_cli``).  Removing or renaming a public
name then fails here, not only in a demo, a benchmark run or a reader's
copy of the README example.  Every name a package module lists in
``__all__`` must exist too, so a removal cannot leave a stale entry,
and the package's public names must be exactly those lists.
"""
import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = [path for folder in ("demos", "perfbench", "accuracy")
           for path in sorted((ROOT / folder).glob("*.py"))]
README_BLOCKS = [part.split("```", 1)[0]
                 for part in (ROOT / "README.md").read_text().split("```python\n")[1:]]
SOURCES = ([(f"{p.parent.name}/{p.name}", p.read_text()) for p in SCRIPTS]
           + [(f"README.md#{i}", block) for i, block in enumerate(README_BLOCKS, 1)])


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


@pytest.mark.parametrize("name, source", SOURCES, ids=[name for name, _ in SOURCES])
def test_script_names_resolve(name, source):
    uses = package_uses(ast.parse(source, filename=name))
    missing = [f"{name}:{line}: {module}.{attr}" for line, module, attr in uses
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, "names gone from the package: " + ", ".join(missing)


def test_scripts_are_checked():
    names = {name for name, _ in SOURCES}
    assert {"perfbench/workloads.py", "demos/data_driven_design.py", "accuracy/run.py",
            "README.md#1"} <= names
    uses = package_uses(ast.parse(README_BLOCKS[0]))
    assert ("faultfilter", "design_filter_from_xi") in {(m, n) for _, m, n in uses}
    uses = package_uses(ast.parse((ROOT / "perfbench" / "workloads.py").read_text()))
    assert ("faultfilter", "DesignConfig") in {(m, n) for _, m, n in uses}


MODULES = sorted(m.name for m in pkgutil.iter_modules([str(ROOT / "src" / "faultfilter")]))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_exist(module):
    mod = importlib.import_module(f"faultfilter.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"faultfilter.{module}.__all__ lists missing names: {missing}"


def test_module_all_is_checked():
    assert {"lti_core", "markov_design", "bench_cli"} <= set(MODULES)


def test_package_republishes_each_module_all():
    # __init__ holds no list of its own: the package's public names are
    # the module lists, each name listed once and bound to its module's object
    import faultfilter
    lists = {module: importlib.import_module(f"faultfilter.{module}").__all__
             for module in MODULES}
    listed = [name for names in lists.values() for name in names]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    public = {name for name, value in vars(faultfilter).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(listed)
    for module, names in lists.items():
        mod = importlib.import_module(f"faultfilter.{module}")
        for name in names:
            assert getattr(faultfilter, name) is getattr(mod, name), f"{module}.{name}"
