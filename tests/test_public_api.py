"""A module's public names are those without a leading underscore, and the program runs each one;
importing a module loads only the modules it runs."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import thinpde

MODULES = sorted(m.name for m in pkgutil.iter_modules(thinpde.__path__))
ROOT = Path(__file__).resolve().parent.parent


def _loaded_by(statement: str) -> set[str]:
    """The ``thinpde.*`` modules that a fresh interpreter holds after running ``statement``."""
    script = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.startswith('thinpde.')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_the_package_root_loads_no_module():
    assert _loaded_by("import thinpde") == set()


def test_the_solver_loads_only_what_it_runs():
    runs = ("expressions", "problem", "config", "reduction", "solver")
    assert _loaded_by("from thinpde import solver") == {f"thinpde.{name}" for name in runs}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_declares_all(module):
    # the leading underscore alone marks a name private, so there is no second list to keep in step
    assert not hasattr(importlib.import_module(f"thinpde.{module}"), "__all__")


# public names defined before the program runs them, each with the ROADMAP item it waits on
NOT_YET_RUN = {
    "perturbation_certificate": "ROADMAP item 11 reports it after every solve",
    "PerturbationReport": "ROADMAP item 11 reports it after every solve",
}


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read and attributes taken in ``tree``, outside the subtree ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each name the module's own statements bind, with the statement: functions, classes and every
    assignment target (``a, b = ...``, ``a = b = ...``), but no import."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                found.update((name.id, node) for name in ast.walk(target) if isinstance(name, ast.Name))
    return found


def _dispatched(cli: ast.Module) -> set[str]:
    """``cmd_<name>`` for each subcommand ``cli._parser`` registers: ``cli.main`` looks these up by name."""
    calls = [c for c in ast.walk(_definitions(cli)["_parser"]) if isinstance(c, ast.Call)]
    return {f"cmd_{c.args[0].value}" for c in calls if getattr(c.func, "attr", None) == "add_parser"}


def test_every_export_is_run_by_the_program():
    # a public name that only the tests use belongs in the tests
    package = sorted((ROOT / "src" / "thinpde").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + sorted((ROOT / "bench").glob("*.py"))}
    refs = {path: _references(tree) for path, tree in trees.items()}
    run = set(NOT_YET_RUN) | _dispatched(trees[ROOT / "src" / "thinpde" / "cli.py"])
    unused = []
    for path in package:
        tree = trees[path]
        for name, node in _definitions(tree).items():
            if name.startswith("_") or name in run or any(name in r for p, r in refs.items() if p != path):
                continue
            if name not in _references(tree, skip=node):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public but not run by src/ or bench/: {unused}"
