"""Every name a module exports through ``__all__`` must resolve, and be run by the program;
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
def test_module_all_resolves(module):
    mod = importlib.import_module(f"thinpde.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


# names exported before the program runs them, each with the ROADMAP item it waits on
NOT_YET_RUN = {
    "perturbation_certificate": "ROADMAP item 11 reports it after every solve",
    "PerturbationReport": "ROADMAP item 11 reports it after every solve",
}
# test fixtures that stay in the package until configs/rich.cfg and a benchmark change (ROADMAP item 13)
MODULES_NOT_SCANNED = {"presets"}


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


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _definition(tree: ast.Module, name: str) -> ast.AST | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def test_every_export_is_run_by_the_program():
    # an exported name that only the tests call belongs in the tests
    package = sorted((ROOT / "src" / "thinpde").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + sorted((ROOT / "bench").glob("*.py"))}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused = []
    for path in package:
        if path.stem in MODULES_NOT_SCANNED:
            continue
        tree = trees[path]
        for name in _exports(tree):
            if name in NOT_YET_RUN or any(name in r for p, r in refs.items() if p != path):
                continue
            if name not in _references(tree, skip=_definition(tree, name)):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"exported but not run by src/ or bench/: {unused}"
