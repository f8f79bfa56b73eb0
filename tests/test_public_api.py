"""Every name a module exports through ``__all__`` must resolve."""

import importlib
import pkgutil

import pytest

import thinpde

MODULES = sorted(m.name for m in pkgutil.iter_modules(thinpde.__path__))


def test_package_all_resolves():
    missing = [name for name in thinpde.__all__ if not hasattr(thinpde, name)]
    assert not missing


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"thinpde.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
