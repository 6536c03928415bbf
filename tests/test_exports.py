"""Every name a ``tricodec`` module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import tricodec

MODULES = sorted(m.name for m in pkgutil.iter_modules(tricodec.__path__))


def test_every_module_is_found():
    assert {"cli", "losses", "model", "signal", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"tricodec.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"tricodec.{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"tricodec.{name}.__all__ lists undefined names {missing}"
