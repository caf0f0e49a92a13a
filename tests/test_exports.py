"""Every name a ``tsrmcl`` module exports in ``__all__`` resolves, so a
stale export fails here rather than at a caller's ``import *``."""

import importlib
import pkgutil

import pytest

import tsrmcl

MODULES = sorted(f"tsrmcl.{m.name}" for m in pkgutil.iter_modules(tsrmcl.__path__))


def test_modules_with_exports_found():
    assert "tsrmcl.tensor" in MODULES
    assert sum(hasattr(importlib.import_module(name), "__all__") for name in MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
