"""Every name that ``jarnet`` or one of its modules lists in ``__all__`` is
bound there, so ``from jarnet import *`` cannot fail on a deleted name."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import jarnet

MODULES = ["jarnet"] + [f"jarnet.{info.name}" for info in pkgutil.iter_modules(jarnet.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", [name for name in MODULES
                                  if hasattr(importlib.import_module(name), "__all__")])
def test_public_exports_resolve(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
