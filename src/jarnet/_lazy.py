"""Modules bound lazily: each loads on the first read of one of its attributes.

``extract``, ``build`` and ``report`` build no array, so they start
without numpy. Modules take ``np`` from here; ``import numpy as np`` would
read the lazy module's ``__spec__`` and so load it at once. A missing
numpy still fails here, at ``import jarnet``.

The package binds its submodules the same way: ``from . import x`` binds
one without loading it; ``import jarnet.x``, ``from jarnet.x import y`` and
any attribute read load it at once.
"""
from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_import("numpy")
