"""numpy, bound lazily: it loads on the first attribute read of ``np``.

``extract``, ``build`` and ``report`` build no array, so they start
without numpy. Modules take ``np`` from here; ``import numpy as np`` would
read the lazy module's ``__spec__`` and so load it at once. A missing
numpy still fails here, at ``import jarnet``.
"""
from __future__ import annotations

import importlib.util
import sys


def _lazy_import(name: str):
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


np = _lazy_import("numpy")
