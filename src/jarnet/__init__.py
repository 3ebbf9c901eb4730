"""Call-graph extraction from Java archives and network-topology analysis."""

from ._lazy import lazy_import

__version__ = "0.1.0"

# Each submodule loads on first use, so a CLI step runs only what it uses.
# The package exports the library modules' names, found in this order.
_LIBRARY = ("names", "classfile", "extractor", "graph", "gexf", "metrics", "centrality",
            "community", "topology")
globals().update({name: lazy_import(f"{__name__}.{name}")
                  for name in (*_LIBRARY, "_kernels", "report")})


def __getattr__(name: str):
    """``__all__`` or a library module's export, looked up when read (PEP 562)."""
    modules = [globals()[module] for module in _LIBRARY]
    if name == "__all__":
        return sorted(n for module in modules for n in module.__all__) + ["__version__"]
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
