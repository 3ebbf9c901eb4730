"""Every name that ``jarnet`` or one of its modules lists in ``__all__`` is
bound there, so ``from jarnet import *`` cannot fail on a deleted name; and
every function of the package reads the parameters it takes."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jarnet

MODULES = ["jarnet"] + [f"jarnet.{info.name}" for info in pkgutil.iter_modules(jarnet.__path__)
                        if info.name != "__main__"]
# The library modules whose public names ``jarnet`` re-exports.
LIBRARY = ["names", "classfile", "extractor", "graph", "gexf", "metrics", "centrality",
           "community", "topology"]


@pytest.mark.parametrize("name", [name for name in MODULES
                                  if hasattr(importlib.import_module(name), "__all__")])
def test_public_exports_resolve(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def _exports(module: str) -> list[str]:
    return importlib.import_module(f"jarnet.{module}").__all__


def test_package_exports_are_the_library_modules_exports():
    assert jarnet.__all__[-1] == "__version__"
    assert set(jarnet.__all__) - {"__version__"} == {
        name for module in LIBRARY for name in _exports(module)}


def test_no_name_is_exported_by_two_modules():
    # A second star import of the same name would silently shadow the first.
    names = [name for module in LIBRARY for name in _exports(module)]
    assert sorted(names) == sorted(set(names))


def test_no_export_rebinds_a_submodule():
    submodules = {info.name for info in pkgutil.iter_modules(jarnet.__path__)}
    assert submodules & set(jarnet.__all__) == set()


def test_report_is_not_re_exported():
    report = _exports("report")
    assert set(report) & set(jarnet.__all__) == set()
    assert [name for name in report if hasattr(jarnet, name)] == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from jarnet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(jarnet.__all__)


def test_no_module_imports_another_modules_private_name():
    # ``from . import _kernels`` names a module and ``from ._lazy import np``
    # a public name; ``from .classfile import _LENGTHS`` would couple two
    # modules through a name neither declares.
    found = []
    for path in sorted(Path(jarnet.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module is not None and (
                    node.level or node.module.split(".")[0] == "jarnet"):
                found += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


# Parameters a caller must pass for the interface's sake: both graph classes
# answer ``to_csr(reverse=...)``, and the benchmark's tracer wraps both.
UNREAD_ALLOWED = {"graph.py: UndirectedGraph.to_csr(reverse)"}


def _unread_parameters(tree: ast.Module, filename: str) -> list[str]:
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", "<lambda>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                          args.vararg, args.kwarg) if a is not None]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{filename}: {prefix}{name}({param})" for param in params
                             if not param.startswith("_") and param not in read)
            visit(child, f"{prefix}{name}." if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else prefix)

    visit(tree, "")
    return found


def test_every_parameter_is_read():
    # A parameter the body never reads is an option that does nothing;
    # name it with a leading ``_`` where a caller's signature demands it.
    found = []
    for path in sorted(Path(jarnet.__path__[0]).glob("*.py")):
        found += _unread_parameters(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert set(found) == UNREAD_ALLOWED
