"""The benchmark tracer in perfbench/ still binds every jarnet layer.

``perfbench/tracing.py`` rebinds jarnet functions by name. A renamed or
removed function would make ``perfbench/run.py --trace 1`` fail, so this
test installs the tracer (read-only: nothing under perfbench/ is written)
and runs one traced path computation.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import jarnet.cli  # noqa: F401 - imports every module the tracer binds
from jarnet import metrics
from jarnet.graph import DirectedGraph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_binds_every_layer_and_restores_it():
    tracing = load_tracing()
    originals = {(mod, attr): getattr(sys.modules[f"jarnet.{mod}"], attr)
                 for mod, attr, _hook in tracing.FUNCTIONS}
    methods = {(mod, cls, attr): getattr(sys.modules[f"jarnet.{mod}"], cls).__dict__[attr]
               for mod, cls, attr in tracing.METHODS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, attr), fn in originals.items():
            assert getattr(sys.modules[f"jarnet.{mod}"], attr) is not fn, (mod, attr)
        g = DirectedGraph()
        g.add_edge_labels("a", "b")
        g.add_edge_labels("b", "c")
        stats = metrics.shortest_path_stats(g, mode="directed")
    finally:
        tracer.uninstall()
    assert (stats.finite_pairs, stats.diameter) == (3, 2)
    assert tracer.calls["kernels.bfs_stats"] == 1
    assert tracer.calls["graph.to_csr"] == 1
    assert tracer.counters["metrics.bfs_sources"] == 3
    assert tracer.counters["kernels.bfs_stats.edge_scans"] == 3 * 2
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[f"jarnet.{mod}"], attr) is fn, (mod, attr)
    for (mod, cls, attr), fn in methods.items():
        assert getattr(sys.modules[f"jarnet.{mod}"], cls).__dict__[attr] is fn
