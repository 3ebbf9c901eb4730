"""In-process span tracer for the jarnet layers.

The benchmark wraps the public functions of ``src/jarnet`` from outside
the program: each wrapper records a span (name, parent, start, end) and
updates exact work counters from the call's arguments or result. Nothing
in jarnet changes; :meth:`Tracer.install` rebinds every module attribute
that holds a wrapped function, and :meth:`Tracer.uninstall` puts the
originals back.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter


# (module, attribute, counter hook). A hook gets (tracer, args, result)
# after the call returns, or (tracer, args, item) after each item a
# generator yields. Sizes are set (one file per job); work is added.
def _archive(t, args, _item):
    t.counters["extractor.archive_bytes"] = os.path.getsize(args[0])
    t.counters["extractor.entries"] += 1


def _extracted(t, _args, table):
    t.counters["extractor.call_sites"] = table.stats.call_sites
    t.counters["extractor.records"] = len(table.records)


def _table(t, args, _r):
    path = args[1] if len(args) > 1 else args[0]
    t.counters["names.table_bytes"] = os.path.getsize(path)


def _gexf_out(t, args, _r):
    t.counters["gexf.bytes"] = os.path.getsize(args[1])


def _gexf_in(t, args, g):
    t.counters["gexf.bytes"] = os.path.getsize(args[0])
    t.counters["graph.vertices"] = g.n
    t.counters["graph.edges"] = g.m


def _built(t, _args, g):
    t.counters["graph.vertices"] = g.n
    t.counters["graph.edges"] = g.m


def _paths(t, _args, stats):
    t.counters["metrics.bfs_sources"] += stats.sources_used


def _bfs(t, args, _r):
    # Computed, not counted: every source scans at most every stored edge.
    t.counters["kernels.bfs_stats.edge_scans"] += len(args[2]) * len(args[1])


def _pagerank(t, _args, vec):
    t.counters["centrality.pagerank.iterations"] = vec.iterations


def _louvain(t, _args, part):
    t.counters["community.louvain.communities"] = part.n_communities


def _er(t, _args, g):
    t.counters["topology.erdos_renyi.edges"] += g.m


FUNCTIONS = [
    ("extractor", "extract_archive", _extracted),
    ("extractor", "open_archive", _archive),
    ("classfile", "parse_class", None),
    ("extractor", "extract_calls", None),
    ("names", "write_relation_table", _table),
    ("names", "read_relation_table", _table),
    ("graph", "build_graph", _built),
    ("gexf", "export_gexf", _gexf_out),
    ("gexf", "import_gexf", _gexf_in),
    ("graph", "undirected_projection", None),
    ("metrics", "shortest_path_stats", _paths),
    ("metrics", "giant_component_paths", _paths),
    ("metrics", "avg_clustering", None),
    ("metrics", "components", None),
    ("_kernels", "bfs_stats", _bfs),
    ("_kernels", "brandes", None),
    ("_kernels", "triangle_doubles", None),
    ("centrality", "betweenness", None),
    ("centrality", "pagerank", _pagerank),
    ("community", "louvain", _louvain),
    ("topology", "erdos_renyi", _er),
    ("topology", "fit_power_law", None),
    ("topology", "small_world_test", None),
    ("report", "analyze_graph", None),
    ("report", "render_table", None),
]
# to_csr is a method of both graph classes; both record as graph.to_csr.
METHODS = [("graph", "DirectedGraph", "to_csr"), ("graph", "UndirectedGraph", "to_csr")]


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a wrapped function (names may not start with '_')."""
    return f"{module.lstrip('_')}.{attr}"


class Tracer:
    """Spans and counters of one traced job, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def _wrap(self, name: str, fn, hook):
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the entry reads interleaved with
            # the caller's parsing are charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    record = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(record)
                    if hook is not None:
                        hook(self, args, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = self.run(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Rebind every jarnet module attribute that holds a wrapped function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "jarnet" or n.startswith("jarnet."))]
        for mod_name, attr, hook in FUNCTIONS:
            original = getattr(sys.modules[f"jarnet.{mod_name}"], attr)
            wrapper = self._wrap(span_name(mod_name, attr), original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"jarnet.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{mod_name}.{attr}", original, None))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    # -- results ------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per-name sum of span duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, _parent, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def dump(self) -> dict:
        """Spans relative to the first start, with self times and counts."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return {
            "spans": [{"name": n, "parent": p, "start": s - t0, "end": e - t0}
                      for n, p, s, e in self.spans],
            "self_s": self.self_times(),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "computed": ["kernels.bfs_stats.edge_scans"],
        }
