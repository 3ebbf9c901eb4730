"""Bit-parallel BFS kernel against the per-source oracle and networkx."""
from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

import bfs_oracle
from jarnet import _kernels
from jarnet.graph import DirectedGraph, UndirectedGraph, undirected_projection
from jarnet.metrics import (
    _fold_leaves,
    _pick_sources,
    components,
    giant_component_paths,
    shortest_path_stats,
)

BOUNDARY_COUNTS = (1, 63, 64, 65, 512, 513)


def messy_digraph(seed: int, n: int = 90) -> DirectedGraph:
    """Random digraph with self-loops, isolated vertices, vertices without
    predecessors that do have successors, and several components."""
    rng = np.random.default_rng(seed)
    g = DirectedGraph()
    for i in range(n):
        g.add_vertex(f"v{i:04d}")
    order = rng.permutation(n)
    isolated = order[:5]
    roots = order[5:10]
    blocks = np.array_split(order[10:], 3)
    for block in blocks:
        p = rng.uniform(1.2, 3.0) / block.size
        for u in block.tolist():
            for v in block.tolist():
                if u != v and rng.random() < p:
                    g.add_edge(u, v)
    for r, block in zip(roots.tolist(), blocks * 2):
        for v in rng.choice(block, size=3, replace=False).tolist():
            g.add_edge(r, v)
    for v in rng.choice(order[10:], size=6, replace=False).tolist():
        g.add_edge(v, v)
    # Checked from edges(), which leaves the graph growing: a CSR read would
    # freeze it, and lattice_digraph adds to it.
    src, dst = np.array(list(g.edges())).T
    out_deg, in_deg = np.bincount(src, minlength=n), np.bincount(dst, minlength=n)
    assert all(out_deg[i] == 0 == in_deg[i] for i in isolated)
    assert all(in_deg[r] == 0 < out_deg[r] for r in roots)
    assert components(UndirectedGraph(g.labels, src, dst)).count >= 3 + isolated.size
    return g


def oracle_directed(g, sample_sources=None, seed=0):
    sources, exact = _pick_sources(np.arange(g.n, dtype=np.int64), sample_sources, seed)
    return bfs_oracle.path_stats(*g.to_csr(), sources, exact)


def oracle_undirected(g, sample_sources=None, seed=0):
    proj = undirected_projection(g)
    sources, exact = _pick_sources(np.arange(g.n, dtype=np.int64), sample_sources, seed)
    return bfs_oracle.path_stats(*proj.to_csr(), sources, exact)


def oracle_giant(g, sample_sources=None, seed=0):
    proj = undirected_projection(g)
    comp = components(proj)
    giant = np.flatnonzero(comp.labels == comp.giant_label).astype(np.int64)
    sources, exact = _pick_sources(giant, sample_sources, seed)
    return bfs_oracle.path_stats(*proj.to_csr(), sources, exact)


@pytest.mark.parametrize("seed", range(6))
def test_exact_paths_match_per_source_oracle(seed):
    g = messy_digraph(seed)
    assert shortest_path_stats(g, mode="directed") == oracle_directed(g)
    assert shortest_path_stats(g, mode="undirected") == oracle_undirected(g)
    assert giant_component_paths(g) == oracle_giant(g)


@pytest.mark.parametrize("seed", range(6))
def test_sampled_paths_match_per_source_oracle(seed):
    g = messy_digraph(100 + seed)
    k, s = 17 + seed, 40 + seed
    assert shortest_path_stats(g, mode="directed", sample_sources=k, seed=s) \
        == oracle_directed(g, k, s)
    assert shortest_path_stats(g, mode="undirected", sample_sources=k, seed=s) \
        == oracle_undirected(g, k, s)
    assert giant_component_paths(g, sample_sources=5, seed=s) == oracle_giant(g, 5, s)


def networkx_sums(graph, sources):
    total = pairs = diameter = 0
    for s in sources.tolist():
        lengths = nx.single_source_shortest_path_length(graph, s)
        total += sum(lengths.values())
        pairs += len(lengths) - 1
        diameter = max(diameter, max(lengths.values()))
    return total, pairs, diameter


@pytest.mark.parametrize("seed", range(4))
def test_kernel_sums_match_networkx(seed):
    g = messy_digraph(200 + seed)
    sources = np.arange(g.n, dtype=np.int64)
    directed = nx.DiGraph()
    directed.add_nodes_from(range(g.n))
    directed.add_edges_from(g.edges())
    assert _kernels.bfs_stats(*g.to_csr(reverse=True), sources) \
        == networkx_sums(directed, sources)
    assert _kernels.bfs_stats(*undirected_projection(g).to_csr(), sources) \
        == networkx_sums(directed.to_undirected(), sources)


def test_graphs_without_edges_or_with_only_loops():
    edgeless = DirectedGraph()
    for label in ("a", "b", "c"):
        edgeless.add_vertex(label)
    looped = DirectedGraph()
    looped.add_edge_labels("a", "a")
    for g in (edgeless, looped):
        for mode in ("directed", "undirected"):
            stats = shortest_path_stats(g, mode=mode)
            assert (stats.average, stats.diameter, stats.finite_pairs) == (0.0, 0, 0)


# -- batch boundaries ---------------------------------------------------------

@pytest.fixture(scope="module")
def wide_graph():
    rng = np.random.default_rng(77)
    n = 600
    g = DirectedGraph()
    for i in range(n):
        g.add_vertex(f"w{i:04d}")
    for u, v in rng.integers(0, n, size=(1500, 2)).tolist():
        g.add_edge(u, v)
    return g


@pytest.mark.parametrize("count", BOUNDARY_COUNTS)
def test_batch_width_never_changes_results(wide_graph, monkeypatch, count):
    results = []
    for width in (64, 512):
        monkeypatch.setattr(_kernels, "BATCH_SOURCES", width)
        results.append([
            shortest_path_stats(wide_graph, mode=mode, sample_sources=count, seed=count)
            for mode in ("directed", "undirected")])
    assert results[0] == results[1]
    assert [s.sources_used for s in results[0]] == [count, count]
    assert results[0][0] == oracle_directed(wide_graph, count, count)


def test_diameter_from_first_batch_survives_later_batches(monkeypatch):
    # The only 20-hop shortest path starts at vertex 0; every later source
    # sees at most 2 hops, so a per-batch maximum would lose it.
    g = DirectedGraph()
    for i in range(130):
        g.add_vertex(f"d{i:04d}")
    for i in range(20):
        g.add_edge(i, i + 1)
    for i in range(21, 129, 3):
        g.add_edge(i, i + 1)
        g.add_edge(i + 1, i + 2)
    for width in (64, 512):
        monkeypatch.setattr(_kernels, "BATCH_SOURCES", width)
        assert shortest_path_stats(g, mode="directed") == oracle_directed(g)
        assert shortest_path_stats(g, mode="directed").diameter == 20
        assert shortest_path_stats(g, mode="undirected").diameter == 20


# -- skipped work: leaf fold, sources that reach nothing, saturated rows --------

def graph_of(edges, isolated=()):
    g = DirectedGraph()
    for label in isolated:
        g.add_vertex(label)
    for u, v in edges:
        g.add_edge_labels(u, v)
    return g


def path_edges(prefix, length):
    return [(f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(length)]


# Graphs whose only diametral pairs are two leaves folded onto a vertex.
LEAF_DIAMETER_GRAPHS = {
    "three_path": graph_of(path_edges("p", 2)),
    "star": graph_of([("hub", f"s{i}") for i in range(6)]),
    "k2_components": graph_of([(f"a{i}", f"b{i}") for i in range(4)]),
    "path_plus_k2": graph_of(path_edges("p", 5) + [("x", "y")]),
}


@pytest.mark.parametrize("name", sorted(LEAF_DIAMETER_GRAPHS))
def test_leaf_diameters_match_oracle(monkeypatch, name):
    g = LEAF_DIAMETER_GRAPHS[name]
    for width in (64, 512):
        monkeypatch.setattr(_kernels, "BATCH_SOURCES", width)
        assert shortest_path_stats(g, mode="undirected") == oracle_undirected(g)
        assert giant_component_paths(g) == oracle_giant(g)
        assert shortest_path_stats(g, mode="directed") == oracle_directed(g)


def test_leaf_fold_runs_fewer_sources():
    g = LEAF_DIAMETER_GRAPHS["path_plus_k2"]
    indptr, indices = undirected_projection(g).to_csr()
    run, leaves = _fold_leaves(indptr, indices, np.arange(g.n, dtype=np.int64))
    # p0 and p5 fold onto p1 and p4; the K2's ends keep their own runs.
    assert [g.labels[v] for v in run] == ["p1", "p2", "p3", "p4", "x", "y"]
    assert leaves.tolist() == [1, 0, 0, 1, 0, 0]
    assert shortest_path_stats(g, mode="undirected").diameter == 5


def test_sampled_undirected_runs_fold_leaves(monkeypatch):
    # A path whose every vertex has three leaves, and a separate K2: most
    # samples hold a leaf together with its neighbour, which it folds onto.
    edges = path_edges("p", 39)
    edges += [(f"p{i}", f"l{i}_{j}") for i in range(40) for j in range(3)]
    g = graph_of(edges + [("x", "y")])
    runs = []
    bfs_stats = _kernels.bfs_stats

    def spy(indptr, indices, sources, leaves=None):
        runs.append(len(sources))
        return bfs_stats(indptr, indices, sources, leaves)

    monkeypatch.setattr(_kernels, "bfs_stats", spy)
    for width in (64, 512):
        monkeypatch.setattr(_kernels, "BATCH_SOURCES", width)
        runs.clear()
        assert shortest_path_stats(g, mode="undirected", sample_sources=120, seed=3) \
            == oracle_undirected(g, 120, 3)
        assert giant_component_paths(g, sample_sources=100, seed=4) \
            == oracle_giant(g, 100, 4)
        assert runs[0] < 120 and runs[1] < 100


def test_hub_with_more_than_256_leaves(monkeypatch):
    # 300 leaves need nine bit planes; a second anchor with 5 leaves and a
    # tail make the diametral pair a hub leaf and the tail's end.
    edges = [("hub", f"l{i}") for i in range(300)] + [("hub", "t0")]
    edges += path_edges("t", 4) + [(f"m{i}", "t2") for i in range(5)]
    g = graph_of(edges)
    for width in (64, 512):
        monkeypatch.setattr(_kernels, "BATCH_SOURCES", width)
        assert shortest_path_stats(g, mode="undirected") == oracle_undirected(g)
        assert giant_component_paths(g) == oracle_giant(g)
    assert shortest_path_stats(g, mode="undirected").diameter == 6


def test_sources_that_reach_nothing_are_skipped():
    # Every source is a sink, so the kernel runs none of them.
    g = graph_of([("a", "c"), ("b", "c"), ("c", "d"), ("e", "d")], isolated=["z"])
    sinks = np.array([g.labels.index("d"), g.labels.index("z")], np.int64)
    assert _kernels.bfs_stats(*g.to_csr(reverse=True), sinks) == (0, 0, 0)
    assert bfs_oracle.path_stats(*g.to_csr(), sinks, True).finite_pairs == 0
    assert shortest_path_stats(g, mode="directed") == oracle_directed(g)


def test_saturated_rows_across_several_rebuilds(monkeypatch):
    # On a long path, the rows a batch has filled grow by about one per
    # level, so the live rows fall below 70% more than once per batch.
    g = graph_of(path_edges("q", 300) + [("q150", f"r{i}") for i in range(40)])
    gathers = []
    neighbours = _kernels._neighbours

    def counting(indptr, rows):
        gathers.append(rows.shape[0])
        return neighbours(indptr, rows)

    monkeypatch.setattr(_kernels, "_neighbours", counting)
    monkeypatch.setattr(_kernels, "BATCH_SOURCES", 64)
    assert shortest_path_stats(g, mode="undirected") == oracle_undirected(g)
    assert shortest_path_stats(g, mode="directed") == oracle_directed(g)
    batches = -(-g.n // 64)
    assert len(gathers) > 2 * batches
    # One batch whose last word is partial: its rows fill up too.
    gathers.clear()
    monkeypatch.setattr(_kernels, "BATCH_SOURCES", 512)
    assert shortest_path_stats(g, mode="undirected") == oracle_undirected(g)
    assert len(gathers) >= 2
