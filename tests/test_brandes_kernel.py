"""Batched Brandes kernel against the scalar oracle (bit for bit) and networkx."""
from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

import brandes_oracle
from jarnet import _kernels
from jarnet.centrality import betweenness
from jarnet.graph import DirectedGraph, undirected_projection
from test_bfs_kernel import messy_digraph


def lattice_digraph(seed: int) -> DirectedGraph:
    """A messy digraph plus layered "diamond lattice" parts: every vertex of
    a layer has three or more successors in the next layer, reached by
    unequal numbers of shortest paths, so dependencies are sums of many
    unequal fractions whose rounding depends on the order of addition."""
    g = messy_digraph(seed, n=61)
    rng = np.random.default_rng(1000 + seed)
    for part in range(2):
        layers = [[g.add_vertex(f"p{part}l{i}x{j}") for j in range(int(w))]
                  for i, w in enumerate(rng.integers(4, 8, size=6))]
        for upper, lower in zip(layers, layers[1:]):
            for u in upper:
                k = int(rng.integers(3, len(lower) + 1))
                for v in rng.choice(lower, size=k, replace=False).tolist():
                    g.add_edge(u, v)
        # Tie the lattice to the random part, and close a few cycles.
        g.add_edge(int(rng.integers(0, 61)), layers[0][0])
        g.add_edge(layers[-1][-1], layers[0][-1])
    if g.n % 7 == 0:
        g.add_vertex("pad")  # so 7-source batches leave a short last batch
    return g


def deep_digraph(length: int = 300) -> DirectedGraph:
    """A long path with chords, side branches that rejoin it as long as the
    path stretch they bypass (so vertices have several shortest paths), dead
    end branches and a few back edges: BFS runs for many levels. Vertex ids
    are shuffled against path order."""
    rng = np.random.default_rng(77)
    g = DirectedGraph()
    names = [f"d{i:03d}" for i in range(length)]
    for i in rng.permutation(length).tolist():
        g.add_vertex(names[i])
    for a, b in zip(names, names[1:]):
        g.add_edge_labels(a, b)
    for i in range(0, length - 8, 3):
        kind = int(rng.integers(0, 4))
        if kind == 0:  # chord: skips ahead
            g.add_edge_labels(names[i], names[i + int(rng.integers(2, 5))])
        elif kind == 1:  # branch as long as the path stretch it bypasses
            hops = int(rng.integers(1, 4))
            branch = [names[i]] + [f"b{i:03d}x{j}" for j in range(hops)]
            for a, b in zip(branch, branch[1:] + [names[i + hops + 1]]):
                g.add_edge_labels(a, b)
        elif kind == 2:  # dead end
            g.add_edge_labels(names[i], f"e{i:03d}")
            g.add_edge_labels(f"e{i:03d}", f"e{i:03d}y")
    for _ in range(4):
        hi = int(rng.integers(length // 2, length))
        g.add_edge_labels(names[hi], names[int(rng.integers(0, hi // 2))])
    return g


GRAPHS = ([messy_digraph(s) for s in range(3)] + [deep_digraph()]
          + [lattice_digraph(s) for s in range(4)])


def directed_csr(g):
    return (*g.to_csr(), *g.to_csr(reverse=True))


def projected_csr(g):
    indptr, indices = undirected_projection(g).to_csr()
    return indptr, indices, indptr, indices


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_lattice_has_many_unequal_shortest_path_successors():
    g = lattice_digraph(0)
    assert g.n % 7 != 0
    graph = nx.DiGraph(list(g.edges()))
    source = g.labels.index("p0l0x0")
    assert g.out_degrees()[source] >= 3
    counts = {len(list(nx.all_shortest_paths(graph, source, v)))
              for v, d in nx.single_source_shortest_path_length(graph, source).items()
              if d == 3}
    assert len(counts) >= 3


@pytest.mark.parametrize("csr", [directed_csr, projected_csr])
@pytest.mark.parametrize("index", range(len(GRAPHS)))
def test_kernel_bits_match_scalar_oracle(index, csr):
    arrays = csr(GRAPHS[index])
    assert_bits_equal(_kernels.brandes(*arrays[:2]), brandes_oracle.brandes(*arrays))


@pytest.mark.parametrize("per_batch", ["one", "seven", "all"])
@pytest.mark.parametrize("csr", [directed_csr, projected_csr])
def test_batch_size_never_changes_bits(monkeypatch, csr, per_batch):
    for g in (GRAPHS[0], GRAPHS[-1]):
        n = g.n
        assert n % 7 != 0
        b = {"one": 1, "seven": 7, "all": n}[per_batch]
        monkeypatch.setattr(_kernels, "BATCH_ENTRIES", b * n)
        arrays = csr(g)
        assert_bits_equal(_kernels.brandes(*arrays[:2]), brandes_oracle.brandes(*arrays))


def test_single_vertex_and_edgeless_graphs():
    one = DirectedGraph()
    one.add_vertex("a")
    looped = DirectedGraph()
    looped.add_edge_labels("a", "a")
    edgeless = DirectedGraph()
    for i in range(9):
        edgeless.add_vertex(f"e{i}")
    for g in (one, looped, edgeless):
        for csr in (directed_csr, projected_csr):
            arrays = csr(g)
            scores = _kernels.brandes(*arrays[:2])
            assert_bits_equal(scores, brandes_oracle.brandes(*arrays))
            assert scores.shape == (g.n,) and not scores.any()


@pytest.mark.parametrize("index", range(len(GRAPHS)))
def test_scores_match_networkx(index):
    g = GRAPHS[index]
    directed = nx.DiGraph()
    directed.add_nodes_from(range(g.n))
    directed.add_edges_from(g.edges())
    # Undirected: the kernel on the projection, halved so each unordered
    # pair counts once.
    for scores, graph in ((betweenness(g).scores, directed),
                          (_kernels.brandes(*projected_csr(g)[:2]) / 2.0,
                           directed.to_undirected())):
        ref = nx.betweenness_centrality(graph, normalized=False)
        expected = np.array([ref[v] for v in range(g.n)])
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=1e-12)
