"""Triangle and component kernels against the scalar oracles and networkx."""
from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

import projection_oracle
from jarnet import _kernels
from jarnet.graph import DirectedGraph, undirected_projection
from jarnet.metrics import components, giant_component_paths
from jarnet.topology import erdos_renyi
from test_bfs_kernel import messy_digraph
from test_brandes_kernel import lattice_digraph


def edgeless(n: int) -> DirectedGraph:
    g = DirectedGraph()
    for i in range(n):
        g.add_vertex(f"e{i}")
    return g


def complete(n: int) -> DirectedGraph:
    g = edgeless(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(v, u)
    return g


PROJECTIONS = (
    [undirected_projection(messy_digraph(s)) for s in range(4)]
    + [undirected_projection(lattice_digraph(s)) for s in range(3)]
    + [undirected_projection(g) for g in (edgeless(1), edgeless(6), complete(6))]
    + [erdos_renyi(300, 0.02, seed=s) for s in range(3)]
)


def as_networkx(proj) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(proj.n))
    graph.add_edges_from(proj.edges())
    return graph


@pytest.mark.parametrize("index", range(len(PROJECTIONS)))
def test_triangles_match_oracle_and_networkx(index):
    proj = PROJECTIONS[index]
    csr = proj.to_csr()
    tri2 = _kernels.triangle_doubles(*csr)
    assert tri2.dtype == np.int64
    assert np.array_equal(tri2, projection_oracle.triangle_doubles(*csr))
    ref = nx.triangles(as_networkx(proj))
    assert tri2.tolist() == [2 * ref[v] for v in range(proj.n)]


@pytest.mark.parametrize("index", range(len(PROJECTIONS)))
def test_components_match_oracle_and_networkx(index):
    proj = PROJECTIONS[index]
    labels, sizes = projection_oracle.components(*proj.to_csr())
    comp = components(proj)
    assert np.array_equal(comp.labels, labels)
    assert np.bincount(comp.labels).tolist() == list(sizes)
    assert comp.count == len(sizes)
    assert comp.giant_label == int(np.argmax(sizes))
    assert comp.giant_size == max(sizes)
    parts = sorted(nx.connected_components(as_networkx(proj)), key=min)
    assert [len(p) for p in parts] == list(sizes)
    for label, part in enumerate(parts):
        assert set(np.flatnonzero(comp.labels == label).tolist()) == part


def test_long_path_labels_in_one_component():
    # Min-label propagation needs one round per hop from the smallest id.
    g = edgeless(200)
    for i in range(199):
        g.add_edge(199 - i, 198 - i)
    comp = components(g)
    assert (comp.count, comp.giant_size) == (1, 200)
    assert giant_component_paths(g).diameter == 199


def test_kernels_accept_a_graph_without_vertices():
    csr = undirected_projection(edgeless(0)).to_csr()
    assert _kernels.triangle_doubles(*csr).tolist() == []
    assert _kernels.component_labels(*csr).tolist() == []
    assert _kernels.bfs_stats(*csr, np.zeros(0, np.int64)) == (0, 0, 0)
    assert _kernels.brandes(*csr).tolist() == []
