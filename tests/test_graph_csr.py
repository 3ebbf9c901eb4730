"""The CSR-backed graph classes against the set-based oracle they replaced,
the caching of their sorted forms, and the freeze at the first CSR read."""
from __future__ import annotations

import random

import numpy as np
import pytest

import graph_oracle
import test_bfs_kernel
import test_projection_kernels
from jarnet.graph import DirectedGraph, UndirectedGraph
from jarnet.topology import erdos_renyi
from test_bfs_kernel import messy_digraph
from test_brandes_kernel import lattice_digraph
from test_projection_kernels import complete, edgeless


def twins(build, *args):
    """``build(*args)``, and an oracle digraph that was sent the same
    ``add_vertex`` and ``add_edge`` calls, with the same results.

    After about one addition in eight, chosen by a seeded draw, the growing
    graph is read through ``m`` or ``edges``, which leave it growing, and
    checked against the oracle."""
    oracle = graph_oracle.DirectedGraph()
    rng = random.Random(f"{build.__name__}{args}")

    def read(g):
        if rng.random() >= 1 / 8:
            return
        if rng.random() < 0.5:
            assert g.m == oracle.m
        else:
            assert list(g.edges()) == list(oracle.edges())
        assert g._keys is not None and g._ids is not None

    class Twin(DirectedGraph):
        def add_vertex(self, label):
            vid = super().add_vertex(label)
            assert oracle.add_vertex(label) == vid
            read(self)
            return vid

        def add_edge(self, src, dst):
            added = super().add_edge(src, dst)
            assert oracle.add_edge(src, dst) == added
            read(self)
            return added

    with pytest.MonkeyPatch.context() as patch:
        for module in (test_bfs_kernel, test_projection_kernels):
            patch.setattr(module, "DirectedGraph", Twin)
        g = build(*args)
    return g, oracle


CASES = ([(messy_digraph, s) for s in range(4)]
         + [(lattice_digraph, s) for s in range(3)]
         + [(edgeless, 1), (edgeless, 6), (complete, 6)])


def assert_csr_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == np.int64
        assert np.array_equal(a, b)


@pytest.mark.parametrize("build, arg", CASES)
def test_digraph_matches_set_oracle(build, arg):
    g, oracle = twins(build, arg)
    assert (g.n, g.m) == (oracle.n, oracle.m)
    for reverse in (False, True):
        assert_csr_equal(g.to_csr(reverse=reverse), oracle.to_csr(reverse=reverse))
    assert list(g.edges()) == list(oracle.edges())
    assert np.array_equal(g.out_degrees(), oracle.out_degrees())
    assert np.array_equal(g.in_degrees(), oracle.in_degrees())
    (indptr, indices), (rindptr, rindices) = g.to_csr(), g.to_csr(reverse=True)
    for v in range(g.n):
        assert indices[indptr[v]:indptr[v + 1]].tolist() == oracle.successors(v)
        assert rindices[rindptr[v]:rindptr[v + 1]].tolist() == oracle.predecessors(v)


@pytest.mark.parametrize("build, arg", CASES)
def test_projection_matches_set_oracle(build, arg):
    g, oracle = twins(build, arg)
    proj, want = g.undirected(), graph_oracle.undirected_projection(oracle)
    assert (proj.n, proj.m) == (want.n, want.m)
    assert proj.labels is g.labels
    assert_csr_equal(proj.to_csr(), want.to_csr())
    assert np.array_equal(proj.degrees(), want.degrees())
    assert list(proj.edges()) == list(want.edges())


@pytest.mark.parametrize("n", [0, 1, 2, 300])
@pytest.mark.parametrize("p", [0.0, 0.02, 0.3, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_erdos_renyi_matches_set_oracle(n, p, seed):
    got, want = erdos_renyi(n, p, seed=seed), graph_oracle.erdos_renyi(n, p, seed=seed)
    assert (got.n, got.m) == (want.n, want.m)
    assert got.labels == want.labels
    assert list(got.edges()) == list(want.edges())
    assert_csr_equal(got.to_csr(), want.to_csr())


def test_undirected_graph_symmetrizes_and_drops_loops():
    g = UndirectedGraph(["a", "b", "c", "d"], [0, 1, 2, 2, 3], [1, 0, 2, 0, 0])
    assert (g.n, g.m) == (4, 3)
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 3)]
    assert g.degrees().tolist() == [3, 1, 1, 1]
    assert all(a is b for a, b in zip(g.to_csr(reverse=True), g.to_csr()))
    assert g.undirected() is g


def path_graph() -> DirectedGraph:
    g = DirectedGraph()
    g.add_edge_labels("a", "b")
    g.add_edge_labels("b", "c")
    return g


def test_sorted_forms_are_built_once():
    g = path_graph()
    for reverse in (False, True):
        first, again = g.to_csr(reverse=reverse), g.to_csr(reverse=reverse)
        assert all(a is b for a, b in zip(first, again, strict=True))
    proj = g.undirected()
    assert g.undirected() is proj
    assert all(a is b for a, b in zip(proj.to_csr(), g.undirected().to_csr(),
                                      strict=True))


CSR_READS = {
    "to_csr": lambda g: g.to_csr(),
    "to_csr_reverse": lambda g: g.to_csr(reverse=True),
    "undirected": lambda g: g.undirected(),
    "in_degrees": lambda g: g.in_degrees(),
    "out_degrees": lambda g: g.out_degrees(),
}


@pytest.mark.parametrize("read", CSR_READS)
def test_a_csr_read_freezes_the_graph(read):
    g = path_graph()
    assert g.m == 2 and list(g.edges()) == [(0, 1), (1, 2)]
    assert g.add_vertex("d") == 3 and g.add_edge(3, 0)  # still growing
    CSR_READS[read](g)
    assert g._keys is None and g._ids is None

    def cached():
        return [*g.to_csr(), *g.to_csr(reverse=True), *g.undirected().to_csr()]

    arrays, labels, kinds = cached(), list(g.labels), list(g.kinds)
    for add in (lambda: g.add_vertex("e"), lambda: g.add_vertex("a"),
                lambda: g.add_edge(0, 2), lambda: g.add_edge(0, 1),
                lambda: g.add_edge(0, 9), lambda: g.add_edge_labels("a", "e"),
                lambda: g.add_edge_labels("a", "b")):
        with pytest.raises(ValueError, match="frozen"):
            add()
        assert (g.n, g.m, g.labels, g.kinds) == (4, 3, labels, kinds)
        assert all(a is b for a, b in zip(cached(), arrays, strict=True))
    assert list(g.edges()) == [(0, 1), (1, 2), (3, 0)]


def test_a_csr_read_leaves_the_csr_the_only_edge_store():
    g = path_graph()
    assert g._keys == {0 << 32 | 1, 1 << 32 | 2} and len(g._ids) == 3
    g.to_csr()
    assert g._keys is None and g._ids is None
    assert g.m == 2 and list(g.edges()) == [(0, 1), (1, 2)]


def test_duplicate_edge_changes_nothing():
    g = path_graph()
    assert not g.add_edge(0, 1)
    assert not g.add_edge_labels("b", "c")
    assert g.add_vertex("b") == 1
    assert (g.n, g.m) == (3, 2)
    assert g.to_csr()[1].tolist() == [1, 2]


def test_edge_to_a_missing_vertex_is_refused():
    g = path_graph()
    for src, dst in ((0, 3), (3, 0), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            g.add_edge(src, dst)
    assert g.m == 2


def test_empty_and_loop_only_graphs_project_to_no_edges():
    empty = DirectedGraph()
    assert (empty.undirected().n, empty.undirected().m) == (0, 0)
    assert empty.to_csr()[0].tolist() == [0]
    loops = edgeless(3)
    for v in range(3):
        loops.add_edge(v, v)
    assert loops.m == 3
    assert loops.undirected().m == 0
    assert loops.undirected().degrees().tolist() == [0, 0, 0]
