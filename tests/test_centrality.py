"""Betweenness and PageRank against independent oracles."""
from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from jarnet import centrality
from jarnet.centrality import CentralityVector, betweenness, pagerank, top_k
from jarnet.graph import DirectedGraph

from test_metrics import digraph, random_digraph


# -- brute-force betweenness oracle --------------------------------------------
# Distances via Floyd-Warshall; shortest-path counts via adjacency powers
# (walks of length dist(s,t) are exactly the shortest paths); pair-dependency
# summed directly from the combinatorial definition.

def brute_betweenness(g: DirectedGraph, directed=True) -> np.ndarray:
    n = g.n
    A = np.zeros((n, n), dtype=np.float64)
    for u, v in g.edges():
        if u == v:
            continue
        A[u, v] = 1.0
        if not directed:
            A[v, u] = 1.0
    INF = np.float64(np.inf)
    D = np.where(A > 0, 1.0, INF)
    np.fill_diagonal(D, 0.0)
    for k in range(n):
        D = np.minimum(D, D[:, k, None] + D[None, k, :])
    finite = np.isfinite(D)
    max_len = int(D[finite].max()) if n else 0
    sig = np.zeros((n, n))
    power = np.eye(n)
    for length in range(max_len + 1):
        sig[D == length] = power[D == length]
        power = power @ A
    bc = np.zeros(n)
    for v in range(n):
        through = D[:, v, None] + D[None, v, :]
        on_path = finite & (through == D) & (sig > 0)
        on_path[v, :] = False
        on_path[:, v] = False
        np.fill_diagonal(on_path, False)
        contrib = np.zeros((n, n))
        counts = np.outer(sig[:, v], sig[v, :])
        contrib[on_path] = counts[on_path] / sig[on_path]
        bc[v] = contrib.sum()
    if not directed:
        bc /= 2.0
    return bc


def test_path_graph_midpoint():
    g = digraph([(0, 1), (1, 2)])
    raw = betweenness(g)
    assert list(raw.scores) == [0.0, 1.0, 0.0]


def test_undirected_star_center():
    g = digraph([(0, 1), (0, 2), (0, 3)])
    assert betweenness(g.undirected()).scores[0] == pytest.approx(3.0)  # C(3,2) leaf pairs


def test_betweenness_matches_brute_force_directed():
    rng = random.Random(13)
    for _ in range(30):
        g = random_digraph(rng.randrange(2, 28), rng.uniform(0.05, 0.3), rng,
                           self_loops=(rng.random() < 0.3))
        got = betweenness(g).scores
        want = brute_betweenness(g, directed=True)
        assert np.allclose(got, want, atol=1e-9), (got, want)


def test_betweenness_matches_brute_force_undirected():
    rng = random.Random(14)
    for _ in range(15):
        g = random_digraph(rng.randrange(2, 20), rng.uniform(0.08, 0.3), rng)
        got = betweenness(g.undirected()).scores
        want = brute_betweenness(g, directed=False)
        assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("g", [
    pytest.param(digraph([(0, 1), (1, 2), (2, 3)]), id="path"),
    pytest.param(random_digraph(40, 0.08, random.Random(19)), id="seeded"),
])
def test_projection_betweenness_matches_networkx(g):
    """Each unordered pair counts once, as in networkx; on the path
    a-b-c-d the inner vertices score 2, not the 4 of both directions."""
    proj = nx.Graph(list(g.undirected().edges()))
    proj.add_nodes_from(range(g.n))
    want = nx.betweenness_centrality(proj, normalized=False)
    got = betweenness(g.undirected()).scores
    assert np.allclose(got, [want[v] for v in range(g.n)], atol=1e-9)


def test_betweenness_reads_only_the_successor_csr(monkeypatch):
    g = random_digraph(40, 0.1, random.Random(23))
    want = betweenness(g).scores
    to_csr = DirectedGraph.to_csr

    def successors_only(self, reverse=False):
        if reverse:
            raise AssertionError("betweenness read the predecessor CSR")
        return to_csr(self)

    monkeypatch.setattr(DirectedGraph, "to_csr", successors_only)
    assert np.array_equal(betweenness(g).scores, want)


def test_betweenness_deterministic():
    rng = random.Random(15)
    g = random_digraph(40, 0.1, rng)
    a = betweenness(g).scores
    b = betweenness(g).scores
    assert np.array_equal(a, b)


# -- pagerank -------------------------------------------------------------------

def pagerank_linear_solve(g: DirectedGraph, damping=0.85) -> np.ndarray:
    """Closed-form stationary vector with uniform dangling redistribution."""
    n = g.n
    M = np.zeros((n, n))
    out = np.zeros(n)
    for u, v in g.edges():
        out[u] += 1
    for u, v in g.edges():
        M[v, u] += 1.0 / out[u]
    M[:, out == 0] = 1.0 / n
    return np.linalg.solve(np.eye(n) - damping * M,
                           np.full(n, (1 - damping) / n))


def test_pagerank_two_node_closed_form():
    g = digraph([(0, 1)])
    got = pagerank(g).scores
    want = pagerank_linear_solve(g)
    assert np.allclose(got, want, atol=1e-8)
    assert got.sum() == pytest.approx(1.0, abs=1e-9)
    assert got[1] > got[0]


def test_pagerank_matches_linear_solve():
    rng = random.Random(16)
    for _ in range(20):
        g = random_digraph(rng.randrange(2, 30), rng.uniform(0.05, 0.3), rng,
                           self_loops=(rng.random() < 0.3))
        got = pagerank(g).scores
        want = pagerank_linear_solve(g)
        assert np.allclose(got, want, atol=1e-7)


def test_pagerank_uniform_on_cycle():
    g = digraph([(0, 1), (1, 2), (2, 0)])
    scores = pagerank(g).scores
    assert np.allclose(scores, 1 / 3, atol=1e-12)


def test_pagerank_contract_fields(monkeypatch):
    rng = random.Random(17)
    g = random_digraph(25, 0.15, rng)
    result = pagerank(g)
    assert result.scores.sum() == pytest.approx(1.0, abs=1e-9)
    assert (result.scores >= 0).all()
    assert result.converged
    assert 0 < result.iterations <= 200
    monkeypatch.setattr(centrality, "_MAX_ITER", 1)
    capped = pagerank(g)
    assert not capped.converged  # flag, not an exception
    assert capped.iterations == 1
    assert capped.scores.sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_deterministic():
    rng = random.Random(18)
    g = random_digraph(50, 0.08, rng)
    assert np.array_equal(pagerank(g).scores, pagerank(g).scores)


# -- ranking --------------------------------------------------------------------

def test_top_k_orders_and_breaks_ties_by_label():
    g = DirectedGraph()
    for name in ("beta", "alpha", "gamma", "delta"):
        g.add_vertex(name)
    vec = pagerank(g)  # no edges: all scores equal -> pure tie-break
    ranked = top_k(vec, 3)
    assert [label for label, _ in ranked] == ["alpha", "beta", "delta"]
    assert top_k(vec, -1) == [] and top_k(vec, -4) == []


def test_top_k_truncates_and_sorts():
    g = digraph([(0, 1), (2, 1), (3, 1), (1, 0)])
    vec = pagerank(g)
    ranked = top_k(vec, 2)
    assert len(ranked) == 2
    assert ranked[0][1] >= ranked[1][1]
    assert ranked[0][0] == g.labels[1]  # the hub collects the most mass


def full_sort_top_k(vec, k):
    order = sorted(range(len(vec.labels)), key=lambda i: (-vec.scores[i], vec.labels[i]))
    return [(vec.labels[i], float(vec.scores[i])) for i in order[:k]]


@pytest.mark.parametrize("scores", [
    [3.0, 1.0, 2.0, 2.0, 2.0, 0.5, 2.0, 1.0],   # a tie of four straddles k = 2..4
    [0.0] * 8,
    [5.0, 4.0, 3.0, 2.0, 1.0, 0.0, -0.0, 0.0],
])
def test_top_k_matches_full_sort(scores):
    labels = ["h", "c", "a", "g", "b", "f", "e", "d"]
    vec = CentralityVector(labels, np.array(scores))
    for k in (0, 1, 2, 3, 4, 5, 8, 9, 13):
        assert top_k(vec, k) == full_sort_top_k(vec, k), k
