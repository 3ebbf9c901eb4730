"""Degree/clustering/path/component measures against brute-force oracles."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from jarnet.centrality import betweenness, pagerank
from jarnet.community import louvain, modularity
from jarnet.errors import EmptyGraph
from jarnet.graph import DirectedGraph, undirected_projection
from jarnet.metrics import (
    avg_clustering,
    components,
    degrees,
    giant_component_paths,
    shortest_path_stats,
)
from jarnet.topology import small_world_test


def digraph(edges, n_hint=0) -> DirectedGraph:
    g = DirectedGraph()
    top = max([max(u, v) for u, v in edges], default=-1)
    for i in range(max(n_hint, top + 1)):
        g.add_vertex(f"v{i:03d}")
    for u, v in edges:
        g.add_edge(u, v)
    return g


def random_digraph(n, p, rng, self_loops=False) -> DirectedGraph:
    edges = [(u, v) for u in range(n) for v in range(n)
             if (u != v or self_loops) and rng.random() < p]
    return digraph(edges, n_hint=n)


# -- degrees ------------------------------------------------------------------

def test_degree_counting_with_self_loop():
    g = digraph([(0, 0), (0, 1)])
    report = degrees(g)
    assert list(report.total_degrees) == [3, 1]  # the loop counts twice
    assert report.avg_degree == pytest.approx(g.m / g.n)


def test_handshake_sum_over_random_graphs():
    rng = random.Random(2)
    for trial in range(20):
        g = random_digraph(rng.randrange(2, 30), rng.uniform(0.05, 0.4), rng,
                           self_loops=bool(trial % 2))
        report = degrees(g)
        assert int(report.total_degrees.sum()) == 2 * g.m


def test_degrees_empty_graph_raises():
    with pytest.raises(EmptyGraph):
        degrees(DirectedGraph())


# -- shortest paths -----------------------------------------------------------

def floyd_warshall(n, edges):
    inf = math.inf
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for u, v in edges:
        if u != v:
            dist[u][v] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            row = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return dist


def oracle_stats(dist):
    finite = [d for i, row in enumerate(dist) for j, d in enumerate(row)
              if i != j and d != math.inf]
    if not finite:
        return 0.0, 0, 0
    return sum(finite) / len(finite), int(max(finite)), len(finite)


def test_directed_paths_match_floyd_warshall():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randrange(2, 25)
        g = random_digraph(n, rng.uniform(0.05, 0.35), rng)
        stats = shortest_path_stats(g, mode="directed")
        avg, diam, pairs = oracle_stats(floyd_warshall(n, list(g.edges())))
        assert stats.finite_pairs == pairs
        assert stats.diameter == diam
        assert stats.average == pytest.approx(avg, abs=1e-12)
        assert stats.exact


def test_undirected_paths_match_floyd_warshall():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randrange(2, 22)
        g = random_digraph(n, rng.uniform(0.05, 0.3), rng)
        sym = list(g.edges()) + [(v, u) for u, v in g.edges()]
        stats = shortest_path_stats(g, mode="undirected")
        avg, diam, pairs = oracle_stats(floyd_warshall(n, sym))
        assert (stats.average, stats.diameter, stats.finite_pairs) == (
            pytest.approx(avg, abs=1e-12), diam, pairs)


def test_directed_and_undirected_differ_on_cycle():
    g = digraph([(0, 1), (1, 2), (2, 0)])
    directed = shortest_path_stats(g, mode="directed")
    undirected = shortest_path_stats(g, mode="undirected")
    assert directed.average == pytest.approx(1.5)
    assert directed.diameter == 2
    assert undirected.average == pytest.approx(1.0)
    assert undirected.diameter == 1


def test_self_loops_do_not_affect_paths():
    plain = digraph([(0, 1), (1, 2)])
    loopy = digraph([(0, 1), (1, 2), (1, 1)])
    a = shortest_path_stats(plain, mode="directed")
    b = shortest_path_stats(loopy, mode="directed")
    assert (a.average, a.diameter, a.finite_pairs) == (b.average, b.diameter, b.finite_pairs)


def test_sampled_paths_cover_all_sources_equals_exact():
    rng = random.Random(7)
    g = random_digraph(18, 0.2, rng)
    exact = shortest_path_stats(g, mode="directed")
    sampled = shortest_path_stats(g, mode="directed", sample_sources=18, seed=3)
    assert sampled.exact  # sample covers every vertex, so it is promoted
    assert sampled.average == pytest.approx(exact.average)


def test_sampled_paths_deterministic_and_flagged():
    rng = random.Random(8)
    g = random_digraph(40, 0.1, rng)
    a = shortest_path_stats(g, mode="directed", sample_sources=7, seed=11)
    b = shortest_path_stats(g, mode="directed", sample_sources=7, seed=11)
    assert not a.exact
    assert a.sources_used == 7
    assert (a.average, a.diameter, a.finite_pairs) == (b.average, b.diameter, b.finite_pairs)


# -- clustering ---------------------------------------------------------------

def brute_clustering(g: DirectedGraph) -> float:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    total = 0.0
    for v in range(g.n):
        nbrs = sorted(adj[v])
        d = len(nbrs)
        if d < 2:
            continue
        links = sum(1 for i in range(d) for j in range(i + 1, d)
                    if nbrs[j] in adj[nbrs[i]])
        total += 2.0 * links / (d * (d - 1))
    return total / g.n


def test_clustering_triangle_is_one():
    g = digraph([(0, 1), (1, 2), (2, 0)])
    assert avg_clustering(g) == pytest.approx(1.0)


def test_clustering_path_is_zero():
    g = digraph([(0, 1), (1, 2)])
    assert avg_clustering(g) == pytest.approx(0.0)


def test_clustering_square_with_diagonal():
    g = digraph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert avg_clustering(g) == pytest.approx(5 / 6)


def test_clustering_matches_brute_force():
    rng = random.Random(10)
    for _ in range(12):
        g = random_digraph(rng.randrange(3, 28), rng.uniform(0.08, 0.4), rng,
                           self_loops=True)
        assert avg_clustering(g) == pytest.approx(brute_clustering(g), abs=1e-12)


def test_clustering_accepts_projection():
    g = digraph([(0, 1), (1, 2), (2, 0)])
    assert avg_clustering(undirected_projection(g)) == pytest.approx(1.0)


# -- components ---------------------------------------------------------------

class DSU:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def test_components_match_union_find():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randrange(2, 40)
        g = random_digraph(n, rng.uniform(0.02, 0.15), rng)
        report = components(g)
        dsu = DSU(n)
        for u, v in g.edges():
            dsu.union(u, v)
        roots = {dsu.find(i) for i in range(n)}
        assert report.count == len(roots)
        sizes = {}
        for i in range(n):
            sizes[dsu.find(i)] = sizes.get(dsu.find(i), 0) + 1
        assert report.giant_size == max(sizes.values())
        assert report.giant_fraction == pytest.approx(max(sizes.values()) / n)
        # same component iff same root
        for u, v in g.edges():
            assert report.labels[u] == report.labels[v]


def test_component_labels_dense_first_seen():
    g = digraph([(0, 1)], n_hint=4)
    g.add_edge(2, 3)
    report = components(g)
    assert list(report.labels) == [0, 0, 1, 1]


def test_empty_graph_raises_everywhere():
    g = DirectedGraph()
    for fn, message in [
        (avg_clustering, "clustering needs at least one vertex"),
        (components, "component analysis needs at least one vertex"),
        (shortest_path_stats, "path statistics need at least one vertex"),
        (giant_component_paths, "path statistics need at least one vertex"),
        (betweenness, "betweenness needs at least one vertex"),
        (pagerank, "pagerank needs at least one vertex"),
        (louvain, "community detection needs at least one vertex"),
    ]:
        with pytest.raises(EmptyGraph) as raised:
            fn(g)
        assert str(raised.value) == message


@pytest.mark.parametrize("fn", [
    components, avg_clustering, shortest_path_stats, giant_component_paths,
    betweenness, pagerank, louvain,
    lambda g: modularity(g, np.arange(g.n) % 3),
    lambda g: small_world_test(g, replicates=2, seed=1),
], ids=["components", "avg_clustering", "shortest_path_stats", "giant_component_paths",
        "betweenness", "pagerank", "louvain", "modularity", "small_world_test"])
def test_analysis_functions_take_the_projection(fn):
    # degrees and degree_histogram count in- and out-degrees, so they alone
    # need the DirectedGraph.
    proj = random_digraph(30, 0.1, random.Random(40)).undirected()
    fn(proj)
