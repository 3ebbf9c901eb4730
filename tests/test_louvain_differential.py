"""Louvain and modularity against ``louvain_oracle``, the module they replaced.

Every comparison is exact: assignments, community counts and q must be
equal, not close, because reports are compared byte for byte.
"""
from __future__ import annotations

import random

import numpy as np
import pytest

import louvain_oracle
from classfile_builder import synthetic_jar
from jarnet.community import louvain, modularity
from jarnet.extractor import extract_archive
from jarnet.graph import build_graph

from test_metrics import digraph, random_digraph


def messy_graph(rng: random.Random, density: float = 1.0):
    """A small random graph; some with self-loops, isolated vertices, or at
    most 8 vertices, where Louvain enumerates partitions exactly. ``density``
    scales the edge probability."""
    n = rng.randint(1, 8) if rng.random() < 0.3 else rng.randint(9, 32)
    g = random_digraph(n, density * rng.uniform(0.02, 0.3), rng,
                       self_loops=rng.random() < 0.4)
    for i in range(rng.choice((0, 0, 1, 3))):
        g.add_vertex(f"isolated{i}")
    return g


def assert_same_partition(g, **options):
    got = louvain(g, **options)
    want = louvain_oracle.louvain(g, **options)
    assert np.array_equal(got.assignments, want.assignments)
    assert got.assignments.dtype == want.assignments.dtype
    assert got.n_communities == want.n_communities
    assert got.q == want.q


# The oracle runs at its defaults, resolution 1.0 and five restarts. Each
# seed draws one graph at three edge densities, so 300 graphs are compared.
@pytest.mark.parametrize("density", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("seed", range(100))
def test_louvain_matches_oracle_on_seeded_graphs(seed, density):
    g = messy_graph(random.Random(seed), density)
    assert_same_partition(g, seed=seed)


@pytest.fixture(scope="module")
def graph_300(tmp_path_factory):
    jar = tmp_path_factory.mktemp("louvain") / "app.jar"
    jar.write_bytes(synthetic_jar(n_classes=300, seed=7))
    return build_graph(extract_archive(jar), "app")


@pytest.mark.parametrize("seed", [0, 7, 31])
def test_louvain_matches_oracle_on_300_classes(graph_300, seed):
    assert_same_partition(graph_300, seed=seed)


@pytest.mark.parametrize("seed", range(40))
def test_modularity_matches_oracle_for_any_labels(seed):
    rng = random.Random(seed)
    g = messy_graph(rng)
    pool = rng.sample(range(-50, 1000), rng.randint(1, 6))
    labels = np.array([rng.choice(pool) for _ in range(g.n)], dtype=np.int64)
    assert modularity(g, labels) == louvain_oracle.modularity(g, labels)
    assert modularity(g, labels.tolist()) == louvain_oracle.modularity(g, labels.tolist())


# A path of m edges cut after its first k vertices. For these cuts, adding
# the community terms as numpy squares (x * x) instead of Python's x ** 2
# moves q by an ulp.
@pytest.mark.parametrize("m, k", [(113, 41), (119, 12), (140, 6)])
def test_modularity_adds_python_squares(m, k):
    g = digraph([(i, i + 1) for i in range(m)])
    labels = np.array([0] * k + [1] * (m + 1 - k))
    assert modularity(g, labels) == louvain_oracle.modularity(g, labels)
