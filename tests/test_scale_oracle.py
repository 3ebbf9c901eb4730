"""Opt-in full-scale oracle for the path kernels.

``shortest_path_stats`` in both modes must equal a chunked
``scipy.sparse.csgraph.shortest_path`` (unweighted, 1,500 sources at a
time, totals summed as integers) on ``synthetic_jar(3000, seed=7)`` built
with prefix ``app``, and on the JDK's ``java.xml`` jmod when it is present.
These graphs have about 21k vertices, so a BFS runs many batches over hub
rows, which tier-1's small graphs reach only by shrinking the batch size.
scipy takes minutes per graph, so the module is skipped unless
``JARNET_SCALE_ORACLE=1`` is set:

    JARNET_SCALE_ORACLE=1 python -m pytest tests/test_scale_oracle.py

Each chunk holds a 1,500 × n float64 distance matrix, about 255 MB at this
size.
"""
from __future__ import annotations

import os

import numpy as np
import pytest

from classfile_builder import synthetic_jar
from jarnet.extractor import extract_archive
from jarnet.graph import build_graph
from jarnet.metrics import PathStats, shortest_path_stats

from test_jdk_xml import JMOD

pytestmark = pytest.mark.skipif(os.environ.get("JARNET_SCALE_ORACLE") != "1",
                                reason="opt-in: set JARNET_SCALE_ORACLE=1")

CHUNK = 1500


def csgraph_path_stats(g, directed: bool) -> PathStats:
    """Every source's BFS distances over the successor CSR, from scipy."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    indptr, indices = g.to_csr()
    adj = csr_matrix((np.ones(indices.shape[0]), indices, indptr), shape=(g.n, g.n))
    total = pairs = diameter = 0
    for start in range(0, g.n, CHUNK):
        sources = np.arange(start, min(start + CHUNK, g.n))
        dist = shortest_path(adj, directed=directed, unweighted=True, indices=sources)
        finite = np.isfinite(dist)
        pairs += int(finite.sum()) - sources.shape[0]  # each source reaches itself
        dist[~finite] = 0
        total += int(dist.sum())  # integer distances: the float sum is exact
        diameter = max(diameter, int(dist.max()))
    return PathStats(total / pairs if pairs else 0.0, diameter, pairs, True, g.n)


def synthetic_3000(tmp_path):
    jar = tmp_path / "app.jar"
    jar.write_bytes(synthetic_jar(3000, seed=7))
    return build_graph(extract_archive(jar), package_prefix="app")


def java_xml(_tmp_path):
    if not JMOD.is_file():
        pytest.skip(f"needs {JMOD}")
    return build_graph(extract_archive(JMOD))


@pytest.mark.parametrize("mode", ["directed", "undirected"])
@pytest.mark.parametrize("graph", [synthetic_3000, java_xml], ids=lambda f: f.__name__)
def test_path_stats_equal_csgraph_at_scale(graph, mode, tmp_path):
    g = graph(tmp_path)
    assert g.n > 20000
    assert shortest_path_stats(g, mode=mode) == csgraph_path_stats(g, mode == "directed")
