"""Without ``real_paths``, the small-world test measures the real graph's
paths as the undirected path stage does: leaves folded onto their
neighbours, with the same statistics."""
from __future__ import annotations

from jarnet import metrics
from jarnet.metrics import shortest_path_stats
from jarnet.topology import small_world_test

from test_metrics import digraph


def test_fallback_paths_fold_leaves(monkeypatch):
    # A hub with three leaves, a triangle and a tail; edges in both
    # directions and one way round.
    g = digraph([(0, 1), (2, 0), (0, 3), (0, 4), (4, 5), (5, 6), (6, 4),
                 (6, 7), (7, 8), (8, 7)])
    expected = shortest_path_stats(g, mode="undirected")
    sampled = shortest_path_stats(g, mode="undirected", sample_sources=4, seed=3)
    folds = []
    real_fold = metrics._fold_leaves

    def spy(indptr, indices, sources):
        folds.append(sources.tolist())
        return real_fold(indptr, indices, sources)

    monkeypatch.setattr(metrics, "_fold_leaves", spy)
    report = small_world_test(g, replicates=0)
    assert folds == [list(range(g.n))]
    assert report.d_real == expected.average
    assert report.paths_exact

    sampled_report = small_world_test(g, replicates=0, sample_sources=4, seed=3)
    assert sampled_report.d_real == sampled.average
    assert not sampled_report.paths_exact
