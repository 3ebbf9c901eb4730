"""Random baselines, small-world verdict, histograms, power-law fitting."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from jarnet import topology
from jarnet.errors import DegenerateGraph, DegenerateHistogram
from jarnet.graph import DirectedGraph
from jarnet.metrics import avg_clustering, shortest_path_stats
from jarnet.topology import (
    DegreeHistogram,
    degree_histogram,
    erdos_renyi,
    fit_power_law,
    link_probability,
    ring_lattice,
    small_world_test,
)

from test_metrics import digraph, random_digraph


# -- link probability -----------------------------------------------------------

def test_link_probability_formula():
    # 2 * 57919 / (27556 * 27555)
    assert link_probability(57_919, 27_556) == pytest.approx(1.5256e-4, abs=1e-8)
    assert link_probability(57_919, 27_556) == pytest.approx(1.525e-4, abs=1e-7)
    assert link_probability(3, 3) == pytest.approx(1.0)


def test_link_probability_degenerate():
    for n in (0, 1):
        with pytest.raises(DegenerateGraph):
            link_probability(5, n)


# -- random graphs ----------------------------------------------------------------

def test_er_determinism_and_simple():
    a = erdos_renyi(200, 0.03, seed=4)
    b = erdos_renyi(200, 0.03, seed=4)
    assert sorted(a.edges()) == sorted(b.edges())
    assert all(u != v for u, v in a.edges())
    c = erdos_renyi(200, 0.03, seed=5)
    assert sorted(a.edges()) != sorted(c.edges())


def test_er_extremes():
    assert erdos_renyi(50, 0.0, seed=1).m == 0
    full = erdos_renyi(50, 1.0, seed=1)
    assert full.m == 50 * 49 // 2


def test_er_edge_count_matches_binomial_moments():
    n, p, seeds = 900, 0.01, 24
    total_pairs = n * (n - 1) / 2
    counts = [erdos_renyi(n, p, seed=s).m for s in range(seeds)]
    expected = total_pairs * p
    sd_mean = math.sqrt(total_pairs * p * (1 - p) / seeds)
    assert abs(np.mean(counts) - expected) <= 3 * sd_mean


def test_er_mean_degree_at_reference_scale():
    n, p = 5000, 1.525e-4
    mean_degrees = [2 * erdos_renyi(n, p, seed=s).m / n for s in range(20)]
    expected = p * (n - 1)
    per_graph_sd = 2 * math.sqrt(n * (n - 1) / 2 * p * (1 - p)) / n
    assert abs(np.mean(mean_degrees) - expected) <= 3 * per_graph_sd / math.sqrt(20)
    assert expected == pytest.approx(0.762, abs=0.001)


# -- ring lattice ------------------------------------------------------------------

def test_ring_lattice_shape_and_clustering():
    g = ring_lattice(100, 4)
    assert g.n == 100
    assert g.m == 200  # n * k / 2 directed edges
    assert avg_clustering(g) == pytest.approx(0.5)  # 3(k-2)/(4(k-1)) at k=4


# -- small world -------------------------------------------------------------------

def test_small_world_ring_lattice_verdict_true():
    g = ring_lattice(100, 4)
    report = small_world_test(g, replicates=5, seed=42)
    assert report.verdict
    assert report.c_real == pytest.approx(0.5)
    assert report.clustering_ratio >= 10
    assert report.d_real <= 10 * report.d_random_mean
    assert report.replicates == 5


def test_small_world_er_against_itself_false():
    base = erdos_renyi(300, 0.03, seed=7)
    g = digraph(list(base.edges()), n_hint=300)
    report = small_world_test(g, replicates=5, seed=8)
    assert not report.verdict
    assert report.clustering_ratio < 10


def test_small_world_report_fields_and_determinism():
    g = ring_lattice(60, 4)
    a = small_world_test(g, replicates=3, seed=1)
    b = small_world_test(g, replicates=3, seed=1)
    assert a == b
    assert len(a.random_clusterings) == 3
    assert a.p == pytest.approx(link_probability(g.m, g.n))
    assert a.d_random_mean == pytest.approx(np.mean(a.random_path_lengths))


@pytest.mark.parametrize("sample_sources", [None, 9])
def test_small_world_reuses_given_real_values(monkeypatch, sample_sources):
    g = random_digraph(40, 0.08, random.Random(4))
    expected = small_world_test(g, replicates=2, seed=5,
                                sample_sources=sample_sources)
    c_real = avg_clustering(g)
    real_paths = shortest_path_stats(g, mode="undirected",
                                     sample_sources=sample_sources, seed=5)
    clustered = []

    def replicate_clustering(graph):
        clustered.append(graph)
        return avg_clustering(graph)

    def no_real_paths(*_args, **_kwargs):
        raise AssertionError("real-graph paths recomputed")

    monkeypatch.setattr(topology, "avg_clustering", replicate_clustering)
    monkeypatch.setattr(topology, "shortest_path_stats", no_real_paths)
    reused = small_world_test(g, replicates=2, seed=5, sample_sources=sample_sources,
                              c_real=c_real, real_paths=real_paths)
    assert reused == expected
    assert len(clustered) == 2  # the replicates only


def test_small_world_zero_baseline_clustering_satisfied_by_any_positive():
    # tiny sparse random baseline has no triangles; triangle-rich real graph wins
    g = digraph([(0, 1), (1, 2), (2, 0)], n_hint=12)
    report = small_world_test(g, replicates=3, seed=3)
    assert report.c_real == pytest.approx(0.25)  # 3 clustered of 12 vertices
    if report.c_random_mean == 0:
        assert math.isinf(report.clustering_ratio)
        assert report.verdict == (report.d_real <= 10 * report.d_random_mean
                                  and report.d_random_mean > 0)


def test_small_world_degenerate():
    with pytest.raises(DegenerateGraph):
        small_world_test(digraph([], n_hint=1))
    # self-loops are not edges of the projection
    for g in (digraph([], n_hint=2), digraph([(0, 0), (1, 1)], n_hint=3)):
        with pytest.raises(DegenerateGraph, match="at least one edge"):
            small_world_test(g)


# -- histograms --------------------------------------------------------------------

def test_degree_histogram_counts_sum_to_n():
    rng = random.Random(31)
    g = random_digraph(40, 0.1, rng, self_loops=True)
    for which in ("total", "in", "out"):
        hist = degree_histogram(g, which=which)
        assert hist.counts.sum() == g.n
        assert (hist.counts > 0).all()
        assert list(hist.degrees) == sorted(set(hist.degrees))


def test_degree_histogram_self_loop_counts_twice():
    g = digraph([(0, 0)])
    hist = degree_histogram(g, which="total")
    assert list(hist.degrees) == [2]
    assert list(hist.counts) == [1]


def test_degree_histogram_star():
    g = digraph([(0, i) for i in range(1, 6)])
    hist = degree_histogram(g, which="out")
    assert list(hist.degrees) == [0, 5]
    assert list(hist.counts) == [5, 1]


# -- power-law fitting ----------------------------------------------------------------

def test_regression_recovers_exact_power_law():
    degrees = np.arange(1, 101)
    counts = np.round(1e6 * degrees.astype(float) ** -2.0).astype(np.int64)
    hist = DegreeHistogram(degrees=degrees, counts=counts, which="total")
    fit = fit_power_law(hist)
    assert fit.method == "loglog_regression"
    assert fit.alpha == pytest.approx(2.0, abs=0.05)
    assert fit.goodness > 0.999  # R^2 on noiseless data
    assert fit.x_min == 1


def sample_power_law(alpha: float, size: int, seed: int, x_min: int = 1,
                     k_max: int = 1_000_000) -> DegreeHistogram:
    """Inverse-CDF sampling of a discrete power law (independent oracle)."""
    ks = np.arange(x_min, k_max + 1, dtype=np.float64)
    pmf = ks ** -alpha
    cdf = np.cumsum(pmf / pmf.sum())
    rng = np.random.default_rng(seed)
    samples = np.searchsorted(cdf, rng.random(size)) + x_min
    values, counts = np.unique(samples, return_counts=True)
    return DegreeHistogram(degrees=values.astype(np.int64),
                           counts=counts.astype(np.int64), which="sample")


def test_mle_recovers_sampled_exponent():
    hist = sample_power_law(alpha=2.6, size=100_000, seed=12)
    fit = fit_power_law(hist)
    assert fit.mle_alpha == pytest.approx(2.6, abs=0.1)
    assert 0 <= fit.mle_goodness < 0.05  # KS distance on a true power law


def test_mle_maximizes_the_discrete_likelihood():
    special = pytest.importorskip("scipy.special")
    optimize = pytest.importorskip("scipy.optimize")
    hist = sample_power_law(alpha=2.3, size=40_000, seed=9)
    fit = fit_power_law(hist)
    ks = hist.degrees.astype(np.float64)
    cs = hist.counts.astype(np.float64)
    log_moment = float((cs * np.log(ks)).sum())
    total = float(cs.sum())

    def neg_loglik(alpha):
        return alpha * log_moment + total * math.log(float(special.zeta(alpha, 1.0)))

    # stationary: no nearby alpha does better
    assert neg_loglik(fit.mle_alpha) <= neg_loglik(fit.mle_alpha + 1e-4) + 1e-6
    assert neg_loglik(fit.mle_alpha) <= neg_loglik(fit.mle_alpha - 1e-4) + 1e-6
    # and it matches an independent bounded minimization
    oracle = optimize.minimize_scalar(neg_loglik, bounds=(1.01, 8.0),
                                      method="bounded",
                                      options={"xatol": 1e-10})
    assert fit.mle_alpha == pytest.approx(oracle.x, abs=1e-6)


def test_x_min_restricts_the_fit():
    degrees = np.arange(1, 60)
    counts = np.round(1e5 * degrees.astype(float) ** -2.4).astype(np.int64)
    counts[0] = 5  # corrupt the head
    hist = DegreeHistogram(degrees=degrees, counts=counts, which="total")
    whole = fit_power_law(hist, x_min=1)
    tail = fit_power_law(hist, x_min=2)
    assert abs(tail.alpha - 2.4) < abs(whole.alpha - 2.4)
    assert tail.x_min == 2


def test_degenerate_histogram_raises():
    flat = DegreeHistogram(degrees=np.array([4]), counts=np.array([10]),
                           which="total")
    with pytest.raises(DegenerateHistogram):
        fit_power_law(flat)
    two = DegreeHistogram(degrees=np.array([1, 2]), counts=np.array([5, 5]),
                          which="total")
    with pytest.raises(DegenerateHistogram):
        fit_power_law(two)


def test_hurwitz_zeta_against_scipy():
    special = pytest.importorskip("scipy.special")
    from jarnet.topology import _hurwitz_zeta
    for s in (1.5, 2.0, 2.6, 3.7):
        for a in (1.0, 2.0, 5.0):
            assert _hurwitz_zeta(s, a)[0] == pytest.approx(
                float(special.zeta(s, a)), rel=1e-10)
