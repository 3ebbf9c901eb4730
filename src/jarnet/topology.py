"""Random baselines, small-world verdicts, and degree-distribution fits."""
from __future__ import annotations

import math
from typing import NamedTuple

from ._lazy import np
from .errors import DegenerateGraph, DegenerateHistogram
from .graph import DirectedGraph, UndirectedGraph
from .metrics import PathStats, avg_clustering, giant_component_paths, \
    shortest_path_stats

__all__ = [
    "SmallWorldReport",
    "DegreeHistogram",
    "PowerLawFit",
    "link_probability",
    "erdos_renyi",
    "ring_lattice",
    "small_world_test",
    "degree_histogram",
    "fit_power_law",
]


def link_probability(edge_count: int, vertex_count: int) -> float:
    """Density of an undirected graph: edges / possible pairs."""
    if vertex_count < 2:
        raise DegenerateGraph(
            f"link probability needs >= 2 vertices, got {vertex_count}")
    return 2.0 * edge_count / (vertex_count * (vertex_count - 1))


def erdos_renyi(n: int, p: float, seed: int = 0) -> UndirectedGraph:
    """G(n, p) sampled with geometric gap skips over the pair sequence.

    Pairs (i, j), i < j, are enumerated row-major; successive kept pairs
    are found by jumping Geometric(p) positions, so the work is O(edges)
    and the result is seed-deterministic.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    labels = [f"v{i}" for i in range(n)]
    total = n * (n - 1) // 2
    if p <= 0.0 or total == 0:
        return UndirectedGraph(labels, [], [])
    if p >= 1.0:
        return UndirectedGraph(labels, *np.triu_indices(n, 1))
    rng = np.random.default_rng(seed)
    chunks: list[np.ndarray] = []
    pos = -1
    mean = total * p
    batch = int(mean + 6.0 * math.sqrt(mean * (1.0 - p))) + 16
    while True:
        gaps = rng.geometric(p, size=batch)
        positions = np.cumsum(gaps) + pos
        kept = positions[positions < total]
        chunks.append(kept)
        if kept.size < positions.size:
            break
        pos = int(positions[-1])
    linear = np.concatenate(chunks)
    # offsets[i] = first linear index of row i (row i pairs with j > i)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=offsets[1:])
    rows = np.searchsorted(offsets, linear, side="right") - 1
    cols = linear - offsets[rows] + rows + 1
    return UndirectedGraph(labels, rows, cols)


def ring_lattice(n: int, k: int) -> DirectedGraph:
    """Ring of n vertices, each linked to its k/2 nearest clockwise
    neighbors (k must be even and < n). Projection degree is k."""
    if k % 2 or k < 2 or k >= n:
        raise ValueError("k must be even with 2 <= k < n")
    g = DirectedGraph()
    for i in range(n):
        g.add_vertex(f"v{i:04d}")
    for i in range(n):
        for step in range(1, k // 2 + 1):
            g.add_edge(i, (i + step) % n)
    return g


class SmallWorldReport(NamedTuple):
    p: float
    c_real: float
    c_random_mean: float
    d_real: float
    d_random_mean: float
    clustering_ratio: float
    distance_ratio: float
    verdict: bool
    replicates: int
    seed: int
    paths_exact: bool
    random_clusterings: list[float]
    random_path_lengths: list[float]


def _ratio(real: float, baseline: float) -> float:
    if baseline > 0.0:
        return real / baseline
    return math.inf if real > 0.0 else 0.0


def small_world_test(
    g,
    replicates: int = 5,
    seed: int = 0,
    sample_sources: int | None = None,
    c_real: float | None = None,
    real_paths: PathStats | None = None,
) -> SmallWorldReport:
    """Compare clustering and path length against same-density G(n, p).

    Verdict is true when clustering beats the random mean by 10x or more
    (trivially satisfied if the random mean is zero) while the average
    path stays within 10x of the random mean. Replicate i uses seed+i;
    random path lengths are measured inside each replicate's largest
    component.

    ``c_real`` and ``real_paths`` take the real graph's clustering and
    undirected path statistics when the caller has them already; they
    must come from the same ``sample_sources`` and ``seed``. Missing
    values are computed here. A graph with fewer than 2 vertices, or with
    no edge but self-loops, raises ``DegenerateGraph``.
    """
    proj = g.undirected()
    if proj.n < 2:
        raise DegenerateGraph("small-world comparison needs >= 2 vertices")
    if proj.m == 0:
        raise DegenerateGraph("small-world comparison needs at least one edge")
    p = link_probability(proj.m, proj.n)
    if c_real is None:
        c_real = avg_clustering(proj)
    if real_paths is None:
        real_paths = shortest_path_stats(g, mode="undirected",
                                         sample_sources=sample_sources, seed=seed)
    d_real = real_paths.average
    random_cs: list[float] = []
    random_ds: list[float] = []
    for i in range(replicates):
        replica = erdos_renyi(proj.n, p, seed=seed + i)
        random_cs.append(float(avg_clustering(replica)))
        random_ds.append(giant_component_paths(
            replica, sample_sources=sample_sources, seed=seed + i).average)
    c_random_mean = sum(random_cs) / replicates if replicates else 0.0
    d_random_mean = sum(random_ds) / replicates if replicates else 0.0
    clustering_ok = c_real > 0.0 and (
        c_random_mean == 0.0 or c_real >= 10.0 * c_random_mean)
    distance_ok = d_random_mean > 0.0 and d_real <= 10.0 * d_random_mean
    return SmallWorldReport(
        p=p,
        c_real=float(c_real),
        c_random_mean=c_random_mean,
        d_real=d_real,
        d_random_mean=d_random_mean,
        clustering_ratio=_ratio(c_real, c_random_mean),
        distance_ratio=_ratio(d_real, d_random_mean),
        verdict=clustering_ok and distance_ok,
        replicates=replicates,
        seed=seed,
        paths_exact=real_paths.exact,
        random_clusterings=random_cs,
        random_path_lengths=random_ds,
    )


class DegreeHistogram(NamedTuple):
    degrees: np.ndarray
    counts: np.ndarray


def degree_histogram(g: DirectedGraph, which: str = "total") -> DegreeHistogram:
    """Distinct degree values (ascending) with vertex counts."""
    if which == "total":
        values = g.in_degrees() + g.out_degrees()
    elif which == "in":
        values = g.in_degrees()
    elif which == "out":
        values = g.out_degrees()
    else:
        raise ValueError(f"unknown degree kind {which!r}")
    counts = np.bincount(values)
    degrees = np.flatnonzero(counts)
    return DegreeHistogram(degrees=degrees.astype(np.int64),
                           counts=counts[degrees].astype(np.int64))


class PowerLawFit(NamedTuple):
    alpha: float
    x_min: int
    goodness: float
    mle_alpha: float
    mle_goodness: float
    method: str = "loglog_regression"


def _hurwitz_zeta(s: float, a: float) -> tuple[float, float]:
    """Sum of (a+j)^-s for j >= 0 via direct terms + tail correction, and
    its derivative in s (always negative for s > 1)."""
    terms = 1000  # summed directly; the tail correction covers the rest
    u = a + np.arange(terms, dtype=np.float64)
    powers = u ** -s
    edge = a + terms
    ln_edge = math.log(edge)
    rise, fall, fall1 = edge ** (1.0 - s), edge ** -s, edge ** (-s - 1.0)
    value = float(powers.sum()) + (rise / (s - 1.0) + 0.5 * fall + s * fall1 / 12.0)
    slope = -(float((np.log(u) * powers).sum())
              + (rise * (ln_edge * (s - 1.0) + 1.0) / (s - 1.0) ** 2
                 + 0.5 * ln_edge * fall + (s * ln_edge - 1.0) * fall1 / 12.0))
    return value, slope


def _mle_exponent(ks: np.ndarray, cs: np.ndarray, x_min: int) -> float:
    """Maximum-likelihood exponent of the zeta distribution on k >= x_min.

    Solves the stationarity condition E[ln K | alpha] = observed mean of
    ln k by bisection; the model expectation is strictly decreasing in
    alpha, so the root is unique.
    """
    a = float(x_min)
    mean_ln = float((cs * np.log(ks)).sum()) / float(cs.sum())

    def gap(alpha: float) -> float:
        value, slope = _hurwitz_zeta(alpha, a)
        return -slope / value - mean_ln

    lo, hi = 1.0 + 1e-9, 2.0
    while gap(hi) > 0.0 and hi < 1024.0:
        hi *= 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit_power_law(hist: DegreeHistogram, x_min: int = 1) -> PowerLawFit:
    """Exponent of count ~ k^-alpha for degrees k >= x_min.

    alpha/goodness: least squares on log(count) vs log(k) and its R^2.
    mle_alpha: exact discrete maximum likelihood under the zeta model;
    mle_goodness: KS distance between the empirical tail CDF and the
    zeta-normalized model CDF.
    """
    if x_min < 1:
        raise ValueError("x_min must be >= 1")
    keep = (hist.degrees >= x_min) & (hist.counts > 0)
    ks = hist.degrees[keep].astype(np.float64)
    cs = hist.counts[keep].astype(np.float64)
    if ks.size < 3:
        raise DegenerateHistogram(
            f"need >= 3 distinct degrees at or above x_min={x_min}, "
            f"got {ks.size}")
    x = np.log(ks)
    y = np.log(cs)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((residuals ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    total = float(cs.sum())
    mle_alpha = _mle_exponent(ks, cs, x_min)
    k_max = int(ks.max())
    grid = np.arange(x_min, k_max + 1, dtype=np.float64)
    pmf = grid ** -mle_alpha / _hurwitz_zeta(mle_alpha, float(x_min))[0]
    model_cdf = np.cumsum(pmf)
    observed = np.zeros(grid.size)
    observed[(ks - x_min).astype(np.int64)] = cs
    empirical_cdf = np.cumsum(observed) / total
    ks_distance = float(np.abs(empirical_cdf - model_cdf).max())
    return PowerLawFit(
        alpha=float(-slope),
        x_min=x_min,
        goodness=r2,
        mle_alpha=float(mle_alpha),
        mle_goodness=ks_distance,
    )
