"""Degree, clustering, shortest-path, and component measures."""
from __future__ import annotations

from typing import NamedTuple

from . import _kernels
from ._lazy import np
from .errors import EmptyGraph
from .graph import DirectedGraph

__all__ = [
    "DegreeReport",
    "PathStats",
    "ComponentReport",
    "degrees",
    "shortest_path_stats",
    "avg_clustering",
    "components",
    "giant_component_paths",
]


class DegreeReport(NamedTuple):
    total_degrees: np.ndarray
    avg_degree: float


class PathStats(NamedTuple):
    average: float
    diameter: int
    finite_pairs: int
    exact: bool
    sources_used: int


class ComponentReport(NamedTuple):
    labels: np.ndarray
    count: int  # shadows tuple.count
    giant_label: int
    giant_size: int
    giant_fraction: float


def degrees(g: DirectedGraph) -> DegreeReport:
    if g.n == 0:
        raise EmptyGraph("degree statistics need at least one vertex")
    return DegreeReport(g.in_degrees() + g.out_degrees(), g.m / g.n)


def _fold_leaves(indptr, indices, sources):
    """The sources left to run on a symmetric CSR without self-loops, and
    the number of leaves folded onto each.

    A source of degree 1 whose neighbour has degree >= 2 and is a source
    too is folded onto that neighbour; ``_kernels.bfs_stats`` counts its
    paths from the neighbour's.
    """
    n = indptr.shape[0] - 1
    deg = np.diff(indptr)
    is_source = np.zeros(n, bool)
    is_source[sources] = True
    leaf = sources[deg[sources] == 1]
    anchor = indices[indptr[leaf]]
    fold = (deg[anchor] >= 2) & is_source[anchor]
    is_source[leaf[fold]] = False
    run = sources[is_source[sources]]
    return run, np.bincount(anchor[fold], minlength=n)[run]


def _bfs_over_sources(indptr, indices, sources, exact, symmetric) -> PathStats:
    run, leaves = _fold_leaves(indptr, indices, sources) if symmetric else (sources, None)
    total, pairs, diameter = _kernels.bfs_stats(indptr, indices, run, leaves)
    average = total / pairs if pairs else 0.0
    return PathStats(average, diameter, pairs, exact, int(sources.shape[0]))


def _pick_sources(candidates: np.ndarray, sample_sources, seed):
    """Subset of candidate source vertices, plus an exactness flag."""
    if sample_sources is None or sample_sources >= candidates.shape[0]:
        return candidates, True
    rng = np.random.default_rng(seed)
    chosen = rng.choice(candidates, size=sample_sources, replace=False)
    return np.sort(chosen), False


def shortest_path_stats(
    g,
    mode: str = "directed",
    sample_sources: int | None = None,
    seed: int = 0,
) -> PathStats:
    """BFS path statistics over finite ordered pairs (u != v).

    With ``sample_sources`` fewer than n, averages come from a seeded
    source subset and ``exact`` is False.
    """
    if g.n == 0:
        raise EmptyGraph("path statistics need at least one vertex")
    if mode == "directed":
        indptr, indices = g.to_csr(reverse=True)
    elif mode == "undirected":
        indptr, indices = g.undirected().to_csr()
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'directed' or 'undirected'")
    sources, exact = _pick_sources(np.arange(g.n, dtype=np.int64), sample_sources, seed)
    return _bfs_over_sources(indptr, indices, sources, exact, mode == "undirected")


def avg_clustering(g) -> float:
    """Mean local clustering coefficient of the undirected projection.

    Vertices of degree < 2 contribute zero; self-loops are ignored.
    """
    if g.n == 0:
        raise EmptyGraph("clustering needs at least one vertex")
    indptr, indices = g.undirected().to_csr()
    tri2 = _kernels.triangle_doubles(indptr, indices)
    deg = np.diff(indptr)
    # A vertex of degree < 2 has no triangles, so it contributes 0 / 1.
    local = tri2 / np.maximum(deg * (deg - 1), 1)
    # cumsum adds in vertex order, like a running total; sum() would not.
    return float(np.cumsum(local)[-1]) / g.n


def _components_from_csr(indptr, indices) -> ComponentReport:
    labels = _kernels.component_labels(indptr, indices)
    sizes = np.bincount(labels)
    giant_label = int(np.argmax(sizes))
    giant_size = int(sizes[giant_label])
    return ComponentReport(
        labels=labels,
        count=int(sizes.shape[0]),
        giant_label=giant_label,
        giant_size=giant_size,
        giant_fraction=giant_size / labels.shape[0],
    )


def components(g) -> ComponentReport:
    """Weakly connected components, labelled densely in first-seen order."""
    if g.n == 0:
        raise EmptyGraph("component analysis needs at least one vertex")
    return _components_from_csr(*g.undirected().to_csr())


def giant_component_paths(
    g,
    sample_sources: int | None = None,
    seed: int = 0,
) -> PathStats:
    """Path statistics restricted to the largest component.

    Sources are drawn from the giant component only; since BFS cannot
    leave a component, every counted pair lies inside it.
    """
    if g.n == 0:
        raise EmptyGraph("path statistics need at least one vertex")
    indptr, indices = g.undirected().to_csr()
    comp = _components_from_csr(indptr, indices)
    giant = np.flatnonzero(comp.labels == comp.giant_label).astype(np.int64)
    sources, exact = _pick_sources(giant, sample_sources, seed)
    return _bfs_over_sources(indptr, indices, sources, exact, True)
