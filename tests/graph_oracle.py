"""The set-based graph classes and G(n, p) sampler that ``jarnet.graph``
and ``jarnet.topology`` replaced with sorted CSR arrays, kept verbatim as
differential oracles: per-vertex successor and predecessor sets, a
list-of-sets undirected projection, and rows sorted in Python on each
``to_csr`` call.
"""
from __future__ import annotations

import math

import numpy as np

from jarnet.graph import METHOD_SEP, Vertex


class DirectedGraph:
    __slots__ = ("labels", "kinds", "_ids", "_succ", "_pred", "_m")

    def __init__(self):
        self.labels: list[str] = []
        self.kinds: list[str] = []
        self._ids: dict[str, int] = {}
        self._succ: list[set[int]] = []
        self._pred: list[set[int]] = []
        self._m = 0

    # -- construction --------------------------------------------------------
    def add_vertex(self, label: str) -> int:
        vid = self._ids.get(label)
        if vid is None:
            vid = len(self.labels)
            self._ids[label] = vid
            self.labels.append(label)
            self.kinds.append("method" if METHOD_SEP in label else "class")
            self._succ.append(set())
            self._pred.append(set())
        return vid

    def add_edge(self, src: int, dst: int) -> bool:
        if dst in self._succ[src]:
            return False
        self._succ[src].add(dst)
        self._pred[dst].add(src)
        self._m += 1
        return True

    def add_edge_labels(self, src_label: str, dst_label: str) -> bool:
        return self.add_edge(self.add_vertex(src_label), self.add_vertex(dst_label))

    # -- queries --------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return self._m

    def vertex_id(self, label: str) -> int | None:
        return self._ids.get(label)

    def vertex(self, vid: int) -> Vertex:
        return Vertex(vid, self.labels[vid], self.kinds[vid])

    def has_edge(self, src: int, dst: int) -> bool:
        return dst in self._succ[src]

    def successors(self, vid: int) -> list[int]:
        return sorted(self._succ[vid])

    def predecessors(self, vid: int) -> list[int]:
        return sorted(self._pred[vid])

    def edges(self):
        """Yield (src, dst) pairs sorted by source then target."""
        for src in range(self.n):
            for dst in sorted(self._succ[src]):
                yield src, dst

    def out_degrees(self) -> np.ndarray:
        return np.fromiter((len(s) for s in self._succ), dtype=np.int64, count=self.n)

    def in_degrees(self) -> np.ndarray:
        return np.fromiter((len(p) for p in self._pred), dtype=np.int64, count=self.n)

    def to_csr(self, reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as (indptr, indices) with sorted neighbor lists.

        With ``reverse`` the rows hold predecessors instead of successors.
        """
        rows = self._pred if reverse else self._succ
        degs = self.in_degrees() if reverse else self.out_degrees()
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        indices = np.empty(self._m, dtype=np.int64)
        at = 0
        for src in range(self.n):
            neighbors = sorted(rows[src])
            indices[at:at + len(neighbors)] = neighbors
            at += len(neighbors)
        return indptr, indices


class UndirectedGraph:
    """Symmetrized view: {u,v} iff u->v or v->u; self-loops dropped."""

    __slots__ = ("labels", "adj", "_m")

    def __init__(self, labels: list[str], adj: list[set[int]], m: int):
        self.labels = labels
        self.adj = adj
        self._m = m

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return self._m

    def degrees(self) -> np.ndarray:
        return np.fromiter((len(a) for a in self.adj), dtype=np.int64, count=self.n)

    def edges(self):
        for u in range(self.n):
            for v in sorted(self.adj[u]):
                if u <= v:
                    yield u, v

    def to_csr(self) -> tuple[np.ndarray, np.ndarray]:
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees(), out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        at = 0
        for u in range(self.n):
            neighbors = sorted(self.adj[u])
            indices[at:at + len(neighbors)] = neighbors
            at += len(neighbors)
        return indptr, indices


def undirected_projection(g: DirectedGraph) -> UndirectedGraph:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    m = 0
    for u in range(g.n):
        for v in g._succ[u]:
            if u == v:
                continue
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
    return UndirectedGraph(g.labels, adj, m)


def erdos_renyi(n: int, p: float, seed: int = 0) -> UndirectedGraph:
    """G(n, p) sampled with geometric gap skips over the pair sequence.

    Pairs (i, j), i < j, are enumerated row-major; successive kept pairs
    are found by jumping Geometric(p) positions, so the work is O(edges)
    and the result is seed-deterministic.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    labels = [f"v{i}" for i in range(n)]
    adj: list[set[int]] = [set() for _ in range(n)]
    total = n * (n - 1) // 2
    if p <= 0.0 or total == 0:
        return UndirectedGraph(labels, adj, 0)
    if p >= 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                adj[u].add(v)
                adj[v].add(u)
        return UndirectedGraph(labels, adj, total)
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
    for u, v in zip(rows.tolist(), cols.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    return UndirectedGraph(labels, adj, int(linear.size))
