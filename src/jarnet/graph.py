"""Directed graph model and the relation-to-graph construction rules.

Vertices are labeled units: ``pkg.Class`` (kind "class") or
``pkg.Class::method`` (kind "method"). The graph is unweighted and simple
(duplicate edges collapse); self-loops are allowed.
"""
from __future__ import annotations

import numpy as np

from .names import METHOD_SEP, QualifiedName, RelationTable, UnitKind


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """Row offsets of a CSR whose entries, sorted by row, have these rows."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


class DirectedGraph:
    """Edges are stored once, as ``src << 32 | dst`` keys. The sorted out-
    and in-CSR and the undirected projection are built on first use and
    cached until the next vertex or edge is added. Callers share the
    cached arrays and must not write to them."""

    __slots__ = ("labels", "kinds", "_ids", "_keys", "_csr", "_proj")

    def __init__(self):
        self.labels: list[str] = []
        self.kinds: list[str] = []
        self._ids: dict[str, int] = {}
        self._keys: set[int] = set()
        self._csr: tuple[np.ndarray, ...] | None = None
        self._proj: UndirectedGraph | None = None

    # -- construction --------------------------------------------------------
    def add_vertex(self, label: str) -> int:
        vid = self._ids.get(label)
        if vid is None:
            vid = len(self.labels)
            self._ids[label] = vid
            self.labels.append(label)
            self.kinds.append("method" if METHOD_SEP in label else "class")
            self._csr = self._proj = None
        return vid

    def add_edge(self, src: int, dst: int) -> bool:
        n = len(self.labels)
        if not (0 <= src < n and 0 <= dst < n):
            raise IndexError(f"edge ({src}, {dst}) names a missing vertex")
        key = src << 32 | dst
        if key in self._keys:
            return False
        self._keys.add(key)
        self._csr = self._proj = None
        return True

    def add_edge_labels(self, src_label: str, dst_label: str) -> bool:
        return self.add_edge(self.add_vertex(src_label), self.add_vertex(dst_label))

    # -- queries --------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self._keys)

    def vertex_id(self, label: str) -> int | None:
        return self._ids.get(label)

    def has_edge(self, src: int, dst: int) -> bool:
        return (src << 32 | dst) in self._keys

    def _arrays(self) -> tuple[np.ndarray, ...]:
        """(out indptr, out indices, in indptr, in indices), rows sorted."""
        if self._csr is None:
            keys = np.sort(np.fromiter(self._keys, dtype=np.int64, count=self.m))
            src = keys >> 32
            dst = keys & 0xFFFFFFFF
            # The keys are sorted by (src, dst), so a stable sort on dst
            # orders the reverse form by (dst, src).
            by_dst = np.argsort(dst, kind="stable")
            self._csr = (_indptr(src, self.n), dst,
                         _indptr(dst[by_dst], self.n), src[by_dst])
        return self._csr

    def successors(self, vid: int) -> list[int]:
        indptr, indices, _, _ = self._arrays()
        return indices[indptr[vid]:indptr[vid + 1]].tolist()

    def predecessors(self, vid: int) -> list[int]:
        _, _, indptr, indices = self._arrays()
        return indices[indptr[vid]:indptr[vid + 1]].tolist()

    def edges(self):
        """Iterate (src, dst) pairs sorted by source then target."""
        indptr, indices, _, _ = self._arrays()
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
        return zip(src.tolist(), indices.tolist())

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._arrays()[0])

    def in_degrees(self) -> np.ndarray:
        return np.diff(self._arrays()[2])

    def to_csr(self, reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as (indptr, indices) with sorted neighbor lists.

        With ``reverse`` the rows hold predecessors instead of successors.
        """
        indptr, indices, rindptr, rindices = self._arrays()
        return (rindptr, rindices) if reverse else (indptr, indices)

    def undirected(self) -> UndirectedGraph:
        """The cached undirected projection."""
        if self._proj is None:
            self._proj = undirected_projection(self)
        return self._proj


class UndirectedGraph:
    """Immutable symmetric CSR with sorted rows: {u,v} iff the pair was
    given either way round; self-loops dropped. Do not write to its arrays."""

    __slots__ = ("labels", "_indptr", "_indices")

    def __init__(self, labels: list[str], u, v):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        keys = np.sort(np.concatenate((u << 32 | v, v << 32 | u)))
        first = np.ones(keys.shape, bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        self.labels = labels
        self._indptr = _indptr(keys >> 32, len(labels))
        self._indices = keys & 0xFFFFFFFF

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return self._indices.shape[0] // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def edges(self):
        """Iterate each edge once as (u, v), u < v, sorted by u then v."""
        u = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        upper = u < self._indices
        return zip(u[upper].tolist(), self._indices[upper].tolist())

    def to_csr(self, reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Shared (indptr, indices); symmetric, so ``reverse`` changes nothing."""
        return self._indptr, self._indices

    def undirected(self) -> UndirectedGraph:
        return self


def undirected_projection(g: DirectedGraph) -> UndirectedGraph:
    indptr, indices, _, _ = g._arrays()
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr))
    return UndirectedGraph(g.labels, src, indices)


def _package_matches(package: str, prefix: str) -> bool:
    return package == prefix or package.startswith(prefix + ".")


def _passes(qn: QualifiedName, prefix: str) -> bool:
    return not prefix or _package_matches(qn.package, prefix)


def build_graph(table: RelationTable, package_prefix: str = "",
                with_descriptors: bool = False) -> DirectedGraph:
    """Build the unipartite method/class graph from a relation table.

    Records where either side's class fails the package-prefix test are
    dropped. A call row yields (callerMethod -> calleeClass) plus
    (calleeClass -> calleeMethod) across classes, or
    (callerMethod -> calleeMethod) inside one class. A class-usage row
    yields a single (callerClass -> calleeClass) edge.
    """
    g = DirectedGraph()
    for record in table.records:
        if not (_passes(record.caller, package_prefix)
                and _passes(record.callee, package_prefix)):
            continue
        if record.caller_kind is UnitKind.CLASS:
            g.add_edge_labels(record.caller.render(with_descriptors),
                              record.callee.render(with_descriptors))
            continue
        caller_label = record.caller.render(with_descriptors)
        callee_class_label = record.callee.class_name
        callee_label = record.callee.render(with_descriptors)
        g.add_edge_labels(caller_label, callee_class_label)
        if record.caller.class_name == record.callee.class_name:
            g.add_edge_labels(caller_label, callee_label)
        else:
            g.add_edge_labels(callee_class_label, callee_label)
    return g
