"""Directed graph model and the relation-to-graph construction rules.

Vertices are labeled units: ``pkg.Class`` (kind "class") or
``pkg.Class::method`` (kind "method"). The graph is unweighted and simple
(duplicate edges collapse); self-loops are allowed.
"""
from __future__ import annotations

from ._lazy import np
from .names import METHOD_SEP, QualifiedName, RelationTable, UnitKind

__all__ = ["DirectedGraph", "UndirectedGraph", "undirected_projection", "build_graph"]


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """Row offsets of a CSR whose entries, sorted by row, have these rows."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


class DirectedGraph:
    """Edges are stored once: as ``src << 32 | dst`` keys beside a label index
    while the graph grows, then as the sorted out- and in-CSR. The first CSR
    read drops both indices and freezes the graph: an addition then raises
    ``ValueError``. Callers share the CSR and projection and must not write to them."""

    __slots__ = ("labels", "kinds", "_ids", "_keys", "_csr", "_proj")

    def __init__(self):
        self.labels: list[str] = []
        self.kinds: list[str] = []
        self._ids: dict[str, int] | None = {}
        self._keys: set[int] | None = set()
        self._csr: tuple[np.ndarray, ...] | None = None
        self._proj: UndirectedGraph | None = None

    # -- construction --------------------------------------------------------
    def add_vertex(self, label: str) -> int:
        if self._ids is None:
            raise ValueError(f"cannot add vertex {label!r}: the graph is frozen")
        vid = self._ids.get(label)
        if vid is None:
            vid = len(self.labels)
            self._ids[label] = vid
            self.labels.append(label)
            self.kinds.append("method" if METHOD_SEP in label else "class")
        return vid

    def add_edge(self, src: int, dst: int) -> bool:
        if self._keys is None:
            raise ValueError(f"cannot add edge ({src}, {dst}): the graph is frozen")
        n = len(self.labels)
        if not (0 <= src < n and 0 <= dst < n):
            raise IndexError(f"edge ({src}, {dst}) names a missing vertex")
        key = src << 32 | dst
        if key in self._keys:
            return False
        self._keys.add(key)
        return True

    def add_edge_labels(self, src_label: str, dst_label: str) -> bool:
        return self.add_edge(self.add_vertex(src_label), self.add_vertex(dst_label))

    # -- queries --------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self._keys) if self._csr is None else len(self._csr[1])

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
        self._keys = self._ids = None
        return self._csr

    def edges(self):
        """Iterate (src, dst) pairs sorted by source then target.

        Until the CSR is built this sorts the keys in Python, so export
        needs neither the CSR nor numpy; once it is built, it reads the CSR."""
        if self._csr is None:
            return ((key >> 32, key & 0xFFFFFFFF) for key in sorted(self._keys))
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees())
        return zip(src.tolist(), self._csr[1].tolist())

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._arrays()[0])

    def in_degrees(self) -> np.ndarray:
        return np.diff(self._arrays()[2])

    def to_csr(self, reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as (indptr, indices) with sorted neighbor lists.

        With ``reverse`` the rows hold predecessors instead of successors.
        """
        arrays = self._arrays()
        return arrays[2:] if reverse else arrays[:2]

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
    add = g.add_edge_labels
    # _labels of each distinct name: a table names each unit on many rows.
    seen: dict[QualifiedName, tuple[str, ...]] = {}
    odd: set[str] = set()  # class labels holding "::", which add_vertex takes for methods
    for caller_kind, caller, _, callee in table.records:
        ours = seen.get(caller)
        if ours is None:
            ours = seen[caller] = _labels(caller, package_prefix, with_descriptors, odd)
        theirs = seen.get(callee)
        if theirs is None:
            theirs = seen[callee] = _labels(callee, package_prefix, with_descriptors, odd)
        if not (ours and theirs):
            continue
        if caller_kind is UnitKind.CLASS:
            add(ours[0], theirs[0])
        else:
            callee_label, callee_class_label = theirs
            add(ours[0], callee_class_label)
            if ours[1] == callee_class_label:
                add(ours[0], callee_label)
            else:
                add(callee_class_label, callee_label)
        if odd:  # a class row's two classes and a method row's callee class are vertices
            for label in (ours[1], theirs[1]) if caller_kind is UnitKind.CLASS else (theirs[1],):
                if label in odd:
                    g.kinds[g.add_vertex(label)] = "class"
    return g


def _labels(qn: QualifiedName, prefix: str, with_descriptors: bool,
            odd: set[str]) -> tuple[str, ...]:
    """() if the class of ``qn`` fails the prefix test, else (label, class
    label); a class label holding "::" goes into ``odd``."""
    package = qn.package
    if prefix and package != prefix and not package.startswith(prefix + "."):
        return ()
    if METHOD_SEP in qn.class_name:
        odd.add(qn.class_name)
    return qn.render(with_descriptors), qn.class_name

