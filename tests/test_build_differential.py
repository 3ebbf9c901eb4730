"""build_graph against the set-based oracle graph, fed by the documented rules.

``graph_oracle.DirectedGraph`` is the graph class build_graph's CSR store
replaced. Here it is built record by record as the build_graph docstring
says, and the two graphs must agree on every label, kind and edge.
"""
from __future__ import annotations

import pytest

import graph_oracle as oracle
from classfile_builder import sample_network_jar, synthetic_jar
from jarnet.extractor import extract_archive
from jarnet.graph import build_graph
from jarnet.names import CallRecord, QualifiedName, RelationTable, UnitKind


def by_the_rules(table: RelationTable, prefix: str, with_descriptors: bool):
    """Records whose either side's package fails the dot-bounded prefix test
    are dropped. A class row adds (caller class -> callee class). A call row
    adds (caller -> callee class), then (caller -> callee) inside one class
    or (callee class -> callee) across classes."""
    def passes(name: QualifiedName) -> bool:
        return not prefix or name.package == prefix or name.package.startswith(prefix + ".")

    g = oracle.DirectedGraph()
    for record in table.records:
        if not (passes(record.caller) and passes(record.callee)):
            continue
        caller = record.caller.render(with_descriptors)
        callee = record.callee.render(with_descriptors)
        if record.caller_kind is UnitKind.CLASS:
            g.add_edge_labels(caller, callee)
            continue
        callee_class = record.callee.class_name
        g.add_edge_labels(caller, callee_class)
        if record.caller.class_name == callee_class:
            g.add_edge_labels(caller, callee)
        else:
            g.add_edge_labels(callee_class, callee)
    return g


def call(caller: str, callee: str) -> CallRecord:
    return CallRecord(UnitKind.METHOD, QualifiedName.parse(caller),
                      UnitKind.METHOD, QualifiedName.parse(callee))


def uses(caller: str, callee: str) -> CallRecord:
    return CallRecord(UnitKind.CLASS, QualifiedName.parse(caller),
                      UnitKind.CLASS, QualifiedName.parse(callee))


def mixed_table() -> RelationTable:
    """Names that appear beside both passing and failing partners, on either
    side, in call rows and class rows, with overloads and look-alike packages."""
    return RelationTable([
        call("app.A::f(I)V", "lib.B::g()V"),         # fails on the callee
        call("app.A::f(I)V", "app.C::h()V"),
        call("lib.B::g()V", "app.A::f(I)V"),         # fails on the caller
        call("app.C::h()V", "app.A::f(I)V"),
        call("app.A::f(J)V", "app.A::k()V"),         # inside one class
        call("app.A::f(I)V", "application.D::d()V"),  # not under "app"
        call("app.x.E::e()V", "app.C::h()V"),
        call("application.D::d()V", "app.x.E::e()V"),
        uses("app.A", "lib.B"),
        uses("app.A", "app.C"),
        uses("lib.B", "app.C"),
        uses("app", "app.A"),                        # a class in the default package
        call("app.A::f(I)V", "lib.B::g()V"),         # repeats change nothing
        call("app.C::h()V", "app.A::f(I)V"),
    ])


def write(tmp, data: bytes):
    path = tmp / "fixture.jar"
    path.write_bytes(data)
    return path


TABLES = {
    "synthetic-300": lambda tmp: extract_archive(write(tmp, synthetic_jar(300, seed=11))),
    "sample": lambda tmp: extract_archive(write(tmp, sample_network_jar())),
    "mixed": lambda tmp: mixed_table(),
}


@pytest.mark.parametrize("with_descriptors", [False, True], ids=["plain", "descriptors"])
@pytest.mark.parametrize("prefix", ["", "app"], ids=["all", "app"])
@pytest.mark.parametrize("name", list(TABLES))
def test_build_graph_matches_the_oracle_built_by_the_rules(tmp_path, name, prefix,
                                                           with_descriptors):
    table = TABLES[name](tmp_path)
    g = build_graph(table, package_prefix=prefix, with_descriptors=with_descriptors)
    want = by_the_rules(table, prefix, with_descriptors)
    assert g.labels == want.labels
    assert g.kinds == want.kinds
    assert list(g.edges()) == list(want.edges())
    assert g.m == want.m
    if name != "sample" or not prefix:  # no class of the sample sits under "app"
        assert g.m > 0
