"""Graph construction rules: vertex/edge creation, filtering, determinism."""
from __future__ import annotations

import random

import pytest

from classfile_builder import ClassBuilder, make_jar
from jarnet.cli import main
from jarnet.extractor import extract_archive
from jarnet.gexf import import_gexf
from jarnet.graph import DirectedGraph, build_graph
from jarnet.names import CallRecord, QualifiedName, RelationTable, UnitKind


def rec(caller: str, callee: str, kind: str = "M") -> CallRecord:
    return CallRecord(UnitKind.CLASS if kind == "C" else UnitKind.METHOD,
                      QualifiedName.parse(caller), UnitKind(kind),
                      QualifiedName.parse(callee))


def edges_by_label(g: DirectedGraph) -> set[tuple[str, str]]:
    return {(g.labels[u], g.labels[v]) for u, v in g.edges()}


def test_external_call_makes_three_vertices_two_edges():
    g = build_graph(RelationTable([rec("net.SampleNetwork::doSomething",
                                       "net.ClassA::method1")]))
    assert g.n == 3
    assert g.m == 2
    assert edges_by_label(g) == {
        ("net.SampleNetwork::doSomething", "net.ClassA"),
        ("net.ClassA", "net.ClassA::method1"),
    }


def test_internal_call_uses_alternate_rule():
    g = build_graph(RelationTable([rec("net.ClassA::method2", "net.ClassA::method1")]))
    assert g.n == 3
    assert edges_by_label(g) == {
        ("net.ClassA::method2", "net.ClassA"),
        ("net.ClassA::method2", "net.ClassA::method1"),
    }


def test_class_usage_record_makes_single_edge():
    g = build_graph(RelationTable([rec("net.Config", "net.CustomType", kind="C")]))
    assert g.n == 2
    assert edges_by_label(g) == {("net.Config", "net.CustomType")}


def test_vertex_kinds_follow_separator():
    g = build_graph(RelationTable([rec("net.A::f", "net.B::g")]))
    kinds = dict(zip(g.labels, g.kinds))
    assert kinds == {"net.A::f": "method", "net.B": "class", "net.B::g": "method"}


def test_direct_recursion_keeps_self_loop():
    g = build_graph(RelationTable([rec("net.A::f", "net.A::f")]))
    assert g.m == 2
    assert ("net.A::f", "net.A::f") in edges_by_label(g)


def test_duplicate_records_do_not_duplicate_edges():
    r = rec("net.X::a", "net.Y::b")
    g = build_graph(RelationTable([r, r, r]))
    assert g.m == 2


def test_prefix_filter_drops_foreign_sides():
    table = RelationTable([
        rec("org.hibernate.cfg.Configuration::setProperty",
            "java.util.Properties::setProperty"),
        rec("org.hibernate.cfg.Configuration::addPackage",
            "org.hibernate.boot.MetadataSources::addPackage"),
        rec("java.util.ArrayList::add", "org.hibernate.type.CustomType::new", kind="O"),
    ])
    g = build_graph(table, package_prefix="org.hibernate")
    assert edges_by_label(g) == {
        ("org.hibernate.cfg.Configuration::addPackage", "org.hibernate.boot.MetadataSources"),
        ("org.hibernate.boot.MetadataSources", "org.hibernate.boot.MetadataSources::addPackage"),
    }


def test_prefix_match_is_dot_bounded():
    table = RelationTable([
        rec("org.hibernatex.A::f", "org.hibernatex.B::g"),
        rec("org.hibernate.A::f", "org.hibernate.B::g"),
    ])
    g = build_graph(table, package_prefix="org.hibernate")
    assert g.n == 3
    assert all(label.startswith("org.hibernate.") for label in g.labels)


def test_empty_prefix_keeps_everything():
    table = RelationTable([rec("a.A::f", "b.B::g"), rec("c.C", "d.D", kind="C")])
    g = build_graph(table)
    assert g.n == 5  # a.A::f, b.B, b.B::g, c.C, d.D
    assert g.m == 3


def test_vertex_ids_first_appearance_order():
    table = RelationTable([
        rec("p.A::f", "p.B::g"),
        rec("p.C::h", "p.B::g"),
    ])
    g = build_graph(table)
    assert g.labels == ["p.A::f", "p.B", "p.B::g", "p.C::h"]


def test_build_is_deterministic(medium_jar):
    table = extract_archive(medium_jar)
    g1 = build_graph(table, package_prefix="app")
    g2 = build_graph(table, package_prefix="app")
    assert g1.labels == g2.labels
    assert sorted(g1.edges()) == sorted(g2.edges())
    assert g1.n > 50 and g1.m > g1.n  # non-trivial fixture


def test_tightening_prefix_is_monotone():
    rng = random.Random(11)
    packages = ["app", "app.core", "app.core.io", "app.util", "lib"]
    records = []
    for i in range(400):
        p1, p2 = rng.choice(packages), rng.choice(packages)
        records.append(rec(f"{p1}.C{rng.randrange(12)}::m{i % 7}",
                           f"{p2}.D{rng.randrange(12)}::k{i % 5}"))
    table = RelationTable(records)
    broad = build_graph(table, package_prefix="app")
    narrow = build_graph(table, package_prefix="app.core")
    assert set(narrow.labels) <= set(broad.labels)
    assert edges_by_label(narrow) <= edges_by_label(broad)


def test_descriptor_labels_keep_overloads_apart():
    r1 = CallRecord(UnitKind.METHOD, QualifiedName("p", "A", "f", "(I)V"),
                    UnitKind.METHOD, QualifiedName("p", "B", "g", "(I)V"))
    r2 = CallRecord(UnitKind.METHOD, QualifiedName("p", "A", "f", "(J)V"),
                    UnitKind.METHOD, QualifiedName("p", "B", "g", "(J)V"))
    merged = build_graph(RelationTable([r1, r2]))
    split = build_graph(RelationTable([r1, r2]), with_descriptors=True)
    assert merged.n == 3
    assert split.n == 5
    assert all("::" in lbl for lbl in split.labels if "(" in lbl)


@pytest.mark.parametrize("flags, rows, labels", [
    ([], ["M,q.T::go,S,q.T::a(b"], ["q.T::go", "q.T", "q.T::a(b"]),
    (["--descriptors"], ["M,q.T::go()V,S,q.T::a(b(I)V"], ["q.T::go()V", "q.T", "q.T::a(b(I)V"]),
])
def test_method_name_holding_a_paren_keeps_its_tail_through_build(tmp_path, capsys,
                                                                   flags, rows, labels):
    # JVMS 4.2.2 allows "(" in a method name; only a descriptor is split off.
    cb = ClassBuilder("q/T")
    cb.add_method("go", "()V", code=cb.code().invokestatic("q/T", "a(b", "(I)V").return_())
    jar, table, gexf = tmp_path / "t.jar", tmp_path / "t.csv", tmp_path / "t.gexf"
    jar.write_bytes(make_jar([("q/T.class", cb.build())]))
    assert main(["extract", str(jar), "-o", str(table), *flags]) == 0
    assert table.read_text().splitlines()[1:] == rows
    assert main(["build", str(table), "-o", str(gexf), *flags]) == 0
    g = import_gexf(gexf)
    assert g.labels == labels
    assert edges_by_label(g) == {(labels[0], labels[1]), (labels[0], labels[2])}


def test_class_name_holding_method_sep_builds_a_class_vertex(tmp_path, capsys):
    # JVMS 4.2.1 allows ":" in a class name, so "::" in a label does not
    # make it a method: the GEXF must say so for class p.A::B.
    table, gexf = tmp_path / "t.csv", tmp_path / "t.gexf"
    table.write_text("caller_kind,caller,callee_kind,callee\n"
                     "C,p.A::B,C,q.X\nC,q.X,C,r.Y::Z\n", encoding="utf-8")
    assert main(["build", str(table), "-o", str(gexf)]) == 0
    assert '<node id="0" label="p.A::B">' in gexf.read_text(encoding="utf-8")
    g = import_gexf(gexf)
    assert dict(zip(g.labels, g.kinds)) == {"p.A::B": "class", "q.X": "class",
                                            "r.Y::Z": "class"}


def test_called_class_holding_method_sep_is_a_class_vertex():
    # A method row's callee class may hold "::" when the table comes straight
    # from extraction; the caller's class is no vertex, so it stays as it is.
    call = CallRecord(UnitKind.METHOD, QualifiedName("p", "A::B", "go"),
                      UnitKind.METHOD, QualifiedName("q", "X::Y", "run"))
    other = rec("p.A::B", "q.Z::f")  # the method B of p.A, a vertex "p.A::B"
    g = build_graph(RelationTable([call, other]))
    assert dict(zip(g.labels, g.kinds)) == {
        "p.A::B::go": "method", "q.X::Y": "class", "q.X::Y::run": "method",
        "p.A::B": "method", "q.Z": "class", "q.Z::f": "method"}
    # Class p.A::B is called only from outside the prefix, so it is no vertex.
    dropped = CallRecord(UnitKind.METHOD, QualifiedName("r", "C", "f"),
                         UnitKind.METHOD, QualifiedName("p", "A::B", "run"))
    g = build_graph(RelationTable([dropped, rec("p.A::B", "p.Z::f")]), package_prefix="p")
    assert dict(zip(g.labels, g.kinds)) == {"p.A::B": "method", "p.Z": "class",
                                            "p.Z::f": "method"}
