"""Name/record types and relation-table serialization."""
from __future__ import annotations

import pickle
import random
import types

import pytest

from classfile_builder import ClassBuilder
from jarnet.classfile import parse_class
from jarnet.errors import MalformedRecord
from jarnet.extractor import classify_callee, extract_calls
from jarnet.graph import build_graph
from jarnet.names import (
    CallRecord,
    QualifiedName,
    RelationTable,
    UnitKind,
    read_relation_table,
    write_relation_table,
)


def test_unit_kind_codes():
    assert [k.value for k in (UnitKind.METHOD, UnitKind.CONSTRUCTOR,
                              UnitKind.INTERFACE, UnitKind.STATIC,
                              UnitKind.CLASS)] == ["M", "O", "I", "S", "C"]


def test_unit_kind_keeps_enum_semantics_under_identity_hashing():
    assert UnitKind("M") is UnitKind.METHOD
    for kind in UnitKind:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(kind, protocol)) is kind
    letters = {k: k.value for k in UnitKind}
    assert list(letters.items()) == [(UnitKind.METHOD, "M"), (UnitKind.CONSTRUCTOR, "O"),
                                     (UnitKind.INTERFACE, "I"), (UnitKind.STATIC, "S"),
                                     (UnitKind.CLASS, "C")]
    assert letters[UnitKind("S")] == "S"
    assert {UnitKind.CLASS, UnitKind("C"), UnitKind.METHOD} == {UnitKind.METHOD, UnitKind.CLASS}
    assert UnitKind.CLASS in {UnitKind("C")} and UnitKind.STATIC not in {UnitKind("C")}


def _names(code: types.CodeType):
    """The global and attribute names a code object and its nested code read."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _names(const)


@pytest.mark.parametrize("function", [extract_calls, CallRecord.__new__,
                                      write_relation_table, build_graph],
                         ids=lambda function: function.__qualname__)
def test_record_loops_read_kinds_bound_once(function):
    # Python 3.11 routes UnitKind.X through a slow metaclass hook.
    assert "UnitKind" not in set(_names(function.__code__))


def test_extract_callee_kinds_follow_classify_callee():
    emitters = {0xB6: "invokevirtual", 0xB7: "invokespecial",
                0xB8: "invokestatic", 0xB9: "invokeinterface"}
    cb = ClassBuilder("p/Caller")
    c = cb.code()
    want = []
    for opcode, emit in emitters.items():
        for name in ("<init>", "run"):
            getattr(c, emit)("p/Target", name, "()V")
            want.append(classify_callee(opcode, name))
    cb.add_method("go", "()V", code=c.return_())
    records, _ = extract_calls(parse_class(cb.build()))
    assert [r.callee_kind for r in records if r.caller_kind is not UnitKind.CLASS] == want
    assert set(want) == set(UnitKind) - {UnitKind.CLASS}


def test_from_internal_class_only():
    q = QualifiedName.from_internal("org/hibernate/cfg/Configuration")
    assert q.package == "org.hibernate.cfg"
    assert q.cls == "Configuration"
    assert q.method is None
    assert q.render() == "org.hibernate.cfg.Configuration"
    assert q.class_name == "org.hibernate.cfg.Configuration"


def test_from_internal_with_method():
    q = QualifiedName.from_internal("org/hibernate/cfg/Configuration",
                                    method="setProperty",
                                    descriptor="(Ljava/lang/String;Ljava/lang/String;)V")
    assert q.render() == "org.hibernate.cfg.Configuration::setProperty"
    assert q.render(with_descriptor=True) == (
        "org.hibernate.cfg.Configuration::setProperty"
        "(Ljava/lang/String;Ljava/lang/String;)V")


def test_default_package_renders_bare():
    q = QualifiedName.from_internal("Standalone", method="run")
    assert q.package == ""
    assert q.render() == "Standalone::run"


def test_inner_class_name_kept_verbatim():
    q = QualifiedName.from_internal("org/hibernate/Foo$Bar$1")
    assert q.cls == "Foo$Bar$1"
    assert q.render() == "org.hibernate.Foo$Bar$1"


def test_parse_round_trip():
    for text in ("a.b.C", "a.b.C::m", "C::m", "a.b.C$In::run"):
        assert QualifiedName.parse(text).render() == text


def test_parse_with_descriptor():
    q = QualifiedName.parse("a.b.C::m(Ljava/lang/String;)V")
    assert q.method == "m"
    assert q.descriptor == "(Ljava/lang/String;)V"
    assert q.render() == "a.b.C::m"
    assert q.render(with_descriptor=True) == "a.b.C::m(Ljava/lang/String;)V"


# A method name may hold "(" (JVMS 4.2.2); the last entry's name merely
# looks like the start of a descriptor.
PAREN_NAMES = [QualifiedName("q", "T", "a(b", "()V"), QualifiedName("q", "T", "a(", "(I)V"),
               QualifiedName("q", "T", "x(y(z", "([[Lq/T;J)[Ljava/lang/String;"),
               QualifiedName("", "T", "a(b)", "(Lq/T;)V"), QualifiedName("q", "T", "a(I", "()V")]


@pytest.mark.parametrize("name", PAREN_NAMES, ids=lambda name: name.render(True))
def test_parse_round_trips_method_names_holding_a_paren(name):
    assert QualifiedName.parse(name.render(with_descriptor=True)) == name
    assert QualifiedName.parse(name.render()) == name._replace(descriptor=None)


@pytest.mark.parametrize("text, method, descriptor", [
    ("q.T::a(b", "a(b", None),          # no descriptor follows the last "("
    ("q.T::a(b)", "a(b)", None),
    ("q.T::a(I)", "a(I)", None),        # a descriptor needs a return type
    ("q.T::a(LT;)VV", "a(LT;)VV", None),
    ("q.T::a(L;)V", "a(L;)V", None),    # and a class name inside L...;
    ("q.T::a((I)V", "a(", "(I)V"),
    ("q.T::m(Ljava/lang/String;[[I)[Lx/Y;", "m", "(Ljava/lang/String;[[I)[Lx/Y;"),
])
def test_parse_takes_only_a_well_formed_descriptor(text, method, descriptor):
    name = QualifiedName.parse(text)
    assert (name.method, name.descriptor) == (method, descriptor)
    assert name.render(with_descriptor=True) == text


def test_record_is_frozen_and_hashable():
    q = QualifiedName.parse("a.B::m")
    r = CallRecord(UnitKind.METHOD, q, UnitKind.METHOD, q)
    assert hash(r) == hash(CallRecord(UnitKind.METHOD, q, UnitKind.METHOD, q))
    with pytest.raises(AttributeError):
        r.caller = q  # type: ignore[misc]


def _synthetic_records(count: int, seed: int, with_descriptors: bool = False):
    rng = random.Random(seed)
    packages = ["alpha", "alpha.beta", "gamma.delta.epsilon", ""]
    records = []
    for i in range(count):
        pkg = rng.choice(packages)
        caller_cls = f"Caller{rng.randrange(40)}"
        callee_cls = f"Callee{rng.randrange(40)}"
        kind = rng.choice([UnitKind.METHOD, UnitKind.CONSTRUCTOR,
                           UnitKind.INTERFACE, UnitKind.STATIC, UnitKind.CLASS])
        desc = "(I)V" if with_descriptors else None
        if kind is UnitKind.CLASS:
            caller = QualifiedName(pkg, caller_cls)
            callee = QualifiedName(pkg, callee_cls)
            records.append(CallRecord(UnitKind.CLASS, caller, UnitKind.CLASS, callee))
        else:
            caller = QualifiedName(pkg, caller_cls, f"m{i % 17}", desc)
            method = "new" if kind is UnitKind.CONSTRUCTOR else f"f{i % 13}"
            callee = QualifiedName(pkg, callee_cls, method, desc)
            records.append(CallRecord(UnitKind.METHOD, caller, kind, callee))
    return records


@pytest.mark.parametrize("fmt", ["csv", "tsv"])
def test_round_trip_identity(tmp_path, fmt):
    records = _synthetic_records(10_000, seed=3)
    table = RelationTable(records=records)
    path = tmp_path / f"rel.{fmt}"
    write_relation_table(table, path, format=fmt)
    back = read_relation_table(path)
    assert back.records == records


def test_round_trip_write_is_byte_stable(tmp_path):
    records = _synthetic_records(500, seed=5)
    table = RelationTable(records=records)
    one = tmp_path / "a.csv"
    two = tmp_path / "b.csv"
    write_relation_table(table, one)
    write_relation_table(read_relation_table(one), two)
    assert one.read_bytes() == two.read_bytes()


def test_csv_header_and_line_endings(tmp_path):
    table = RelationTable(records=_synthetic_records(3, seed=1))
    path = tmp_path / "rel.csv"
    write_relation_table(table, path)
    raw = path.read_bytes()
    assert raw.startswith(b"caller_kind,caller,callee_kind,callee\n")
    assert b"\r" not in raw


def test_descriptor_mode_round_trip(tmp_path):
    records = _synthetic_records(200, seed=9, with_descriptors=True)
    table = RelationTable(records=records)
    path = tmp_path / "rel.csv"
    write_relation_table(table, path, with_descriptors=True)
    back = read_relation_table(path)
    assert back.records == records
    assert all(r.caller.descriptor == "(I)V" for r in back.records
               if r.caller_kind is not UnitKind.CLASS)


def test_read_shares_one_name_per_spelling(tmp_path):
    records = _synthetic_records(300, seed=4)
    path = tmp_path / "rel.csv"
    write_relation_table(RelationTable(records=records), path)
    back = read_relation_table(path).records
    assert back == records
    names = [name for r in back for name in (r.caller, r.callee)]
    assert len({id(name) for name in names}) == len(set(names))


@pytest.mark.parametrize("row, problem", [
    ("X,a.B::m,M,c.D::n", "'X' is not a valid UnitKind"),
    ("M,a.B::m,,c.D::n", "'' is not a valid UnitKind"),
    ("M,a.B::m,M,::n", "empty class name"),
    ("M,a.B::m,C,c.D", "class-level records must be C on both sides"),
])
def test_read_reports_bad_kind_or_name_with_its_line(tmp_path, row, problem):
    path = tmp_path / "rel.csv"
    path.write_text("caller_kind,caller,callee_kind,callee\n"
                    "M,a.B::m,M,c.D::n\n" + row + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        read_relation_table(path)
    assert str(err.value).startswith(f"{path}:3: ")
    assert problem in str(err.value)


def test_read_takes_c_row_names_as_class_names(tmp_path):
    # JVMS 4.2.1 allows ":" in a class name: a C row's name splits only at
    # its last ".", while a method row's "p.A::B" still names method B. The
    # rows alternate, so neither parse may be served from the other's cache.
    path = tmp_path / "rel.csv"
    path.write_text("caller_kind,caller,callee_kind,callee\n"
                    "C,p.A::B,C,q.Y\nM,p.A::B,M,q.Y::f\n"
                    "C,p.A::B,C,q.Y\nM,p.A::B,M,q.Y::f\n", encoding="utf-8")
    records = read_relation_table(path).records
    for record in records[0::2]:
        assert (record.caller, record.callee) == (QualifiedName("p", "A::B"),
                                                  QualifiedName("q", "Y"))
    for record in records[1::2]:
        assert (record.caller, record.callee) == (QualifiedName("p", "A", "B"),
                                                  QualifiedName("q", "Y", "f"))


@pytest.mark.parametrize("row", ["C,p.,C,q.Y", "C,p.A,C,", "C,p.A::B,C,q.Y::."])
def test_read_rejects_c_row_with_empty_class_name(tmp_path, row):
    path = tmp_path / "rel.csv"
    path.write_text("caller_kind,caller,callee_kind,callee\n" + row + "\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRecord, match=r":2: empty class name in "):
        read_relation_table(path)
