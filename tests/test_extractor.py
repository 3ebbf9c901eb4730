"""Archive scanning and call extraction against assembler-built fixtures."""
from __future__ import annotations

import io

import pytest

from classfile_builder import (
    ACC_PUBLIC,
    ACC_STATIC,
    ClassBuilder,
    default_init,
    make_jar,
)
from jarnet.errors import ArchiveCorrupt, ArchiveNotFound, EntryDecodeError, UnknownOpcode
from jarnet import extractor
from jarnet.extractor import classify_callee, extract_archive, extract_calls, open_archive
from jarnet.classfile import parse_class
from jarnet.names import UnitKind, write_relation_table

GOLDEN_SAMPLE_ROWS = [
    ("M", "sample.ClassA::new", "O", "java.lang.Object::new"),
    ("M", "sample.ClassA::method2", "M", "sample.ClassA::method1"),
    ("M", "sample.ClassB::new", "O", "java.lang.Object::new"),
    ("M", "sample.SampleNetwork::new", "O", "java.lang.Object::new"),
    ("M", "sample.SampleNetwork::doSomething", "M", "sample.ClassA::method1"),
    ("M", "sample.SampleNetwork::doSomething", "M", "sample.ClassB::method3"),
]


def rows(table):
    return [(r.caller_kind.value, r.caller.render(), r.callee_kind.value,
             r.callee.render()) for r in table.records]


def test_sample_fixture_records(sample_jar):
    table = extract_archive(sample_jar)
    assert rows(table) == GOLDEN_SAMPLE_ROWS
    assert table.stats.entries_scanned == 3


def test_sample_fixture_csv_bytes(sample_jar, tmp_path):
    table = extract_archive(sample_jar)
    out = tmp_path / "rel.csv"
    write_relation_table(table, out)
    expected = "caller_kind,caller,callee_kind,callee\n" + "".join(
        ",".join(row) + "\n" for row in GOLDEN_SAMPLE_ROWS)
    assert out.read_bytes() == expected.encode()


def test_invoke_kind_classification():
    cb = ClassBuilder("p/Caller")
    c = cb.code()
    c.invokevirtual("p/Target", "vcall", "()V")
    c.new("p/Target").dup().invokespecial("p/Target", "<init>", "()V").pop()
    c.invokespecial("p/Caller2", "secret", "()V")
    c.invokestatic("p/Util", "helper", "()V")
    c.invokeinterface("p/Port", "handle", "()V")
    c.invokestatic("p/Port", "of", "()Lp/Port;", interface=True)
    c.return_()
    cb.add_method("go", "()V", code=c)
    records, _ = extract_calls(parse_class(cb.build()))
    calls = [(r.callee_kind.value, r.callee.render()) for r in records
             if r.caller_kind is not UnitKind.CLASS]
    assert calls == [
        ("M", "p.Target::vcall"),
        ("O", "p.Target::new"),
        ("M", "p.Caller2::secret"),
        ("S", "p.Util::helper"),
        ("I", "p.Port::handle"),
        ("S", "p.Port::of"),
    ]
    assert all(r.caller_kind is UnitKind.METHOD for r in records
               if r.caller.method is not None)


def test_class_reference_records_dedup_and_order():
    cb = ClassBuilder("p/User")
    c1 = cb.code()
    c1.getfield("p/Other", "value", "I")
    c1.invokevirtual("p/Other", "touch", "()V")
    c1.new("p/Third")
    c1.checkcast("p/Other")  # dup of Other: must not repeat
    c1.return_()
    cb.add_method("m1", "()V", code=c1)
    c2 = cb.code()
    c2.getstatic("p/Fourth", "X", "I")
    c2.return_()
    cb.add_method("m2", "()V", code=c2)
    records, _ = extract_calls(parse_class(cb.build()))
    assert rows_of(records) == [
        ("M", "p.User::m1", "M", "p.Other::touch"),
        ("C", "p.User", "C", "p.Other"),
        ("C", "p.User", "C", "p.Third"),
        ("C", "p.User", "C", "p.Fourth"),
    ]


def rows_of(records):
    return [(r.caller_kind.value, r.caller.render(), r.callee_kind.value,
             r.callee.render()) for r in records]


def test_self_class_reference_dropped():
    cb = ClassBuilder("p/Selfy")
    cb.add_field("me", "Lp/Selfy;")
    c = cb.code()
    c.aload(0).getfield("p/Selfy", "me", "Lp/Selfy;").pop()
    c.new("p/Selfy").pop()
    c.return_()
    cb.add_method("m", "()V", code=c)
    records, _ = extract_calls(parse_class(cb.build()))
    assert records == []


def test_array_type_references_normalize_to_element_class():
    cb = ClassBuilder("p/Arr")
    c = cb.code()
    c.iconst(1).anewarray("java/lang/String").pop()
    c.iconst(1).anewarray("[Ljava/util/List;").pop()   # nested array of List
    c.iconst(1).iconst(1).multianewarray("[[Lp/Mat;", 2).pop()
    c.checkcast("[B").pop()                            # primitive array: no class
    c.return_()
    cb.add_method("m", "()V", code=c)
    records, _ = extract_calls(parse_class(cb.build()))
    assert rows_of(records) == [
        ("C", "p.Arr", "C", "java.lang.String"),
        ("C", "p.Arr", "C", "java.util.List"),
        ("C", "p.Arr", "C", "p.Mat"),
    ]


def test_ldc_class_constant_is_reference_but_other_ldc_not():
    cb = ClassBuilder("p/L")
    c = cb.code()
    c.ldc_class("p/Token").pop()
    c.ldc_int(42).pop()
    c.ldc_string("hi").pop()
    c.return_()
    cb.add_method("m", "()V", code=c)
    records, _ = extract_calls(parse_class(cb.build()))
    assert rows_of(records) == [("C", "p.L", "C", "p.Token")]


def test_invokedynamic_skipped_and_counted():
    cb = ClassBuilder("p/Lambda")
    c = cb.code()
    c.invokedynamic("apply", "()Ljava/lang/Runnable;")
    c.invokevirtual("p/Q", "run", "()V")
    c.return_()
    cb.add_method("m", "()V", code=c)
    records, counts = extract_calls(parse_class(cb.build()))
    assert rows_of(records) == [("M", "p.Lambda::m", "M", "p.Q::run")]
    assert counts.call_sites == 2
    assert counts.unresolved_sites == 1


def test_count_conservation(medium_jar):
    table = extract_archive(medium_jar)
    stats = table.stats
    call_records = [r for r in table.records if r.caller_kind is UnitKind.METHOD]
    assert stats.call_sites - stats.unresolved_sites == len(call_records)
    assert table.stats.entries_scanned == 60


def test_static_initializer_caller_name():
    cb = ClassBuilder("p/Holder")
    c = cb.code()
    c.invokestatic("p/Factory", "make", "()V")
    c.return_()
    cb.add_method("<clinit>", "()V", code=c, access=ACC_STATIC)
    records, _ = extract_calls(parse_class(cb.build()))
    assert rows_of(records) == [("M", "p.Holder::<clinit>", "S", "p.Factory::make")]


def test_surrogate_pairs_in_names_are_joined(tmp_path):
    # U+1D465 as a CESU-8 surrogate pair, then an unpaired high surrogate,
    # patched over ASCII placeholders of the same byte length.
    cb = ClassBuilder("p/Math")
    c = cb.code()
    c.invokestatic("p/Other", "run", "()V")
    c.return_()
    cb.add_method("aQQQQQQbZZZ", "()V", code=c, access=ACC_STATIC)
    data = (cb.build().replace(b"QQQQQQ", b"\xed\xa0\xb5\xed\xb1\xa5")
            .replace(b"ZZZ", b"\xed\xa0\x80"))
    jar = tmp_path / "math.jar"
    jar.write_bytes(make_jar([("p/Math.class", data)]))
    table = extract_archive(jar)
    assert rows(table) == [("M", "p.Math::a\U0001d465b\ufffd", "S", "p.Other::run")]
    out = tmp_path / "rel.csv"
    write_relation_table(table, out)
    assert out.read_text(encoding="utf-8").splitlines()[1] == \
        "M,p.Math::a\U0001d465b\ufffd,S,p.Other::run"


def test_extraction_is_deterministic(medium_jar, tmp_path):
    a = extract_archive(medium_jar)
    b = extract_archive(medium_jar)
    assert a.records == b.records
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_relation_table(a, pa)
    write_relation_table(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_open_archive_errors(tmp_path):
    with pytest.raises(ArchiveNotFound):
        list(open_archive(tmp_path / "missing.jar"))
    bad = tmp_path / "not-a-zip.jar"
    bad.write_bytes(b"this is not a zip file")
    with pytest.raises(ArchiveCorrupt):
        list(open_archive(bad))


def test_non_class_entries_ignored(tmp_path):
    cb = ClassBuilder("p/Only")
    default_init(cb)
    jar = make_jar([("p/Only.class", cb.build())],
                   extra_entries=[("META-INF/MANIFEST.MF", b"Manifest-Version: 1.0\n"),
                                  ("docs/readme.txt", b"hello")])
    path = tmp_path / "mixed.jar"
    path.write_bytes(jar)
    names = [name for name, _ in open_archive(path)]
    assert names == ["p/Only.class"]
    table = extract_archive(path)
    assert table.stats.entries_scanned == 1


def test_corrupt_entry_strict_and_tolerant(tmp_path):
    good = ClassBuilder("p/Good")
    default_init(good)
    other = ClassBuilder("p/Other")
    default_init(other)
    jar = make_jar([
        ("p/Good.class", good.build()),
        ("p/Broken.class", b"\xca\xfe\xba\xbe" + b"\x00\x00\x00\x34trash"),
        ("p/Other.class", other.build()),
    ])
    path = tmp_path / "mixed.jar"
    path.write_bytes(jar)
    with pytest.raises(EntryDecodeError) as err:
        extract_archive(path)
    assert "p/Broken.class" in str(err.value)
    table = extract_archive(path, tolerant=True)
    assert table.stats.entries_scanned == 2
    assert table.stats.entries_skipped == 1
    callers = {r.caller.class_name for r in table.records}
    assert callers == {"p.Good", "p.Other"}


def oversized_entry_jar(tmp_path):
    """A jar whose p/Big.class is larger than its two other classes, and
    that size."""
    classes = {}
    for name in ("p/Small", "p/Big", "p/Other"):
        cb = ClassBuilder(name)
        default_init(cb)
        if name == "p/Big":
            cb.utf8("x" * 200)
        classes[f"{name}.class"] = cb.build()
    path = tmp_path / "sized.jar"
    path.write_bytes(make_jar(list(classes.items())))
    return path, len(classes["p/Big.class"])


def test_entry_over_size_cap_strict_and_tolerant(tmp_path, monkeypatch):
    path, big = oversized_entry_jar(tmp_path)
    monkeypatch.setattr(extractor, "MAX_ENTRY_BYTES", big)
    assert extract_archive(path).stats.entries_scanned == 3
    monkeypatch.setattr(extractor, "MAX_ENTRY_BYTES", big - 1)
    with pytest.raises(EntryDecodeError) as err:
        extract_archive(path)
    assert str(err.value).startswith("p/Big.class: ")
    assert str(err.value).count("p/Big.class") == 1
    assert f"declared size {big} bytes" in str(err.value)
    skipped = []
    names = [name for name, _ in open_archive(
        path, tolerant=True, on_skip=lambda name, exc: skipped.append(name))]
    assert names == ["p/Small.class", "p/Other.class"]
    assert skipped == ["p/Big.class"]
    table = extract_archive(path, tolerant=True)
    assert table.stats.entries_scanned == 2
    assert table.stats.entries_skipped == 1


def test_classify_callee_contract():
    assert classify_callee(0xB6, "anything") is UnitKind.METHOD
    assert classify_callee(0xB7, "<init>") is UnitKind.CONSTRUCTOR
    assert classify_callee(0xB7, "other") is UnitKind.METHOD
    assert classify_callee(0xB8, "x") is UnitKind.STATIC
    assert classify_callee(0xB9, "x") is UnitKind.INTERFACE
    with pytest.raises(UnknownOpcode):
        classify_callee(0x00, "nop")


def test_descriptor_rendering_mode(sample_jar, tmp_path):
    table = extract_archive(sample_jar)
    out = tmp_path / "rel.csv"
    write_relation_table(table, out, with_descriptors=True)
    text = out.read_text()
    assert "sample.ClassA::method2()V,M,sample.ClassA::method1()V" in text


def test_bad_method_body_is_skip_diagnostic_not_crash():
    cb = ClassBuilder("p/Odd")
    c = cb.code()
    c.invokestatic("p/Seen", "first", "()V")
    c.raw(b"\xfe")  # reserved opcode: undecodable tail
    cb.add_method("m", "()V", code=c)
    cb.add_method("after", "()V", code=cb.code().invokestatic("p/Seen", "second", "()V").return_())
    records, counts = extract_calls(parse_class(cb.build()))
    assert rows_of(records) == [
        ("M", "p.Odd::m", "S", "p.Seen::first"),
        ("M", "p.Odd::after", "S", "p.Seen::second"),
    ]
    assert counts.bad_code_methods == 1
