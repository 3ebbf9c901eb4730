"""The offset-based class-file parser and call extractor against the oracle.

``classfile_oracle`` holds the cursor parser, walker and extractor they
replaced. On valid classes both must give equal units, constant pools,
records and counters. On seeded byte mutations and truncations
the new code must accept exactly the inputs the oracle accepts, with equal
output, and reject the rest with a ClassFormatError and nothing else.
"""
from __future__ import annotations

import io
import random
import struct
import zipfile

import pytest

import classfile_oracle as oracle
from classfile_builder import (
    ACC_ABSTRACT,
    ACC_PUBLIC,
    ClassBuilder,
    default_init,
    make_jar,
    sample_network_jar,
    synthetic_jar,
)
from jarnet.classfile import parse_class
from jarnet.errors import ClassFormatError, MalformedConstantPool
from jarnet.extractor import extract_archive, extract_calls
from jarnet.names import ExtractStats

# Each table of a jarnet pool, and the oracle lookup that reads the same kind.
TABLES = ("tags", "utf8s", "classes", "nats", "field_refs", "method_refs")
LOOKUPS = ("tag", "utf8", "class_name", "name_and_type", "field_ref", "method_ref")


def rich_go():
    """The rich class's builder and the Code of its ``go``, which take every
    walker branch, before ``go`` is added."""
    cb = ClassBuilder("p/Rich", super_name="p/Base")
    cb.add_interface("p/Iface")
    cb.add_interface("p/Other")
    cb.add_field("count", "I",
                 attributes=[("ConstantValue", struct.pack(">H", cb.integer(7)))])
    cb.add_field("peer", "Lp/Peer;",
                 attributes=[("Synthetic", b""),
                             ("Signature", struct.pack(">H", cb.utf8("TT;")))])
    cb.long(1 << 40)
    cb.double(2.5)
    cb.methodtype("(I)V")
    cb.methodhandle(6, cb.methodref("p/H", "m", "()V"))
    default_init(cb, "p/Base")
    c = cb.code()
    c.iconst(1).tableswitch(default=0, low=0, high=2)
    c.iconst(2).lookupswitch(default=0, pairs=[(5, 0), (9, 0)])
    c.wide_iinc(300, 5).wide_iload(260).sipush(1000).bipush(3)
    c.invokevirtual("p/T", "v", "()V")
    c.invokespecial("p/Rich", "<init>", "()V")
    c.invokespecial("p/Base", "helper", "()V")
    c.invokestatic("p/U", "s", "()V", interface=True)
    c.invokeinterface("p/Iface", "i", "()V")
    c.invokedynamic("apply", "()Ljava/lang/Runnable;")
    c.getstatic("p/G", "g", "I").putstatic("p/Rich", "count", "I")
    c.aload(0).getfield("p/Rich", "peer", "Lp/Peer;").putfield("p/Peer", "x", "I")
    c.new("p/New").anewarray("[Lp/Elem;").anewarray("[I").checkcast("p/Cast")
    c.instanceof("p/Test").multianewarray("[[Lp/Multi;", 2)
    c.ldc_class("p/Ldc").ldc_int(42).ldc_string("hello").ldc2_long(1 << 40)
    c.goto(0).return_()
    return cb, c


def rich_class() -> bytes:
    """One class with every pool tag, attribute layout and walker branch."""
    cb, c = rich_go()
    cb.add_method("go", "(I)V", code=c,
                  exception_table=[(0, 3, 3, "java/lang/Exception"), (0, 3, 3, None)],
                  extra_code_attributes=[("LineNumberTable", struct.pack(">HHH", 1, 0, 10))],
                  # a second Code attribute is skipped, not parsed
                  attributes=[("Exceptions", struct.pack(">HH", 1, cb.cls("java/io/IOException"))),
                              ("Code", bytes(12))])
    cb.add_method("shape", "()V", access=ACC_PUBLIC | ACC_ABSTRACT,
                  attributes=[("Deprecated", b"")])
    # A call before an unknown opcode: its record stays, the method counts as bad.
    cb.add_method("broken", "()V",
                  code=cb.code().invokestatic("p/U", "before", "()V").raw(b"\xfe"))
    return cb.build()


def jar_classes(jar: bytes) -> list[tuple[str, bytes]]:
    with zipfile.ZipFile(io.BytesIO(jar)) as zf:
        return [(info.filename, zf.read(info)) for info in zf.infolist()]


def pool_view(pool, count: int) -> list:
    """Every kind of entry at every index: its value, or None where there is
    none. A jarnet pool is read through its tables, an oracle pool through
    its lookups (None where they raise)."""
    view = []
    for index in range(count + 2):
        for table, lookup in zip(TABLES, LOOKUPS, strict=True):
            if not isinstance(pool, oracle.ConstantPool):
                view.append(getattr(pool, table).get(index))
                continue
            try:
                view.append(getattr(pool, lookup)(index))
            except MalformedConstantPool:
                view.append(None)
    return view


def outcome(parse, extract, data: bytes) -> tuple:
    """What a parser and extractor make of one class file.

    Only a ClassFormatError counts as a rejection; any other exception
    propagates and fails the test.
    """
    try:
        unit = parse(data, "T.class")
    except ClassFormatError:
        return ("rejected",)
    records, stats = extract(unit)
    (count,) = struct.unpack_from(">H", data, 8)
    return ("accepted", unit.name, unit.super_name, unit.access_flags, unit.version,
            unit.interfaces, unit.methods, pool_view(unit.constants, count),
            records, stats)


def new_outcome(data: bytes) -> tuple:
    return outcome(parse_class, extract_calls, data)


def oracle_outcome(data: bytes) -> tuple:
    return outcome(oracle.parse_class, oracle.extract_calls, data)


FIXTURES = {
    "sample": sample_network_jar(),
    "rich": make_jar([("p/Rich.class", rich_class())]),
    "synthetic-1": synthetic_jar(n_classes=1, seed=0),
    "synthetic-25": synthetic_jar(n_classes=25, seed=3, package="deep/pkg"),
    "synthetic-60": synthetic_jar(n_classes=60, seed=7),
    "synthetic-300": synthetic_jar(n_classes=300, seed=11),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_units_records_and_stats_match_oracle(name, tmp_path):
    jar = FIXTURES[name]
    expected_records, expected_stats = [], ExtractStats()
    for entry, data in jar_classes(jar):
        ours = new_outcome(data)
        assert ours == oracle_outcome(data), entry
        assert ours[0] == "accepted"
        expected_records.extend(ours[-2])
        expected_stats.merge(ours[-1])
    path = tmp_path / f"{name}.jar"
    path.write_bytes(jar)
    table = extract_archive(path)
    assert table.records == expected_records
    assert table.stats == expected_stats


def test_rich_class_exercises_every_branch():
    _, _, _, _, _, interfaces, methods, _, records, stats = new_outcome(rich_class())
    assert interfaces == ["p/Iface", "p/Other"]
    assert [m.name for m in methods] == ["<init>", "go", "shape", "broken"]
    assert stats == ExtractStats(entries_scanned=1, call_sites=8, unresolved_sites=1,
                                 class_refs=8, bad_code_methods=1)
    assert records[-1].callee.render() == "p.Ldc"


# Bytes after the tag of each non-Utf8 entry, and where in them a pool
# index sits (the bootstrap-method index of Dynamic entries is not one).
ENTRY_LAYOUT = {3: (4, ()), 4: (4, ()), 5: (8, ()), 6: (8, ()), 7: (2, (0,)), 8: (2, (0,)),
                9: (4, (0, 2)), 10: (4, (0, 2)), 11: (4, (0, 2)), 12: (4, (0, 2)),
                15: (3, (1,)), 16: (2, (0,)), 17: (4, (2,)), 18: (4, (2,))}


def index_fields(data: bytes) -> tuple[int, dict[int, int], list[int]]:
    """The pool count, the first index of each tag, and the offset of every
    pool index in the pool and in this_class, super_class and interfaces."""
    (count,) = struct.unpack_from(">H", data, 8)
    pos, index, first, offsets = 10, 1, {}, []
    while index < count:
        tag = data[pos]
        first.setdefault(tag, index)
        if tag == 1:
            pos += 3 + struct.unpack_from(">H", data, pos + 1)[0]
        else:
            size, fields = ENTRY_LAYOUT[tag]
            offsets += [pos + 1 + at for at in fields]
            pos += 1 + size
        index += 2 if tag in (5, 6) else 1
    (n_interfaces,) = struct.unpack_from(">H", data, pos + 6)
    offsets += [pos + 2, pos + 4] + [pos + 8 + 2 * i for i in range(n_interfaces)]
    return count, first, offsets


def test_every_pool_reference_resolved_as_the_oracle_does():
    """Each pool index of the rich class, pointed at every kind of entry,
    at the slot a Long leaves empty and out of range."""
    data = rich_class()
    count, first, offsets = index_fields(data)
    targets = {0, 1, count - 1, count, 0xFFFF, first[5] + 1, *first.values()}
    verdicts = {"accepted": 0, "rejected": 0}
    for offset in offsets:
        for target in sorted(targets):
            changed = bytearray(data)
            struct.pack_into(">H", changed, offset, target)
            ours = new_outcome(bytes(changed))
            assert ours == oracle_outcome(bytes(changed)), (offset, target)
            verdicts[ours[0]] += 1
    assert min(verdicts.values()) > 50, verdicts


def mutate(data: bytes, rng: random.Random) -> bytes:
    """A truncation, or one to three bytes set to random or boundary values."""
    if rng.random() < 0.25:
        return data[:rng.randrange(len(data))]
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out))
        out[at] = rng.choice((0x00, 0x01, 0xFF, (out[at] + 1) & 0xFF,
                              (out[at] - 1) & 0xFF, rng.randrange(256)))
    return bytes(out)


def test_fuzzed_classes_accepted_and_parsed_exactly_as_the_oracle_does():
    rng = random.Random(20240611)
    seeds = [rich_class()] + [data for _, data in jar_classes(FIXTURES["sample"])]
    seeds += [data for _, data in jar_classes(FIXTURES["synthetic-25"])][:4]
    verdicts = {"accepted": 0, "rejected": 0}
    for trial in range(3000):
        data = mutate(rng.choice(seeds), rng)
        ours = new_outcome(data)
        assert ours == oracle_outcome(data), (trial, data.hex())
        verdicts[ours[0]] += 1
    # Both sides of the decision are exercised.
    assert min(verdicts.values()) > 300, verdicts


def test_walker_matches_oracle_on_every_opcode_and_fuzzed_streams():
    """extract_calls walks each stream as the oracle's walker does: equal
    records and counters, the method counted bad on the same streams."""
    # A class whose go has a Code stream as given, with the rich class's
    # pool, so that the indices in the rich go resolve as they do there.
    cb, go = rich_go()
    call = bytes([0, cb.methodref("p/T", "v", "()V")])
    cb.add_method("go", "(I)V", code=go)
    data = cb.build()
    ours, theirs = parse_class(data), oracle.parse_class(data)
    assert ours.methods[1].code == go.code

    def walk(code: bytes) -> list:
        """Both extractors over that class with go's stream replaced by this
        one (neither parser reads the bytes of a stream): the records."""
        def around(unit):
            return unit._replace(methods=[unit.methods[0], unit.methods[1]._replace(code=code)])
        records, stats = extract_calls(around(ours))
        assert (records, stats) == oracle.extract_calls(around(theirs)), code.hex()
        return records

    # After each opcode, a call index read by a misaligned walk as other opcodes.
    calls = call + (b"\xb8" + call) * 5
    for op in range(256):
        for tail in (b"", b"\x00", bytes(16), b"\x84" + bytes(15), b"\xff" * 16, calls):
            walk(bytes([op]) + tail)
    rng = random.Random(99)
    resolved = 0
    for trial in range(3000):
        if trial % 2:
            code = mutate(bytes(go.code), rng)
        else:
            code = bytes(rng.randrange(256) for _ in range(rng.randrange(24)))
        resolved += len(walk(code)) > 1  # a record from go, not just <init>'s
    assert resolved > 500, resolved
