"""Class-file parsing: header gates, constant pool, methods, and the
bytecode walk, seen through the records extract_calls makes of it."""
from __future__ import annotations

import struct

import pytest

from classfile_builder import ACC_ABSTRACT, ACC_INTERFACE, ACC_PUBLIC, ClassBuilder
from jarnet.classfile import parse_class
from jarnet.errors import BadMagic, ClassFormatError, MalformedConstantPool, UnsupportedVersion
from jarnet.extractor import extract_calls


def walked(cb: ClassBuilder, code, **method) -> tuple[list[str], int, int]:
    """Add method ``go`` with this Code to ``cb`` and walk it: the callee of
    each record extract_calls gives, with its descriptor, then its
    call_sites and bad_code_methods."""
    cb.add_method("go", "()V", code=code, **method)
    records, stats = extract_calls(parse_class(cb.build()))
    return ([r.callee.render(with_descriptor=True) for r in records],
            stats.call_sites, stats.bad_code_methods)


def test_bad_magic_rejected():
    with pytest.raises(BadMagic):
        parse_class(b"\x00\x00\x00\x00" + b"\x00" * 32)


def test_truncated_file_is_typed_error():
    data = ClassBuilder("p/T").build()
    with pytest.raises(ClassFormatError):
        parse_class(data[:25])


def test_version_gate():
    with pytest.raises(UnsupportedVersion):
        parse_class(ClassBuilder("p/T", version=(44, 3)).build())
    for major in (45, 52, 61, 65):
        unit = parse_class(ClassBuilder("p/T", version=(major, 0)).build())
        assert unit.version == (major, 0)


def test_basic_structure():
    cb = ClassBuilder("com/example/Widget", super_name="com/example/Base")
    cb.add_method("spin", "()V", code=cb.code().return_())
    cb.add_method("stop", "(I)V", code=None, access=ACC_PUBLIC | ACC_ABSTRACT)
    unit = parse_class(cb.build())
    assert unit.name == "com/example/Widget"
    assert unit.super_name == "com/example/Base"
    assert not unit.is_interface
    assert [(m.name, m.descriptor) for m in unit.methods] == [
        ("spin", "()V"), ("stop", "(I)V")]
    assert unit.methods[0].code is not None
    assert unit.methods[1].code is None


def test_interface_flag():
    cb = ClassBuilder("p/Iface", access=ACC_PUBLIC | ACC_INTERFACE | ACC_ABSTRACT)
    assert parse_class(cb.build()).is_interface


def test_long_and_double_occupy_two_slots():
    cb = ClassBuilder("p/T")
    cb.long(1 << 40)
    cb.double(2.5)
    c = cb.code()
    c.ldc2_long(1 << 40)
    c.invokestatic("p/Helper", "consume", "(J)V")
    c.return_()
    # The call's pool index resolves only if each wide entry took two slots.
    assert walked(cb, c) == (["p.Helper::consume(J)V"], 1, 0)


def test_exotic_pool_tags_tolerated():
    cb = ClassBuilder("p/T")
    cb.methodtype("(I)V")
    cb.methodhandle(6, cb.methodref("p/H", "m", "()V"))
    cb.invokedynamic("apply", "()Ljava/lang/Runnable;")
    cb.string("hello")
    cb.add_method("go", "()V", code=cb.code().return_())
    unit = parse_class(cb.build())
    assert unit.methods[0].name == "go"


def test_dangling_pool_index_raises():
    # handcrafted: one Class entry whose name index points past the pool
    buf = struct.pack(">IHH", 0xCAFEBABE, 0, 52)
    buf += struct.pack(">H", 2)               # pool count = 2 -> one entry
    buf += struct.pack(">BH", 7, 9)           # Class -> utf8 #9 (absent)
    buf += struct.pack(">HHH", ACC_PUBLIC, 1, 0)
    buf += struct.pack(">HHHH", 0, 0, 0, 0)   # no interfaces/fields/methods/attrs
    with pytest.raises(MalformedConstantPool):
        parse_class(buf)


def test_class_name_index_must_be_class_entry():
    cb = ClassBuilder("p/T")
    data = bytearray(cb.build())
    # this_class index points at a Utf8 entry instead of a Class entry
    utf8_index = cb.utf8("p/T")
    offset = 10 + len(cb._pool_bytes()) + 2
    struct.pack_into(">H", data, offset, utf8_index)
    with pytest.raises(MalformedConstantPool):
        parse_class(bytes(data))


def test_instruction_stream_offsets():
    # A class reference after each switch and wide instruction is found only
    # if the walk stepped over that instruction's exact length.
    cb = ClassBuilder("p/T")
    c = cb.code()
    c.iconst(1)                                  # 0: 1 byte
    c.tableswitch(default=0, low=0, high=1)      # 1: opcode+2 pad+12 hdr+8
    c.new("p/A")                                 # 24
    c.lookupswitch(default=0, pairs=[(5, 0)])    # 27: opcode+0 pad+8+8
    c.new("p/B")
    c.wide_iinc(300, 5)                          # 6 bytes
    c.new("p/C")
    c.invokevirtual("p/T", "m", "()V")
    c.return_()
    # tableswitch at offset 1: 1 opcode + 2 pad + 12 header + 2*4 jumps = 23
    assert c.code[24] == 0xBB
    assert walked(cb, c) == (["p.T::m()V", "p.A", "p.B", "p.C"], 1, 0)


def test_unknown_opcode_in_stream():
    # The walk keeps what it found before the bad opcode, then gives up on
    # the method, which counts as bad.
    cb = ClassBuilder("p/T")
    c = cb.code().invokestatic("p/U", "before", "()V").raw(bytes([0x03, 0xFE]))
    c.invokestatic("p/U", "after", "()V").return_()
    assert walked(cb, c) == (["p.U::before()V"], 1, 1)


def test_truncated_instruction_stream():
    # An invokevirtual missing a byte is not a call site: the method is bad.
    cb = ClassBuilder("p/T")
    c = cb.code().invokestatic("p/U", "before", "()V").raw(bytes([0xB6, 0x00]))
    assert walked(cb, c) == (["p.U::before()V"], 1, 1)


def test_exception_table_and_code_attributes_skipped():
    cb = ClassBuilder("p/T")
    c = cb.code()
    c.invokestatic("p/X", "risky", "()V")
    c.return_()
    line_table = struct.pack(">HHH", 1, 0, 10)
    walk = walked(cb, c, exception_table=[(0, 3, 3, "java/lang/Exception")],
                  extra_code_attributes=[("LineNumberTable", line_table)])
    assert walk == (["p.X::risky()V"], 1, 0)
    assert parse_class(cb.build()).methods[0].code == bytes(c.code)
