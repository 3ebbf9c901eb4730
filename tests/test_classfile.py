"""Class-file parsing: header gates, constant pool, methods, instruction scan."""
from __future__ import annotations

import struct

import pytest

from classfile_builder import ACC_ABSTRACT, ACC_INTERFACE, ACC_PUBLIC, ClassBuilder
from jarnet.classfile import instructions, parse_class
from jarnet.errors import (
    BadMagic,
    ClassFormatError,
    MalformedConstantPool,
    UnknownOpcode,
    UnsupportedVersion,
)


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
    cb.add_method("go", "()V", code=c)
    unit = parse_class(cb.build())
    code = unit.methods[0].code
    ops = list(instructions(code))
    assert [op for _, op, _ in ops] == [0x14, 0xB8, 0xB1]
    target = unit.constants.method_refs[struct.unpack(">H", ops[1][2])[0]]
    assert target[:3] == ("p/Helper", "consume", "(J)V")


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
    cb = ClassBuilder("p/T")
    c = cb.code()
    c.iconst(1)                                  # 0: 1 byte
    c.tableswitch(default=0, low=0, high=1)      # 1: opcode+2 pad+12 hdr+8
    c.iconst(2)                                  # next
    c.lookupswitch(default=0, pairs=[(5, 0)])    # opcode+pad+8+8
    c.wide_iinc(300, 5)                          # 6 bytes
    c.invokevirtual("p/T", "m", "()V")
    c.return_()
    cb.add_method("go", "()V", code=c)
    unit = parse_class(cb.build())
    ops = [(off, op) for off, op, _ in instructions(unit.methods[0].code)]
    opcodes = [op for _, op in ops]
    assert opcodes == [0x04, 0xAA, 0x05, 0xAB, 0xC4, 0xB6, 0xB1]
    # tableswitch at offset 1: 1 opcode + 2 pad + 12 header + 2*4 jumps = 23
    assert ops[2][0] == 24
    for (off_a, _), (off_b, _) in zip(ops, ops[1:]):
        assert off_b > off_a


def test_unknown_opcode_in_stream():
    with pytest.raises(UnknownOpcode):
        list(instructions(bytes([0x03, 0xFE])))


def test_truncated_instruction_stream():
    with pytest.raises(ClassFormatError):
        list(instructions(bytes([0xB6, 0x00])))  # invokevirtual missing a byte


def test_exception_table_and_code_attributes_skipped():
    cb = ClassBuilder("p/T")
    c = cb.code()
    c.invokestatic("p/X", "risky", "()V")
    c.return_()
    line_table = struct.pack(">HHH", 1, 0, 10)
    cb.add_method("go", "()V", code=c,
                  exception_table=[(0, 3, 3, "java/lang/Exception")],
                  extra_code_attributes=[("LineNumberTable", line_table)])
    unit = parse_class(cb.build())
    ops = [op for _, op, _ in instructions(unit.methods[0].code)]
    assert ops == [0xB8, 0xB1]
