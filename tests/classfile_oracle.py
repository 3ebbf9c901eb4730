"""The class-file parser, bytecode walker and call extractor that the
offset-based ``jarnet.classfile.parse_class`` and ``jarnet.extractor.
extract_calls`` replaced, kept as an oracle.

A cursor object reads every field through method calls, and the constant
pool stays a list of raw ``(tag, payload)`` entries that each lookup
resolves again. The replacement must accept exactly the inputs this code
accepts and produce equal units, records and counters.
"""
from __future__ import annotations

import struct

from jarnet.classfile import (
    MAGIC,
    MIN_MAJOR,
    TAG_CLASS,
    TAG_DOUBLE,
    TAG_DYNAMIC,
    TAG_FIELDREF,
    TAG_FLOAT,
    TAG_IMETHODREF,
    TAG_INTEGER,
    TAG_INVOKEDYNAMIC,
    TAG_LONG,
    TAG_METHODHANDLE,
    TAG_METHODREF,
    TAG_METHODTYPE,
    TAG_MODULE,
    TAG_NAT,
    TAG_PACKAGE,
    TAG_STRING,
    TAG_UTF8,
    ClassUnit,
    MethodInfo,
)
from jarnet.errors import (
    BadMagic,
    ClassFormatError,
    MalformedConstantPool,
    TruncatedClassFile,
    UnknownOpcode,
    UnsupportedVersion,
)
from jarnet.extractor import classify_callee
from jarnet.names import CallRecord, ExtractStats, QualifiedName, UnitKind

OP_GETSTATIC = 0xB2
OP_PUTSTATIC = 0xB3
OP_GETFIELD = 0xB4
OP_PUTFIELD = 0xB5
OP_INVOKEVIRTUAL = 0xB6
OP_INVOKESPECIAL = 0xB7
OP_INVOKESTATIC = 0xB8
OP_INVOKEINTERFACE = 0xB9
OP_INVOKEDYNAMIC = 0xBA
OP_NEW = 0xBB
OP_ANEWARRAY = 0xBD
OP_CHECKCAST = 0xC0
OP_INSTANCEOF = 0xC1
OP_MULTIANEWARRAY = 0xC5
OP_LDC = 0x12
OP_LDC_W = 0x13

_FIELD_OPS = frozenset((OP_GETSTATIC, OP_PUTSTATIC, OP_GETFIELD, OP_PUTFIELD))
_TYPE_OPS = frozenset((OP_NEW, OP_ANEWARRAY, OP_CHECKCAST, OP_INSTANCEOF,
                       OP_MULTIANEWARRAY))
_INVOKE_OPS = frozenset((OP_INVOKEVIRTUAL, OP_INVOKESPECIAL, OP_INVOKESTATIC,
                         OP_INVOKEINTERFACE))

_TAG_CLASS = TAG_CLASS

# operand byte counts per opcode; switches and wide are handled separately
_OPERANDS: dict[int, int] = {}
_OPERANDS.update({op: 0 for op in range(0x00, 0x10)})
_OPERANDS.update({0x10: 1, 0x11: 2, 0x12: 1, 0x13: 2, 0x14: 2})
_OPERANDS.update({op: 1 for op in range(0x15, 0x1A)})
_OPERANDS.update({op: 0 for op in range(0x1A, 0x36)})
_OPERANDS.update({op: 1 for op in range(0x36, 0x3B)})
_OPERANDS.update({op: 0 for op in range(0x3B, 0x84)})
_OPERANDS[0x84] = 2
_OPERANDS.update({op: 0 for op in range(0x85, 0x99)})
_OPERANDS.update({op: 2 for op in range(0x99, 0xA9)})
_OPERANDS[0xA9] = 1
_OPERANDS.update({op: 0 for op in range(0xAC, 0xB2)})
_OPERANDS.update({op: 2 for op in range(0xB2, 0xB9)})
_OPERANDS.update({0xB9: 4, 0xBA: 4, 0xBB: 2, 0xBC: 1, 0xBD: 2, 0xBE: 0,
                  0xBF: 0, 0xC0: 2, 0xC1: 2, 0xC2: 0, 0xC3: 0, 0xC5: 3,
                  0xC6: 2, 0xC7: 2, 0xC8: 4, 0xC9: 4})

OP_TABLESWITCH = 0xAA
OP_LOOKUPSWITCH = 0xAB
OP_WIDE = 0xC4
OP_IINC = 0x84


class _Reader:
    __slots__ = ("data", "pos", "entry")

    def __init__(self, data: bytes, entry: str):
        self.data = data
        self.pos = 0
        self.entry = entry

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise TruncatedClassFile(f"{self.entry}: truncated at byte {self.pos}")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u1(self) -> int:
        return self.take(1)[0]

    def u2(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u4(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def skip(self, count: int) -> None:
        self.take(count)


def _decode_mutf8(raw: bytes) -> str:
    # JVM modified UTF-8: embedded NUL is C0 80, supplementary chars use
    # CESU-8 surrogate pairs; both are rare, so try plain UTF-8 first.
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        try:
            return raw.replace(b"\xc0\x80", b"\x00").decode("utf-8", "surrogatepass")
        except UnicodeDecodeError:
            return raw.decode("utf-8", "replace")


class ConstantPool:
    """1-based entry list; Long/Double leave a None gap in the next slot."""

    def __init__(self, entries: list):
        self._entries = entries

    def _entry(self, index: int):
        if not 1 <= index < len(self._entries) or self._entries[index] is None:
            raise MalformedConstantPool(f"constant index {index} out of range")
        return self._entries[index]

    def tag(self, index: int) -> int:
        return self._entry(index)[0]

    def utf8(self, index: int) -> str:
        tag, payload = self._entry(index)
        if tag != TAG_UTF8:
            raise MalformedConstantPool(f"constant {index} is not Utf8 (tag {tag})")
        return payload

    def class_name(self, index: int) -> str:
        tag, payload = self._entry(index)
        if tag != TAG_CLASS:
            raise MalformedConstantPool(f"constant {index} is not Class (tag {tag})")
        return self.utf8(payload)

    def name_and_type(self, index: int) -> tuple[str, str]:
        tag, payload = self._entry(index)
        if tag != TAG_NAT:
            raise MalformedConstantPool(f"constant {index} is not NameAndType")
        return self.utf8(payload[0]), self.utf8(payload[1])

    def method_ref(self, index: int) -> tuple[str, str, str]:
        """Returns (class internal name, method name, descriptor)."""
        tag, payload = self._entry(index)
        if tag not in (TAG_METHODREF, TAG_IMETHODREF):
            raise MalformedConstantPool(f"constant {index} is not a method ref")
        name, desc = self.name_and_type(payload[1])
        return self.class_name(payload[0]), name, desc

    def field_ref(self, index: int) -> tuple[str, str, str]:
        tag, payload = self._entry(index)
        if tag != TAG_FIELDREF:
            raise MalformedConstantPool(f"constant {index} is not a field ref")
        name, desc = self.name_and_type(payload[1])
        return self.class_name(payload[0]), name, desc

    def validate(self) -> None:
        """Eagerly resolve every cross-reference so later lookups cannot fail."""
        for index, entry in enumerate(self._entries):
            if entry is None:
                continue
            tag, payload = entry
            if tag in (TAG_CLASS, TAG_STRING, TAG_METHODTYPE, TAG_MODULE, TAG_PACKAGE):
                self.utf8(payload)
            elif tag == TAG_NAT:
                self.utf8(payload[0])
                self.utf8(payload[1])
            elif tag in (TAG_FIELDREF, TAG_METHODREF, TAG_IMETHODREF):
                self.class_name(payload[0])
                self.name_and_type(payload[1])
            elif tag in (TAG_DYNAMIC, TAG_INVOKEDYNAMIC):
                self.name_and_type(payload[1])
            elif tag == TAG_METHODHANDLE:
                self._entry(payload[1])


def _parse_pool(r: _Reader) -> ConstantPool:
    count = r.u2()
    entries: list = [None] * count
    index = 1
    while index < count:
        tag = r.u1()
        if tag == TAG_UTF8:
            entries[index] = (tag, _decode_mutf8(r.take(r.u2())))
        elif tag in (TAG_INTEGER, TAG_FLOAT):
            entries[index] = (tag, r.take(4))
        elif tag in (TAG_LONG, TAG_DOUBLE):
            entries[index] = (tag, r.take(8))
            index += 1  # wide entries own the next slot too
        elif tag in (TAG_CLASS, TAG_STRING, TAG_METHODTYPE, TAG_MODULE, TAG_PACKAGE):
            entries[index] = (tag, r.u2())
        elif tag == TAG_METHODHANDLE:
            entries[index] = (tag, (r.u1(), r.u2()))
        elif tag in (TAG_FIELDREF, TAG_METHODREF, TAG_IMETHODREF, TAG_NAT,
                     TAG_DYNAMIC, TAG_INVOKEDYNAMIC):
            entries[index] = (tag, (r.u2(), r.u2()))
        else:
            raise MalformedConstantPool(f"{r.entry}: unknown constant tag {tag} at {index}")
        index += 1
    return ConstantPool(entries)


def _skip_attributes(r: _Reader) -> None:
    for _ in range(r.u2()):
        r.u2()
        r.skip(r.u4())


def _parse_code_attribute(r: _Reader) -> bytes:
    r.skip(4)  # max_stack, max_locals
    code = r.take(r.u4())
    r.skip(8 * r.u2())  # exception table
    _skip_attributes(r)
    return code


def _parse_methods(r: _Reader, pool: ConstantPool) -> list[MethodInfo]:
    methods = []
    for _ in range(r.u2()):
        access = r.u2()
        name = pool.utf8(r.u2())
        descriptor = pool.utf8(r.u2())
        code = None
        for _ in range(r.u2()):
            attr_name = pool.utf8(r.u2())
            length = r.u4()
            if attr_name == "Code" and code is None:
                end = r.pos + length
                code = _parse_code_attribute(r)
                if r.pos != end:
                    raise TruncatedClassFile(f"{r.entry}: Code attribute length mismatch")
            else:
                r.skip(length)
        methods.append(MethodInfo(name, descriptor, access, code))
    return methods


def parse_class(data: bytes, entry: str = "<bytes>") -> ClassUnit:
    """Parse one class file into a ClassUnit with a validated constant pool."""
    r = _Reader(data, entry)
    if r.u4() != MAGIC:
        raise BadMagic(f"{entry}: not a class file")
    minor = r.u2()
    major = r.u2()
    if major < MIN_MAJOR:
        raise UnsupportedVersion(f"{entry}: class file version {major}.{minor}")
    pool = _parse_pool(r)
    pool.validate()
    access_flags = r.u2()
    name = pool.class_name(r.u2())
    super_index = r.u2()
    super_name = pool.class_name(super_index) if super_index else None
    interfaces = [pool.class_name(r.u2()) for _ in range(r.u2())]
    for _ in range(r.u2()):  # fields: access, name, descriptor, attributes
        r.skip(6)
        _skip_attributes(r)
    methods = _parse_methods(r, pool)
    return ClassUnit(name, super_name, access_flags, (major, minor),
                     interfaces, methods, pool)


def instructions(code: bytes):
    """Yield (offset, opcode, operand bytes) over a Code stream.

    Switch padding and wide prefixes are decoded; an opcode outside the
    table raises UnknownOpcode, a stream ending mid-instruction raises
    TruncatedClassFile.
    """
    pos = 0
    size = len(code)
    while pos < size:
        op = code[pos]
        if op == OP_TABLESWITCH or op == OP_LOOKUPSWITCH:
            pad = (4 - ((pos + 1) % 4)) % 4
            base = pos + 1 + pad
            if op == OP_TABLESWITCH:
                if base + 12 > size:
                    raise TruncatedClassFile(f"truncated tableswitch at {pos}")
                low, high = struct.unpack(">ii", code[base + 4:base + 12])
                if high < low:
                    raise TruncatedClassFile(f"tableswitch bounds at {pos}")
                length = 1 + pad + 12 + 4 * (high - low + 1)
            else:
                if base + 8 > size:
                    raise TruncatedClassFile(f"truncated lookupswitch at {pos}")
                (npairs,) = struct.unpack(">i", code[base + 4:base + 8])
                if npairs < 0:
                    raise TruncatedClassFile(f"lookupswitch pair count at {pos}")
                length = 1 + pad + 8 + 8 * npairs
        elif op == OP_WIDE:
            if pos + 1 >= size:
                raise TruncatedClassFile(f"truncated wide at {pos}")
            length = 6 if code[pos + 1] == OP_IINC else 4
        else:
            operands = _OPERANDS.get(op)
            if operands is None:
                raise UnknownOpcode(f"opcode 0x{op:02x} at offset {pos}")
            length = 1 + operands
        if pos + length > size:
            raise TruncatedClassFile(f"instruction at {pos} runs past end of code")
        yield pos, op, code[pos + 1:pos + length]
        pos += length


def _element_class(internal: str) -> str | None:
    """Element class of a (possibly array) type; None for primitive arrays."""
    if not internal.startswith("["):
        return internal
    stripped = internal.lstrip("[")
    if stripped.startswith("L") and stripped.endswith(";"):
        return stripped[1:-1]
    return None


def extract_calls(unit: ClassUnit) -> tuple[list[CallRecord], ExtractStats]:
    """All records for one class, plus the site/reference counters."""
    pool = unit.constants
    stats = ExtractStats(entries_scanned=1)
    records: list[CallRecord] = []
    class_refs: dict[str, None] = {}

    def note_class_ref(internal: str) -> None:
        element = _element_class(internal)
        if element is not None and element != unit.name:
            class_refs.setdefault(element, None)

    for method in unit.methods:
        if method.code is None:
            continue
        caller = QualifiedName.from_internal(unit.name, method.name, method.descriptor)
        try:
            for _, op, operands in instructions(method.code):
                if op in _INVOKE_OPS:
                    stats.call_sites += 1
                    index = struct.unpack(">H", operands[:2])[0]
                    try:
                        cls, name, desc = pool.method_ref(index)
                    except MalformedConstantPool:
                        stats.unresolved_sites += 1
                        continue
                    kind = classify_callee(op, name)
                    callee = QualifiedName.from_internal(cls, name, desc)
                    records.append(CallRecord(UnitKind.METHOD, caller, kind, callee))
                elif op == OP_INVOKEDYNAMIC:
                    # no resolvable target class: the pool entry names a
                    # bootstrap method, not a callee
                    stats.call_sites += 1
                    stats.unresolved_sites += 1
                elif op in _FIELD_OPS:
                    index = struct.unpack(">H", operands[:2])[0]
                    try:
                        cls, _, _ = pool.field_ref(index)
                    except MalformedConstantPool:
                        continue
                    note_class_ref(cls)
                elif op in _TYPE_OPS:
                    index = struct.unpack(">H", operands[:2])[0]
                    try:
                        note_class_ref(pool.class_name(index))
                    except MalformedConstantPool:
                        continue
                elif op == OP_LDC or op == OP_LDC_W:
                    index = operands[0] if op == OP_LDC else struct.unpack(">H", operands[:2])[0]
                    try:
                        if pool.tag(index) == _TAG_CLASS:
                            note_class_ref(pool.class_name(index))
                    except MalformedConstantPool:
                        continue
        except ClassFormatError:
            stats.bad_code_methods += 1

    caller_cls = QualifiedName.from_internal(unit.name)
    for internal in class_refs:
        records.append(CallRecord(UnitKind.CLASS, caller_cls, UnitKind.CLASS,
                                  QualifiedName.from_internal(internal)))
    stats.class_refs = len(class_refs)
    return records, stats
