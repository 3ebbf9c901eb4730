"""Binary class-file parsing: the container format of header, constant
pool and methods.

Everything is big-endian. Only the pieces needed for call extraction are
materialized; attribute bodies other than Code are skipped, and a Code
body is kept as raw bytes. The instruction format inside it (lengths,
switches, ``wide``) belongs to ``extractor``, beside its one walker.
"""
from __future__ import annotations

import struct
from typing import NamedTuple

from .errors import (
    BadMagic,
    MalformedConstantPool,
    TruncatedClassFile,
    UnsupportedVersion,
)

__all__ = ["MethodInfo", "ClassUnit", "parse_class"]

MAGIC = 0xCAFEBABE
MIN_MAJOR = 45  # first released format version

TAG_UTF8 = 1
TAG_INTEGER = 3
TAG_FLOAT = 4
TAG_LONG = 5
TAG_DOUBLE = 6
TAG_CLASS = 7
TAG_STRING = 8
TAG_FIELDREF = 9
TAG_METHODREF = 10
TAG_IMETHODREF = 11
TAG_NAT = 12
TAG_METHODHANDLE = 15
TAG_METHODTYPE = 16
TAG_DYNAMIC = 17
TAG_INVOKEDYNAMIC = 18
TAG_MODULE = 19
TAG_PACKAGE = 20

def _decode_mutf8(raw: bytes) -> str:
    # JVM modified UTF-8: embedded NUL is C0 80, supplementary chars use
    # CESU-8 surrogate pairs; both are rare, so _read_pool tries plain UTF-8
    # first and calls this only when that fails. A UTF-16 round trip joins
    # each pair into the character it encodes and maps an unpaired surrogate
    # to U+FFFD, as for other invalid bytes.
    try:
        text = raw.replace(b"\xc0\x80", b"\x00").decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:
        return raw.decode("utf-8", "replace")
    return text.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "replace")


def _bad_index(tags: dict[int, int], index: int, what: str) -> MalformedConstantPool:
    tag = tags.get(index)
    if tag is None:
        return MalformedConstantPool(f"constant index {index} out of range")
    return MalformedConstantPool(f"constant {index} is not {what} (tag {tag})")


class ConstantPool(NamedTuple):
    """A validated constant pool with every cross-reference resolved.

    ``tags`` maps each 1-based index that holds an entry to its tag; the
    slot after a Long or Double holds none. Each other table maps the
    indices of one kind of entry to its resolved value: ``utf8s`` to
    text, ``classes`` to an internal class name, and ``field_refs`` and
    ``method_refs`` (Methodref and InterfaceMethodref) to ``(class, name,
    descriptor)``. ``class_name`` raises MalformedConstantPool for an index
    that does not hold a Class entry.
    """

    tags: dict[int, int]
    utf8s: dict[int, str]
    classes: dict[int, str]
    field_refs: dict[int, tuple[str, str, str]]
    method_refs: dict[int, tuple[str, str, str]]

    def class_name(self, index: int) -> str:
        name = self.classes.get(index)
        if name is None:
            raise _bad_index(self.tags, index, "Class")
        return name


class MethodInfo(NamedTuple):
    name: str
    descriptor: str
    code: bytes | None


class ClassUnit(NamedTuple):
    name: str  # internal form, e.g. org/example/Foo
    methods: list[MethodInfo]
    constants: ConstantPool


_U2 = struct.Struct(">H").unpack_from
_U2U2 = struct.Struct(">HH").unpack_from
_U2U4 = struct.Struct(">HI").unpack_from
_U2X4 = struct.Struct(">HHHH").unpack_from
_U4 = struct.Struct(">I").unpack_from

_REF_TAGS = (TAG_FIELDREF, TAG_METHODREF, TAG_IMETHODREF)
_UTF8_REF_TAGS = (TAG_STRING, TAG_METHODTYPE, TAG_MODULE, TAG_PACKAGE)

# Offsets are absolute and only grow. A fixed-size read past the end
# raises struct.error, which parse_class reports as TruncatedClassFile. A
# slice or skip past the end leaves the offset past the end, so the next
# read fails, or the final check in parse_class does; nothing read from a
# short slice is ever returned.


def _read_pool(data: bytes, entry: str) -> tuple[ConstantPool, int]:
    """Read the constant pool at offset 8 and resolve every cross-reference.

    Returns the pool and the offset of the first byte after it.
    """
    (count,) = _U2(data, 8)
    size = len(data)
    pos = 10
    tags: dict[int, int] = {}
    utf8s: dict[int, str] = {}
    class_slots = []  # (index, name index)
    nat_slots = []    # (index, name index, descriptor index)
    ref_slots = []    # (index, tag, class index, name-and-type index)
    utf8_uses = []    # name indices of String, MethodType, Module, Package
    nat_uses = []     # name-and-type indices of Dynamic, InvokeDynamic
    entry_uses = []   # reference indices of MethodHandle
    index = 1
    while index < count:
        if pos >= size:
            raise TruncatedClassFile(f"{entry}: truncated in constant {index}")
        tag = data[pos]
        tags[index] = tag
        if tag == TAG_UTF8:
            (length,) = _U2(data, pos + 1)
            start = pos + 3
            pos = start + length
            raw = data[start:pos]
            try:
                utf8s[index] = raw.decode("utf-8")
            except UnicodeDecodeError:
                utf8s[index] = _decode_mutf8(raw)
        elif tag == TAG_CLASS:
            class_slots.append((index, _U2(data, pos + 1)[0]))
            pos += 3
        elif tag in _REF_TAGS:
            ref_slots.append((index, tag, *_U2U2(data, pos + 1)))
            pos += 5
        elif tag == TAG_NAT:
            nat_slots.append((index, *_U2U2(data, pos + 1)))
            pos += 5
        elif tag in _UTF8_REF_TAGS:
            utf8_uses.append(_U2(data, pos + 1)[0])
            pos += 3
        elif tag == TAG_INTEGER or tag == TAG_FLOAT:
            pos += 5
        elif tag == TAG_LONG or tag == TAG_DOUBLE:
            pos += 9
            index += 1  # wide entries own the next slot too
        elif tag == TAG_DYNAMIC or tag == TAG_INVOKEDYNAMIC:
            nat_uses.append(_U2(data, pos + 3)[0])  # after the bootstrap index
            pos += 5
        elif tag == TAG_METHODHANDLE:
            entry_uses.append(_U2(data, pos + 2)[0])  # after the kind byte
            pos += 4
        else:
            raise MalformedConstantPool(f"{entry}: unknown constant tag {tag} at {index}")
        index += 1

    classes: dict[int, str] = {}
    for index, name_index in class_slots:
        name = utf8s.get(name_index)
        if name is None:
            raise _bad_index(tags, name_index, "Utf8")
        classes[index] = name
    nats: dict[int, tuple[str, str]] = {}
    for index, name_index, desc_index in nat_slots:
        name = utf8s.get(name_index)
        desc = utf8s.get(desc_index)
        if name is None or desc is None:
            raise _bad_index(tags, name_index if name is None else desc_index, "Utf8")
        nats[index] = (name, desc)
    field_refs: dict[int, tuple[str, str, str]] = {}
    method_refs: dict[int, tuple[str, str, str]] = {}
    for index, tag, class_index, nat_index in ref_slots:
        cls = classes.get(class_index)
        if cls is None:
            raise _bad_index(tags, class_index, "Class")
        nat = nats.get(nat_index)
        if nat is None:
            raise _bad_index(tags, nat_index, "NameAndType")
        (field_refs if tag == TAG_FIELDREF else method_refs)[index] = (cls, *nat)
    for table, uses, what in ((utf8s, utf8_uses, "Utf8"), (nats, nat_uses, "NameAndType"),
                              (tags, entry_uses, "an entry")):
        for used in uses:
            if used not in table:
                raise _bad_index(tags, used, what)
    return ConstantPool(tags, utf8s, classes, field_refs, method_refs), pos


def parse_class(data: bytes, entry: str = "<bytes>") -> ClassUnit:
    """Parse one class file into a ClassUnit with a validated constant pool."""
    try:
        if _U4(data, 0)[0] != MAGIC:
            raise BadMagic(f"{entry}: not a class file")
        minor, major = _U2U2(data, 4)
        if major < MIN_MAJOR:
            raise UnsupportedVersion(f"{entry}: class file version {major}.{minor}")
        pool, pos = _read_pool(data, entry)
        _, this_index, super_index, n_interfaces = _U2X4(data, pos)  # access flags unread
        pos += 8
        name = pool.class_name(this_index)
        # Read only so that a bad super or interface index rejects the class.
        if super_index:
            pool.class_name(super_index)
        for index in struct.unpack_from(f">{n_interfaces}H", data, pos):
            pool.class_name(index)
        pos += 2 * n_interfaces
        (n_fields,) = _U2(data, pos)
        pos += 2
        for _ in range(n_fields):  # access, name, descriptor, attributes
            (n_attrs,) = _U2(data, pos + 6)
            pos += 8
            for _ in range(n_attrs):
                pos += 6 + _U4(data, pos + 2)[0]
        methods = []
        utf8s, tags = pool.utf8s, pool.tags
        (n_methods,) = _U2(data, pos)
        pos += 2
        for _ in range(n_methods):
            _, name_index, desc_index, n_attrs = _U2X4(data, pos)  # access flags unread
            pos += 8
            method_name = utf8s.get(name_index)
            descriptor = utf8s.get(desc_index)
            if method_name is None or descriptor is None:
                bad = name_index if method_name is None else desc_index
                raise _bad_index(tags, bad, "Utf8")
            code = None
            for _ in range(n_attrs):
                attr_index, length = _U2U4(data, pos)
                pos += 6
                end = pos + length
                attr_name = utf8s.get(attr_index)
                if attr_name is None:
                    raise _bad_index(tags, attr_index, "Utf8")
                if attr_name == "Code" and code is None:
                    # max_stack, max_locals, code, exception table, attributes
                    start = pos + 8
                    pos = start + _U4(data, pos + 4)[0]
                    code = data[start:pos]
                    pos += 2 + 8 * _U2(data, pos)[0]
                    (n_code_attrs,) = _U2(data, pos)
                    pos += 2
                    for _ in range(n_code_attrs):
                        pos += 6 + _U4(data, pos + 2)[0]
                    if pos != end:
                        raise TruncatedClassFile(f"{entry}: Code attribute length mismatch")
                pos = end
            methods.append(MethodInfo(method_name, descriptor, code))
        if pos > len(data):
            raise TruncatedClassFile(f"{entry}: truncated at byte {len(data)}")
    except struct.error as exc:
        raise TruncatedClassFile(f"{entry}: truncated ({exc})") from None
    return ClassUnit(name, methods, pool)
