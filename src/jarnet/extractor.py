"""Call extraction: walk archive entries and emit caller/callee records.

This module owns the instruction format inside a Code attribute, and
``classfile`` the container around it. ``extract_calls`` holds the one walk:
a loop over each Code stream that steps by ``_LENGTHS`` (``_switch_length``
for the switches and ``wide``) and reads a site's pool index from the code bytes.

Per class, records appear as call rows (methods in declaration order,
call sites in bytecode order) followed by the class-level usage rows
(first-encounter order, deduplicated, self-references dropped).
"""
from __future__ import annotations

import struct
import zipfile
from pathlib import Path

from .classfile import ClassUnit, parse_class
from .errors import (
    ArchiveCorrupt,
    ArchiveNotFound,
    ClassFormatError,
    EntryDecodeError,
    TruncatedClassFile,
    UnknownOpcode,
)
from .names import CallRecord, ExtractStats, QualifiedName, RelationTable, UnitKind

__all__ = ["classify_callee", "extract_calls", "open_archive", "extract_archive"]

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
OP_TABLESWITCH = 0xAA
OP_LOOKUPSWITCH = 0xAB
OP_WIDE = 0xC4
OP_IINC = 0x84

# Largest declared size of an entry that is read. Class-file counts are
# u2, so real classes stay far below it. A read never returns more than
# the declared size, and a false declared size fails the CRC check.
MAX_ENTRY_BYTES = 16 << 20

# Operand byte counts of the opcodes that have operands. Every other opcode
# up to 0xC9 has none; switches and wide are handled separately.
_OPERANDS = {0x10: 1, 0x11: 2, 0x12: 1, 0x13: 2, 0x14: 2, 0x84: 2, 0xA9: 1, 0xB9: 4,
             0xBA: 4, 0xBB: 2, 0xBC: 1, 0xBD: 2, 0xC0: 2, 0xC1: 2, 0xC5: 3, 0xC6: 2,
             0xC7: 2, 0xC8: 4, 0xC9: 4, **dict.fromkeys(range(0x15, 0x1A), 1),
             **dict.fromkeys(range(0x36, 0x3B), 1), **dict.fromkeys(range(0x99, 0xA9), 2),
             **dict.fromkeys(range(0xB2, 0xB9), 2)}

# Instruction length by opcode, operands included: 0 for a byte that is no
# opcode, -1 for the switches and wide, whose length depends on the stream.
_LENGTHS = [1 + _OPERANDS.get(op, 0) if op <= 0xC9 else 0 for op in range(256)]
_LENGTHS[OP_TABLESWITCH] = _LENGTHS[OP_LOOKUPSWITCH] = _LENGTHS[OP_WIDE] = -1
_I4 = struct.Struct(">i").unpack_from
_I4I4 = struct.Struct(">ii").unpack_from

# What extract_calls does at each opcode: resolve a method ref, count an
# unresolvable site, or note the class of a field ref or class constant.
# Every other opcode (None) is only walked over.
_INVOKE, _DYNAMIC, _FIELD, _CLASS = range(4)
_SITE_OF = {
    **dict.fromkeys((OP_INVOKEVIRTUAL, OP_INVOKESPECIAL, OP_INVOKESTATIC,
                     OP_INVOKEINTERFACE), _INVOKE),
    OP_INVOKEDYNAMIC: _DYNAMIC,
    **dict.fromkeys((OP_GETSTATIC, OP_PUTSTATIC, OP_GETFIELD, OP_PUTFIELD), _FIELD),
    **dict.fromkeys((OP_NEW, OP_ANEWARRAY, OP_CHECKCAST, OP_INSTANCEOF,
                     OP_MULTIANEWARRAY, OP_LDC, OP_LDC_W), _CLASS),
}
_SITES = [_SITE_OF.get(op) for op in range(256)]  # indexed by opcode


def classify_callee(opcode: int, method_name: str) -> UnitKind:
    """Map an invoke opcode to the callee kind: the opcode decides (interface
    dispatch has its own), plus the constructor name for special dispatch."""
    if opcode == OP_INVOKEVIRTUAL:
        return UnitKind.METHOD
    if opcode == OP_INVOKESPECIAL:
        return UnitKind.CONSTRUCTOR if method_name == "<init>" else UnitKind.METHOD
    if opcode == OP_INVOKESTATIC:
        return UnitKind.STATIC
    if opcode == OP_INVOKEINTERFACE:
        return UnitKind.INTERFACE
    raise UnknownOpcode(f"opcode 0x{opcode:02x} is not a classified call")


def _element_class(internal: str) -> str | None:
    """Element class of a (possibly array) type; None for primitive arrays."""
    if not internal.startswith("["):
        return internal
    stripped = internal.lstrip("[")
    if stripped.startswith("L") and stripped.endswith(";"):
        return stripped[1:-1]
    return None


def _switch_length(code: bytes, pos: int, op: int) -> int:
    """Length of the tableswitch, lookupswitch or wide instruction at pos."""
    size = len(code)
    if op == OP_WIDE:
        if pos + 1 >= size:
            raise TruncatedClassFile(f"truncated wide at {pos}")
        return 6 if code[pos + 1] == OP_IINC else 4
    pad = (4 - ((pos + 1) % 4)) % 4
    base = pos + 1 + pad
    if op == OP_TABLESWITCH:
        if base + 12 > size:
            raise TruncatedClassFile(f"truncated tableswitch at {pos}")
        low, high = _I4I4(code, base + 4)
        if high < low:
            raise TruncatedClassFile(f"tableswitch bounds at {pos}")
        return 1 + pad + 12 + 4 * (high - low + 1)
    if base + 8 > size:
        raise TruncatedClassFile(f"truncated lookupswitch at {pos}")
    (npairs,) = _I4(code, base + 4)
    if npairs < 0:
        raise TruncatedClassFile(f"lookupswitch pair count at {pos}")
    return 1 + pad + 8 + 8 * npairs


def extract_calls(unit: ClassUnit) -> tuple[list[CallRecord], ExtractStats]:
    """All records for one class, plus the site/reference counters."""
    pool = unit.constants
    classes, field_refs, method_refs = pool.classes, pool.field_refs, pool.method_refs
    records: list[CallRecord] = []
    class_refs: dict[str, None] = {}
    call_sites = unresolved_sites = bad_code_methods = 0

    def note_class_ref(internal: str) -> None:
        element = _element_class(internal)
        if element is not None and element != unit.name:
            class_refs.setdefault(element, None)

    lengths, sites = _LENGTHS, _SITES
    for method in unit.methods:
        code = method.code
        if code is None:
            continue
        caller = None  # built at the method's first resolved call
        pos, size = 0, len(code)
        try:
            while pos < size:
                # An instruction counts only once all its bytes are there.
                op = code[pos]
                length = lengths[op]
                if length <= 0:
                    if not length:
                        raise UnknownOpcode(f"opcode 0x{op:02x} at offset {pos}")
                    length = _switch_length(code, pos, op)
                end = pos + length
                if end > size:
                    raise TruncatedClassFile(f"instruction at {pos} runs past end of code")
                start, pos = pos + 1, end  # start: the first operand byte
                site = sites[op]
                if site is None:
                    continue
                # the pool index: one byte for ldc, the first two otherwise
                index = code[start] if op == OP_LDC else code[start] << 8 | code[start + 1]
                if site == _INVOKE:
                    call_sites += 1
                    ref = method_refs.get(index)
                    if ref is None:
                        unresolved_sites += 1
                        continue
                    cls, name, desc = ref
                    if caller is None:
                        caller = QualifiedName.from_internal(unit.name, method.name,
                                                             method.descriptor)
                    kind = classify_callee(op, name)
                    callee = QualifiedName.from_internal(cls, name, desc)
                    records.append(CallRecord(UnitKind.METHOD, caller, kind, callee))
                elif site == _DYNAMIC:
                    # no resolvable target class: the pool entry names a
                    # bootstrap method, not a callee
                    call_sites += 1
                    unresolved_sites += 1
                elif site == _FIELD:
                    ref = field_refs.get(index)
                    if ref is not None:
                        note_class_ref(ref[0])
                else:
                    internal = classes.get(index)
                    if internal is not None:
                        note_class_ref(internal)
        except ClassFormatError:
            bad_code_methods += 1

    caller_cls = QualifiedName.from_internal(unit.name)
    for internal in class_refs:
        records.append(CallRecord(UnitKind.CLASS, caller_cls, UnitKind.CLASS,
                                  QualifiedName.from_internal(internal)))
    stats = ExtractStats(entries_scanned=1, call_sites=call_sites,
                         unresolved_sites=unresolved_sites, class_refs=len(class_refs),
                         bad_code_methods=bad_code_methods)
    return records, stats


def open_archive(path, tolerant: bool = False, on_skip=None):
    """Yield (entry name, bytes) for each .class entry in archive order.
    An entry declared over ``MAX_ENTRY_BYTES`` counts as unreadable."""
    path = Path(path)
    if not path.exists():
        raise ArchiveNotFound(str(path))
    try:
        archive = zipfile.ZipFile(path)
    except Exception as exc:  # bad directories, unreadable files, unsupported versions
        raise ArchiveCorrupt(f"{path}: {exc}") from exc
    with archive:
        for info in archive.infolist():
            if info.is_dir() or not info.filename.endswith(".class"):
                continue
            try:
                if info.file_size > MAX_ENTRY_BYTES:
                    raise ValueError(f"declared size {info.file_size} bytes is "
                                     f"over the {MAX_ENTRY_BYTES}-byte limit")
                data = archive.read(info)
            except Exception as exc:  # CRC errors, truncated or oversized members
                if tolerant:
                    if on_skip is not None:
                        on_skip(info.filename, exc)
                    continue
                raise EntryDecodeError(info.filename, exc) from exc
            yield info.filename, data


def extract_archive(path, tolerant: bool = False) -> RelationTable:
    """Parse every class in the archive and build the full relation table."""
    stats = ExtractStats()

    def skipped(_name, _exc):
        stats.entries_skipped += 1

    records: list[CallRecord] = []
    for name, data in open_archive(path, tolerant=tolerant, on_skip=skipped):
        try:
            class_records, class_stats = extract_calls(parse_class(data, entry=name))
        except ClassFormatError as exc:
            if not tolerant:
                raise EntryDecodeError(name, exc) from exc
            stats.entries_skipped += 1
            continue
        records.extend(class_records)
        stats.merge(class_stats)
    return RelationTable(records=records, source_archive=str(path), stats=stats)
