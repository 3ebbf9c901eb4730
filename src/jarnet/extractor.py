"""Call extraction: walk archive entries and emit caller/callee records.

Per class, records appear as call rows (methods in declaration order,
call sites in bytecode order) followed by the class-level usage rows
(first-encounter order, deduplicated, self-references dropped).
"""
from __future__ import annotations

import zipfile
from pathlib import Path

from .classfile import ClassUnit, instructions, parse_class
from .errors import (
    ArchiveCorrupt,
    ArchiveNotFound,
    ClassFormatError,
    EntryDecodeError,
    UnknownOpcode,
)
from .names import CallRecord, ExtractStats, QualifiedName, RelationTable, UnitKind

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

# Largest declared size of an entry that is read. Class-file counts are
# u2, so real classes stay far below it. A read never returns more than
# the declared size, and a false declared size fails the CRC check.
MAX_ENTRY_BYTES = 16 << 20

# What extract_calls does at an opcode: resolve a method ref, count an
# unresolvable site, or note the class of a field ref or class constant.
# Every other opcode is only walked over.
_INVOKE, _DYNAMIC, _FIELD, _CLASS = range(4)
_SITES = {
    **dict.fromkeys((OP_INVOKEVIRTUAL, OP_INVOKESPECIAL, OP_INVOKESTATIC,
                     OP_INVOKEINTERFACE), _INVOKE),
    OP_INVOKEDYNAMIC: _DYNAMIC,
    **dict.fromkeys((OP_GETSTATIC, OP_PUTSTATIC, OP_GETFIELD, OP_PUTFIELD), _FIELD),
    **dict.fromkeys((OP_NEW, OP_ANEWARRAY, OP_CHECKCAST, OP_INSTANCEOF,
                     OP_MULTIANEWARRAY, OP_LDC, OP_LDC_W), _CLASS),
}


def classify_callee(opcode: int, method_name: str,
                    target_is_interface: bool = False) -> UnitKind:
    """Map an invoke opcode to the callee kind.

    The interface flag mirrors whether the call site resolved an interface
    method ref; classification itself keys on the opcode (interface
    dispatch has its own opcode) plus the constructor name for special
    dispatch.
    """
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

    for method in unit.methods:
        if method.code is None:
            continue
        caller = None  # built at the method's first resolved call
        try:
            for _, op, operands in instructions(method.code):
                site = _SITES.get(op)
                if site is None:
                    continue
                # the pool index: one byte for ldc, the first two otherwise
                index = int.from_bytes(operands[:2], "big")
                if site == _INVOKE:
                    call_sites += 1
                    ref = method_refs.get(index)
                    if ref is None:
                        unresolved_sites += 1
                        continue
                    cls, name, desc, is_iface = ref
                    if caller is None:
                        caller = QualifiedName.from_internal(unit.name, method.name,
                                                             method.descriptor)
                    kind = classify_callee(op, name, is_iface)
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
    except (zipfile.BadZipFile, OSError) as exc:
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


def extract_archive(path, tolerant: bool = False, threads: int = 1) -> RelationTable:
    """Parse every class in the archive and build the full relation table.

    ``threads`` is accepted for compatibility and has no effect: parsing
    is pure Python, so threads contend for the interpreter lock and ran
    slower than one thread.
    """
    stats = ExtractStats()

    def skipped(_name, _exc):
        stats.entries_skipped += 1

    records: list[CallRecord] = []
    class_count = 0
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
        class_count += 1
    return RelationTable(records=records, source_archive=str(path),
                         class_count=class_count, stats=stats)
