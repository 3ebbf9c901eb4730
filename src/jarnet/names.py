"""Qualified names, call records, and relation-table serialization.

Names are stored in display form: dotted packages, ``Class::method``
separator, constructors as ``new``. Method descriptors are retained but
excluded from the default rendering, so overloads merge unless the
descriptor mode is requested explicitly.
"""
from __future__ import annotations

import csv
import re
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import MalformedRecord

__all__ = ["UnitKind", "QualifiedName", "CallRecord", "ExtractStats", "RelationTable",
           "write_relation_table", "read_relation_table"]

_HEADER = ["caller_kind", "caller", "callee_kind", "callee"]
METHOD_SEP = "::"
# A method descriptor (JVMS 4.3.3): parameter field types, then V or a field
# type. ``re`` compiles it at first use, so a start that parses none skips that.
_FIELD_TYPE = r"\[*(?:[BCDFIJSZ]|L[^;]+;)"
_METHOD_DESCRIPTOR = rf"\((?:{_FIELD_TYPE})*\)(?:V|{_FIELD_TYPE})"


class UnitKind(Enum):
    METHOD = "M"
    CONSTRUCTOR = "O"
    INTERFACE = "I"
    STATIC = "S"
    CLASS = "C"

    __hash__ = object.__hash__  # members are singletons equal only to themselves


# Python 3.11 routes ``UnitKind.X`` through a slow EnumType.__getattr__
# hook, so per-record code reads kinds and letters bound once here.
_CLASS_KIND = UnitKind.CLASS
_LETTERS = {kind: kind.value for kind in UnitKind}
_KINDS = {kind.value: kind for kind in UnitKind}


class QualifiedName(NamedTuple):
    """A package-qualified class, optionally narrowed to one method."""

    package: str
    cls: str
    method: str | None = None
    descriptor: str | None = None

    @property
    def class_name(self) -> str:
        return f"{self.package}.{self.cls}" if self.package else self.cls

    def render(self, with_descriptor: bool = False) -> str:
        package, text, method, descriptor = self
        if package:
            text = f"{package}.{text}"
        if method is None:
            return text
        return f"{text}{METHOD_SEP}{method}{with_descriptor and descriptor or ''}"

    @staticmethod
    def from_internal(internal: str, method: str | None = None,
                      descriptor: str | None = None) -> "QualifiedName":
        """Build from a JVM internal name such as ``org/example/Foo$Bar``.

        Constructor names (``<init>``) are stored as ``new``; all other
        method names, including ``<clinit>``, are kept verbatim.
        """
        dotted = internal.replace("/", ".")
        package, _, cls = dotted.rpartition(".")
        if method == "<init>":
            method = "new"
        return QualifiedName(package, cls, method, descriptor)

    @staticmethod
    def parse(text: str) -> "QualifiedName":
        """Parse a rendered name, with or without a trailing descriptor: the
        text from the last ``(``, if that is a well-formed method descriptor,
        as a method name may hold ``(`` (JVMS 4.2.2)."""
        descriptor = None
        class_part, sep, method = text.partition(METHOD_SEP)
        cut = method.rfind("(") if sep else -1
        if cut >= 0 and re.fullmatch(_METHOD_DESCRIPTOR, method[cut:]):
            method, descriptor = method[:cut], method[cut:]
        package, _, cls = class_part.rpartition(".")
        if not cls:
            raise MalformedRecord(f"empty class name in {text!r}")
        return QualifiedName(package, cls, method if sep else None, descriptor)


class _CallFields(NamedTuple):  # a NamedTuple body cannot define __new__
    caller_kind: UnitKind
    caller: QualifiedName
    callee_kind: UnitKind
    callee: QualifiedName


class CallRecord(_CallFields):
    """One row of the caller/callee relation."""

    __slots__ = ()

    def __new__(cls, caller_kind: UnitKind, caller: QualifiedName,
                callee_kind: UnitKind, callee: QualifiedName) -> "CallRecord":
        class_level = caller_kind is _CLASS_KIND
        if class_level != (callee_kind is _CLASS_KIND):
            raise MalformedRecord("class-level records must be C on both sides")
        if class_level:
            if caller.method is not None or callee.method is not None:
                raise MalformedRecord("C records must not carry method names")
        else:
            if caller.method is None:
                raise MalformedRecord("caller of a call record needs a method name")
            if callee.method is None:
                raise MalformedRecord("callee of a call record needs a method name")
        return tuple.__new__(cls, (caller_kind, caller, callee_kind, callee))

    # _replace builds through _make: check its records too.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class ExtractStats(NamedTuple):
    """Scan diagnostics; call_sites - unresolved_sites call records were kept."""

    entries_scanned: int = 0
    entries_skipped: int = 0
    call_sites: int = 0
    unresolved_sites: int = 0
    class_refs: int = 0
    bad_code_methods: int = 0


class RelationTable(NamedTuple):
    """The extracted caller/callee relation for one archive."""

    records: list[CallRecord]
    stats: ExtractStats | None = None


def _delimiter(path: Path, format: str | None) -> str:
    if format is None:
        format = "tsv" if Path(path).suffix.lower() == ".tsv" else "csv"
    if format not in ("csv", "tsv"):
        raise ValueError(f"unknown table format {format!r}")
    return "\t" if format == "tsv" else ","


def write_relation_table(table: RelationTable, path, format: str | None = None,
                         with_descriptors: bool = False) -> None:
    delim = _delimiter(path, format)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delim, lineterminator="\n")
        writer.writerow(_HEADER)
        writer.writerows((_LETTERS[caller_kind], caller.render(with_descriptors),
                          _LETTERS[callee_kind], callee.render(with_descriptors))
                         for caller_kind, caller, callee_kind, callee in table.records)


def read_relation_table(path) -> RelationTable:
    # A table names each unit on many rows. QualifiedName is frozen, so
    # rows that spell a name alike share one parsed instance. A C row names
    # classes, which may hold "::" (JVMS 4.2.1): those split at the last ".".
    def cached(parse):
        names: dict[str, QualifiedName] = {}
        return lambda text: names.get(text) or names.setdefault(text, parse(text))

    def parse_class(text: str) -> QualifiedName:
        package, _, cls = text.rpartition(".")
        if not cls:
            raise MalformedRecord(f"empty class name in {text!r}")
        return QualifiedName(package, cls)

    name_of, class_of = cached(QualifiedName.parse), cached(parse_class)

    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            head = fh.readline()
            if not head:
                raise MalformedRecord(f"{path}: empty table")
            delim = "\t" if "\t" in head else ","
            if [c.strip() for c in head.rstrip("\n").split(delim)] != _HEADER:
                raise MalformedRecord(f"{path}: unexpected header {head!r}")
            records = []
            reader = csv.reader(fh, delimiter=delim)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise MalformedRecord(f"{path}:{lineno}: expected 4 columns")
                try:
                    parse = class_of if row[0] == "C" else name_of
                    records.append(CallRecord(_KINDS[row[0]], parse(row[1]),
                                              _KINDS[row[2]], parse(row[3])))
                except KeyError as exc:  # only _KINDS raises it
                    raise MalformedRecord(f"{path}:{lineno}: {exc.args[0]!r} "
                                          "is not a valid UnitKind") from exc
                except MalformedRecord as exc:
                    raise MalformedRecord(f"{path}:{lineno}: {exc}") from exc
        except csv.Error as exc:
            # The header was read before the reader, so it is line 1.
            raise MalformedRecord(f"{path}:{reader.line_num + 1}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"{path}: not UTF-8 text: {exc}") from exc
    return RelationTable(records)
