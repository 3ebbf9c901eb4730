"""Qualified names, call records, and relation-table serialization.

Names are stored in display form: dotted packages, ``Class::method``
separator, constructors as ``new``. Method descriptors are retained but
excluded from the default rendering, so overloads merge unless the
descriptor mode is requested explicitly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import MalformedRecord

_HEADER = ["caller_kind", "caller", "callee_kind", "callee"]
METHOD_SEP = "::"


class UnitKind(Enum):
    METHOD = "M"
    CONSTRUCTOR = "O"
    INTERFACE = "I"
    STATIC = "S"
    CLASS = "C"


@dataclass(frozen=True)
class QualifiedName:
    """A package-qualified class, optionally narrowed to one method."""

    package: str
    cls: str
    method: str | None = None
    descriptor: str | None = None

    @property
    def class_name(self) -> str:
        return f"{self.package}.{self.cls}" if self.package else self.cls

    def render(self, with_descriptor: bool = False) -> str:
        text = self.class_name
        if self.method is not None:
            text += METHOD_SEP + self.method
            if with_descriptor and self.descriptor is not None:
                text += self.descriptor
        return text

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
        """Parse a rendered name, with or without a trailing descriptor."""
        descriptor = None
        class_part, sep, method = text.partition(METHOD_SEP)
        if sep and "(" in method:
            cut = method.index("(")
            method, descriptor = method[:cut], method[cut:]
        package, _, cls = class_part.rpartition(".")
        if not cls:
            raise MalformedRecord(f"empty class name in {text!r}")
        return QualifiedName(package, cls, method if sep else None, descriptor)


@dataclass(frozen=True)
class CallRecord:
    """One row of the caller/callee relation."""

    caller_kind: UnitKind
    caller: QualifiedName
    callee_kind: UnitKind
    callee: QualifiedName

    def __post_init__(self):
        class_level = self.caller_kind is UnitKind.CLASS
        if class_level != (self.callee_kind is UnitKind.CLASS):
            raise MalformedRecord("class-level records must be C on both sides")
        if class_level:
            if self.caller.method is not None or self.callee.method is not None:
                raise MalformedRecord("C records must not carry method names")
        else:
            if self.caller.method is None:
                raise MalformedRecord("caller of a call record needs a method name")
            if self.callee.method is None:
                raise MalformedRecord("callee of a call record needs a method name")


@dataclass
class ExtractStats:
    """Scan diagnostics; call_sites - unresolved_sites call records were kept."""

    entries_scanned: int = 0
    entries_skipped: int = 0
    call_sites: int = 0
    unresolved_sites: int = 0
    class_refs: int = 0
    bad_code_methods: int = 0

    def merge(self, other: "ExtractStats") -> None:
        self.entries_scanned += other.entries_scanned
        self.entries_skipped += other.entries_skipped
        self.call_sites += other.call_sites
        self.unresolved_sites += other.unresolved_sites
        self.class_refs += other.class_refs
        self.bad_code_methods += other.bad_code_methods


@dataclass
class RelationTable:
    """The extracted caller/callee relation for one archive."""

    records: list[CallRecord] = field(default_factory=list)
    source_archive: str = ""
    class_count: int = 0
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
        for r in table.records:
            writer.writerow([
                r.caller_kind.value,
                r.caller.render(with_descriptors),
                r.callee_kind.value,
                r.callee.render(with_descriptors),
            ])


def read_relation_table(path) -> RelationTable:
    kinds = {kind.value: kind for kind in UnitKind}
    # A table names each unit on many rows. QualifiedName is frozen, so
    # rows that spell a name alike share one parsed instance.
    names: dict[str, QualifiedName] = {}

    def name_of(text: str) -> QualifiedName:
        name = names.get(text)
        if name is None:
            name = names[text] = QualifiedName.parse(text)
        return name

    def kind_of(letter: str) -> UnitKind:
        kind = kinds.get(letter)
        if kind is None:
            raise MalformedRecord(f"{letter!r} is not a valid UnitKind")
        return kind

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
                    records.append(CallRecord(kind_of(row[0]), name_of(row[1]),
                                              kind_of(row[2]), name_of(row[3])))
                except MalformedRecord as exc:
                    raise MalformedRecord(f"{path}:{lineno}: {exc}") from exc
        except csv.Error as exc:
            # The header was read before the reader, so it is line 1.
            raise MalformedRecord(f"{path}:{reader.line_num + 1}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"{path}: not UTF-8 text: {exc}") from exc
    return RelationTable(records=records, source_archive=str(path))
