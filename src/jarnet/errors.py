"""Exception types shared across the package."""
from __future__ import annotations


class JarnetError(Exception):
    """Base class for all package errors."""


# -- archives ---------------------------------------------------------------
class ArchiveNotFound(JarnetError):
    pass


class ArchiveCorrupt(JarnetError):
    pass


class EntryDecodeError(JarnetError):
    """A single archive entry could not be read or parsed."""


# -- class files ------------------------------------------------------------
class ClassFormatError(JarnetError):
    pass


class BadMagic(ClassFormatError):
    pass


class UnsupportedVersion(ClassFormatError):
    pass


class MalformedConstantPool(ClassFormatError):
    pass


class TruncatedClassFile(ClassFormatError):
    pass


class UnknownOpcode(ClassFormatError):
    pass


# -- records and graphs -----------------------------------------------------
class MalformedRecord(JarnetError):
    pass


class GexfSchemaError(JarnetError):
    pass


# -- analysis ---------------------------------------------------------------
class EmptyGraph(JarnetError):
    pass


class PartitionMismatch(JarnetError):
    pass


class DegenerateGraph(JarnetError):
    pass


class DegenerateHistogram(JarnetError):
    pass
