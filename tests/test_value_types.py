"""Record and result types are immutable named tuples, the report's result
and run state among them; the two mutated types (ExtractStats,
RelationTable) are plain classes."""
from __future__ import annotations

import pytest

import jarnet
from jarnet import (
    CallRecord,
    CentralityVector,
    ClassUnit,
    CommunitySizeReport,
    ComponentReport,
    DegreeHistogram,
    DegreeReport,
    DirectedGraph,
    ExtractStats,
    MethodInfo,
    Partition,
    PathStats,
    PowerLawFit,
    QualifiedName,
    RelationTable,
    SmallWorldReport,
    UnitKind,
    components,
)
from jarnet.classfile import ConstantPool
from jarnet.errors import MalformedRecord
from jarnet.report import AnalysisResult, _Run

VALUE_TYPES = [QualifiedName, CallRecord, ConstantPool, MethodInfo, ClassUnit,
               DegreeReport, PathStats, ComponentReport, CentralityVector, Partition,
               CommunitySizeReport, SmallWorldReport, DegreeHistogram, PowerLawFit,
               AnalysisResult, _Run]

NAME = QualifiedName.parse("a.B::m")


def instance(cls):
    if cls is CallRecord:
        return CallRecord(UnitKind.METHOD, NAME, UnitKind.METHOD, NAME)
    return cls._make(range(len(cls._fields)))


def test_every_public_tuple_type_is_listed():
    public = {getattr(jarnet, name) for name in jarnet.__all__}
    assert {t for t in public if isinstance(t, type) and issubclass(t, tuple)} \
        == set(VALUE_TYPES) - {ConstantPool, AnalysisResult, _Run}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_rejects_assignment(cls):
    value = instance(cls)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert value == cls._make(value)
    assert list(value._asdict()) == list(cls._fields)


def test_call_record_checks_every_construction():
    cls_name = QualifiedName.parse("a.B")
    record = instance(CallRecord)
    with pytest.raises(MalformedRecord, match="C on both sides"):
        CallRecord(UnitKind.CLASS, cls_name, UnitKind.METHOD, NAME)
    with pytest.raises(MalformedRecord, match="callee of a call record"):
        record._replace(callee=cls_name)
    with pytest.raises(MalformedRecord, match="C records must not"):
        CallRecord._make([UnitKind.CLASS, cls_name, UnitKind.CLASS, NAME])


def test_component_count_is_the_field():
    g = DirectedGraph()
    for label in "abc":
        g.add_vertex(label)
    g.add_edge(0, 1)
    assert components(g).count == 2


def test_extract_stats_compare_and_merge():
    stats = ExtractStats(entries_scanned=1, call_sites=3)
    stats.merge(ExtractStats(entries_scanned=2, unresolved_sites=1, call_sites=4))
    assert stats == ExtractStats(3, 0, 7, 1, 0, 0)
    assert stats != ExtractStats(3, 0, 7, 1, 0, 1)
    assert repr(stats) == ("ExtractStats(entries_scanned=3, entries_skipped=0, call_sites=7, "
                           "unresolved_sites=1, class_refs=0, bad_code_methods=0)")


def test_relation_tables_do_not_share_records():
    first, second = RelationTable(), RelationTable()
    first.records.append(instance(CallRecord))
    assert second.records == []
