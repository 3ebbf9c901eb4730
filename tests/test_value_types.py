"""Record and result types are immutable named tuples, the extraction
counters and table and the report's result and run state among them."""
from __future__ import annotations

import pytest

import jarnet
from classfile_builder import make_jar, synthetic_jar
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
from jarnet.classfile import ConstantPool, parse_class
from jarnet.errors import MalformedRecord
from jarnet.extractor import extract_archive, extract_calls
from jarnet.report import AnalysisResult, _Run
from test_classfile_differential import jar_classes

VALUE_TYPES = [QualifiedName, CallRecord, ConstantPool, MethodInfo, ClassUnit,
               ExtractStats, RelationTable, DegreeReport, PathStats, ComponentReport,
               CentralityVector, Partition, CommunitySizeReport, SmallWorldReport,
               DegreeHistogram, PowerLawFit, AnalysisResult, _Run]

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


@pytest.mark.parametrize("corrupt", ["unparsable", "bad-crc"])
def test_tolerant_extract_stats_sum_the_good_classes(tmp_path, corrupt):
    """The table's counters are the field-by-field sum of each good class's,
    and the one corrupt entry counts as skipped, whichever way it fails."""
    good = jar_classes(synthetic_jar(6, seed=2))
    jar = make_jar(good[:3] + [("p/Bad.class", b"\xca\xfe\xba\xbeCORRUPT!")] + good[3:])
    if corrupt == "bad-crc":
        jar = jar.replace(b"CORRUPT!", b"corrupt!")  # the stored CRC no longer holds
    path = tmp_path / "app.jar"
    path.write_bytes(jar)
    table = extract_archive(path, tolerant=True)
    counts = [extract_calls(parse_class(data, name))[1] for name, data in good]
    assert table.stats == ExtractStats(*map(sum, zip(*counts)))._replace(entries_skipped=1)
    assert table.stats.entries_scanned == len(good)
