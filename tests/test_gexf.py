"""GEXF I/O round trips and schema validation."""
from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from jarnet.errors import GexfSchemaError
from jarnet.gexf import _quoteattr, export_gexf, import_gexf
from jarnet.graph import DirectedGraph, build_graph
from jarnet.names import RelationTable

from test_graph_build import rec


def small_graph() -> DirectedGraph:
    table = RelationTable([
        rec("net.SampleNetwork::doSomething", "net.ClassA::method1"),
        rec("net.SampleNetwork::doSomething", "net.ClassB::method3"),
        rec("net.ClassA::method2", "net.ClassA::method1"),
        rec("net.ClassA", "net.ClassB", kind="C"),
    ])
    return build_graph(table)


def test_export_structure(tmp_path):
    g = small_graph()
    path = tmp_path / "g.gexf"
    export_gexf(g, path)
    root = ET.parse(path).getroot()
    assert root.tag == "{http://www.gexf.net/1.2draft}gexf"
    assert root.get("version") == "1.2"
    ns = {"x": "http://www.gexf.net/1.2draft"}
    graph = root.find("x:graph", ns)
    assert graph.get("defaultedgetype") == "directed"
    nodes = graph.findall("x:nodes/x:node", ns)
    edges = graph.findall("x:edges/x:edge", ns)
    assert len(nodes) == g.n
    assert len(edges) == g.m
    by_id = {node.get("id"): node for node in nodes}
    assert by_id["0"].get("label") == "net.SampleNetwork::doSomething"
    kind = by_id["0"].find("x:attvalues/x:attvalue", ns)
    assert kind.get("value") == "method"


def test_round_trip_preserves_structure(tmp_path):
    g = small_graph()
    path = tmp_path / "g.gexf"
    export_gexf(g, path)
    back = import_gexf(path)
    assert back.labels == g.labels
    assert back.kinds == g.kinds
    assert sorted(back.edges()) == sorted(g.edges())


def test_export_is_byte_deterministic(tmp_path):
    g = small_graph()
    a, b = tmp_path / "a.gexf", tmp_path / "b.gexf"
    export_gexf(g, a)
    export_gexf(g, b)
    assert a.read_bytes() == b.read_bytes()


def test_import_foreign_layout(tmp_path):
    foreign = """<?xml version="1.0"?>
<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <graph defaultedgetype="directed">
    <nodes>
      <node id="a" label="x.One::run"/>
      <node id="b" label="x.Two"/>
    </nodes>
    <edges>
      <edge source="a" target="b"/>
    </edges>
  </graph>
</gexf>"""
    path = tmp_path / "foreign.gexf"
    path.write_text(foreign)
    g = import_gexf(path)
    assert g.labels == ["x.One::run", "x.Two"]
    assert g.kinds == ["method", "class"]  # derived from the separator
    assert list(g.edges()) == [(0, 1)]


def test_import_undirected_doubles_edges(tmp_path):
    text = """<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <graph defaultedgetype="undirected">
    <nodes><node id="0" label="a"/><node id="1" label="b"/></nodes>
    <edges><edge source="0" target="1"/></edges>
  </graph>
</gexf>"""
    path = tmp_path / "u.gexf"
    path.write_text(text)
    g = import_gexf(path)
    assert sorted(g.edges()) == [(0, 1), (1, 0)]


def test_import_rejects_unknown_endpoint(tmp_path):
    text = """<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <graph defaultedgetype="directed">
    <nodes><node id="0" label="a"/></nodes>
    <edges><edge source="0" target="9"/></edges>
  </graph>
</gexf>"""
    path = tmp_path / "bad.gexf"
    path.write_text(text)
    with pytest.raises(GexfSchemaError):
        import_gexf(path)


def test_import_rejects_duplicate_node_ids(tmp_path):
    text = """<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <graph><nodes><node id="0" label="a"/><node id="0" label="b"/></nodes></graph>
</gexf>"""
    path = tmp_path / "dup.gexf"
    path.write_text(text)
    with pytest.raises(GexfSchemaError):
        import_gexf(path)


def test_import_rejects_missing_graph(tmp_path):
    path = tmp_path / "empty.gexf"
    path.write_text('<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2"/>')
    with pytest.raises(GexfSchemaError):
        import_gexf(path)


def test_import_rejects_non_xml(tmp_path):
    path = tmp_path / "junk.gexf"
    path.write_text("not xml at all")
    with pytest.raises(GexfSchemaError):
        import_gexf(path)


def test_networkx_can_read_our_gexf(tmp_path):
    nx = pytest.importorskip("networkx")
    g = small_graph()
    path = tmp_path / "g.gexf"
    export_gexf(g, path)
    h = nx.read_gexf(path)
    assert h.is_directed()
    assert h.number_of_nodes() == g.n
    assert h.number_of_edges() == g.m
    labels = {data["label"] for _, data in h.nodes(data=True)}
    assert labels == set(g.labels)


@pytest.mark.parametrize("label", [
    "plain", 'q"uote', "apo's", "both\"'", "a&b", "<tag>", "x > y", "line\nbreak",
    "cr\rlf", "tab\t", "café::méthode", "日本", "", "&quot;'\"<>\n\r\t&amp;",
])
def test_label_quoting_matches_saxutils(label):
    from xml.sax.saxutils import quoteattr
    assert _quoteattr(label) == quoteattr(label)
