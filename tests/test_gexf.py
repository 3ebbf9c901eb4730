"""GEXF I/O round trips and schema validation."""
from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import pytest

from jarnet import gexf
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
    """A graph from another tool is read with that tool, copied into a
    DirectedGraph and written with export_gexf, as the README shows."""
    nx = pytest.importorskip("networkx")
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
    with pytest.raises(GexfSchemaError, match="not a GEXF file in the layout"):
        import_gexf(path)
    h = nx.read_gexf(path)
    g = DirectedGraph()
    ids = {node: g.add_vertex(data.get("label", node)) for node, data in h.nodes(data=True)}
    for u, v in h.edges():
        g.add_edge(ids[u], ids[v])
    export_gexf(g, tmp_path / "graph.gexf")
    g = import_gexf(tmp_path / "graph.gexf")
    assert g.labels == ["x.One::run", "x.Two"]
    assert g.kinds == ["method", "class"]  # derived from the separator
    assert list(g.edges()) == [(0, 1)]


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


QUOTING_LABELS = [
    "plain", 'q"uote', "apo's", "both\"'", "a&b", "<tag>", "x > y", "line\nbreak",
    "cr\rlf", "tab\t", "café::méthode", "日本", "", "&quot;'\"<>\n\r\t&amp;",
]


@pytest.mark.parametrize("label", QUOTING_LABELS)
def test_label_quoting_matches_saxutils(label):
    from xml.sax.saxutils import quoteattr
    assert _quoteattr(label) == quoteattr(label)


@pytest.mark.parametrize("label", QUOTING_LABELS)
def test_export_quotes_each_label_and_kind_as_saxutils(label, tmp_path):
    """One label that needs quoting must not change how a plain one is written."""
    from xml.sax.saxutils import quoteattr
    plain = "q.Plain::run"
    g = DirectedGraph()
    g.add_vertex(label)
    g.add_vertex(plain)
    g.kinds[0] = label
    path = tmp_path / "g.gexf"
    export_gexf(g, path)
    text = path.read_text(encoding="utf-8")
    assert re.findall(r'<node id="\d+" label=(.*)>\n', text) == [
        quoteattr(label), quoteattr(plain)]
    assert re.findall(r'<attvalue for="0" value=(.*)/>\n', text) == [
        quoteattr(label), quoteattr("method")]
    h = import_gexf(path)
    assert (h.labels, h.kinds) == ([label, plain], [label, "method"])


# Characters a node or kind line leaves for the text of its quoted value.
LINE_ROOM = {"label": gexf._MAX_LINE - len('      <node id="0" label="">\n'),
             "kind": gexf._MAX_LINE - len('          <attvalue for="0" value=""/>\n')}


@pytest.mark.parametrize("field", LINE_ROOM)
@pytest.mark.parametrize("char, width", [("B", 1), ("&", len("&amp;"))])
def test_export_refuses_a_line_longer_than_import_reads(field, char, width, tmp_path):
    """Every file export_gexf writes reads back: a value whose line is at
    the reader's bound round-trips, and one character more raises
    GexfSchemaError before the file is opened."""
    def one_vertex(value) -> DirectedGraph:
        g = DirectedGraph()
        g.add_vertex(value if field == "label" else "p.A")
        if field == "kind":
            g.kinds[0] = value
        return g

    fits = char * (LINE_ROOM[field] // width)
    g, path = one_vertex(fits), tmp_path / "fits.gexf"
    export_gexf(g, path)
    back = import_gexf(path)
    assert (back.labels, back.kinds) == (g.labels, g.kinds)
    over = tmp_path / "over.gexf"
    with pytest.raises(GexfSchemaError, match=r"vertex 0 .* import_gexf reads 65536$"):
        export_gexf(one_vertex(fits + char), over)
    assert not over.exists()
