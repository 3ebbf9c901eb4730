"""The streaming expat GEXF importer against the ElementTree oracle.

``gexf_oracle`` holds the importer it replaced. On exported graphs and on
hand-written layouts both must give equal labels, kinds and edges. On
seeded byte mutations and truncations the new importer must accept exactly
the files the oracle accepts, with equal output, and reject the rest with a
GexfSchemaError and nothing else. The line reader of export_gexf's own
layout must be the path taken for exported files, give the expat path's
graph, and leave near-layout and mutated files with the oracle's outcome.
"""
from __future__ import annotations

import random
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest.mock import Mock

import numpy as np
import pytest

import gexf_oracle as oracle
from classfile_builder import synthetic_jar
from jarnet import gexf
from jarnet.errors import GexfSchemaError
from jarnet.extractor import extract_archive
from jarnet.gexf import export_gexf, import_gexf
from jarnet.graph import DirectedGraph, build_graph


def outcome(importer, path, rejections) -> tuple:
    try:
        g = importer(path)
    except rejections:
        return ("rejected",)
    return ("accepted", g.labels, g.kinds, list(g.edges()))


def new_outcome(path) -> tuple:
    return outcome(import_gexf, path, GexfSchemaError)


def oracle_outcome(path) -> tuple:
    # ElementTree lets an unknown or multi-byte encoding declaration escape
    # as LookupError or ValueError; the new importer reports those as
    # GexfSchemaError, so they count as rejections here.
    return outcome(oracle.import_gexf, path, (GexfSchemaError, LookupError, ValueError))


def odd_labels_graph() -> DirectedGraph:
    g = DirectedGraph()
    labels = ['q"uote', "apo's", "both\"'", "amp&lt;", "<tag>", "line\nbreak",
              "cr\rtab\t", "café::méthode", "日本::run", "plain::x"]
    for a, b in zip(labels, labels[1:] + labels[:1]):
        g.add_edge_labels(a, b)
    return g


def test_exported_graphs_import_as_the_oracle_does(tmp_path):
    jar = tmp_path / "app.jar"
    jar.write_bytes(synthetic_jar(n_classes=60, seed=7))
    table = extract_archive(jar)
    for name, g in (("synthetic", build_graph(table, package_prefix="app")),
                    ("odd", odd_labels_graph())):
        path = tmp_path / f"{name}.gexf"
        export_gexf(g, path)
        ours = new_outcome(path)
        assert ours == oracle_outcome(path)
        assert ours == ("accepted", g.labels, g.kinds, list(g.edges()))


NS = 'xmlns="http://www.gexf.net/1.2draft" version="1.2"'
KIND = '<attributes class="node"><attribute id="0" title="kind" type="string"/></attributes>'


def node(nid, label=None, kind=None):
    label_attr = "" if label is None else f' label="{label}"'
    if kind is None:
        return f'<node id="{nid}"{label_attr}/>'
    return (f'<node id="{nid}"{label_attr}><attvalues>'
            f'<attvalue for="0" value="{kind}"/></attvalues></node>')


# name -> (document, accepted)
DOCUMENTS = {
    "no_namespace": (
        '<gexf><graph defaultedgetype="directed"><nodes>'
        f'{node("a", "x.A::run")}{node("b", "x.B")}</nodes>'
        '<edges><edge source="a" target="b"/></edges></graph></gexf>', True),
    "undirected_default_and_edge_types": (
        f'<gexf {NS}><graph><nodes>{node(0, "a")}{node(1, "b")}{node(2, "c")}</nodes>'
        '<edges><edge source="0" target="1"/><edge source="1" target="2" type="directed"/>'
        '<edge source="2" target="0" type="mutual"/></edges></graph></gexf>', True),
    "directed_default_and_edge_types": (
        f'<gexf {NS}><graph defaultedgetype="directed"><nodes>{node(0, "a")}{node(1, "b")}'
        '</nodes><edges><edge source="0" target="1" type="undirected"/>'
        '<edge source="1" target="1"/></edges></graph></gexf>', True),
    "attributes_after_nodes": (
        f'<gexf {NS}><graph><nodes>{node(0, "a", "method")}{node(1, "b::c", "class")}'
        f'</nodes>{KIND}</graph></gexf>', True),
    "edge_attributes_ignored": (
        f'<gexf {NS}><graph><attributes class="edge"><attribute id="0" title="kind"/>'
        f'</attributes><nodes>{node(0, "a", "method")}</nodes></graph></gexf>', True),
    "later_kind_declaration_wins": (
        f'<gexf {NS}><graph>{KIND}<attributes><attribute id="1" title="kind"/></attributes>'
        '<nodes><node id="0" label="a"><attvalues><attvalue for="0" value="zero"/>'
        '<attvalue for="1" value="one"/></attvalues></node></nodes></graph></gexf>', True),
    "kind_declaration_without_id": (
        f'<gexf {NS}><graph>{KIND}<attributes><attribute title="kind"/></attributes>'
        f'<nodes>{node(0, "a", "method")}</nodes></graph></gexf>', True),
    "second_graph_nodes_and_edges_ignored": (
        f'<gexf {NS}><graph defaultedgetype="directed">{KIND}'
        f'<nodes>{node(0, "a")}{node(1, "b")}</nodes><nodes>{node(2, "c")}</nodes>'
        '<edges><edge source="0" target="1"/></edges>'
        '<edges><edge source="0" target="9"/></edges></graph>'
        f'<graph><nodes>{node(0, "z")}</nodes></graph></gexf>', True),
    "node_without_label": (
        f'<gexf {NS}><graph><nodes><node id="pkg.K::m"/>{node("n2")}</nodes></graph></gexf>',
        True),
    "repeated_attvalues": (
        f'<gexf {NS}><graph>{KIND}<nodes><node id="0" label="a"><attvalues>'
        '<attvalue for="0" value="first"/><attvalue for="0"/><attvalue for="0" value="last"/>'
        '<attvalue for="7" value="other"/></attvalues>'
        '<attvalues><attvalue for="0" value="ignored"/></attvalues></node></nodes>'
        '</graph></gexf>', True),
    "nested_and_foreign_elements_ignored": (
        f'<gexf {NS}><meta><graph/></meta><graph><nodes><group>{node(9, "hidden")}</group>'
        f'{node(0, "a")}<node id="1" label="b"><node id="2" label="inner"/></node></nodes>'
        '<edges><edge source="0" target="1"><edge source="0" target="9"/></edge></edges>'
        '</graph></gexf>', True),
    "misplaced_known_elements": (
        f'<gexf {NS}><nodes>{node(8, "root")}</nodes><graph defaultedgetype="directed">'
        f'{node(7, "graph")}{KIND[:-len("</attributes>")]}'
        '<attributes><attribute id="1" title="kind"/></attributes></attributes>'
        '<attribute id="1" title="kind"/><nodes><node id="0" label="a"><attvalues>'
        '<attvalue for="0" value="k"/><attvalues><attvalue for="0" value="nested"/>'
        '</attvalues></attvalues><attvalue for="0" value="outside"/></node>'
        f'<edge source="1" target="0"/>{node(1, "b")}</nodes>'
        f'<edges>{node(2, "edges")}<attvalues><attvalue for="0" value="z"/></attvalues>'
        '<edge source="0" target="1"/></edges>'
        f'<gexf><graph><nodes>{node(3, "inner")}</nodes></graph></gexf></graph></gexf>',
        True),
    "prefixed_namespace": (
        '<g:gexf xmlns:g="urn:g"><g:graph defaultedgetype="directed"><g:nodes>'
        '<g:node id="a" g:label="ignored"/><g:node id="b" label="B"/></g:nodes>'
        '<g:edges><g:edge source="a" target="b"/></g:edges></g:graph></g:gexf>', True),
    "internal_entity": (
        '<?xml version="1.0"?><!DOCTYPE gexf [<!ENTITY e "x.E">]>'
        f'<gexf><graph><nodes>{node(0, "&e;")}</nodes></graph></gexf>', True),
    "undefined_entity_with_external_subset": (
        '<?xml version="1.0"?><!DOCTYPE gexf SYSTEM "gexf.dtd">'
        '<gexf><graph><nodes><node id="0">&undefined;</node></nodes></graph></gexf>', False),
    "external_entity": (
        '<?xml version="1.0"?><!DOCTYPE gexf [<!ENTITY e SYSTEM "e.xml">]>'
        '<gexf><graph><nodes><node id="0">&e;</node></nodes></graph></gexf>', False),
    "unknown_encoding": (
        '<?xml version="1.0" encoding="no-such-codec"?><gexf><graph/></gexf>', False),
    "multi_byte_encoding": (
        '<?xml version="1.0" encoding="shift_jis"?><gexf><graph/></gexf>', False),
    "root_not_gexf": (f'<graphml><graph><nodes>{node(0, "a")}</nodes></graph></graphml>', False),
    "missing_graph": (f'<gexf {NS}><meta/></gexf>', False),
    "node_without_id": ('<gexf><graph><nodes><node label="a"/></nodes></graph></gexf>', False),
    "duplicate_label": (
        f'<gexf><graph><nodes>{node(0, "a")}{node(1, "a")}</nodes></graph></gexf>', False),
    "unknown_endpoint": (
        f'<gexf><graph><nodes>{node(0, "a")}</nodes><edges><edge source="0"/></edges>'
        '</graph></gexf>', False),
    "not_well_formed": ('<gexf><graph></gexf>', False),
    "empty": ("", False),
}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_hand_written_layouts_import_as_the_oracle_does(name, tmp_path):
    text, accepted = DOCUMENTS[name]
    path = tmp_path / f"{name}.gexf"
    path.write_text(text, encoding="utf-8")
    ours = new_outcome(path)
    assert ours == oracle_outcome(path)
    assert ours[0] == ("accepted" if accepted else "rejected")


def test_layout_semantics(tmp_path):
    """Spot checks of what the oracle comparison above takes as given."""
    def load(name):
        path = tmp_path / f"{name}.gexf"
        path.write_text(DOCUMENTS[name][0], encoding="utf-8")
        return import_gexf(path)

    g = load("undirected_default_and_edge_types")
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)]
    assert load("attributes_after_nodes").kinds == ["method", "class"]
    assert load("repeated_attvalues").kinds == ["last"]
    assert load("later_kind_declaration_wins").kinds == ["one"]
    g = load("second_graph_nodes_and_edges_ignored")
    assert (g.labels, list(g.edges())) == (["a", "b"], [(0, 1)])
    g = load("node_without_label")
    assert (g.labels, g.kinds) == (["pkg.K::m", "n2"], ["method", "class"])
    g = load("misplaced_known_elements")
    assert (g.labels, g.kinds, list(g.edges())) == (["a", "b"], ["k", "class"], [(0, 1)])
    g = load("prefixed_namespace")
    assert (g.labels, list(g.edges())) == (["a", "B"], [(0, 1)])
    with pytest.raises(GexfSchemaError, match=r"\(undefined entity &undefined;: line 1\)$"):
        load("undefined_entity_with_external_subset")


def mutate(data: bytes, rng: random.Random) -> bytes:
    """A truncation, or one or two bytes changed. Markup bytes break the
    XML or its structure; name bytes rename elements, attributes and ids."""
    if rng.random() < 0.2:
        return data[:rng.randrange(len(data))]
    out = bytearray(data)
    for _ in range(rng.randint(1, 2)):
        choices = b'<>/"=&;:!?\x00\xff\xc3' if rng.random() < 0.3 else b"01abdegx -_."
        out[rng.randrange(len(out))] = rng.choice(choices)
    return bytes(out)


def test_fuzzed_files_accepted_and_imported_exactly_as_the_oracle_does(tmp_path):
    small = tmp_path / "small.gexf"
    export_gexf(odd_labels_graph(), small)
    seeds = [small.read_bytes(),
             DOCUMENTS["second_graph_nodes_and_edges_ignored"][0].encode(),
             DOCUMENTS["repeated_attvalues"][0].encode(),
             DOCUMENTS["undirected_default_and_edge_types"][0].encode()]
    rng = random.Random(4242)
    path = tmp_path / "fuzz.gexf"
    verdicts = {"accepted": 0, "rejected": 0}
    for trial in range(3000):
        data = mutate(rng.choice(seeds), rng)
        path.write_bytes(data)
        ours = new_outcome(path)
        assert ours == oracle_outcome(path), (trial, data)
        verdicts[ours[0]] += 1
    assert min(verdicts.values()) > 300, verdicts


# -- the line reader of export_gexf's own layout ---------------------------------

GOLDEN = Path(__file__).parent / "data" / "golden_sample_graph.gexf"


@pytest.fixture
def reader_results(monkeypatch):
    """Each graph, or None, that the line reader returned, in call order."""
    results, read_layout = [], gexf._read_layout

    def counted(path):
        results.append(read_layout(path))
        return results[-1]

    monkeypatch.setattr(gexf, "_read_layout", counted)
    return results


def test_reader_is_taken_for_exported_files(tmp_path, monkeypatch):
    jar = tmp_path / "app.jar"
    jar.write_bytes(synthetic_jar(n_classes=60, seed=7))
    synthetic = tmp_path / "synthetic.gexf"
    export_gexf(build_graph(extract_archive(jar), package_prefix="app"), synthetic)
    # Labels holding every character _quoteattr escapes, and both quotes.
    odd = tmp_path / "odd.gexf"
    export_gexf(odd_labels_graph(), odd)
    for path in (synthetic, odd, GOLDEN):
        with monkeypatch.context() as patch:
            patch.setattr(gexf, "_read_layout", lambda _path: None)
            parsed = import_gexf(path)
        with monkeypatch.context() as patch:
            patch.setattr(gexf.expat, "ParserCreate", Mock(side_effect=AssertionError))
            read = import_gexf(path)
        assert read.add_vertex(read.labels[0]) == 0  # not frozen
        assert (read.labels, read.kinds) == (parsed.labels, parsed.kinds)
        for reverse in (False, True):
            for ours, theirs in zip(read.to_csr(reverse), parsed.to_csr(reverse)):
                assert np.array_equal(ours, theirs)


def test_fuzzed_exported_files_read_as_the_oracle_does(tmp_path, reader_results):
    data, rng = GOLDEN.read_bytes(), random.Random(99)
    path = tmp_path / "fuzz.gexf"
    for trial in range(1500):
        mutated = mutate(data, rng)
        path.write_bytes(mutated)
        assert new_outcome(path) == oracle_outcome(path), (trial, mutated)
    taken = sum(g is not None for g in reader_results)
    assert 0 < taken < len(reader_results) == 1500, taken


def near_layout_base() -> str:
    g = DirectedGraph()
    for a, b in (("p.A::f", "p.A"), ("p.A", "q.B"), ("q.B", "p.A::f")):
        g.add_edge_labels(a, b)
    return exported_text(g)


def exported_text(g: DirectedGraph) -> str:
    with TemporaryDirectory() as tmp:
        export_gexf(g, Path(tmp) / "g.gexf")
        return (Path(tmp) / "g.gexf").read_text(encoding="utf-8")


def isolated(*labels: str) -> DirectedGraph:
    g = DirectedGraph()
    for label in labels:
        g.add_vertex(label)
    return g


LONG_ID = "9" * 5000
NODE_BLOCK_END = "      </node>\n"
# name -> (file text from the base layout, whether the line reader takes it)
NEAR_LAYOUT = {
    "crlf": (lambda t: t.replace("\n", "\r\n"), False),
    "bom": (lambda t: "\ufeff" + t, False),
    "amp_label": (lambda t: t.replace('label="q.B"', 'label="q&amp;B"'), True),
    "escaped_clinit_label": (
        lambda t: t.replace('label="q.B"', 'label="q.B::&lt;clinit&gt;"'), True),
    "char_ref_label": (lambda t: t.replace('label="q.B"', 'label="q&#9;B&#10;"'), True),
    "single_quoted_label": (lambda t: t.replace('label="q.B"', "label='q\"B'"), True),
    "apos_ref_label": (lambda t: t.replace('label="q.B"', 'label="q&apos;B"'), False),
    "undefined_entity_label": (lambda t: t.replace('label="q.B"', 'label="q&x;B"'), False),
    "bare_amp_label": (lambda t: t.replace('label="q.B"', 'label="q&B"'), False),
    "escaped_kind": (lambda t: t.replace('value="class"', 'value="&lt;class&gt;"'), True),
    "gt_label": (lambda t: t.replace('label="q.B"', 'label="q>B"'), True),
    "control_char_label": (lambda t: t.replace('label="q.B"', 'label="q\x01B"'), False),
    "noncharacter_kind": (lambda t: t.replace('value="class"', 'value="\uffff"'), False),
    "tab_label": (lambda t: t.replace('label="q.B"', 'label="q\tB"'), False),
    "duplicate_labels": (
        lambda t: exported_text(isolated("p.A", "q.B")).replace('"q.B"', '"p.A"'), False),
    "endpoint_equal_to_n": (lambda t: t.replace('target="0"', 'target="3"'), False),
    "long_node_id_and_endpoint": (
        lambda t: t.replace('id="2"', f'id="{LONG_ID}"').replace('="2"', f'="{LONG_ID}"'),
        False),
    "long_source": (lambda t: t.replace('source="2"', f'source="{LONG_ID}"'), False),
    "long_target": (lambda t: t.replace('target="0"', f'target="{LONG_ID}"'), False),
    "leading_zero_endpoint": (lambda t: t.replace('target="0"', 'target="00"'), False),
    "whitespace_after_root": (lambda t: t + " \n", False),
    "single_line": (lambda t: t.replace("\n", ""), False),
    "label_longer_than_max_line": (
        lambda t: t.replace('label="q.B"', f'label="q.{"B" * (1 << 16)}"'), False),
    "comment_between_nodes": (
        lambda t: t.replace(NODE_BLOCK_END, NODE_BLOCK_END + "<!-- c -->\n", 1), False),
    "zero_nodes": (lambda t: exported_text(DirectedGraph()), True),
    "zero_edges": (lambda t: exported_text(isolated("p.A")), True),
}


@pytest.mark.parametrize("name", NEAR_LAYOUT)
def test_near_layout_files_read_as_the_oracle_does(name, tmp_path, reader_results):
    edit, taken = NEAR_LAYOUT[name]
    path = tmp_path / f"{name}.gexf"
    path.write_bytes(edit(near_layout_base()).encode("utf-8"))
    assert new_outcome(path) == oracle_outcome(path)
    assert [g is not None for g in reader_results] == [taken]


@pytest.mark.parametrize("newlines", ["none", "header_only"])
def test_reader_never_reads_a_file_with_few_newlines_whole(newlines, tmp_path, monkeypatch):
    # Such a file leaves the layout at its first long line, which must not
    # be read to the end of the file.
    text = exported_text(isolated(*(f"p.C{i}" for i in range(2000))))
    head = "".join(gexf._HEAD) if newlines == "header_only" else ""
    path = tmp_path / "few_newlines.gexf"
    path.write_text(head + text[len(head):].replace("\n", ""), encoding="utf-8")
    assert path.stat().st_size > 2 * gexf._MAX_LINE
    lines, real_open = [], open

    class Recorded:
        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *_exc):
            self.fh.close()

        def readline(self, size=-1):
            lines.append(self.fh.readline(size))
            return lines[-1]

        def read(self, size=-1):  # expat's
            return self.fh.read(size)

    monkeypatch.setattr(gexf, "open", Recorded, raising=False)
    assert new_outcome(path) == oracle_outcome(path)
    if newlines == "none":
        assert lines == [gexf._HEAD[0][:-1] + "<"]
    else:
        assert lines[:-1] == list(gexf._HEAD) and len(lines[-1]) == gexf._MAX_LINE
