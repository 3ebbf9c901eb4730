"""Graph serialization: GEXF 1.2 export/import and plain edge lists.

The exporter writes a fixed, deterministic layout (nodes by id, edges
sorted by endpoints). The importer accepts any GEXF with node/edge
elements, resolving the "kind" node attribute when declared and deriving
it from the label separator otherwise.
"""
from __future__ import annotations

import re
from pathlib import Path
from xml.parsers import expat

from .errors import EdgeListParseError, GexfSchemaError
from .graph import DirectedGraph

_NS = "http://www.gexf.net/1.2draft"

_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                               "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def _quoteattr(text: str) -> str:
    """Quote an attribute value as ``xml.sax.saxutils.quoteattr`` does.

    That module imports ``urllib.request`` and with it ``http.client`` and
    ``email``, which every CLI start would pay for.
    """
    text = text.translate(_ATTR_ESCAPES)
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


# Characters that XML 1.0 cannot carry, not even as a character reference.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_xml_chars(g: DirectedGraph, path) -> None:
    if _NOT_XML.search("\n".join(g.labels + g.kinds)) is None:
        return
    for vid, (label, kind) in enumerate(zip(g.labels, g.kinds)):
        bad = _NOT_XML.search(label) or _NOT_XML.search(kind)
        if bad:
            raise GexfSchemaError(f"{path}: vertex {vid} ({label!r}) holds "
                                  f"{bad.group()!r}, which XML 1.0 cannot carry")


def export_gexf(g: DirectedGraph, path) -> None:
    """Write ``g`` as GEXF; a label or kind that XML 1.0 cannot carry
    raises GexfSchemaError before the file is opened."""
    _check_xml_chars(g, path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        fh.write(f'<gexf xmlns="{_NS}" version="1.2">\n')
        fh.write('  <graph mode="static" defaultedgetype="directed">\n')
        fh.write('    <attributes class="node">\n')
        fh.write('      <attribute id="0" title="kind" type="string"/>\n')
        fh.write('    </attributes>\n')
        fh.write('    <nodes>\n')
        for vid, label in enumerate(g.labels):
            fh.write(f'      <node id="{vid}" label={_quoteattr(label)}>\n')
            fh.write('        <attvalues>\n')
            fh.write(f'          <attvalue for="0" value={_quoteattr(g.kinds[vid])}/>\n')
            fh.write('        </attvalues>\n')
            fh.write('      </node>\n')
        fh.write('    </nodes>\n')
        fh.write('    <edges>\n')
        for eid, (src, dst) in enumerate(g.edges()):
            fh.write(f'      <edge id="{eid}" source="{src}" target="{dst}"/>\n')
        fh.write('    </edges>\n')
        fh.write('  </graph>\n')
        fh.write('</gexf>\n')


# Where an element sits, which decides what import_gexf takes from it. Only
# the first <graph> child of the root counts, and in it every node-class
# <attributes> block but only the first <nodes> and <edges>; in a node, only
# the first <attvalues>. Everything else is parsed and ignored.
_IGNORED, _DOCUMENT, _ROOT, _GRAPH, _ATTRIBUTES, _NODES, _EDGES, _NODE, _ATTVALUES = range(9)


def import_gexf(path) -> DirectedGraph:
    """Read a GEXF file into a graph, streaming it through expat.

    Node ids map to vertices in document order; a node without a label is
    labelled by its id. Its kind is the value of the ``kind`` node
    attribute if one is declared, wherever the declaration sits in the
    graph, and is derived from the label otherwise. Undirected edges add
    both directions.
    """
    stack = [_DOCUMENT]
    root_name = None
    graph_attrs = None
    seen_nodes = seen_edges = seen_attvalues = False
    kind_attr_id = None
    nodes = []   # (id, label)
    values = []  # (node index, for, value) of each attvalue
    edges = []   # (source, target, type)

    def start(name, attrs):
        nonlocal root_name, graph_attrs, seen_nodes, seen_edges, seen_attvalues
        nonlocal kind_attr_id
        parent = stack[-1]
        local = name.rpartition("}")[2]
        child = _IGNORED
        if parent == _NODES:
            if local == "node":
                child = _NODE
                seen_attvalues = False
                nodes.append((attrs.get("id"), attrs.get("label")))
        elif parent == _EDGES:
            if local == "edge":
                edges.append((attrs.get("source"), attrs.get("target"), attrs.get("type")))
        elif parent == _ATTVALUES:
            if local == "attvalue":
                values.append((len(nodes) - 1, attrs.get("for"), attrs.get("value")))
        elif parent == _NODE:
            if local == "attvalues" and not seen_attvalues:
                child = _ATTVALUES
                seen_attvalues = True
        elif parent == _GRAPH:
            if local == "attributes":
                if attrs.get("class", "node") == "node":
                    child = _ATTRIBUTES
            elif local == "nodes" and not seen_nodes:
                child = _NODES
                seen_nodes = True
            elif local == "edges" and not seen_edges:
                child = _EDGES
                seen_edges = True
        elif parent == _ATTRIBUTES:
            if local == "attribute" and attrs.get("title") == "kind":
                kind_attr_id = attrs.get("id")
        elif parent == _ROOT:
            if local == "graph" and graph_attrs is None:
                child = _GRAPH
                graph_attrs = attrs
        elif parent == _DOCUMENT:
            root_name = local
            if local == "gexf":
                child = _ROOT
        stack.append(child)

    def end(_name):
        stack.pop()

    def skipped_entity(name, is_parameter_entity):
        if not is_parameter_entity:
            raise GexfSchemaError(f"{path}: not parseable XML (undefined entity "
                                  f"&{name};: line {parser.CurrentLineNumber})")

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    # Like ElementTree, reject a reference in content to an entity that is
    # undeclared or external instead of dropping it.
    parser.SkippedEntityHandler = skipped_entity
    parser.ExternalEntityRefHandler = lambda *_ids: 0
    with open(path, "rb") as fh:
        try:
            parser.ParseFile(fh)
        # An unknown or multi-byte encoding declaration raises LookupError
        # or ValueError.
        except (expat.ExpatError, LookupError, ValueError) as exc:
            raise GexfSchemaError(f"{path}: not parseable XML ({exc})") from exc
    if root_name != "gexf":
        raise GexfSchemaError(f"{path}: root element is not <gexf>")
    if graph_attrs is None:
        raise GexfSchemaError(f"{path}: missing <graph> element")
    directed = graph_attrs.get("defaultedgetype", "undirected") == "directed"

    g = DirectedGraph()
    id_map: dict[str, int] = {}
    for node_id, label in nodes:
        if node_id is None:
            raise GexfSchemaError(f"{path}: node without id")
        if node_id in id_map:
            raise GexfSchemaError(f"{path}: duplicate node id {node_id!r}")
        if label is None:
            label = node_id
        vid = g.add_vertex(label)
        if vid != len(id_map):
            raise GexfSchemaError(f"{path}: duplicate node label {label!r}")
        id_map[node_id] = vid
    if kind_attr_id is not None:
        for vid, attr_id, value in values:
            if attr_id == kind_attr_id and value is not None:
                g.kinds[vid] = value

    for src_id, dst_id, edge_type in edges:
        if src_id not in id_map or dst_id not in id_map:
            raise GexfSchemaError(f"{path}: edge references unknown node "
                                  f"({src_id!r} -> {dst_id!r})")
        src, dst = id_map[src_id], id_map[dst_id]
        g.add_edge(src, dst)
        if not (directed if edge_type is None else edge_type == "directed"):
            g.add_edge(dst, src)
    return g


def export_edge_list(g: DirectedGraph, path) -> None:
    """Two space-separated label columns per edge, sorted by vertex id."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for src, dst in g.edges():
            a, b = g.labels[src], g.labels[dst]
            if " " in a or " " in b:
                raise ValueError(f"labels with spaces cannot be edge-listed: {a!r}, {b!r}")
            fh.write(f"{a} {b}\n")


def import_edge_list(path, directed: bool = True) -> DirectedGraph:
    """Parse "src dst" lines; '#' starts a comment; blank lines are skipped."""
    g = DirectedGraph()
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListParseError(lineno, f"expected 2 columns, got {len(parts)}")
            g.add_edge_labels(parts[0], parts[1])
            if not directed:
                g.add_edge_labels(parts[1], parts[0])
    return g
