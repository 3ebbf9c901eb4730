"""Graph serialization: GEXF 1.2 export and import.

The exporter writes a fixed, deterministic layout (nodes by id, edges
sorted by endpoints). The importer accepts any GEXF with node/edge
elements, resolving the "kind" node attribute when declared and deriving
it from the label separator otherwise.
"""
from __future__ import annotations

import re
from xml.parsers import expat

from .errors import GexfSchemaError
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


# The local name of each element import_gexf takes, mapped to the local name
# of the element it must sit in ("" for the document). An element counts
# only when its parent counted and is the one listed here; any other element
# is parsed and ignored with all it contains. Of <gexf>, <graph>, <nodes>,
# <edges> and a node's <attvalues> only the first counts, and an
# <attributes> block counts only for class "node".
_PARENT = {"edge": "edges", "attvalue": "attvalues", "node": "nodes",
           "attvalues": "node", "attribute": "attributes", "attributes": "graph",
           "nodes": "graph", "edges": "graph", "graph": "gexf", "gexf": ""}


def import_gexf(path) -> DirectedGraph:
    """Read a GEXF file into a graph, streaming it through expat.

    Node ids map to vertices in document order; a node without a label is
    labelled by its id. Its kind is the value of the ``kind`` node
    attribute if one is declared, wherever the declaration sits in the
    graph, and is derived from the label otherwise. Undirected edges add
    both directions.
    """
    stack = [""]  # local name of each open element that counts, else False
    first = {}    # local name -> attributes of the counted <gexf>, <graph>, ...
    kind_attr_id = None
    nodes = []   # (id, label)
    values = []  # (node index, for, value) of each attvalue
    edges = []   # (source, target, type)

    def start(name, attrs):
        nonlocal kind_attr_id
        local = name.rpartition("}")[2]
        if _PARENT.get(local) != stack[-1]:
            local = False
        elif local == "edge":
            edges.append((attrs.get("source"), attrs.get("target"), attrs.get("type")))
        elif local == "attvalue":
            values.append((len(nodes) - 1, attrs.get("for"), attrs.get("value")))
        elif local == "node":
            nodes.append((attrs.get("id"), attrs.get("label")))
            first.pop("attvalues", None)
        elif local == "attribute":
            if attrs.get("title") == "kind":
                kind_attr_id = attrs.get("id")
        elif local == "attributes":
            if attrs.get("class", "node") != "node":
                local = False
        elif local in first:
            local = False
        else:
            first[local] = attrs
        stack.append(local)

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
    if "gexf" not in first:
        raise GexfSchemaError(f"{path}: root element is not <gexf>")
    if "graph" not in first:
        raise GexfSchemaError(f"{path}: missing <graph> element")
    directed = first["graph"].get("defaultedgetype", "undirected") == "directed"

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
