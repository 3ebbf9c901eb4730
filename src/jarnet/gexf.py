"""Graph serialization: GEXF 1.2 export and import.

The exporter writes a fixed, deterministic layout (nodes by id, edges
sorted by endpoints). The importer reads that layout line by line, without
an XML parser, and any other GEXF with node/edge elements through expat,
resolving the "kind" node attribute when declared and deriving it from the
label separator otherwise.
"""
from __future__ import annotations

import re
from functools import partial
from xml.parsers import expat

from .errors import GexfSchemaError
from .graph import DirectedGraph

__all__ = ["export_gexf", "import_gexf"]

_NS = "http://www.gexf.net/1.2draft"

_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                               "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})
# Each reference _quoteattr writes, mapped to the character it stands for.
_UNESCAPES = {ref: chr(c) for c, ref in _ATTR_ESCAPES.items()} | {"&quot;": '"'}
# The characters _quoteattr changes; a value with none is only wrapped in "".
_CHANGED = frozenset(map(chr, _ATTR_ESCAPES)) | {'"'}


def _quoteattr(text: str) -> str:
    """Quote an attribute value as ``xml.sax.saxutils.quoteattr`` does.

    That module imports ``urllib.request`` and with it ``http.client`` and
    ``email``, which every CLI start would pay for.
    """
    if _CHANGED.isdisjoint(text):  # most labels: no translate call
        return f'"{text}"'
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


# The layout export_gexf writes, line by line; _read_layout reads it back.
_HEAD = ('<?xml version="1.0" encoding="UTF-8"?>\n',
         f'<gexf xmlns="{_NS}" version="1.2">\n',
         '  <graph mode="static" defaultedgetype="directed">\n',
         '    <attributes class="node">\n',
         '      <attribute id="0" title="kind" type="string"/>\n',
         '    </attributes>\n',
         '    <nodes>\n')
_ATTVALUES = '        <attvalues>\n'
_NODE_END = ('        </attvalues>\n', '      </node>\n')
_MIDDLE = ('    </nodes>\n', '    <edges>\n')
_TAIL = ('    </edges>\n', '  </graph>\n', '</gexf>\n')
_MAX_LINE = 1 << 16  # characters; a longer node, kind or edge line leaves the layout
# Compiled at first use. A quoted value as _quoteattr writes it: no CR, LF,
# tab, < or character XML 1.0 cannot carry, and & only in a reference it
# writes. An endpoint has no leading zero and at most 10 digits.
_REF = "|".join(map(re.escape, _UNESCAPES))
_IN_DOUBLE = '[^\x00-\x1f"&<\ud800-\udfff\ufffe\uffff]*'
_IN_SINGLE = "[^\x00-\x1f'&<\ud800-\udfff\ufffe\uffff]*"
_TEXT = (f'("{_IN_DOUBLE}(?:(?:{_REF}){_IN_DOUBLE})*"'
         f"|'{_IN_SINGLE}(?:(?:{_REF}){_IN_SINGLE})*')")
_NODE = f'      <node id="([0-9]+)" label={_TEXT}>\n'
_KIND = f'          <attvalue for="0" value={_TEXT}/>\n'
_EDGE = '      <edge id="[0-9]+" source="(0|[1-9][0-9]{0,9})" target="(0|[1-9][0-9]{0,9})"/>\n'


def export_gexf(g: DirectedGraph, path) -> None:
    """Write ``g`` as GEXF; a label or kind that XML 1.0 cannot carry
    raises GexfSchemaError before the file is opened."""
    _check_xml_chars(g, path)
    kinds = {kind: _quoteattr(kind) for kind in set(g.kinds)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_HEAD)
        for vid, (label, kind) in enumerate(zip(g.labels, g.kinds)):
            fh.write(f'      <node id="{vid}" label={_quoteattr(label)}>\n{_ATTVALUES}'
                     f'          <attvalue for="0" value={kinds[kind]}/>\n'
                     f'{_NODE_END[0]}{_NODE_END[1]}')
        fh.writelines(_MIDDLE)
        for eid, (src, dst) in enumerate(g.edges()):
            fh.write(f'      <edge id="{eid}" source="{src}" target="{dst}"/>\n')
        fh.writelines(_TAIL)


def _read_layout(path) -> DirectedGraph | None:
    """A file in export_gexf's layout, read line by line; None once a line leaves it."""
    g, kinds = DirectedGraph(), {}  # quoted kind -> the one string kept for it
    node_at, kind_at, edge_at = (re.compile(p).fullmatch for p in (_NODE, _KIND, _EDGE))
    unescape = partial(re.compile(_REF).sub, lambda ref: _UNESCAPES[ref[0]])
    n_attvalues, n_end0, n_end1 = map(len, (_ATTVALUES, *_NODE_END))
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            line = fh.readline
            # A fixed line is read no further than its length and any other no
            # further than _MAX_LINE, so a file with few newlines leaves the
            # layout without being read whole.
            if any(line(len(fixed)) != fixed for fixed in _HEAD):
                return None
            while (row := line(_MAX_LINE)) != _MIDDLE[0]:
                node, vid = node_at(row), len(g.labels)
                if (node is None or node[1] != str(vid) or line(n_attvalues) != _ATTVALUES
                        or (kind := kind_at(line(_MAX_LINE))) is None
                        or line(n_end0) != _NODE_END[0] or line(n_end1) != _NODE_END[1]):
                    return None
                label = node[2][1:-1]
                if g.add_vertex(unescape(label) if "&" in label else label) != vid:
                    return None
                g.kinds[vid] = (kinds.get(kind[1])
                                or kinds.setdefault(kind[1], unescape(kind[1][1:-1])))
            if line(len(_MIDDLE[1])) != _MIDDLE[1]:
                return None
            while (row := line(_MAX_LINE)) != _TAIL[0]:
                edge = edge_at(row)
                if edge is None:
                    return None
                g.add_edge(int(edge[1]), int(edge[2]))  # IndexError: not below n
            if any(line(len(fixed)) != fixed for fixed in _TAIL[1:]) or line(1):
                return None
    except (UnicodeDecodeError, IndexError):
        return None
    return g


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
    """Read a GEXF file into a graph; expat parses a file outside export_gexf's layout.

    Node ids map to vertices in document order; a node without a label is
    labelled by its id. Its kind is the value of the ``kind`` node
    attribute if one is declared, wherever the declaration sits in the
    graph, and is derived from the label otherwise. Undirected edges add
    both directions. Malformed XML is reported even after a bad node.
    """
    g = _read_layout(path)
    if g is not None:
        return g
    g = DirectedGraph()
    stack = [""]  # local name of each open element that counts, else False
    first = {}    # local name -> attributes of the counted <gexf>, <graph>, ...
    ids = {}      # node id -> vertex
    kinds = {}    # kind value -> the one string object kept for it
    kind_attr_id = None
    default_type = "undirected"  # set when the counted <graph> starts
    values = []   # (vertex, for, value) of each attvalue
    pending = []  # (source, target, both ways) of each edge naming a node not yet seen
    fault = []    # the first bad node's message; nothing counts after it
    local_names = {}  # expat name -> its local name
    add_edge = g.add_edge

    def start(name, attrs):
        nonlocal kind_attr_id, default_type
        local = local_names.get(name) or local_names.setdefault(name, name.rpartition("}")[2])
        if fault or _PARENT.get(local) != stack[-1]:
            local = False
        elif local == "edge":
            src_id, dst_id = attrs.get("source"), attrs.get("target")
            both_ways = attrs.get("type", default_type) != "directed"
            src, dst = ids.get(src_id), ids.get(dst_id)
            if src is None or dst is None:
                pending.append((src_id, dst_id, both_ways))
            else:
                add_edge(src, dst)
                if both_ways:
                    add_edge(dst, src)
        elif local == "attvalue":
            value = attrs.get("value")
            values.append((len(ids) - 1, attrs.get("for"), kinds.setdefault(value, value)))
        elif local == "node":
            node_id = attrs.get("id")
            label = attrs.get("label", node_id)
            if node_id is None:
                fault.append("node without id")
            elif node_id in ids:
                fault.append(f"duplicate node id {node_id!r}")
            elif g.add_vertex(label) != len(ids):
                fault.append(f"duplicate node label {label!r}")
            else:
                ids[node_id] = len(ids)
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
            if local == "graph":
                default_type = attrs.get("defaultedgetype", default_type)
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
        finally:
            # The handler reads the parser, which holds it: break that cycle, or
            # the parse stays alive until the next full garbage collection.
            parser.SkippedEntityHandler = None
    if "gexf" not in first:
        raise GexfSchemaError(f"{path}: root element is not <gexf>")
    if "graph" not in first:
        raise GexfSchemaError(f"{path}: missing <graph> element")
    if fault:
        raise GexfSchemaError(f"{path}: {fault[0]}")
    if kind_attr_id is not None:
        for vid, attr_id, value in values:
            if attr_id == kind_attr_id and value is not None:
                g.kinds[vid] = value
    for src_id, dst_id, both_ways in pending:
        if src_id not in ids or dst_id not in ids:
            raise GexfSchemaError(f"{path}: edge references unknown node "
                                  f"({src_id!r} -> {dst_id!r})")
        add_edge(ids[src_id], ids[dst_id])
        if both_ways:
            add_edge(ids[dst_id], ids[src_id])
    return g
