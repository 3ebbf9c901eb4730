"""Graph serialization: GEXF 1.2 export and import.

The exporter writes a fixed, deterministic layout (nodes by id, edges
sorted by endpoints), and the importer reads only that layout, line by
line, without an XML parser. A graph from another tool enters as a
DirectedGraph built in Python and written with export_gexf.
"""
from __future__ import annotations

import re
from functools import partial

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


# The layout export_gexf writes, line by line; import_gexf reads it back.
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


def _node_lines(g: DirectedGraph, kinds: dict[str, str]):
    """Each vertex's node and kind lines, as export_gexf writes them."""
    for vid, (label, kind) in enumerate(zip(g.labels, g.kinds)):
        yield (f'      <node id="{vid}" label={_quoteattr(label)}>\n',
               f'          <attvalue for="0" value={kinds[kind]}/>\n')


# Characters that XML 1.0 cannot carry, not even as a character reference.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_vertices(g: DirectedGraph, kinds: dict[str, str], path) -> None:
    values = g.labels + g.kinds
    # _quoteattr writes a character as at most 6 (" as &quot;), so a value of
    # at most _MAX_LINE // 8 characters leaves a quarter of its line to spare.
    if (_NOT_XML.search("\n".join(values)) is None
            and max(map(len, values), default=0) <= _MAX_LINE // 8):
        return
    for vid, (label, kind, lines) in enumerate(zip(g.labels, g.kinds, _node_lines(g, kinds))):
        if bad := _NOT_XML.search(label) or _NOT_XML.search(kind):
            raise GexfSchemaError(f"{path}: vertex {vid} ({label!r}) holds "
                                  f"{bad.group()!r}, which XML 1.0 cannot carry")
        if (longest := max(map(len, lines))) > _MAX_LINE:
            raise GexfSchemaError(f"{path}: vertex {vid} (label starting {label[:40]!r}) needs a "
                                  f"line of {longest} characters; import_gexf reads {_MAX_LINE}")


def export_gexf(g: DirectedGraph, path) -> None:
    """Write ``g`` as GEXF. A label or kind that XML 1.0 cannot carry, or whose
    line import_gexf could not read back, raises GexfSchemaError before the
    file is opened."""
    kinds = {kind: _quoteattr(kind) for kind in set(g.kinds)}
    _check_vertices(g, kinds, path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_HEAD)
        for node, kind in _node_lines(g, kinds):
            fh.write(f'{node}{_ATTVALUES}{kind}{_NODE_END[0]}{_NODE_END[1]}')
        fh.writelines(_MIDDLE)
        for eid, (src, dst) in enumerate(g.edges()):
            fh.write(f'      <edge id="{eid}" source="{src}" target="{dst}"/>\n')
        fh.writelines(_TAIL)


def _off_layout(path) -> GexfSchemaError:
    return GexfSchemaError(f"{path}: not a GEXF file in the layout that 'jarnet build' writes")


def import_gexf(path) -> DirectedGraph:
    """Read a file in export_gexf's layout, line by line, into a graph.

    Any other file, even one that is valid GEXF, raises GexfSchemaError at
    the first line that leaves the layout."""
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
                raise _off_layout(path)
            while (row := line(_MAX_LINE)) != _MIDDLE[0]:
                node, vid = node_at(row), len(g.labels)
                if (node is None or node[1] != str(vid) or line(n_attvalues) != _ATTVALUES
                        or (kind := kind_at(line(_MAX_LINE))) is None
                        or line(n_end0) != _NODE_END[0] or line(n_end1) != _NODE_END[1]):
                    raise _off_layout(path)
                label = node[2][1:-1]
                if g.add_vertex(unescape(label) if "&" in label else label) != vid:
                    raise _off_layout(path)
                g.kinds[vid] = (kinds.get(kind[1])
                                or kinds.setdefault(kind[1], unescape(kind[1][1:-1])))
            if line(len(_MIDDLE[1])) != _MIDDLE[1]:
                raise _off_layout(path)
            while (row := line(_MAX_LINE)) != _TAIL[0]:
                edge = edge_at(row)
                if edge is None:
                    raise _off_layout(path)
                g.add_edge(int(edge[1]), int(edge[2]))  # IndexError: not below n
            if any(line(len(fixed)) != fixed for fixed in _TAIL[1:]) or line(1):
                raise _off_layout(path)
    except (UnicodeDecodeError, IndexError) as exc:
        raise _off_layout(path) from exc
    return g
