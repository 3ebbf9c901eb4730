"""The ElementTree GEXF importer that the streaming expat
``jarnet.gexf.import_gexf`` replaced, kept as an oracle.

It builds the whole element tree, then reads the first ``<graph>`` child
of the root, its ``<attributes>`` blocks and its first ``<nodes>`` and
``<edges>`` blocks. The replacement must accept exactly the files this
code accepts and return equal labels, kinds and edges.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET

from jarnet.errors import GexfSchemaError
from jarnet.graph import DirectedGraph


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def _find_child(element, name):
    for child in element:
        if _local(child.tag) == name:
            return child
    return None


def _iter_children(element, name):
    for child in element:
        if _local(child.tag) == name:
            yield child


def import_gexf(path) -> DirectedGraph:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise GexfSchemaError(f"{path}: not parseable XML ({exc})") from exc
    if _local(root.tag) != "gexf":
        raise GexfSchemaError(f"{path}: root element is not <gexf>")
    graph_el = _find_child(root, "graph")
    if graph_el is None:
        raise GexfSchemaError(f"{path}: missing <graph> element")
    directed = graph_el.get("defaultedgetype", "undirected") == "directed"

    kind_attr_id = None
    for attrs in _iter_children(graph_el, "attributes"):
        if attrs.get("class", "node") != "node":
            continue
        for attr in _iter_children(attrs, "attribute"):
            if attr.get("title") == "kind":
                kind_attr_id = attr.get("id")

    g = DirectedGraph()
    id_map: dict[str, int] = {}
    nodes_el = _find_child(graph_el, "nodes")
    for node in _iter_children(nodes_el, "node") if nodes_el is not None else ():
        node_id = node.get("id")
        if node_id is None:
            raise GexfSchemaError(f"{path}: node without id")
        if node_id in id_map:
            raise GexfSchemaError(f"{path}: duplicate node id {node_id!r}")
        label = node.get("label", node_id)
        vid = g.add_vertex(label)
        if vid != len(id_map):
            raise GexfSchemaError(f"{path}: duplicate node label {label!r}")
        id_map[node_id] = vid
        if kind_attr_id is not None:
            attvalues = _find_child(node, "attvalues")
            for attvalue in _iter_children(attvalues, "attvalue") if attvalues is not None else ():
                if attvalue.get("for") == kind_attr_id:
                    g.kinds[vid] = attvalue.get("value", g.kinds[vid])

    edges_el = _find_child(graph_el, "edges")
    for edge in _iter_children(edges_el, "edge") if edges_el is not None else ():
        src_id, dst_id = edge.get("source"), edge.get("target")
        if src_id not in id_map or dst_id not in id_map:
            raise GexfSchemaError(f"{path}: edge references unknown node "
                                  f"({src_id!r} -> {dst_id!r})")
        src, dst = id_map[src_id], id_map[dst_id]
        edge_type = edge.get("type")
        edge_directed = directed if edge_type is None else edge_type == "directed"
        g.add_edge(src, dst)
        if not edge_directed:
            g.add_edge(dst, src)
    return g
