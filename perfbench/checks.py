"""Output checks: digests and a networkx oracle for jarnet reports.

The oracle reads the GEXF with ElementTree rather than jarnet's importer,
so a fault in jarnet's reader cannot hide a fault in its analysis.
"""
from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET

import networkx as nx

REL = 1e-9      # same arithmetic up to summation order
PR_REL = 1e-4   # two power iterations that stop at different residuals


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_gexf(path):
    """Directed networkx graph keyed by vertex label."""
    g = nx.DiGraph()
    labels = {}
    for el in ET.parse(path).getroot().iter():
        tag = el.tag.rpartition("}")[2]
        if tag == "node":
            labels[el.get("id")] = el.get("label")
            g.add_node(el.get("label"))
        elif tag == "edge":
            g.add_edge(labels[el.get("source")], labels[el.get("target")])
    return g


def _projection(g):
    """Undirected simple graph of g without self-loops, as jarnet projects it."""
    u = g.to_undirected(as_view=False)
    u.remove_edges_from(list(nx.selfloop_edges(u)))
    return u


def _path_average(g) -> float:
    total = pairs = 0
    for source, dists in nx.all_pairs_shortest_path_length(g):
        for target, d in dists.items():
            if target != source:
                total += d
                pairs += 1
    return total / pairs if pairs else 0.0


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel * 1e-3)


def _check_ranking(rows, scores: dict, rel: float, what: str) -> list[str]:
    """Reported scores match the oracle's, label by label and rank by rank."""
    problems = []
    best = sorted(scores.values(), reverse=True)[:len(rows)]
    for row, expected in zip(rows, best):
        if not _close(row["score"], scores[row["label"]], rel):
            problems.append(f"{what} score of {row['label']}: "
                            f"{row['score']} vs {scores[row['label']]}")
        if not _close(row["score"], expected, rel):
            problems.append(f"{what} rank {row['rank']}: {row['score']} vs {expected}")
    return problems


def oracle(gexf_path, report: dict, exact_paths: bool) -> list[str]:
    """Differences between a report and networkx on the same graph."""
    g = read_gexf(gexf_path)
    proj = _projection(g)
    summary = report["summary"]
    problems = []
    if summary["vertices"] != g.number_of_nodes():
        problems.append(f"vertices {summary['vertices']} vs {g.number_of_nodes()}")
    if summary["edges"] != g.number_of_edges():
        problems.append(f"edges {summary['edges']} vs {g.number_of_edges()}")
    clustering = nx.average_clustering(proj)
    if not _close(summary["clustering"], clustering, REL):
        problems.append(f"clustering {summary['clustering']} vs {clustering}")
    count = nx.number_connected_components(proj)
    if summary["components"]["count"] != count:
        problems.append(f"components {summary['components']['count']} vs {count}")
    pagerank = nx.pagerank(g, alpha=0.85, tol=1e-12, max_iter=1000)
    problems += _check_ranking(report["rankings"]["pagerank"], pagerank,
                               PR_REL, "pagerank")
    if exact_paths:
        for mode, graph in (("directed", g), ("undirected", proj)):
            got = summary["paths"][mode]["average"]
            want = _path_average(graph)
            if not _close(got, want, REL):
                problems.append(f"{mode} path average {got} vs {want}")
        between = nx.betweenness_centrality(g, normalized=False)
        problems += _check_ranking(report["rankings"]["betweenness"], between,
                                   REL, "betweenness")
    return problems
