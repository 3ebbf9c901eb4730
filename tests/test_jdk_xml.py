"""Extraction, graph build and clustering on real ``javac`` output.

The fixture is the ``java.xml`` module of Debian's OpenJDK 17 package, read
in place: a jmod is a ZIP behind a 4-byte header, which ``zipfile`` skips. It
has switches, ``wide`` and Long, Double, MethodHandle, MethodType and
InvokeDynamic constants, none of which ``synthetic_jar`` emits. The module is
not Hibernate: these figures are never criterion 7's. Skipped unless the file
is there with the pinned hash.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import networkx as nx
import pytest

import classfile_oracle as oracle
from jarnet.classfile import parse_class
from jarnet.extractor import extract_archive, extract_calls, open_archive
from jarnet.graph import build_graph
from jarnet.metrics import avg_clustering
from jarnet.names import ExtractStats, UnitKind, read_relation_table, write_relation_table

JMOD = Path("/usr/lib/jvm/java-17-openjdk-amd64/jmods/java.xml.jmod")
SHA256 = "b483fa71e01127971754c7a903afa86de06e843e272b9a2768724a39e0c355d5"

pytestmark = pytest.mark.skipif(
    not (JMOD.is_file() and hashlib.sha256(JMOD.read_bytes()).hexdigest() == SHA256),
    reason=f"needs {JMOD} (Debian OpenJDK 17.0.15) with sha256 {SHA256}")


@pytest.fixture(scope="module")
def table():
    return extract_archive(JMOD)


def test_every_class_extracts_as_the_oracle_does(table):
    records, stats, classes = [], ExtractStats(), 0
    for entry, data in open_archive(JMOD):
        ours = extract_calls(parse_class(data, entry))
        assert ours == oracle.extract_calls(oracle.parse_class(data, entry)), entry
        records.extend(ours[0])
        stats.merge(ours[1])
        classes += 1
    assert classes == table.stats.entries_scanned == 2218
    assert records == table.records
    assert stats == table.stats


def test_extraction_is_deterministic(table):
    assert extract_archive(JMOD).records == table.records


def test_table_round_trips_with_and_without_descriptors(table, tmp_path):
    # Every descriptor javac wrote is well-formed, so parsing splits off each one.
    path = tmp_path / "table.csv"
    write_relation_table(table, path, with_descriptors=True)
    assert read_relation_table(path).records == table.records
    write_relation_table(table, path)
    plain = [record._replace(caller=record.caller._replace(descriptor=None),
                             callee=record.callee._replace(descriptor=None))
             for record in table.records]
    assert read_relation_table(path).records == plain
    assert sum(record.callee.descriptor is not None for record in table.records) > 40000


def digraph_by_the_rules(table) -> nx.DiGraph:
    """build_graph's construction rules, with no prefix and no descriptors."""
    want = nx.DiGraph()
    for record in table.records:
        caller, callee = record.caller.render(), record.callee.render()
        if record.caller_kind is UnitKind.CLASS:
            want.add_edge(caller, callee)
            continue
        callee_class = record.callee.class_name
        want.add_edge(caller, callee_class)
        same_class = record.caller.class_name == callee_class
        want.add_edge(caller if same_class else callee_class, callee)
    return want


def test_graph_and_clustering_match_networkx(table):
    g, want = build_graph(table), digraph_by_the_rules(table)
    assert (g.n, g.m) == (want.number_of_nodes(), want.number_of_edges()) == (21257, 56847)
    assert set(g.labels) == set(want)
    assert {(g.labels[u], g.labels[v]) for u, v in g.edges()} == set(want.edges)
    undirected = nx.Graph(want)
    undirected.remove_edges_from(list(nx.selfloop_edges(undirected)))
    local = nx.clustering(undirected)
    # Summed in vertex order, as avg_clustering sums.
    assert avg_clustering(g) == sum(local[label] for label in g.labels) / g.n
