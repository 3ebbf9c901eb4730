"""The readers free what they parse when they return.

A reference cycle in a reader keeps its whole parse alive until the next
full garbage collection, which a run of ``analyze`` may never reach. So
each reader must leave nothing for the cycle collector.
"""
from __future__ import annotations

import gc

import pytest

from jarnet.extractor import extract_archive
from jarnet.gexf import export_gexf, import_gexf
from jarnet.graph import build_graph
from jarnet.names import read_relation_table, write_relation_table


@pytest.fixture(scope="module")
def inputs(medium_jar, tmp_path_factory):
    """The 60-class archive with its relation table and GEXF graph."""
    folder = tmp_path_factory.mktemp("readers")
    table = extract_archive(medium_jar)
    write_relation_table(table, folder / "relations.csv")
    export_gexf(build_graph(table, package_prefix="app"), folder / "graph.gexf")
    return {extract_archive: medium_jar,
            read_relation_table: folder / "relations.csv",
            import_gexf: folder / "graph.gexf"}


@pytest.mark.parametrize("reader", [extract_archive, read_relation_table, import_gexf],
                         ids=lambda reader: reader.__name__)
def test_reader_leaves_no_cyclic_garbage(reader, inputs):
    gc.collect()
    gc.disable()
    try:
        result = reader(inputs[reader])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert result is not None


def test_first_csr_read_leaves_no_cyclic_garbage(inputs):
    """The first CSR read drops the graph's construction indices; they must
    go at once, not wait for the cycle collector."""
    gc.collect()
    gc.disable()
    try:
        import_gexf(inputs[import_gexf]).to_csr()
        assert gc.collect() == 0
    finally:
        gc.enable()
