"""The bytes ``extract`` and ``build`` write for one fixed archive, pinned.

The digests are of ``synthetic_jar(300, seed=11)``. They were recorded
before the table writer, graph build and GEXF writer were rewritten for
speed, so any byte those rewrites change fails here.
"""
from __future__ import annotations

import hashlib

import pytest

from classfile_builder import synthetic_jar
from jarnet.cli import main

# (output file, command line with {dir} for the work directory, sha256, bytes)
STEPS = [
    ("table.csv", "extract {dir}/fixture.jar -o {dir}/table.csv",
     "021fd4fff1ca7ba74ee5b2d637f2fab2b1e4babc170a1f5a50a5c61b60ed600f", 165790),
    ("table_desc.csv", "extract {dir}/fixture.jar -o {dir}/table_desc.csv --descriptors",
     "d4161a113fb36c5cbad8b0480ac8d8ff237dc68d3e862bcaf275aeeb43ea588a", 219430),
    ("table.tsv", "extract {dir}/fixture.jar -o {dir}/table.tsv",
     "039722ac6387343af0c014215eeb9d1284336912df3eada2a78fd3fdd999358c", 165790),
    ("graph.gexf", "build {dir}/table.csv -o {dir}/graph.gexf",
     "85c0cc6efa02086db4fa806e754ae89c35a6c13f5b62901c9360b8c3e6877aa5", 586317),
    ("graph_app.gexf", "build {dir}/table.csv --prefix app -o {dir}/graph_app.gexf",
     "08c7490c549bd193d9144378c5ac17481bdf7e8fe26521b1b75057a7e1ae886e", 563395),
    ("graph_desc.gexf", "build {dir}/table_desc.csv --descriptors -o {dir}/graph_desc.gexf",
     "2c9cd6a37b73c3d63f5bac3b0402cdd186d43c898400760ba70271b29bfed728", 659440),
]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every step's output, the steps run in order in one directory."""
    work = tmp_path_factory.mktemp("ingest")
    (work / "fixture.jar").write_bytes(synthetic_jar(300, seed=11))
    for _, command, _, _ in STEPS:
        assert main([arg.format(dir=work) for arg in command.split()]) == 0
    return {name: (work / name).read_bytes() for name, _, _, _ in STEPS}


@pytest.mark.parametrize("name, sha256, size", [(n, h, b) for n, _, h, b in STEPS],
                         ids=[step[0] for step in STEPS])
def test_ingest_output_bytes_are_pinned(outputs, name, sha256, size):
    data = outputs[name]
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)
