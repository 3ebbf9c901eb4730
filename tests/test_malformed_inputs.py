"""Outside files that cannot be read end in exit 2, seeded byte mutations of
each pipeline input end in exit 0 or 2, and a GEXF graph with any node kind
survives an export and import."""
from __future__ import annotations

import io
import random
import zipfile

import pytest

from classfile_builder import make_jar, synthetic_jar
from jarnet.gexf import export_gexf, import_gexf
from jarnet.graph import DirectedGraph

from test_classfile import BAD_HEADER_INDEXES, with_header
from test_report_cli import run


@pytest.mark.parametrize("content", [
    pytest.param(b'{"format": "jarnet-analysis/1", "x": "\xff"}', id="not-utf8"),
    pytest.param(b"[" * 200_000 + b"]" * 200_000, id="deep-nesting"),
    pytest.param(b'{"x": ' + b"1" * 5000 + b"}", id="long-integer"),
])
def test_report_unreadable_file_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "report.json"
    bad.write_bytes(content)
    code, _, err = run(["report", str(bad)], capsys)
    assert code == 2
    assert f"{bad}: not a valid report file" in err
    assert "internal error" not in err


def test_build_table_not_utf8_exits_2(tmp_path, capsys):
    table = tmp_path / "rel.csv"
    table.write_bytes(b"caller_kind,caller,callee_kind,callee\n"
                      b"M,a.B::foo,M,c.D::b\xe9r\n")
    code, _, err = run(["build", str(table), "-o", str(tmp_path / "g.gexf")], capsys)
    assert code == 2
    assert f"{table}: not UTF-8 text" in err
    assert "internal error" not in err


def patched_zip(patch) -> bytes:
    """A one-entry zip whose central-directory header is edited by
    ``patch(data, at)``, ``at`` being the offset of its ``PK\\x01\\x02``."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("p/A.class", b"\xca\xfe\xba\xbe")
    data = bytearray(buffer.getvalue())
    patch(data, data.index(b"PK\x01\x02"))
    return bytes(data)


def version_150(data, at):
    data[at + 6:at + 8] = (150).to_bytes(2, "little")  # version needed: 15.0


def name_not_utf8(data, at):
    flags = int.from_bytes(data[at + 8:at + 10], "little") | 0x800  # name is UTF-8
    data[at + 8:at + 10] = flags.to_bytes(2, "little")
    data[at + 46] = 0xFF  # first byte of the name


@pytest.mark.parametrize("patch", [version_150, name_not_utf8])
@pytest.mark.parametrize("mode", [[], ["--tolerant"]], ids=["strict", "tolerant"])
def test_extract_unopenable_zip_directory_exits_2(tmp_path, capsys, patch, mode):
    jar = tmp_path / "bad.jar"
    jar.write_bytes(patched_zip(patch))
    code, _, err = run(["extract", str(jar), "-o", str(tmp_path / "rel.csv"), *mode], capsys)
    assert code == 2
    assert f"error: {jar}: " in err
    assert "internal error" not in err


@pytest.mark.parametrize("edit", BAD_HEADER_INDEXES.values(), ids=BAD_HEADER_INDEXES)
def test_extract_bad_header_index_exits_2(tmp_path, capsys, edit):
    jar = tmp_path / "bad.jar"
    jar.write_bytes(make_jar([("p/T.class", with_header(edit))]))
    code, _, err = run(["extract", str(jar), "-o", str(tmp_path / "rel.csv")], capsys)
    assert code == 2
    assert "error: p/T.class: " in err
    assert "internal error" not in err


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one to three bytes flipped, deleted, inserted or
    duplicated, at seeded places."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("flip", "delete", "insert", "duplicate"))
        at = rng.randrange(len(data) + (op == "insert"))
        if op == "flip":
            data[at] ^= 1 << rng.randrange(8)
        elif op == "delete":
            del data[at]
        elif op == "insert":
            data.insert(at, rng.randrange(256))
        else:
            data.insert(at, data[at])
    return bytes(data)


# step -> (its input file, its other arguments); the command is the step's
# name up to any "-". Each input is written by the step before it, from
# synthetic_jar(8, seed=3).
MUTATED_STEPS = {
    "extract": ("app.jar", []),
    "extract-tolerant": ("app.jar", ["--tolerant"]),
    "build": ("rel.csv", []),
    "analyze": ("graph.gexf", ["--replicates", "1"]),
    "report-table": ("report.json", []),
    "report-csv": ("report.json", ["--format", "csv"]),
}


@pytest.mark.parametrize("step", MUTATED_STEPS)
def test_mutated_inputs_exit_0_or_2(tmp_path, capsys, step):
    name, extra = MUTATED_STEPS[step]
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "app.jar").write_bytes(synthetic_jar(8, seed=3))
    for command, source, target, *rest in (
            ("extract", "app.jar", "rel.csv"),
            ("build", "rel.csv", "graph.gexf"),
            ("analyze", "graph.gexf", "report.json", "--replicates", "1")):
        argv = [command, str(clean / source), "-o", str(clean / target), *rest]
        assert run(argv, capsys)[0] == 0
    data = (clean / name).read_bytes()
    mutant, out = tmp_path / name, str(tmp_path / "out")
    for i in range(60):
        mutant.write_bytes(mutate(data, random.Random(f"{step}/{i}")))
        argv = [step.split("-")[0], str(mutant), "-o", out, *extra]
        code, _, err = run(argv, capsys)
        assert code in (0, 2), (i, err)
        assert "internal error" not in err, (i, err)


def test_gexf_kinds_with_markup_round_trip(tmp_path):
    g = DirectedGraph()
    for label in ("p.A", "p.B", "p.C::m"):
        g.add_vertex(label)
    g.kinds[:] = ['a"b&c<d>', "both \" and '", "tab\tline\n"]
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    first, second = tmp_path / "first.gexf", tmp_path / "second.gexf"
    export_gexf(g, first)
    back = import_gexf(first)
    assert back.kinds == g.kinds and back.labels == g.labels
    assert list(back.edges()) == list(g.edges())
    export_gexf(back, second)
    assert second.read_bytes() == first.read_bytes()
