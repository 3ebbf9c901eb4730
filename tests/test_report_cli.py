"""End-to-end CLI pipeline: exit codes, files, reports, determinism."""
from __future__ import annotations

import argparse
import gc
import json
import runpy
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from jarnet import cli, extractor
from jarnet.cli import main
from jarnet.gexf import export_gexf, import_gexf
from jarnet.graph import DirectedGraph
from jarnet.report import MEASURES

from classfile_builder import ClassBuilder, default_init, make_jar
from test_extractor import GOLDEN_SAMPLE_ROWS, oversized_entry_jar


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- extract ------------------------------------------------------------------

def test_extract_writes_golden_table(sample_jar, tmp_path, capsys):
    out = tmp_path / "rel.csv"
    code, stdout, _ = run(["extract", str(sample_jar), "-o", str(out)], capsys)
    assert code == 0
    expected = "caller_kind,caller,callee_kind,callee\n" + "".join(
        ",".join(row) + "\n" for row in GOLDEN_SAMPLE_ROWS)
    assert out.read_text(encoding="utf-8") == expected
    assert "classes=3" in stdout
    assert "records=6" in stdout


def test_extract_missing_archive_exits_2(tmp_path, capsys):
    code, _, stderr = run(
        ["extract", str(tmp_path / "nope.jar"), "-o", str(tmp_path / "t.csv")],
        capsys)
    assert code == 2
    assert "nope.jar" in stderr


def test_extract_corrupt_entry_strict_vs_tolerant(tmp_path, capsys):
    good = ClassBuilder("p/Good")
    default_init(good)
    jar_bytes = make_jar([
        ("p/Good.class", good.build()),
        ("p/Broken.class", b"\xca\xfe\xba\xbe\x00\x00\x00\x34trash"),
    ])
    jar = tmp_path / "mixed.jar"
    jar.write_bytes(jar_bytes)
    out = tmp_path / "rel.csv"
    code, _, stderr = run(["extract", str(jar), "-o", str(out)], capsys)
    assert code == 2
    assert "Broken" in stderr
    code, stdout, _ = run(["extract", str(jar), "-o", str(out), "--tolerant"],
                          capsys)
    assert code == 0
    assert "entries_skipped=1" in stdout
    assert "classes=1" in stdout


def test_extract_entry_over_size_cap_exits_2(tmp_path, capsys, monkeypatch):
    jar, big = oversized_entry_jar(tmp_path)
    monkeypatch.setattr(extractor, "MAX_ENTRY_BYTES", big - 1)
    out = tmp_path / "rel.csv"
    code, _, stderr = run(["extract", str(jar), "-o", str(out)], capsys)
    assert code == 2
    assert stderr.count("p/Big.class") == 1
    assert not out.exists()
    code, stdout, _ = run(["extract", str(jar), "-o", str(out), "--tolerant"],
                          capsys)
    assert code == 0
    assert "classes=2" in stdout and "entries_skipped=1" in stdout


def test_usage_errors_exit_1(capsys):
    assert run([], capsys)[0] == 1
    assert run(["extract"], capsys)[0] == 1
    # exit 1, not the missing archive's 2: the count is checked first
    assert run(["extract", "x.jar", "-o", "t.csv", "--threads", "0"], capsys)[0] == 1
    assert run(["frobnicate", "x"], capsys)[0] == 1
    assert run(["report", "x.json", "--format", "bogus"], capsys)[0] == 1


def test_every_subcommand_option_is_read():
    # --threads is accepted for compatibility and ignored, as the README says.
    source = Path(cli.__file__).read_text(encoding="utf-8")
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    unread = [f"{name} {action.dest}"
              for name, sub in subcommands.choices.items() for action in sub._actions
              if action.dest not in ("help", "threads")
              and f"args.{action.dest}" not in source]
    assert unread == []


# -- build --------------------------------------------------------------------

def _extract_and_build(jar, tmp_path, capsys, prefix="sample"):
    table = tmp_path / "rel.csv"
    gexf = tmp_path / "net.gexf"
    assert run(["extract", str(jar), "-o", str(table)], capsys)[0] == 0
    argv = ["build", str(table), "-o", str(gexf)]
    if prefix:
        argv += ["--prefix", prefix]
    assert run(argv, capsys)[0] == 0
    return gexf


def test_build_prefix_filtered_graph(sample_jar, tmp_path, capsys):
    table = tmp_path / "rel.csv"
    gexf = tmp_path / "net.gexf"
    run(["extract", str(sample_jar), "-o", str(table)], capsys)
    code, stdout, _ = run(
        ["build", str(table), "-o", str(gexf), "--prefix", "sample"], capsys)
    assert code == 0
    assert "vertices=6" in stdout and "edges=6" in stdout
    g = import_gexf(gexf)
    assert g.n == 6 and g.m == 6
    assert all(label.startswith("sample.") for label in g.labels)


def test_build_single_record_makes_three_nodes(tmp_path, capsys):
    table = tmp_path / "one.csv"
    table.write_text("caller_kind,caller,callee_kind,callee\n"
                     "M,a.B::foo,M,c.D::bar\n", encoding="utf-8")
    gexf = tmp_path / "one.gexf"
    code, stdout, _ = run(["build", str(table), "-o", str(gexf)], capsys)
    assert code == 0
    g = import_gexf(gexf)
    assert sorted(g.labels) == ["a.B::foo", "c.D", "c.D::bar"]
    assert g.m == 2


def test_build_reads_c_row_class_name_holding_method_sep(tmp_path, capsys):
    # JVMS 4.2.1 allows ":" in a class name; extract writes it verbatim.
    cb = ClassBuilder("p/A::B")
    c = cb.code()
    c.invokestatic("q/X", "run", "()V")
    c.new("q/Y")
    c.return_()
    cb.add_method("go", "()V", code=c)
    jar = tmp_path / "colons.jar"
    jar.write_bytes(make_jar([("p/A::B.class", cb.build())]))
    table = tmp_path / "rel.csv"
    assert run(["extract", str(jar), "-o", str(table)], capsys)[0] == 0
    assert "C,p.A::B,C,q.Y\n" in table.read_text(encoding="utf-8")
    gexf = tmp_path / "net.gexf"
    code, _, err = run(["build", str(table), "-o", str(gexf)], capsys)
    assert code == 0, err
    g = import_gexf(gexf)
    assert (g.labels.index("p.A::B"), g.labels.index("q.Y")) in set(g.edges())


def test_build_empty_table_valid_empty_gexf(tmp_path, capsys):
    table = tmp_path / "empty.csv"
    table.write_text("caller_kind,caller,callee_kind,callee\n", encoding="utf-8")
    gexf = tmp_path / "empty.gexf"
    assert run(["build", str(table), "-o", str(gexf)], capsys)[0] == 0
    assert import_gexf(gexf).n == 0


def test_build_empty_table_file_exits_2(tmp_path, capsys):
    table = tmp_path / "none.csv"
    table.write_text("", encoding="utf-8")
    code, _, stderr = run(["build", str(table), "-o", str(tmp_path / "g.gexf")], capsys)
    assert (code, stderr) == (2, f"error: {table}: empty table\n")


def test_build_oversized_field_exits_2(tmp_path, capsys):
    table = tmp_path / "huge.csv"
    table.write_text("caller_kind,caller,callee_kind,callee\n"
                     f"M,a.B::foo,M,c.D::{'x' * 200_000}\n", encoding="utf-8")
    code, _, err = run(["build", str(table), "-o", str(tmp_path / "huge.gexf")],
                       capsys)
    assert code == 2
    assert f"{table}:2: field larger than field limit" in err
    assert "internal error" not in err


def test_build_label_xml_cannot_carry_exits_2(tmp_path, capsys):
    # A vertical tab in a table row, and NUL from a modified UTF-8 C0 80
    # method name in an archive.
    vt_table = tmp_path / "vt.csv"
    vt_table.write_text("caller_kind,caller,callee_kind,callee\n"
                        "M,app.A::m\x0b,M,app.B::n\n", encoding="utf-8")
    cb = ClassBuilder("app/C")
    c = cb.code()
    c.invokestatic("app/D", "run", "()V")
    c.return_()
    cb.add_method("aQQ", "()V", code=c)
    jar = tmp_path / "nul.jar"
    jar.write_bytes(make_jar([("app/C.class", cb.build().replace(b"QQ", b"\xc0\x80"))]))
    nul_table = tmp_path / "nul.csv"
    assert run(["extract", str(jar), "-o", str(nul_table)], capsys)[0] == 0
    for table, label in ((vt_table, "app.A::m\x0b"), (nul_table, "app.C::a\x00")):
        gexf = tmp_path / "bad.gexf"
        code, _, err = run(["build", str(table), "-o", str(gexf)], capsys)
        assert code == 2, err
        assert repr(label) in err and "XML 1.0" in err
        assert not gexf.exists()


def test_build_label_longer_than_a_gexf_line_exits_2(tmp_path, capsys):
    table = tmp_path / "long.csv"
    table.write_text("caller_kind,caller,callee_kind,callee\n"
                     f"M,app.A::m,M,app.B::{'x' * (1 << 16)}\n", encoding="utf-8")
    gexf = tmp_path / "long.gexf"
    code, _, err = run(["build", str(table), "-o", str(gexf)], capsys)
    assert code == 2, err
    assert f"{gexf}: vertex 2 (label starting 'app.B::xxx" in err and "import_gexf reads" in err
    assert not gexf.exists()


# -- analyze ------------------------------------------------------------------

def _triangle_gexf(tmp_path):
    g = DirectedGraph()
    for label in ("t.A", "t.B", "t.C"):
        g.add_vertex(label)
    for u in range(3):
        for v in range(3):
            if u != v:
                g.add_edge(u, v)
    path = tmp_path / "triangle.gexf"
    export_gexf(g, path)
    return path


def test_analyze_triangle_known_values(tmp_path, capsys):
    gexf = _triangle_gexf(tmp_path)
    out = tmp_path / "report.json"
    code, _, _ = run(["analyze", str(gexf), "-o", str(out),
                      "--seed", "1", "--replicates", "2"], capsys)
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    summary = report["summary"]
    assert summary["vertices"] == 3 and summary["edges"] == 6
    assert summary["kind_counts"] == {"method": 0, "class": 3}
    assert summary["clustering"] == pytest.approx(1.0)
    assert summary["paths"]["directed"]["diameter"] == 1
    assert summary["components"]["count"] == 1
    assert report["communities"]["count"] == 1
    assert report["communities"]["q"] == 0.0
    ranks = report["rankings"]["pagerank"]
    assert [row["score"] for row in ranks] == pytest.approx([1 / 3] * 3)
    assert [row["rank"] for row in ranks] == [1, 2, 3]
    # every vertex has total degree 4: too flat for a power-law fit
    assert "error" in report["power_law"]["total"]
    assert report["incomplete"] is True


@pytest.mark.parametrize("flag", ["--sampled-paths", "--top", "--replicates", "--threads"])
@pytest.mark.parametrize("value", ["-1", "0", "two"])
def test_analyze_rejects_counts_below_one(tmp_path, capsys, flag, value):
    gexf = _triangle_gexf(tmp_path)
    out = tmp_path / "report.json"
    code, _, stderr = run(["analyze", str(gexf), "-o", str(out), flag, value],
                          capsys)
    assert code == 1
    assert flag in stderr
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--sampled-paths", "3", "--skip", "smallworld"]])
def test_analyze_rejects_negative_seed(tmp_path, capsys, extra):
    gexf = _triangle_gexf(tmp_path)
    out = tmp_path / "report.json"
    code, _, stderr = run(["analyze", str(gexf), "-o", str(out),
                           "--seed", "-1"] + extra, capsys)
    assert code == 1
    assert "--seed" in stderr
    assert not out.exists()


def test_analyze_reports_are_byte_identical(medium_jar, tmp_path, capsys):
    gexf = _extract_and_build(medium_jar, tmp_path, capsys, prefix="app")
    args = ["analyze", str(gexf), "--seed", "7", "--replicates", "2",
            "--top", "5"]
    a, b, c = (tmp_path / n for n in ("r1.json", "r2.json", "r3.json"))
    assert run(args + ["-o", str(a)], capsys)[0] == 0
    assert run(args + ["-o", str(b)], capsys)[0] == 0
    assert run(args + ["-o", str(c), "--threads", "2"], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_analyze_projects_the_graph_once(medium_jar, tmp_path, capsys, monkeypatch):
    import jarnet
    from jarnet import graph as graph_module
    from jarnet.report import analyze_graph

    gexf = _extract_and_build(medium_jar, tmp_path, capsys, prefix="app")
    original = graph_module.undirected_projection
    calls = []

    def counted(g):
        calls.append(g)
        return original(g)

    for name in ("graph", "report", "metrics", "centrality", "community", "topology"):
        module = getattr(jarnet, name)
        if getattr(module, "undirected_projection", None) is original:
            monkeypatch.setattr(module, "undirected_projection", counted)
    analyze_graph(import_gexf(gexf), seed=7, replicates=2)
    assert len(calls) == 1


def test_analyze_frees_the_graph_before_the_digest(sample_jar, tmp_path, capsys,
                                                   monkeypatch):
    # The digest loads OpenSSL and reads the input; a graph still alive then
    # adds its CSR to the step's peak RSS. No gc.collect(): reference counts
    # alone must free it.
    from jarnet import gexf as gexf_module, report
    from jarnet.report import sha256_file

    gexf = _extract_and_build(sample_jar, tmp_path, capsys)
    indices = []
    dead_at_digest = []

    def importing(path):
        g = import_gexf(path)
        indices.append(weakref.ref(g.to_csr()[1]))
        return g

    def digesting(path):
        dead_at_digest.append(indices[0]() is None)
        return sha256_file(path)

    monkeypatch.setattr(gexf_module, "import_gexf", importing)
    monkeypatch.setattr(report, "sha256_file", digesting)
    out = tmp_path / "r.json"
    assert run(["analyze", str(gexf), "-o", str(out)], capsys)[0] == 0
    assert dead_at_digest == [True]


def test_analyze_skip_stage_marks_incomplete(sample_jar, tmp_path, capsys):
    gexf = _extract_and_build(sample_jar, tmp_path, capsys)
    out = tmp_path / "r.json"
    code, _, _ = run(["analyze", str(gexf), "-o", str(out),
                      "--skip", "smallworld"], capsys)
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["small_world"] == {"skipped": True}
    assert report["incomplete"] is True
    assert report["provenance"]["skipped"] == ["smallworld"]


def test_analyze_sampled_paths_flagged(sample_jar, tmp_path, capsys):
    gexf = _extract_and_build(sample_jar, tmp_path, capsys)
    out = tmp_path / "r.json"
    code, _, _ = run(["analyze", str(gexf), "-o", str(out),
                      "--sampled-paths", "3", "--seed", "2"], capsys)
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    directed = report["summary"]["paths"]["directed"]
    assert directed["exact"] is False
    assert directed["sources_used"] == 3
    assert report["provenance"]["paths"] == {"mode": "sampled", "sources": 3}


def test_analyze_exact_paths_provenance(sample_jar, tmp_path, capsys):
    gexf = _extract_and_build(sample_jar, tmp_path, capsys)
    out = tmp_path / "r.json"
    assert run(["analyze", str(gexf), "-o", str(out)], capsys)[0] == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["provenance"]["paths"] == {"mode": "exact", "sources": None}
    assert report["provenance"]["tool"] == "jarnet"
    assert report["provenance"]["input"]["sha256"]
    assert report["summary"]["paths"]["directed"]["exact"] is True


def test_analyze_plot_data_files(sample_jar, tmp_path, capsys):
    gexf = _extract_and_build(sample_jar, tmp_path, capsys)
    out = tmp_path / "r.json"
    plots = tmp_path / "plots"
    code, _, _ = run(["analyze", str(gexf), "-o", str(out),
                      "--plots", str(plots)], capsys)
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    hist = (plots / "degree_histogram_total.csv").read_text(encoding="utf-8")
    lines = hist.strip().split("\n")
    assert lines[0] == "degree,count"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == report["summary"]["vertices"]
    for name in ("degree_histogram_in.csv", "degree_histogram_out.csv",
                 "power_law_fits.csv", "community_sizes.csv"):
        assert (plots / name).exists()
    sizes = (plots / "community_sizes.csv").read_text(encoding="utf-8")
    assert len(sizes.strip().split("\n")) == report["communities"]["count"] + 1


def test_analyze_plots_not_a_directory_exits_2_before_analysis(sample_jar, tmp_path,
                                                               capsys):
    gexf = _extract_and_build(sample_jar, tmp_path, capsys)
    plots = tmp_path / "plots"
    plots.write_text("a file, not a directory", encoding="utf-8")
    out = tmp_path / "r.json"
    code, _, stderr = run(["analyze", str(gexf), "-o", str(out),
                           "--plots", str(plots)], capsys)
    assert code == 2
    assert "File exists" in stderr
    assert not out.exists()


def test_analyze_one_vertex_graph_reports_degenerate_stages(tmp_path, capsys):
    g = DirectedGraph()
    g.add_vertex("t.A")
    gexf = tmp_path / "one.gexf"
    export_gexf(g, gexf)
    out = tmp_path / "r.json"
    assert run(["analyze", str(gexf), "-o", str(out)], capsys)[0] == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["small_world"] == {
        "error": "DegenerateGraph: small-world comparison needs >= 2 vertices"}
    assert list(report["power_law"]) == ["total", "in", "out"]
    assert all(fit["error"].startswith("DegenerateHistogram: ")
               for fit in report["power_law"].values())
    assert report["incomplete"] is True
    for rendering in (["--format", "table"],
                      *(["--format", "csv", "--measure", m] for m in MEASURES)):
        code, _, stderr = run(["report", str(out), *rendering], capsys)
        assert code == 0, (rendering, stderr)


@pytest.mark.parametrize("paths", [[], ["--sampled-paths", "1"]])
def test_analyze_edgeless_graph_reports_degenerate_small_world(tmp_path, capsys, paths):
    g = DirectedGraph()
    for label in ("t.A", "t.B"):
        g.add_vertex(label)
    gexf = tmp_path / "edgeless.gexf"
    export_gexf(g, gexf)
    out = tmp_path / "r.json"
    assert run(["analyze", str(gexf), "-o", str(out), *paths], capsys)[0] == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["small_world"] == {
        "error": "DegenerateGraph: small-world comparison needs at least one edge"}
    assert report["incomplete"] is True


def test_analyze_zero_vertex_graph_exits_2(tmp_path, capsys):
    gexf = tmp_path / "empty.gexf"
    export_gexf(DirectedGraph(), gexf)
    out = tmp_path / "r.json"
    code, _, stderr = run(["analyze", str(gexf), "-o", str(out)], capsys)
    assert code == 2
    assert "degree statistics need at least one vertex" in stderr
    assert not out.exists()


def _networkx_gexf(_text, path):
    nx = pytest.importorskip("networkx")
    nx.write_gexf(nx.DiGraph([("t.A", "t.B")]), path)


# form -> a writer of a file build did not write, given the triangle's export
NOT_BUILDS_GEXF = {
    "networkx": _networkx_gexf,
    "truncated_mid_edge": lambda text, path: path.write_text(
        text[:text.index('<edge id="3"') + 20], encoding="utf-8"),
    "crlf": lambda text, path: path.write_bytes(text.replace("\n", "\r\n").encode()),
    "over_1_mib_without_newline": lambda text, path: path.write_text(
        text.replace("\n", "") + " " * (1 << 20), encoding="utf-8"),
}


@pytest.mark.parametrize("form", NOT_BUILDS_GEXF)
def test_analyze_gexf_build_did_not_write_exits_2(tmp_path, capsys, form):
    bad = tmp_path / "bad.gexf"
    NOT_BUILDS_GEXF[form](_triangle_gexf(tmp_path).read_text(encoding="utf-8"), bad)
    out = tmp_path / "r.json"
    code, _, stderr = run(["analyze", str(bad), "-o", str(out)], capsys)
    assert code == 2, stderr
    assert f"error: {bad}: not a GEXF file in the layout that 'jarnet build' writes" in stderr
    assert not out.exists()


def test_analyze_missing_gexf_exits_2(tmp_path, capsys):
    code, _, stderr = run(
        ["analyze", str(tmp_path / "missing.gexf"), "-o", "-"], capsys)
    assert code == 2
    assert stderr


# -- report rendering ---------------------------------------------------------

def _analyzed(sample_jar, tmp_path, capsys, top="4"):
    gexf = _extract_and_build(sample_jar, tmp_path, capsys)
    out = tmp_path / "r.json"
    assert run(["analyze", str(gexf), "-o", str(out), "--top", top,
                "--seed", "3"], capsys)[0] == 0
    return out


def test_report_table_rendering_idempotent(sample_jar, tmp_path, capsys):
    rep = _analyzed(sample_jar, tmp_path, capsys)
    code, first, _ = run(["report", str(rep)], capsys)
    assert code == 0
    assert "vertices" in first and "6" in first
    assert "pagerank" in first
    code, second, _ = run(["report", str(rep)], capsys)
    assert first == second


def test_report_csv_topk_has_exactly_k_rows(sample_jar, tmp_path, capsys):
    rep = _analyzed(sample_jar, tmp_path, capsys, top="4")
    code, out, _ = run(
        ["report", str(rep), "--format", "csv", "--measure", "pagerank"],
        capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rank,label,score"
    assert len(lines) == 1 + 4
    assert lines[1].startswith("1,")


def test_report_summary_csv(sample_jar, tmp_path, capsys):
    rep = _analyzed(sample_jar, tmp_path, capsys)
    code, out, _ = run(
        ["report", str(rep), "--format", "csv", "--measure", "summary"],
        capsys)
    assert code == 0
    assert out.startswith("measure,value\n")
    assert "vertices,6" in out


def test_report_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all", encoding="utf-8")
    code, _, stderr = run(["report", str(bad)], capsys)
    assert code == 2
    assert stderr


@pytest.mark.parametrize("text", ["[]", '"x"'])
def test_report_of_json_that_is_no_object_exits_2(tmp_path, capsys, text):
    rep = tmp_path / "r.json"
    rep.write_text(text, encoding="utf-8")
    code, _, stderr = run(["report", str(rep)], capsys)
    assert (code, stderr) == (2, f"error: {rep}: not a valid report file\n")


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("key, value, measure", [
    pytest.param("power_law", [], "summary", id="power_law-list"),
    pytest.param("summary", [], "summary", id="summary-list"),
    pytest.param("small_world", 3, "summary", id="small_world-int"),
    pytest.param("rankings", {"degree": [1]}, "degree", id="degree-row-int"),
    pytest.param("communities", [], "summary", id="communities-list"),
    pytest.param("communities", [], "communities", id="communities-list-measure"),
    pytest.param("small_world", [], "summary", id="small_world-list"),
    pytest.param("small_world", "x", "summary", id="small_world-str"),
    pytest.param("summary.paths", [], "summary", id="summary.paths-list"),
    pytest.param("rankings.degree", "abc", "degree", id="degree-str"),
    pytest.param("power_law", {"total": "x"}, "summary", id="power_law.total-str"),
])
def test_report_sections_of_wrong_type_exit_2(sample_jar, tmp_path, capsys,
                                              fmt, key, value, measure):
    rep = _analyzed(sample_jar, tmp_path, capsys)
    report = json.loads(rep.read_text(encoding="utf-8"))
    *outer, last = key.split(".")
    section = report
    for name in outer:
        section = section[name]
    section[last] = value
    rep.write_text(json.dumps(report), encoding="utf-8")
    argv = ["report", str(rep), "--format", fmt]
    if fmt == "csv":
        argv += ["--measure", measure]
    code, _, stderr = run(argv, capsys)
    assert code == 2
    assert "wrong type" in stderr and "internal error" not in stderr


def test_report_to_file(sample_jar, tmp_path, capsys):
    rep = _analyzed(sample_jar, tmp_path, capsys)
    dest = tmp_path / "rendered.txt"
    code, stdout, _ = run(["report", str(rep), "-o", str(dest)], capsys)
    assert code == 0
    assert "vertices" in dest.read_text(encoding="utf-8")


# -- module entry point ----------------------------------------------------------

@pytest.mark.usefixtures("src_on_pythonpath")
def test_module_entrypoint_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "jarnet", "extract",
         str(tmp_path / "absent.jar"), "-o", str(tmp_path / "t.csv")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.strip()
    helped = subprocess.run([sys.executable, "-m", "jarnet", "--help"],
                            capture_output=True, text=True)
    assert helped.returncode == 0
    assert "extract" in helped.stdout


def test_run_freezes_once_then_exits_with_mains_code(monkeypatch, capsys):
    calls = []
    # A recorder in place of gc.freeze, so the test process is never frozen.
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or main())
    for argv, code in ((["jarnet", "--version"], 0), (["jarnet", "no-such-step"], 1)):
        calls.clear()
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == code, argv
        assert calls == ["freeze", "main", "freeze"], argv
    capsys.readouterr()


def test_main_in_process_freezes_nothing(sample_jar, tmp_path, capsys):
    frozen = gc.get_freeze_count()
    code, _, _ = run(["extract", str(sample_jar), "-o", str(tmp_path / "t.csv")], capsys)
    assert code == 0
    assert gc.get_freeze_count() == frozen


def test_module_entry_calls_run(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    runpy.run_module("jarnet", run_name="__main__")
    assert calls == ["run"]


def test_script_entry_names_run():
    tomllib = pytest.importorskip("tomllib")  # from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"jarnet": "jarnet.cli:run"}


@pytest.mark.usefixtures("src_on_pythonpath")
def test_cli_import_leaves_out_network_and_thread_pool_modules():
    probe = ("import sys, jarnet.cli; print(sorted(m for m in ('urllib.request', "
             "'http.client', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.usefixtures("src_on_pythonpath")
def test_cli_import_leaves_out_dataclasses_and_hashlib():
    probe = ("import sys, jarnet.cli; print(sorted(m for m in ('dataclasses', 'inspect', "
             "'hashlib', 'pyexpat') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.usefixtures("src_on_pythonpath")
def test_default_analyze_leaves_out_numpy_ma(medium_jar, tmp_path, capsys):
    gexf = _extract_and_build(medium_jar, tmp_path, capsys, prefix="app")
    probe = ("import sys; from jarnet.cli import main; "
             f"code = main(['analyze', {str(gexf)!r}, '-o', {str(tmp_path / 'r.json')!r}]); "
             "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.usefixtures("src_on_pythonpath")
def test_only_analyze_loads_numpy(medium_jar, tmp_path):
    table, gexf = tmp_path / "rel.csv", tmp_path / "net.gexf"
    report, text = tmp_path / "r.json", tmp_path / "r.txt"
    steps = [
        (["--version"], False),
        (["--help"], False),
        (["extract", str(medium_jar), "-o", str(table)], False),
        (["build", str(table), "-o", str(gexf), "--prefix", "app"], False),
        (["analyze", str(gexf), "-o", str(report)], True),
        (["report", str(report), "-o", str(text)], False),
    ]
    for argv, loads in steps:
        probe = ("import sys\nfrom jarnet.cli import main\n"
                 f"try:\n    code = main({argv!r})\n"
                 "except SystemExit as exc:\n    code = exc.code\n"
                 "print(code, 'numpy._core' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["0", str(loads)], argv
