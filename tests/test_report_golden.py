"""Frozen reports and their `jarnet report` renderings, byte-compared with
what the program writes now.

The reports under ``tests/data/report_*.json`` come from ``analyze --seed 3
--top 5`` on the sample fixture (prefix ``sample``) and on
``synthetic_jar(60, seed=7)`` (prefix ``app``), each built as
``<fixture>.gexf`` in the working directory so that the provenance input path
is the bare file name: with default options, with every stage skipped, and
with ``--sampled-paths 3``. The sample fixture's in- and out-degree fits are
``{"error": ...}`` entries. ``report_renderings.json`` holds, per report and
rendering, the exit code, stdout and stderr. After a deliberate change to the
reports or the renderings, re-record both, reports first, with
``PYTHONPATH=src python tests/test_report_golden.py``.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from jarnet.cli import main
from jarnet.report import STAGES

from classfile_builder import sample_network_jar, synthetic_jar

DATA = Path(__file__).resolve().parent / "data"
FIXTURES = {"sample": (sample_network_jar, "sample"),
            "medium": (lambda: synthetic_jar(n_classes=60, seed=7), "app")}
VARIANTS = {"full": [], "skipped": [arg for stage in STAGES for arg in ("--skip", stage)],
            "sampled": ["--sampled-paths", "3"]}
REPORTS = [f"{fixture}_{variant}" for fixture in FIXTURES for variant in VARIANTS]
RENDERINGS = {"table": ["--format", "table"]}
RENDERINGS.update({f"csv-{measure}": ["--format", "csv", "--measure", measure]
                   for measure in ("summary", "degree", "betweenness", "pagerank",
                                   "communities")})
RECORDED = DATA / "report_renderings.json"


def analyze_fixture(fixture: str) -> list[str]:
    """Build ``fixture`` in the working directory and write its three reports
    there as ``report_<fixture>_<variant>.json``; returns their file names."""
    make_jar, prefix = FIXTURES[fixture]
    Path(f"{fixture}.jar").write_bytes(make_jar())
    names = []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["extract", f"{fixture}.jar", "-o", f"{fixture}.csv"]) == 0
        assert main(["build", f"{fixture}.csv", "-o", f"{fixture}.gexf",
                     "--prefix", prefix]) == 0
        for variant, options in VARIANTS.items():
            names.append(f"report_{fixture}_{variant}.json")
            assert main(["analyze", f"{fixture}.gexf", "-o", names[-1],
                         "--seed", "3", "--top", "5", *options]) == 0
    return names


def render(report: str, rendering: str) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", str(DATA / f"report_{report}.json"),
                     *RENDERINGS[rendering]])
    return [code, out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("rendering", RENDERINGS)
@pytest.mark.parametrize("report", REPORTS)
def test_rendering_matches_recorded(report, rendering):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    assert render(report, rendering) == recorded[report][rendering]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_analyze_reproduces_recorded_reports(fixture, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in analyze_fixture(fixture):
        assert Path(name).read_bytes() == (DATA / name).read_bytes(), name


@pytest.mark.usefixtures("src_on_pythonpath")
def test_module_entry_reproduces_recorded_report(tmp_path):
    """``python -m jarnet`` freezes its start-up heap and writes the same bytes."""
    (tmp_path / "sample.jar").write_bytes(sample_network_jar())
    for argv in (["extract", "sample.jar", "-o", "sample.csv"],
                 ["build", "sample.csv", "-o", "sample.gexf", "--prefix", "sample"],
                 ["analyze", "sample.gexf", "-o", "report_sample_full.json",
                  "--seed", "3", "--top", "5"]):
        proc = subprocess.run([sys.executable, "-m", "jarnet", *argv], cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    name = "report_sample_full.json"
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch):
        for fixture in FIXTURES:
            for name in analyze_fixture(fixture):
                (DATA / name).write_bytes(Path(name).read_bytes())
    RECORDED.write_text(json.dumps(
        {report: {rendering: render(report, rendering) for rendering in RENDERINGS}
         for report in REPORTS}, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
