"""`jarnet report` renderings of frozen reports, byte-compared with recorded
outputs.

The reports under ``tests/data/report_*.json`` come from ``analyze --seed 3
--top 5`` on the sample fixture (prefix ``sample``) and on
``synthetic_jar(60, seed=7)`` (prefix ``app``): with default options, with
every stage skipped, and with ``--sampled-paths 3``; the provenance input path
is cut to the file name. The sample fixture's in- and out-degree fits are
``{"error": ...}`` entries. ``report_renderings.json`` holds, per report and
rendering, the exit code, stdout and stderr. After a deliberate change to the
renderings, re-record it with ``PYTHONPATH=src python tests/test_report_golden.py``.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from jarnet.cli import main

DATA = Path(__file__).resolve().parent / "data"
REPORTS = [f"{fixture}_{variant}" for fixture in ("sample", "medium")
           for variant in ("full", "skipped", "sampled")]
RENDERINGS = {"table": ["--format", "table"]}
RENDERINGS.update({f"csv-{measure}": ["--format", "csv", "--measure", measure]
                   for measure in ("summary", "degree", "betweenness", "pagerank",
                                   "communities")})
RECORDED = DATA / "report_renderings.json"


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


if __name__ == "__main__":
    RECORDED.write_text(json.dumps(
        {report: {rendering: render(report, rendering) for rendering in RENDERINGS}
         for report in REPORTS}, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
