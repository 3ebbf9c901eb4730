"""Each CLI step runs only the jarnet modules it uses.

The package binds its submodules lazily (see ``jarnet._lazy``). A module
that has not run is still a ``_LazyModule`` in ``sys.modules``, so the
modules that ran are exactly those whose type is ``types.ModuleType``.
Each probe is a fresh interpreter, as each CLI step is.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_report_cli import _extract_and_build

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# What ``import jarnet.cli`` runs itself, whatever the step.
CLI = {"_lazy", "cli", "errors"}
# Loaded, with numpy, before ``analyze`` reads its graph: loaded while the
# graph's arrays are live, they raise the step's peak RSS.
BEFORE_READ = {"metrics", "centrality", "community", "topology", "_kernels", "report"}

LOADED = """import sys, types
def loaded():
    return sorted(name[len("jarnet."):] for name, module in sys.modules.items()
                  if name.startswith("jarnet.") and type(module) is types.ModuleType)
"""


def probe(code: str) -> list[str]:
    """The standard output lines of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", LOADED + code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.usefixtures("src_on_pythonpath")
def test_bare_import_runs_only_the_lazy_binder():
    assert probe("import jarnet\nprint(*loaded())") == ["_lazy"]


@pytest.mark.usefixtures("src_on_pythonpath")
def test_each_step_runs_only_its_modules(medium_jar, tmp_path):
    table, gexf = tmp_path / "rel.csv", tmp_path / "net.gexf"
    report, text = tmp_path / "r.json", tmp_path / "r.txt"
    steps = [
        (["--version"], set()),
        (["extract", str(medium_jar), "-o", str(table)], {"names", "classfile", "extractor"}),
        (["build", str(table), "-o", str(gexf), "--prefix", "app"], {"names", "graph", "gexf"}),
        (["analyze", str(gexf), "-o", str(report)], {"names", "graph", "gexf"} | BEFORE_READ),
        (["report", str(report), "-o", str(text)], {"report"}),
    ]
    for argv, modules in steps:
        lines = probe("from jarnet.cli import main\n"
                      f"try:\n    code = main({argv!r})\n"
                      "except SystemExit as exc:\n    code = exc.code\n"
                      "print(code, *loaded())")
        assert lines[-1].split() == ["0", *sorted(CLI | modules)], argv


@pytest.mark.usefixtures("src_on_pythonpath")
def test_analyze_loads_its_modules_and_numpy_before_it_reads_the_graph(
        medium_jar, tmp_path, capsys):
    gexf = _extract_and_build(medium_jar, tmp_path, capsys, prefix="app")
    argv = ["analyze", str(gexf), "-o", str(tmp_path / "r.json")]
    lines = probe("from jarnet import gexf\n"
                  "from jarnet.cli import main\n"
                  "read = gexf.import_gexf\n"
                  "def import_gexf(path):\n"
                  "    print('read', 'numpy._core' in sys.modules, *loaded())\n"
                  "    return read(path)\n"
                  "gexf.import_gexf = import_gexf\n"
                  f"print(main({argv!r}))")
    assert lines[-1] == "0"
    assert [line.split()[:2] for line in lines[:-1]] == [["read", "True"]]
    assert BEFORE_READ <= set(lines[0].split()[2:])


@pytest.mark.usefixtures("src_on_pythonpath")
def test_tracer_binds_every_layer_after_a_fresh_cli_import(sample_jar, tmp_path):
    # tests/test_bench_contract.py checks the same contract, but inside a
    # test session that has loaded every module already. Here the tracer
    # installs right after ``import jarnet.cli``, as the benchmark's traced
    # run does, before any module it wraps has run.
    table, gexf = tmp_path / "rel.csv", tmp_path / "net.gexf"
    report, text = tmp_path / "r.json", tmp_path / "r.txt"
    steps = [["extract", str(sample_jar), "-o", str(table)],
             ["build", str(table), "-o", str(gexf)],
             ["analyze", str(gexf), "-o", str(report)],
             ["report", str(report), "-o", str(text)]]
    lines = probe(f"""import contextlib, importlib.util, io, json
import jarnet.cli
before = loaded()
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
sys.dont_write_bytecode = True  # nothing under perfbench/ is written
spec.loader.exec_module(tracing)

def wrapped():
    return [f"{{mod}}.{{attr}}" for mod, attr, _hook in tracing.FUNCTIONS
            if hasattr(getattr(sys.modules["jarnet." + mod], attr), "__wrapped__")] + [
        f"{{cls}}.{{attr}}" for mod, cls, attr in tracing.METHODS
        if hasattr(getattr(sys.modules["jarnet." + mod], cls).__dict__[attr], "__wrapped__")]

tracer = tracing.Tracer()
tracer.install()
try:
    installed = len(wrapped())
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [jarnet.cli.main(argv) for argv in {steps!r}]
finally:
    tracer.uninstall()
print(json.dumps({{"before": before, "installed": installed, "codes": codes,
                  "left": wrapped(), "calls": sorted(tracer.calls),
                  "layers": [tracing.span_name(mod, attr)
                             for mod, attr, _hook in tracing.FUNCTIONS]}}))""")
    seen = json.loads(lines[-1])
    assert seen["before"] == sorted(CLI)
    assert seen["installed"] == len(seen["layers"]) + 2  # both to_csr methods
    assert seen["codes"] == [0, 0, 0, 0]
    assert seen["left"] == []
    assert set(seen["calls"]) == set(seen["layers"]) | {"graph.to_csr"}
