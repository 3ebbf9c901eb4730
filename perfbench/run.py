#!/usr/bin/env python3
"""Layered benchmark of the jarnet CLI.

One client drives ``python -m jarnet`` as one child process at a time
(a closed loop) on seeded ``synthetic_jar`` archives, for ``--seconds``
seconds, and checks every output. ``--trace 1`` adds an in-process run of
the same job with timing wrappers around the jarnet layers and reports
per-layer metrics instead of end-to-end ones. See README.md beside this
file for the workloads, metrics and layer map.

    python3 perfbench/run.py --workload exact_80 --seed 7 --seconds 54 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --smoke                 # each job once, 60 classes

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from checks import oracle, sha256_bytes
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 7
SMOKE_CLASSES = 60
# Set-up is sampled before the jobs and once after each, so its median
# spans the run rather than one phase of the machine's speed drift.
SETUP_SAMPLES = 5
# Timed intervals are reported at the machine speed at which probe_s()
# takes this long; on the 2-vCPU VM of README.md it took 0.12 to 0.22 s.
REF_PROBE_S = 0.15
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))

PREFIX = "app"
PREPARE = [("extract", ["extract", "app.jar", "-o", "relations.csv"]),
           ("build", ["build", "relations.csv", "--prefix", PREFIX, "-o", "graph.gexf"])]


@dataclass(frozen=True)
class Workload:
    """A job of CLI steps on one seeded archive of ``classes`` classes."""

    name: str
    classes: int
    analyze: tuple[str, ...]   # analyze options besides the input and seed
    ingest: bool               # job runs extract/build/report around analyze
    exact_paths: bool          # the oracle also checks paths and betweenness
    candidates: int = 1        # archives seeded per run; see fixture()
    work: int = 0              # vertices x edges the chosen archive's graph aims at

    def steps(self, seed: int) -> list[tuple[str, list[str]]]:
        analyze = ("analyze", ["analyze", "graph.gexf", "--seed", str(seed),
                               *self.analyze, "-o", "report.json"])
        if not self.ingest:
            return [analyze]
        return [*PREPARE, analyze, ("report", ["report", "report.json", "-o", "report.txt"])]


WORKLOADS = {w.name: w for w in (
    # Front half at north-star scale: parsing, the bytecode walk, CSV and
    # GEXF I/O, graph build and the linear stages; no BFS, Brandes or Louvain.
    Workload("ingest_3k", 3000,
             ("--skip", "paths", "--skip", "betweenness",
              "--skip", "smallworld", "--skip", "communities"),
             ingest=True, exact_paths=False),
    # The CLI's default analyze: all-source BFS and Brandes dominate. The
    # exact path work grows with vertices x edges, and at this size one
    # archive's vertices x edges spreads 8% (IQR over median) across
    # seeds. Of 12 seeded archives the run takes the one closest to a
    # fixed vertices x edges, which keeps that spread near 1% while the
    # seed still changes the graph's structure. 80 classes keep a job near
    # 9 s, so a run holds about 6 jobs and job_s is a median over them.
    Workload("exact_80", 80, (), ingest=False, exact_paths=True,
             candidates=12, work=668_000),
    # The same BFS kernel with few sources on a 5x larger graph, where
    # Louvain and triangle counting take real shares. BENCHMARK.json does
    # not list it: a third workload would not leave runs long enough to
    # be steady within the time its runs are given. 500 classes keep a
    # job near 9 s, as for exact_80.
    Workload("sampled_500", 500, ("--sampled-paths", "64", "--skip", "betweenness"),
             ingest=False, exact_paths=False),
)}

# Per-layer metrics of a traced run, in the order BENCHMARK.json lists them.
SELF_S = ["extractor.open_archive", "classfile.parse_class", "extractor.extract_calls",
          "extractor.extract_archive", "names.write_relation_table",
          "names.read_relation_table", "graph.build_graph", "gexf.export_gexf",
          "gexf.import_gexf", "graph.undirected_projection", "graph.to_csr",
          "kernels.bfs_stats", "kernels.brandes", "kernels.triangle_doubles",
          "metrics.shortest_path_stats", "metrics.giant_component_paths",
          "metrics.avg_clustering", "metrics.components", "centrality.betweenness",
          "centrality.pagerank", "community.louvain", "topology.erdos_renyi",
          "topology.fit_power_law", "topology.small_world_test",
          "report.analyze_graph", "report.render_table"]
CALLS = ["graph.undirected_projection", "graph.to_csr", "kernels.bfs_stats",
         "kernels.brandes", "metrics.shortest_path_stats",
         "metrics.giant_component_paths", "metrics.avg_clustering",
         "metrics.components", "community.louvain"]
COUNTERS = {"extractor.entries": "count", "extractor.call_sites": "count",
            "extractor.records": "count", "extractor.archive_bytes": "bytes",
            "names.table_bytes": "bytes", "gexf.bytes": "bytes",
            "graph.vertices": "count", "graph.edges": "count",
            "metrics.bfs_sources": "count", "kernels.bfs_stats.edge_scans": "count",
            "centrality.pagerank.iterations": "count",
            "community.louvain.communities": "count",
            "topology.erdos_renyi.edges": "count"}
CLI_STEPS = ["extract", "build", "analyze", "report"]


class SetupError(RuntimeError):
    """The benchmark could not prepare its inputs."""


@dataclass
class Step:
    ok: bool
    seconds: float
    rss_mb: float
    error: str = ""


@dataclass
class Job:
    steps: list[Step]
    seconds: float                                         # sum of the steps' wall times
    scaled: float = 0.0                                    # the same at the reference speed
    outputs: dict[str, str] = field(default_factory=dict)  # file -> sha256
    failed: set[int] = field(default_factory=set)          # indices of failed steps


# -- processes -------------------------------------------------------------------

# The helper that Launcher starts: it runs each command it reads and
# answers with the exit code, wall time and max RSS in KiB.
LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, cwd, err_path = json.loads(line)
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, seconds, usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """Starts every child process from one small helper process.

    Linux counts the memory of the process a child was forked from in the
    child's max RSS. Children forked from the benchmark itself, which holds
    numpy, networkx and a traced jarnet, would report its size. The helper
    stays small, so ``peak_rss_mb`` is the child's own.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], env=CHILD_ENV,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, argv: list[str], cwd: Path) -> Step:
        """Run one command as a child; its wall time and max RSS."""
        err_path = cwd / "stderr.txt"
        self._proc.stdin.write(json.dumps([argv, str(cwd), str(err_path)]) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        code, seconds, maxrss_kib = json.loads(line)
        error = "" if code == 0 else (
            f"exit {code}: " + err_path.read_text(errors="replace").strip())
        return Step(code == 0, seconds, maxrss_kib / 1024.0, error)

    def jarnet(self, argv: list[str], cwd: Path) -> Step:
        step = self.run([sys.executable, "-m", "jarnet", *argv], cwd)
        if step.error:
            step.error = f"{argv[0]} {step.error}"
        return step

    def setup_time(self, cwd: Path) -> float:
        """Wall time of a fresh interpreter start plus ``import jarnet``."""
        step = self.run([sys.executable, "-c", "import jarnet"], cwd)
        if not step.ok:
            raise SetupError(f"import jarnet {step.error}")
        return step.seconds


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop, which tracks the machine's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - start


class Speed:
    """Scales timed intervals to the machine speed at which ``probe_s`` is
    ``REF_PROBE_S``.

    ``probe_s`` runs right before and right after every timed interval (a
    CLI step or an interpreter start), so consecutive intervals share one
    probe. An interval's wall time is multiplied by ``REF_PROBE_S`` over
    the mean of its two probes. The jarnet children run single-threaded,
    mostly in pure-Python loops like the probe, and on the same CPU (see
    ``main``), so a speed phase of that CPU slows both alike.
    """

    def __init__(self):
        self.probes = [probe_s()]

    def restart(self) -> None:
        """Probe again before the next interval, after untimed work."""
        self.probes.append(probe_s())

    def scale(self, seconds: float) -> float:
        """``seconds``, just measured, at the reference speed."""
        before = self.probes[-1]
        self.probes.append(probe_s())
        return seconds * REF_PROBE_S / ((before + self.probes[-1]) / 2)


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# -- jobs and checks ---------------------------------------------------------------

def written(steps) -> list[str]:
    """Files a job writes, in step order: the argument after each ``-o``."""
    return [argv[argv.index("-o") + 1] for _name, argv in steps]


def fixture(wl: Workload, seed: int, cwd: Path) -> bytes:
    """The seed's archive: ``synthetic_jar(seed=seed)`` for one candidate.

    With several, candidate i is ``synthetic_jar(seed=seed * candidates + i)``
    and the one whose graph (built as the job builds it) has vertices x
    edges closest to ``wl.work`` is used.
    """
    from classfile_builder import synthetic_jar

    if wl.candidates == 1:
        return synthetic_jar(n_classes=wl.classes, seed=seed)
    from jarnet.extractor import extract_archive
    from jarnet.graph import build_graph

    path = cwd / "app.jar"

    def distance(data: bytes) -> int:
        path.write_bytes(data)
        g = build_graph(extract_archive(path), PREFIX)
        return abs(g.n * g.m - wl.work)

    return min((synthetic_jar(n_classes=wl.classes, seed=seed * wl.candidates + i)
                for i in range(wl.candidates)), key=distance)


def set_up(launcher: Launcher, wl: Workload, seed: int, cwd: Path) -> str:
    """Write the archive, and for analyze-only jobs its GEXF; the archive's sha256."""
    data = fixture(wl, seed, cwd)
    (cwd / "app.jar").write_bytes(data)
    if not wl.ingest:
        for _name, argv in PREPARE:
            step = launcher.jarnet(argv, cwd)
            if not step.ok:
                raise SetupError(step.error)
    return sha256_bytes(data)


def fixture_problems(digest: str, expected: dict | None) -> list[str]:
    if expected is not None and digest != expected["fixture"]:
        return [f"fixture archive sha256 {digest} != recorded"]
    return []


def digest_outputs(job: Job, files: list[str], cwd: Path) -> None:
    for f in files:
        path = cwd / f
        job.outputs[f] = sha256_bytes(path.read_bytes()) if path.exists() else "missing"


def check_job(job: Job, files: list[str], first: Job | None, expected: dict | None,
              problems: list[str]) -> None:
    """Mark the step that wrote an output failed if that output is wrong."""
    for i, f in enumerate(files):
        got = job.outputs.get(f)
        if got is None:
            continue   # an earlier step failed; the step is already counted
        if first is not None and got != first.outputs.get(f):
            job.failed.add(i)
            problems.append(f"{f} differs from the first repetition")
        if expected is not None and got != expected["outputs"].get(f):
            job.failed.add(i)
            problems.append(f"{f} sha256 {got} != recorded")


def run_job(launcher: Launcher, steps, cwd: Path, speed: Speed) -> Job:
    files = written(steps)
    for f in files:
        (cwd / f).unlink(missing_ok=True)
    results: list[Step] = []
    scaled = 0.0
    for _name, argv in steps:
        results.append(launcher.jarnet(argv, cwd))
        scaled += speed.scale(results[-1].seconds)
        if not results[-1].ok:
            break
    job = Job(results, sum(s.seconds for s in results), scaled)
    job.failed = {i for i in range(len(steps)) if i >= len(results) or not results[i].ok}
    digest_outputs(job, files[:len(results)], cwd)
    return job


def run_traced(steps, cwd: Path):
    """The same job in-process through ``jarnet.cli.main``, under the tracer."""
    import jarnet.cli

    files = written(steps)
    for f in files:
        (cwd / f).unlink(missing_ok=True)
    tracer = Tracer()
    failed = set()
    old = Path.cwd()
    tracer.install()
    try:
        os.chdir(cwd)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            for i, (name, argv) in enumerate(steps):
                if tracer.run(f"cli.{name}", jarnet.cli.main, argv) != 0:
                    failed = set(range(i, len(steps)))
                    break
            seconds = time.perf_counter() - start
    finally:
        os.chdir(old)
        tracer.uninstall()
    job = Job([], seconds, failed=failed)
    digest_outputs(job, [f for i, f in enumerate(files) if i not in failed], cwd)
    return job, tracer


def oracle_problems(wl: Workload, cwd: Path) -> list[str]:
    report = json.loads((cwd / "report.json").read_text(encoding="utf-8"))
    return [f"networkx: {p}" for p in oracle(cwd / "graph.gexf", report, wl.exact_paths)]


# -- one workload ----------------------------------------------------------------

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)   # name -> (value, unit, samples)
    wall: dict = field(default_factory=dict)      # unscaled times, printed but not gated
    problems: list[str] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)  # around each timed interval
    trace: dict | None = None

    def count(self, job: Job, n_steps: int) -> None:
        self.attempted += n_steps
        self.failed += len(job.failed)


def median(values) -> float:
    return float(statistics.median(values))


def run_workload(launcher: Launcher, wl: Workload, seed: int, seconds: float,
                 trace: bool, exp: dict | None) -> Outcome:
    """Set up, run jobs for ``seconds``, check outputs, collect metrics.

    ``exp`` holds the recorded digests to check against, or is None.
    At least one job runs.
    """
    out = Outcome()
    cwd = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    setup_wall: list[float] = []
    setup: list[float] = []

    def sample_setup():
        setup_wall.append(launcher.setup_time(cwd))
        setup.append(speed.scale(setup_wall[-1]))

    try:
        bad_fixture = fixture_problems(
            set_up(launcher, wl, seed, cwd), exp)
        launcher.jarnet(["--version"], cwd)   # fills the bytecode cache, as installs have it
        speed = Speed()
        out.probe_s = speed.probes
        for _ in range(SETUP_SAMPLES):
            sample_setup()
        steps = wl.steps(seed)
        files = written(steps)
        untraced: list[Job] = []
        traced: list[tuple[Job, object]] = []
        start = time.perf_counter()
        # Start another job only if it should end within the window, so a
        # run lasts at most set-up + ``seconds`` (or one job) however slow
        # the machine is.
        while not untraced or (time.perf_counter() - start + untraced[-1].seconds
                               + (traced[-1][0].seconds if traced else 0.0)) <= seconds:
            job = run_job(launcher, steps, cwd, speed)
            check_job(job, files, untraced[0] if untraced else None, exp, out.problems)
            untraced.append(job)
            out.count(job, len(steps))
            sample_setup()
            if trace:
                tjob, tracer = run_traced(steps, cwd)
                check_job(tjob, files, untraced[0], None, out.problems)
                traced.append((tjob, tracer))
                out.count(tjob, len(steps))
                speed.restart()
        # A wrong fixture fails the first job's first step. A networkx
        # disagreement fails the analyze step of the job whose outputs the
        # work directory still holds.
        last = traced[-1][0] if traced else untraced[-1]
        nx_problems = oracle_problems(wl, cwd) if not last.failed else []
        analyze_at = [name for name, _ in steps].index("analyze")
        for problems, job, at in ((bad_fixture, untraced[0], 0),
                                  (nx_problems, last, analyze_at)):
            if problems:
                out.problems += problems
                if at not in job.failed:
                    job.failed.add(at)
                    out.failed += 1
        out.problems += [s.error for job in untraced for s in job.steps if s.error]
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    if trace:
        layer_metrics(out, untraced, traced, steps)
    else:
        out.metrics["job_s"] = (median(j.scaled for j in untraced), "s", len(untraced))
        out.metrics["peak_rss_mb"] = (
            median(max(s.rss_mb for s in j.steps) for j in untraced), "MB", len(untraced))
        out.metrics["setup_s"] = (median(setup), "s", len(setup))
        out.wall["job_wall_s"] = (median(j.seconds for j in untraced), "s", len(untraced))
        out.wall["setup_wall_s"] = (median(setup_wall), "s", len(setup_wall))
    return out


def layer_metrics(out: Outcome, untraced: list[Job], traced, steps) -> None:
    tracers = [t for _, t in traced]
    selfs = [t.self_times() for t in tracers]
    n = len(tracers)
    for name in SELF_S:
        out.metrics[f"{name}.self_s"] = (median(s.get(name, 0.0) for s in selfs), "s", n)
    for name in CALLS:
        out.metrics[f"{name}.calls"] = (tracers[-1].calls.get(name, 0), "count", n)
    for name, unit in COUNTERS.items():
        out.metrics[name] = (tracers[-1].counters.get(name, 0), unit, n)
    names = [name for name, _ in steps]
    for step in CLI_STEPS:
        values = [j.steps[names.index(step)].seconds for j in untraced
                  if step in names and names.index(step) < len(j.steps)]
        out.metrics[f"cli.{step}_s"] = (median(values) if values else 0.0, "s", len(values))
    traced_s = median(j.seconds for j, _ in traced)
    out.metrics["trace.job_s"] = (traced_s, "s", n)
    out.metrics["trace.overhead_frac"] = (
        traced_s / median(j.seconds for j in untraced), "ratio", n)
    out.trace = tracers[-1].dump()


# -- entry points ----------------------------------------------------------------

def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    })


def print_outcome(name: str, out: Outcome, trace: bool) -> None:
    for metric, (value, unit, n) in {**out.metrics, **out.wall}.items():
        note = f"(n={n})" if n else "(n=0: the job has no such step)"
        print(f"{name}  {metric} = {value:.6g} {unit} {note}")
    if not trace:
        print(f"{name}  fail_rate = {out.failed / out.attempted:.6g} "
              f"({out.failed}/{out.attempted} steps)")
    for problem in out.problems:
        print(f"{name}  FAILED CHECK: {problem}")


def load_expected(section: str, seed: int) -> dict:
    """Recorded digests per workload; they hold only at the default seed."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8"))[section]


def smoke(launcher: Launcher, seed: int) -> int:
    """Each workload's job once on the medium fixture, with every check.

    The medium fixture is ``synthetic_jar(n_classes=60, seed=seed)`` for
    every workload, without a choice among candidates.
    """
    expected = load_expected("smoke", seed)
    attempted = failed = 0
    for wl in WORKLOADS.values():
        out = run_workload(launcher, replace(wl, classes=SMOKE_CLASSES, candidates=1),
                           seed, 0.0, False, expected.get(wl.name))
        attempted += out.attempted
        failed += out.failed
        status = "ok" if not out.problems else "FAILED: " + "; ".join(out.problems)
        print(f"smoke {wl.name} ({SMOKE_CLASSES} classes): "
              f"{out.wall['job_wall_s'][0]:.3f} s {status}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run each job once on the 60-class fixture")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "jarnet" / "__init__.py", TESTS / "classfile_builder.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a jarnet checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    env = environment()
    # The benchmark, the launcher and every child share one CPU, so the
    # probes measure the speed of the CPU the jobs run on. The machine's
    # CPUs change speed independently of each other. The last CPU is used
    # because device interrupts are usually taken on the first.
    env["cpu_used"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu_used"]})
    WORK.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    expected = load_expected("workloads", args.seed)
    with Launcher() as launcher:
        try:
            if args.smoke:
                return smoke(launcher, args.seed)
            for name in names:
                outcomes[name] = run_workload(launcher, WORKLOADS[name], args.seed,
                                              args.seconds, bool(args.trace),
                                              expected.get(name))
        except SetupError as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 1
    env["probe_s"] = {name: out.probe_s for name, out in outcomes.items()}
    print("environment " + json.dumps(env))
    for name, out in outcomes.items():
        print_outcome(name, out, bool(args.trace))
        if out.trace is not None:
            path = WORK / f"trace-{name}-seed{args.seed}.json"
            path.write_text(json.dumps({"environment": env, **out.trace}), encoding="utf-8")
            print(f"{name}  spans written to {path.relative_to(ROOT)}")
    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    if len(names) == 1:
        metrics = outcomes[names[0]].metrics
    else:
        metrics = {f"{n}.{k}": v for n, o in outcomes.items() for k, v in o.metrics.items()}
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
