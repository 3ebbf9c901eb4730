"""Analysis-report assembly, rendering, and plot-data export.

Reports are plain dicts with a fixed key order so serialized output is
byte-stable for identical inputs and seeds. Wall-clock values never enter
a report; inputs are identified by content hash.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .centrality import CentralityVector, betweenness, pagerank, top_k
from .community import community_size_distribution, louvain
from .errors import DegenerateGraph, DegenerateHistogram, JarnetError
from .graph import DirectedGraph
from .metrics import avg_clustering, components, degrees, shortest_path_stats
from .topology import DegreeHistogram, PowerLawFit, degree_histogram, \
    fit_power_law, small_world_test

__all__ = [
    "MEASURES",
    "STAGES",
    "AnalysisResult",
    "analyze_graph",
    "render_table",
    "render_csv",
    "write_plot_data",
    "sha256_file",
]


@dataclass
class AnalysisResult:
    sections: dict
    histograms: dict[str, DegreeHistogram] = field(default_factory=dict)
    fits: dict[str, PowerLawFit] = field(default_factory=dict)
    community_sizes: list[int] | None = None


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _rank_rows(pairs: list[tuple[str, float]]) -> list[dict]:
    return [{"rank": i, "label": label, "score": score}
            for i, (label, score) in enumerate(pairs, start=1)]


@dataclass
class _Run:
    """The options of one analysis and the results its stages share."""
    g: DirectedGraph
    seed: int
    replicates: int
    top: int
    sample_sources: int | None
    clustering: float
    result: AnalysisResult
    paths: dict = field(default_factory=dict)
    incomplete: bool = False

    def guarded(self, fn, *args):
        """``fn(*args)``, or an error section that marks the report incomplete."""
        try:
            return fn(*args)
        except (DegenerateGraph, DegenerateHistogram) as exc:
            self.incomplete = True
            return {"error": f"{type(exc).__name__}: {exc}"}


# The skippable stages, in the order they run. Each returns its section
# and calls the analysis functions by module-global name, so a wrapper
# rebound on this module (as the benchmark's tracer does) sees the call.

def _paths(run: _Run) -> dict:
    run.paths = {mode: shortest_path_stats(run.g, mode=mode, seed=run.seed,
                                           sample_sources=run.sample_sources)
                 for mode in ("directed", "undirected")}
    return {mode: asdict(stats) for mode, stats in run.paths.items()}


def _betweenness(run: _Run) -> list:
    return _rank_rows(top_k(betweenness(run.g), run.top))


def _communities(run: _Run) -> dict:
    part = louvain(run.g, seed=run.seed)
    dist = community_size_distribution(part, top=run.top)
    run.result.community_sizes = dist.sizes
    return {"count": part.n_communities, "q": part.q, "mean_size": dist.mean,
            "top_share": dist.top_share, "sizes_top": dist.sizes[:run.top]}


def _smallworld(run: _Run) -> dict:
    # Without the paths stage, real_paths is None and is computed there.
    return run.guarded(lambda: asdict(small_world_test(
        run.g, replicates=run.replicates, seed=run.seed,
        sample_sources=run.sample_sources, c_real=run.clustering,
        real_paths=run.paths.get("undirected"))))


def _powerlaw(run: _Run) -> dict:
    def fit(which, hist):
        run.result.fits[which] = fitted = fit_power_law(hist)
        return asdict(fitted)
    return {which: run.guarded(fit, which, hist)
            for which, hist in run.result.histograms.items()}


_STAGES = {"paths": _paths, "betweenness": _betweenness, "communities": _communities,
           "smallworld": _smallworld, "powerlaw": _powerlaw}
STAGES = tuple(_STAGES)


def analyze_graph(
    g: DirectedGraph,
    *,
    seed: int = 0,
    replicates: int = 5,
    top: int = 10,
    sample_sources: int | None = None,
    skip: tuple[str, ...] = (),
) -> AnalysisResult:
    """Run every analysis stage on an imported graph.

    Degrees, components, clustering, PageRank and the degree histograms
    always run; the stages of ``STAGES`` run in that order. Stages named
    in ``skip`` are replaced by a ``{"skipped": true}`` marker.
    Degenerate-input failures in the small-world or power-law stages are
    recorded in place as ``{"error": ...}`` rather than aborting. Either
    condition marks the whole report incomplete.
    """
    unknown = set(skip) - set(STAGES)
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")
    deg = degrees(g)
    comp = components(g)
    histograms = {which: degree_histogram(g, which=which)
                  for which in ("total", "in", "out")}
    run = _Run(g, seed, replicates, top, sample_sources, avg_clustering(g),
               AnalysisResult(sections={}, histograms=histograms))
    out = {name: {"skipped": True} if name in skip else stage(run)
           for name, stage in _STAGES.items()}
    degree_vector = CentralityVector(
        "degree", list(g.labels), deg.total_degrees.astype(np.float64))
    run.result.sections = {
        "summary": {
            "vertices": g.n,
            "edges": g.m,
            "kind_counts": {kind: g.kinds.count(kind) for kind in ("method", "class")},
            "avg_degree": deg.avg_degree,
            "clustering": run.clustering,
            "components": {
                "count": comp.count,
                "giant_size": comp.giant_size,
                "giant_fraction": comp.giant_fraction,
            },
            "paths": out["paths"],
        },
        "rankings": {
            "degree": _rank_rows(top_k(degree_vector, top)),
            "betweenness": out["betweenness"],
            "pagerank": _rank_rows(top_k(pagerank(g), top)),
        },
        "communities": out["communities"],
        "small_world": out["smallworld"],
        "power_law": out["powerlaw"],
        "incomplete": bool(skip) or run.incomplete,
    }
    return run.result


# -- rendering ------------------------------------------------------------------

MEASURES = ("summary", "degree", "betweenness", "pagerank", "communities")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _summary_rows(report: dict) -> list[tuple[str, object]]:
    s = report["summary"]
    rows: list[tuple[str, object]] = [
        ("vertices", s["vertices"]),
        ("edges", s["edges"]),
        ("method_vertices", s["kind_counts"]["method"]),
        ("class_vertices", s["kind_counts"]["class"]),
        ("avg_degree", s["avg_degree"]),
        ("clustering", s["clustering"]),
        ("components", s["components"]["count"]),
        ("giant_size", s["components"]["giant_size"]),
        ("giant_fraction", s["components"]["giant_fraction"]),
    ]
    paths = s["paths"]
    if "directed" in paths:
        rows += [
            ("avg_path_directed", paths["directed"]["average"]),
            ("diameter_directed", paths["directed"]["diameter"]),
            ("avg_path_undirected", paths["undirected"]["average"]),
            ("diameter_undirected", paths["undirected"]["diameter"]),
        ]
    communities = report["communities"]
    if "count" in communities:
        rows += [
            ("communities", communities["count"]),
            ("modularity_q", communities["q"]),
        ]
    small_world = report["small_world"]
    if "verdict" in small_world:
        rows += [
            ("small_world_verdict", small_world["verdict"]),
            ("clustering_ratio", small_world["clustering_ratio"]),
            ("distance_ratio", small_world["distance_ratio"]),
        ]
    total_fit = report["power_law"].get("total")
    if isinstance(total_fit, dict) and "alpha" in total_fit:
        rows += [
            ("alpha_regression", total_fit["alpha"]),
            ("alpha_mle", total_fit["mle_alpha"]),
        ]
    return rows


@contextlib.contextmanager
def _reading():
    """Turn a missing or wrongly typed report section into a JarnetError."""
    try:
        yield
    except KeyError as exc:
        raise JarnetError(f"report is missing section {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise JarnetError(f"report has a section of the wrong type: {exc}") from exc


def render_csv(report: dict, measure: str = "summary") -> str:
    """One measure as CSV text (rank lists or the summary key/values)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    with _reading():
        if measure in ("pagerank", "betweenness", "degree"):
            section = report["rankings"][measure]
            if not isinstance(section, list):
                raise JarnetError(f"{measure} was skipped in this report")
            writer.writerow(["rank", "label", "score"])
            for row in section:
                writer.writerow([row["rank"], row["label"], row["score"]])
        elif measure == "communities":
            communities = report["communities"]
            if "sizes_top" not in communities:
                raise JarnetError("communities were skipped in this report")
            writer.writerow(["rank", "size"])
            for i, size in enumerate(communities["sizes_top"], start=1):
                writer.writerow([i, size])
        elif measure == "summary":
            writer.writerow(["measure", "value"])
            for name, value in _summary_rows(report):
                writer.writerow([name, _csv_value(value)])
        else:
            raise JarnetError(f"unknown measure {measure!r}")
    return buf.getvalue()


def render_table(report: dict) -> str:
    """Fixed-layout text rendering of a full report."""
    lines: list[str] = []

    def section(title: str) -> None:
        if lines:
            lines.append("")
        lines.append(title)

    def row(name: str, value) -> None:
        lines.append(f"  {name:<26}{_fmt(value)}")

    with _reading():
        section("network summary")
        for name, value in _summary_rows(report):
            row(name.replace("_", " "), value)

        small_world = report["small_world"]
        section("small world")
        if "verdict" in small_world:
            row("link probability", small_world["p"])
            row("clustering real", small_world["c_real"])
            row("clustering random mean", small_world["c_random_mean"])
            row("avg path real", small_world["d_real"])
            row("avg path random mean", small_world["d_random_mean"])
            row("replicates", small_world["replicates"])
            row("verdict", small_world["verdict"])
        elif "error" in small_world:
            row("error", small_world["error"])
        else:
            row("skipped", True)

        communities = report["communities"]
        section("communities")
        if "count" in communities:
            row("count", communities["count"])
            row("modularity q", communities["q"])
            row("mean size", communities["mean_size"])
            row("top share", communities["top_share"])
        else:
            row("skipped", True)

        power_law = report["power_law"]
        section("power law")
        if "skipped" in power_law:
            row("skipped", True)
        else:
            for which in ("total", "in", "out"):
                fit = power_law.get(which)
                if not isinstance(fit, dict):
                    continue
                if "error" in fit:
                    row(f"{which} degrees", fit["error"])
                else:
                    row(f"{which} alpha (regression)", fit["alpha"])
                    row(f"{which} alpha (mle)", fit["mle_alpha"])
                    row(f"{which} r2 / ks", f"{_fmt(fit['goodness'])} / "
                                            f"{_fmt(fit['mle_goodness'])}")

        for measure in ("degree", "betweenness", "pagerank"):
            ranks = report["rankings"][measure]
            if not isinstance(ranks, list):
                continue
            section(f"top {len(ranks)} by {measure}")
            for entry in ranks:
                lines.append(f"  {entry['rank']:>3}  {entry['label']}  "
                             f"{_fmt(entry['score'])}")

        provenance = report.get("provenance")
        if provenance:
            section("provenance")
            row("tool", f"{provenance['tool']} {provenance['version']}")
            row("input", provenance["input"]["path"])
            row("input sha256", provenance["input"]["sha256"])
            row("seed", provenance["seed"])
            row("replicates", provenance["replicates"])
            row("top", provenance["top"])
            paths = provenance["paths"]
            mode = paths["mode"] if paths["sources"] is None else \
                f"{paths['mode']} ({paths['sources']} sources)"
            row("paths", mode)
            skipped = provenance.get("skipped") or []
            row("skipped stages", ", ".join(skipped) if skipped else "(none)")
    return "\n".join(lines) + "\n"


def write_plot_data(result: AnalysisResult, directory) -> list[str]:
    """CSV plot-data files (degree histograms, fit parameters, community
    sizes); returns the file names written."""
    os.makedirs(directory, exist_ok=True)
    written: list[str] = []

    def emit(name: str, header: list[str], rows) -> None:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        written.append(name)

    for which, hist in result.histograms.items():
        emit(f"degree_histogram_{which}.csv", ["degree", "count"],
             zip(hist.degrees.tolist(), hist.counts.tolist()))
    emit("power_law_fits.csv",
         ["which", "alpha", "x_min", "goodness", "mle_alpha", "mle_goodness"],
         [[which, fit.alpha, fit.x_min, fit.goodness, fit.mle_alpha,
           fit.mle_goodness] for which, fit in result.fits.items()])
    if result.community_sizes is not None:
        emit("community_sizes.csv", ["rank", "size"],
             ((i, size) for i, size in
              enumerate(result.community_sizes, start=1)))
    return written
