"""Analysis-report assembly, rendering, and plot-data export.

Reports are plain dicts with a fixed key order so serialized output is
byte-stable for identical inputs and seeds. Wall-clock values never enter
a report; inputs are identified by content hash.
"""
from __future__ import annotations

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
    "STAGES",
    "AnalysisResult",
    "analyze_graph",
    "render_table",
    "render_csv",
    "write_plot_data",
    "sha256_file",
]

STAGES = ("paths", "betweenness", "communities", "smallworld", "powerlaw")

_SKIPPED = {"skipped": True}


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


def _native(value):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_native(v) for v in value.tolist()]
    return value


def _rank_rows(pairs: list[tuple[str, float]]) -> list[dict]:
    return [{"rank": i, "label": label, "score": score}
            for i, (label, score) in enumerate(pairs, start=1)]


def analyze_graph(
    g: DirectedGraph,
    *,
    seed: int = 0,
    replicates: int = 5,
    top: int = 10,
    threads: int | None = None,
    sample_sources: int | None = None,
    skip: tuple[str, ...] = (),
) -> AnalysisResult:
    """Run every analysis stage on an imported graph.

    Stages named in ``skip`` are replaced by a ``{"skipped": true}``
    marker. Degenerate-input failures in the small-world or power-law
    stages are recorded in place as ``{"error": ...}`` rather than
    aborting. Either condition marks the whole report incomplete.
    ``threads`` is accepted for interface compatibility and has no
    effect: every analysis kernel is single-threaded numpy.
    """
    unknown = set(skip) - set(STAGES)
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")
    errors_seen = False

    deg = degrees(g)
    comp = components(g)
    kind_counts = {
        "method": sum(1 for k in g.kinds if k == "method"),
        "class": sum(1 for k in g.kinds if k == "class"),
    }
    summary = {
        "vertices": g.n,
        "edges": g.m,
        "kind_counts": kind_counts,
        "avg_degree": deg.avg_degree,
        "clustering": avg_clustering(g),
        "components": {
            "count": comp.count,
            "giant_size": comp.giant_size,
            "giant_fraction": comp.giant_fraction,
        },
    }
    paths: dict = {}
    if "paths" in skip:
        summary["paths"] = dict(_SKIPPED)
    else:
        paths = {mode: shortest_path_stats(
                     g, mode=mode, sample_sources=sample_sources, seed=seed)
                 for mode in ("directed", "undirected")}
        summary["paths"] = {mode: asdict(stats) for mode, stats in paths.items()}

    degree_vector = CentralityVector(
        "degree", list(g.labels), deg.total_degrees.astype(np.float64))
    rankings: dict = {"degree": _rank_rows(top_k(degree_vector, top))}
    if "betweenness" in skip:
        rankings["betweenness"] = dict(_SKIPPED)
    else:
        rankings["betweenness"] = _rank_rows(
            top_k(betweenness(g), top))
    rankings["pagerank"] = _rank_rows(top_k(pagerank(g), top))

    histograms = {which: degree_histogram(g, which=which)
                  for which in ("total", "in", "out")}

    result = AnalysisResult(sections={}, histograms=histograms)

    if "communities" in skip:
        communities: dict = dict(_SKIPPED)
    else:
        part = louvain(g, seed=seed)
        dist = community_size_distribution(part, top=top)
        result.community_sizes = dist.sizes
        communities = {
            "count": part.n_communities,
            "q": part.q,
            "mean_size": dist.mean,
            "top_share": dist.top_share,
            "sizes_top": dist.sizes[:top],
        }

    if "smallworld" in skip:
        small_world: dict = dict(_SKIPPED)
    else:
        try:
            small_world = asdict(small_world_test(
                g, replicates=replicates, seed=seed,
                sample_sources=sample_sources,
                c_real=summary["clustering"],
                real_paths=paths.get("undirected")))
        except DegenerateGraph as exc:
            small_world = {"error": f"{type(exc).__name__}: {exc}"}
            errors_seen = True

    if "powerlaw" in skip:
        power_law: dict = dict(_SKIPPED)
    else:
        power_law = {}
        for which, hist in histograms.items():
            try:
                fit = fit_power_law(hist)
                result.fits[which] = fit
                power_law[which] = asdict(fit)
            except DegenerateHistogram as exc:
                power_law[which] = {"error": f"{type(exc).__name__}: {exc}"}
                errors_seen = True

    result.sections = _native({
        "summary": summary,
        "rankings": rankings,
        "communities": communities,
        "small_world": small_world,
        "power_law": power_law,
        "incomplete": bool(skip) or errors_seen,
    })
    return result


# -- rendering ------------------------------------------------------------------

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
    total_fit = report["power_law"].get("total") \
        if isinstance(report["power_law"], dict) else None
    if isinstance(total_fit, dict) and "alpha" in total_fit:
        rows += [
            ("alpha_regression", total_fit["alpha"]),
            ("alpha_mle", total_fit["mle_alpha"]),
        ]
    return rows


def render_csv(report: dict, measure: str = "summary") -> str:
    """One measure as CSV text (rank lists or the summary key/values)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    try:
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
    except KeyError as exc:
        raise JarnetError(f"report is missing section {exc}") from exc
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

    try:
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
        if isinstance(power_law, dict) and "skipped" in power_law:
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
    except KeyError as exc:
        raise JarnetError(f"report is missing section {exc}") from exc
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
