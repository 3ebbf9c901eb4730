"""Analysis-report assembly, rendering, and plot-data export.

Reports are plain dicts with a fixed key order so serialized output is
byte-stable for identical inputs and seeds. Wall-clock values never enter
a report; inputs are identified by content hash.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
from typing import NamedTuple

from ._lazy import np
from .centrality import CentralityVector, betweenness, pagerank, top_k
from .community import community_size_distribution, louvain
from .errors import DegenerateGraph, DegenerateHistogram, JarnetError
from .graph import DirectedGraph
from .metrics import avg_clustering, components, degrees, shortest_path_stats
from .topology import DegreeHistogram, degree_histogram, fit_power_law, small_world_test

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


class AnalysisResult(NamedTuple):
    sections: dict
    histograms: dict[str, DegreeHistogram] = {}  # never written: shared safely
    community_sizes: list[int] | None = None


def sha256_file(path) -> str:
    import hashlib  # here: only analyze hashes, and _hashlib is slow to load

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _ranked(run: _Run, vector: CentralityVector) -> list[dict]:
    return [{"rank": i, "label": label, "score": score}
            for i, (label, score) in enumerate(top_k(vector, run.top), start=1)]


class _Run(NamedTuple):
    """The options of one analysis and the pieces its stages have returned."""

    g: DirectedGraph
    seed: int
    replicates: int
    top: int
    sample_sources: int | None
    pieces: dict


def _guarded(fn, *args):
    """``fn(*args)``, or the error section of a degenerate input."""
    try:
        return fn(*args)
    except (DegenerateGraph, DegenerateHistogram) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


# Every measure is a stage: a body that takes the run and returns its piece
# of the report, reading an earlier stage's result as that stage's piece.
# The piece is a stage's only output: the report's ``incomplete`` and the
# plot data's community sizes are read from the pieces after the last stage.
# Bodies call the analysis functions by module-global name, so a wrapper
# rebound on this module (as the benchmark's tracer does) sees the call.
_SKIPPABLE = {
    "paths": lambda run: {mode: shortest_path_stats(run.g, mode=mode, seed=run.seed,
                                                    sample_sources=run.sample_sources)
                          for mode in ("directed", "undirected")},
    "betweenness": lambda run: _ranked(run, betweenness(run.g)),
    "communities": lambda run: (part := louvain(run.g, seed=run.seed),
                                community_size_distribution(part, top=run.top)),
    # A skipped paths piece has no "undirected"; small_world_test computes it.
    "smallworld": lambda run: _guarded(lambda: small_world_test(
        run.g, replicates=run.replicates, seed=run.seed, sample_sources=run.sample_sources,
        c_real=run.pieces["clustering"],
        real_paths=run.pieces["paths"].get("undirected"))._asdict()),
    "powerlaw": lambda run: {which: _guarded(lambda h: fit_power_law(h)._asdict(), hist)
                             for which, hist in run.pieces["histograms"].items()},
}
STAGES = tuple(_SKIPPABLE)
# The order decides the first EmptyGraph raised, where the analysis peaks in
# memory, and the order of a tracer's spans.
_TABLE = {
    "degrees": lambda run: degrees(run.g),
    "components": lambda run: components(run.g),
    "histograms": lambda run: {which: degree_histogram(run.g, which=which)
                               for which in ("total", "in", "out")},
    "clustering": lambda run: avg_clustering(run.g),
    **_SKIPPABLE,
    "degree_ranking": lambda run: _ranked(run, CentralityVector(
        list(run.g.labels), run.pieces["degrees"].total_degrees.astype(np.float64))),
    "pagerank": lambda run: _ranked(run, pagerank(run.g)),
}


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

    Every measure is one stage of one ordered table: degrees, components,
    the degree histograms, clustering, the stages of ``STAGES`` in that
    order, then the degree ranking and PageRank. Stages named in ``skip``
    are replaced by a ``{"skipped": true}`` marker. Degenerate-input
    failures in the small-world or power-law stages are recorded in place
    as ``{"error": ...}`` rather than aborting. Either condition marks the
    whole report incomplete. A stage's piece is its only output: the
    sections, ``incomplete`` and the plot data's community sizes are read
    from the pieces after the last stage.
    """
    unknown = set(skip) - set(STAGES)
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")
    run = _Run(g, seed, replicates, top, sample_sources, {})
    for name, stage in _TABLE.items():
        run.pieces[name] = {"skipped": True} if name in skip else stage(run)
    piece, comp, paths = run.pieces, run.pieces["components"], run.pieces["paths"]
    communities, sizes = piece["communities"], None
    if "communities" not in skip:
        part, dist = communities
        sizes = dist.sizes
        communities = {"count": part.n_communities, "q": part.q, "mean_size": dist.mean,
                       "top_share": dist.top_share, "sizes_top": sizes[:top]}
    return AnalysisResult({
        "summary": {
            "vertices": g.n,
            "edges": g.m,
            "kind_counts": {kind: g.kinds.count(kind) for kind in ("method", "class")},
            "avg_degree": piece["degrees"].avg_degree,
            "clustering": piece["clustering"],
            "components": {
                "count": comp.count,
                "giant_size": comp.giant_size,
                "giant_fraction": comp.giant_fraction,
            },
            "paths": paths if "paths" in skip else {
                mode: stats._asdict() for mode, stats in paths.items()},
        },
        "rankings": {
            "degree": piece["degree_ranking"],
            "betweenness": piece["betweenness"],
            "pagerank": piece["pagerank"],
        },
        "communities": communities,
        "small_world": piece["smallworld"],
        "power_law": piece["powerlaw"],
        "incomplete": bool(skip) or "error" in piece["smallworld"]
        or any("error" in fit for fit in piece["powerlaw"].values()),
    }, piece["histograms"], sizes)


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


def _checked(section, name: str, kind: type = dict):
    """``section``, checked to be of ``kind``, as that report section must be."""
    if not isinstance(section, kind):
        raise JarnetError(f"report has a section of the wrong type: {name} is "
                          f"a {type(section).__name__}")
    return section


def _key_value_sections(report: dict) -> dict[str, list[tuple[str, object]]]:
    """The table's key/value sections by title, each report section read and
    type-checked once. Summary rows are named as the summary CSV prints them."""
    s = _checked(report["summary"], "summary")
    paths = _checked(s["paths"], "summary.paths")
    communities, small_world, power_law = (
        _checked(report[name], name) for name in ("communities", "small_world", "power_law"))
    summary: list[tuple[str, object]] = [
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
    sections = {"network summary": summary, "small world": [("skipped", True)],
                "communities": [("skipped", True)], "power law": [("skipped", True)]}
    if "directed" in paths:
        summary += [
            ("avg_path_directed", paths["directed"]["average"]),
            ("diameter_directed", paths["directed"]["diameter"]),
            ("avg_path_undirected", paths["undirected"]["average"]),
            ("diameter_undirected", paths["undirected"]["diameter"]),
        ]
    if "count" in communities:
        summary += [
            ("communities", communities["count"]),
            ("modularity_q", communities["q"]),
        ]
        sections["communities"] = [
            ("count", communities["count"]),
            ("modularity q", communities["q"]),
            ("mean size", communities["mean_size"]),
            ("top share", communities["top_share"]),
        ]
    if "verdict" in small_world:
        summary += [
            ("small_world_verdict", small_world["verdict"]),
            ("clustering_ratio", small_world["clustering_ratio"]),
            ("distance_ratio", small_world["distance_ratio"]),
        ]
        sections["small world"] = [
            ("link probability", small_world["p"]),
            ("clustering real", small_world["c_real"]),
            ("clustering random mean", small_world["c_random_mean"]),
            ("avg path real", small_world["d_real"]),
            ("avg path random mean", small_world["d_random_mean"]),
            ("replicates", small_world["replicates"]),
            ("verdict", small_world["verdict"]),
        ]
    elif "error" in small_world:
        sections["small world"] = [("error", small_world["error"])]
    if "skipped" not in power_law:
        law = sections["power law"] = []
        for which in ("total", "in", "out"):
            fit = _checked(power_law[which], f"power_law.{which}")
            if "error" in fit:
                law.append((f"{which} degrees", fit["error"]))
                continue
            if which == "total":
                summary += [
                    ("alpha_regression", fit["alpha"]),
                    ("alpha_mle", fit["mle_alpha"]),
                ]
            law += [
                (f"{which} alpha (regression)", fit["alpha"]),
                (f"{which} alpha (mle)", fit["mle_alpha"]),
                (f"{which} r2 / ks", f"{_fmt(fit['goodness'])} / "
                                     f"{_fmt(fit['mle_goodness'])}"),
            ]
    return sections


def _rankings(report: dict, measures=("degree", "betweenness", "pagerank")):
    """Yield (measure, rows) for each ranking in ``measures`` whose stage ran."""
    for measure in measures:
        ranks = report["rankings"][measure]
        if ranks != {"skipped": True}:
            yield measure, _checked(ranks, f"rankings.{measure}", list)


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
            ranks = dict(_rankings(report, (measure,))).get(measure)
            if ranks is None:
                raise JarnetError(f"{measure} was skipped in this report")
            writer.writerow(["rank", "label", "score"])
            for row in ranks:
                writer.writerow([row["rank"], row["label"], row["score"]])
        elif measure == "communities":
            communities = _checked(report["communities"], "communities")
            if "sizes_top" not in communities:
                raise JarnetError("communities were skipped in this report")
            writer.writerow(["rank", "size"])
            for i, size in enumerate(communities["sizes_top"], start=1):
                writer.writerow([i, size])
        elif measure == "summary":
            writer.writerow(["measure", "value"])
            for name, value in _key_value_sections(report)["network summary"]:
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
        for title, rows in _key_value_sections(report).items():
            section(title)
            for name, value in rows:
                row(name.replace("_", " "), value)

        for measure, ranks in _rankings(report):
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
         [[which, fit["alpha"], fit["x_min"], fit["goodness"], fit["mle_alpha"],
           fit["mle_goodness"]] for which, fit in result.sections["power_law"].items()
          if isinstance(fit, dict) and "alpha" in fit])
    if result.community_sizes is not None:
        emit("community_sizes.csv", ["rank", "size"],
             ((i, size) for i, size in
              enumerate(result.community_sizes, start=1)))
    return written
