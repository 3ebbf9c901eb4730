"""Command-line pipeline: extract -> build -> analyze -> report.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import JarnetError
from .extractor import extract_archive
from .gexf import export_gexf, import_gexf
from .graph import build_graph
from .names import read_relation_table, write_relation_table
from .report import (
    MEASURES,
    STAGES,
    analyze_graph,
    render_csv,
    render_table,
    sha256_file,
    write_plot_data,
)


def _write_output(text: str, destination: str) -> None:
    if destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _cmd_extract(args: argparse.Namespace) -> int:
    table = extract_archive(args.archive, tolerant=args.tolerant)
    write_relation_table(table, args.output, format=args.format,
                         with_descriptors=args.descriptors)
    stats = table.stats
    print(f"wrote {args.output}: classes={stats.entries_scanned} "
          f"records={len(table.records)} call_sites={stats.call_sites} "
          f"unresolved={stats.unresolved_sites} "
          f"entries_skipped={stats.entries_skipped} "
          f"bad_code_methods={stats.bad_code_methods}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    table = read_relation_table(args.table)
    graph = build_graph(table, package_prefix=args.prefix,
                        with_descriptors=args.descriptors)
    export_gexf(graph, args.output)
    shown = args.prefix if args.prefix else "(none)"
    print(f"wrote {args.output}: vertices={graph.n} edges={graph.m} "
          f"prefix={shown}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    skip = tuple(dict.fromkeys(args.skip or ()))
    # No name holds the graph, so it is freed before the digest loads OpenSSL.
    result = analyze_graph(import_gexf(args.gexf), seed=args.seed,
                           replicates=args.replicates, top=args.top,
                           sample_sources=args.sampled_paths, skip=skip)
    provenance = {
        "tool": "jarnet",
        "version": __version__,
        "input": {
            "path": str(args.gexf),
            "sha256": sha256_file(args.gexf),
            "bytes": os.path.getsize(args.gexf),
        },
        "seed": args.seed,
        "replicates": args.replicates,
        "top": args.top,
        "paths": {
            "mode": "exact" if args.sampled_paths is None else "sampled",
            "sources": args.sampled_paths,
        },
        "skipped": list(skip),
    }
    report = {"format": "jarnet-analysis/1", "provenance": provenance}
    report.update(result.sections)
    _write_output(json.dumps(report, indent=2, ensure_ascii=False) + "\n",
                  args.output)
    if args.plots:
        write_plot_data(result, args.plots)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    # ValueError covers bad JSON, bad UTF-8 and ints over the digit limit.
    except (ValueError, RecursionError) as exc:
        raise JarnetError(f"{args.report}: not a valid report file: {exc}") \
            from exc
    if not isinstance(report, dict):
        raise JarnetError(f"{args.report}: not a valid report file")
    if args.format == "table":
        text = render_table(report)
    else:
        text = render_csv(report, measure=args.measure)
    _write_output(text, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jarnet",
        description="Extract call graphs from Java archives and analyze "
                    "their network topology.")
    parser.add_argument("--version", action="version",
                        version=f"jarnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser(
        "extract", help="scan an archive into a caller/callee relation table")
    p_extract.add_argument("archive", help="path to a .jar/.zip archive")
    p_extract.add_argument("-o", "--output", required=True,
                           help="relation table file to write")
    p_extract.add_argument("--format", choices=("csv", "tsv"), default=None,
                           help="table format (default: by file suffix)")
    p_extract.add_argument("--descriptors", action="store_true",
                           help="keep method descriptors to separate overloads")
    p_extract.add_argument("--tolerant", action="store_true",
                           help="skip undecodable class entries instead of failing")
    p_extract.add_argument("--threads", type=_int_at_least(1), default=None,
                           help="accepted for compatibility; no effect, "
                                "class files are parsed in one thread")
    p_extract.set_defaults(func=_cmd_extract)

    p_build = sub.add_parser(
        "build", help="build the method/class graph from a relation table")
    p_build.add_argument("table", help="relation table file")
    p_build.add_argument("-o", "--output", required=True,
                         help="GEXF file to write")
    p_build.add_argument("--prefix", default="",
                         help="keep only records whose classes sit under "
                              "this package prefix")
    p_build.add_argument("--descriptors", action="store_true",
                         help="label methods with descriptors")
    p_build.set_defaults(func=_cmd_build)

    p_analyze = sub.add_parser(
        "analyze", help="compute network measures and write a report")
    p_analyze.add_argument("gexf", help="GEXF graph file")
    p_analyze.add_argument("-o", "--output", default="-",
                           help="report file to write ('-' for stdout)")
    p_analyze.add_argument("--seed", type=_int_at_least(0), default=0,
                           help="base seed for all randomized stages")
    p_analyze.add_argument("--replicates", type=_int_at_least(1), default=5,
                           help="random baseline replicates")
    p_analyze.add_argument("--top", type=_int_at_least(1), default=10,
                           help="length of the ranking lists")
    p_analyze.add_argument("--threads", type=_int_at_least(1), default=None,
                           help="accepted for compatibility; no effect, "
                                "every analysis kernel is single-threaded numpy")
    paths = p_analyze.add_mutually_exclusive_group()
    paths.add_argument("--exact-paths", action="store_true",
                       help="all-sources path statistics (default)")
    paths.add_argument("--sampled-paths", type=_int_at_least(1), metavar="K",
                       default=None,
                       help="estimate path statistics from K seeded sources")
    p_analyze.add_argument("--skip", action="append", choices=STAGES,
                           default=None, metavar="STAGE",
                           help=f"skip a stage ({', '.join(STAGES)}); "
                                "repeatable")
    p_analyze.add_argument("--plots", default=None, metavar="DIR",
                           help="also write plot-data CSV files here")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_report = sub.add_parser(
        "report", help="render a report for reading or spreadsheets")
    p_report.add_argument("report", help="report file from 'analyze'")
    p_report.add_argument("-o", "--output", default="-",
                          help="output file ('-' for stdout)")
    p_report.add_argument("--format", choices=("table", "csv"),
                          default="table")
    p_report.add_argument("--measure", choices=MEASURES, default="summary",
                          help="which measure a CSV rendering shows")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (JarnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - contract: 3 = internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
