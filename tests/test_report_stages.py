"""The analysis stage table: order, skippable stages' independence, section
types, traced calls."""
from __future__ import annotations

import itertools
import json
import pickle
import sys

import pytest

import jarnet
from jarnet import report
from jarnet.extractor import extract_archive
from jarnet.graph import DirectedGraph, build_graph
from jarnet.report import STAGES, AnalysisResult, analyze_graph, write_plot_data

from test_bench_contract import load_tracing

ANALYSIS = {"seed": 7, "replicates": 2, "top": 5}


def stage_sections(sections: dict) -> dict:
    """Each stage's section, keyed by stage name."""
    return {
        "paths": sections["summary"]["paths"],
        "betweenness": sections["rankings"]["betweenness"],
        "communities": sections["communities"],
        "smallworld": sections["small_world"],
        "powerlaw": sections["power_law"],
    }


def without_stages(sections: dict) -> dict:
    """The sections that do not belong to a skippable stage."""
    summary = {k: v for k, v in sections["summary"].items() if k != "paths"}
    rankings = {k: v for k, v in sections["rankings"].items() if k != "betweenness"}
    return {"summary": summary, "rankings": rankings}


def assert_plain_json(value, where="sections"):
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, (where, key)
            assert_plain_json(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            assert_plain_json(item, f"{where}[{i}]")
    else:
        assert type(value) in (str, int, float, bool, type(None)), \
            (where, type(value))


@pytest.fixture(scope="module")
def medium_graph(medium_jar):
    return build_graph(extract_archive(medium_jar), package_prefix="app")


def test_stage_table_order():
    assert STAGES == ("paths", "betweenness", "communities", "smallworld", "powerlaw")


def test_unknown_stage_is_rejected(medium_graph):
    with pytest.raises(ValueError, match="unknown stages"):
        analyze_graph(medium_graph, skip=("paths", "bogus"))


def test_skipping_leaves_other_sections_alone(medium_graph):
    full = analyze_graph(medium_graph, **ANALYSIS)
    assert_plain_json(full.sections)
    assert full.sections["incomplete"] is False
    full_stages = stage_sections(full.sections)
    assert all("skipped" not in section and "error" not in section
               for section in full_stages.values() if isinstance(section, dict))
    subsets = [s for r in range(1, len(STAGES) + 1)
               for s in itertools.combinations(STAGES, r)]
    assert len(subsets) == 31
    for skip in subsets:
        result = analyze_graph(medium_graph, skip=skip, **ANALYSIS)
        sections = result.sections
        assert_plain_json(sections)
        assert list(sections) == list(full.sections), skip
        assert list(sections["summary"]) == list(full.sections["summary"]), skip
        assert list(sections["rankings"]) == list(full.sections["rankings"]), skip
        assert without_stages(sections) == without_stages(full.sections), skip
        for name, section in stage_sections(sections).items():
            if name in skip:
                assert section == {"skipped": True}, (skip, name)
            else:
                assert section == full_stages[name], (skip, name)
        assert sections["incomplete"] is True
        assert result.community_sizes == (
            None if "communities" in skip else full.community_sizes), skip


def in_a_worker(body):
    """``body`` as a worker process would run it: on a pickled copy of the
    run, handing back a pickled copy of its piece, so that a write to the
    run is lost and only the piece comes back."""
    def stage(run):
        return pickle.loads(pickle.dumps(body(pickle.loads(pickle.dumps(run)))))
    return stage


def edgeless_pair() -> DirectedGraph:
    """Two vertices, no edge: the small-world and power-law stages return
    error sections, which mark the report incomplete."""
    g = DirectedGraph()
    for label in "ab":
        g.add_vertex(label)
    return g


@pytest.mark.parametrize("skip", [(), ("paths",), STAGES],
                         ids=["run_all", "skip_paths", "skip_all"])
@pytest.mark.parametrize("graph", ["medium", "edgeless"])
def test_pieces_are_the_only_stage_output(medium_graph, monkeypatch, graph, skip):
    g = medium_graph if graph == "medium" else edgeless_pair()
    plain = analyze_graph(g, skip=skip, **ANALYSIS)
    for name, body in list(report._TABLE.items()):
        monkeypatch.setitem(report._TABLE, name, in_a_worker(body))
    result = analyze_graph(g, skip=skip, **ANALYSIS)
    assert json.dumps(result.sections) == json.dumps(plain.sections)
    assert result.community_sizes == plain.community_sizes


STAGE_CALLS = {
    "centrality.betweenness": 1,
    "community.louvain": 1,
    "topology.small_world_test": 1,
    "metrics.shortest_path_stats": 2,
    "topology.fit_power_law": 3,
}


@pytest.mark.parametrize("skip", [(), STAGES], ids=["run_all", "skip_all"])
def test_stages_call_through_rebound_module_names(medium_graph, skip):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        analyze_graph(medium_graph, skip=skip, **ANALYSIS)
    finally:
        tracer.uninstall()
    expected = {name: 0 if skip else count for name, count in STAGE_CALLS.items()}
    assert {name: tracer.calls[name] for name in STAGE_CALLS} == expected
    assert tracer.calls["centrality.pagerank"] == 1
    assert tracer.calls["metrics.avg_clustering"] == (1 if skip else 3)


# Every analysis function report calls, each by its module-global name.
ANALYSIS_NAMES = ("degrees", "components", "degree_histogram", "avg_clustering",
                  "shortest_path_stats", "betweenness", "louvain", "small_world_test",
                  "fit_power_law", "pagerank", "top_k")


@pytest.mark.parametrize("skip", [(), STAGES], ids=["run_all", "skip_all"])
def test_table_runs_every_measure(medium_graph, monkeypatch, skip):
    plain = analyze_graph(medium_graph, skip=skip, **ANALYSIS)
    active, ran, called = [], [], set()

    def recorded(name, body):
        def stage(run):
            active.append(name)
            ran.append(name)
            try:
                return body(run)
            finally:
                active.pop()
        return stage

    def inside_a_stage(name, fn):
        def call(*args, **kwargs):
            assert active, f"{name} called outside a stage"
            called.add(name)
            return fn(*args, **kwargs)
        return call

    for name, body in list(report._TABLE.items()):
        monkeypatch.setitem(report._TABLE, name, recorded(name, body))
    for name in ANALYSIS_NAMES:  # patched where defined: the bodies read it there
        fn = getattr(jarnet, name)
        monkeypatch.setattr(sys.modules[fn.__module__], name, inside_a_stage(name, fn))
    result = analyze_graph(medium_graph, skip=skip, **ANALYSIS)
    assert set(STAGES) < set(report._TABLE)
    assert ran == [name for name in report._TABLE if name not in skip]
    assert result.sections == plain.sections
    if not skip:
        assert called == set(ANALYSIS_NAMES)


def test_power_law_fits_csv_lists_only_fitted_entries(tmp_path):
    fit = {"alpha": 2.5, "x_min": 1, "goodness": 0.75, "mle_alpha": 2.25,
           "mle_goodness": 0.125, "method": "loglog_regression"}
    header = "which,alpha,x_min,goodness,mle_alpha,mle_goodness\n"
    for power_law, rows in (
            ({"total": fit, "in": {"error": "DegenerateHistogram: flat"}, "out": fit},
             "total,2.5,1,0.75,2.25,0.125\nout,2.5,1,0.75,2.25,0.125\n"),
            ({"skipped": True}, "")):
        write_plot_data(AnalysisResult(sections={"power_law": power_law}), tmp_path)
        assert (tmp_path / "power_law_fits.csv").read_text(encoding="utf-8") == header + rows
