"""Outside files that cannot be read end in exit 2, and a GEXF graph with
any node kind survives an export and import."""
from __future__ import annotations

import pytest

from jarnet.gexf import export_gexf, import_gexf

from test_report_cli import run


@pytest.mark.parametrize("content", [
    pytest.param(b'{"format": "jarnet-analysis/1", "x": "\xff"}', id="not-utf8"),
    pytest.param(b"[" * 200_000 + b"]" * 200_000, id="deep-nesting"),
    pytest.param(b'{"x": ' + b"1" * 5000 + b"}", id="long-integer"),
])
def test_report_unreadable_file_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "report.json"
    bad.write_bytes(content)
    code, _, err = run(["report", str(bad)], capsys)
    assert code == 2
    assert f"{bad}: not a valid report file" in err
    assert "internal error" not in err


def test_build_table_not_utf8_exits_2(tmp_path, capsys):
    table = tmp_path / "rel.csv"
    table.write_bytes(b"caller_kind,caller,callee_kind,callee\n"
                      b"M,a.B::foo,M,c.D::b\xe9r\n")
    code, _, err = run(["build", str(table), "-o", str(tmp_path / "g.gexf")], capsys)
    assert code == 2
    assert f"{table}: not UTF-8 text" in err
    assert "internal error" not in err


GEXF_WITH_ODD_KINDS = """<?xml version="1.0" encoding="UTF-8"?>
<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <graph defaultedgetype="directed">
    <attributes class="node"><attribute id="k" title="kind" type="string"/></attributes>
    <nodes>
      <node id="a" label="p.A"><attvalues><attvalue for="k" value="a&quot;b&amp;c&lt;d&gt;"/></attvalues></node>
      <node id="b" label="p.B"><attvalues><attvalue for="k" value='both " and &apos;'/></attvalues></node>
      <node id="c" label="p.C::m"><attvalues><attvalue for="k" value="tab&#9;line&#10;"/></attvalues></node>
    </nodes>
    <edges><edge source="a" target="b"/><edge source="b" target="c"/></edges>
  </graph>
</gexf>
"""


def test_gexf_kinds_with_markup_round_trip(tmp_path):
    source = tmp_path / "odd.gexf"
    source.write_text(GEXF_WITH_ODD_KINDS, encoding="utf-8")
    g = import_gexf(source)
    assert g.kinds == ['a"b&c<d>', "both \" and '", "tab\tline\n"]
    first, second = tmp_path / "first.gexf", tmp_path / "second.gexf"
    export_gexf(g, first)
    back = import_gexf(first)
    assert back.kinds == g.kinds and back.labels == g.labels
    assert list(back.edges()) == list(g.edges())
    export_gexf(back, second)
    assert second.read_bytes() == first.read_bytes()
