"""Record serialization: fraction strings, label lists, render lines, and
the certificate writer against json.dumps."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert import cli
from conecert.corpus import named_basis
from conecert.linalg import QVector
from conecert.partitions import OrderedPartition
from conecert.reports import (
    coords_list,
    mask_labels,
    render_json,
    render_verdict_line,
    report_record,
    signs_str,
    summary_record,
    verdict_record,
    write_certificates,
)
from conecert.verifiers import IDENTITIES, CellRecord, CertificateReport, certify, verify

from conftest import qv


def oracle_json(records, reports, summary, walls=None) -> str:
    """render_json of the certify payload, with one dict per cell."""
    full = []
    for rec, rep in zip(records, reports, strict=True):
        rec = dict(rec)
        rec["cells"] = [
            {
                "signs": signs_str(c.signs),
                "H": coords_list(c.witness),
                "lhs": c.lhs,
                "rhs": c.rhs,
                "pass": c.ok,
            }
            for c in rep.cells
        ]
        full.append(rec)
    payload = {"records": full, "summary": summary}
    if walls is not None:
        payload["wall_probes"] = walls
    return render_json(payload)


def written(records, reports, summary, walls=None) -> str:
    buf = io.StringIO()
    write_certificates(buf, records, reports, summary, walls)
    return buf.getvalue()


def test_frac_str():
    """coords_list writes fraction strings; an int and the equal Fraction agree."""
    assert coords_list((Fraction(1, 2), 3, Fraction(-7, 3))) == ["1/2", "3", "-7/3"]
    assert coords_list((3, -4, 0)) == coords_list((Fraction(3), Fraction(-4), Fraction(0)))


def test_coords_list():
    assert coords_list(QVector([1, Fraction(-1, 2)])) == ["1", "-1/2"]
    assert coords_list((2, -5)) == coords_list(QVector([2, -5])) == ["2", "-5"]


def test_mask_labels(a2):
    assert mask_labels(a2, 0b11) == ["a1", "a2"]
    assert mask_labels(a2, 0) == []


def test_signs_str():
    assert signs_str((1, -1, 1)) == "+-+"
    assert signs_str(()) == ""


def test_verdict_record_keys(a2):
    v = verify(a2, "C36", p=0, r=3, lam=qv(1, 1), h=qv(3, -1))
    rec = verdict_record(a2, v)
    assert rec["identity"] == "C36"
    assert rec["basis"] == "A2"
    assert rec["P"] == []
    assert rec["R"] == ["a1", "a2"]
    assert rec["Lambda"] == ["1", "1"]
    assert rec["H"] == ["3", "-1"]
    assert rec["pass"] is True
    assert list(rec)[:2] == ["identity", "basis"]


def test_verdict_record_partition(a2):
    part = OrderedPartition(0b11, (0b10, 0b01))
    v = verify(a2, "STARSTAR_SIGNS", p=0, r=3, partition=part, lam=qv(1, -1))
    rec = verdict_record(a2, v)
    assert rec["partition"] == [["a2"], ["a1"]]


def test_report_record_cells_and_failures(a2):
    rep = certify(a2, "BOULDER_21", lam=qv(2, 3))
    rec = report_record(a2, rep)
    assert "cells" not in rec and "failures" not in rec  # the writer adds cells
    (parsed,) = json.loads(written([rec], [rep], summary_record([rec])))["records"]
    assert len(parsed["cells"]) == rep.num_cells
    assert parsed["pass"] is True
    assert [c for c in parsed["cells"] if not c["pass"]] == []


def test_summary_record():
    assert summary_record([{"pass": True}, {"pass": False}, {"pass": True}]) == {
        "total": 3,
        "passed": 2,
        "failed": 1,
    }


def test_render_json_parses_back():
    payload = {"a": [1, 2], "b": "x"}
    text = render_json(payload)
    assert text.endswith("\n")
    assert json.loads(text) == payload


def test_render_verdict_line(a2):
    v = verify(a2, "L32", p=0, r=3, h=qv(3, -1))
    line = render_verdict_line(verdict_record(a2, v))
    assert line.startswith("pass L32 basis=A2")
    assert "P={}" in line
    assert "R={a1,a2}" in line
    assert "lhs=" in line and "rhs=" in line


# -- the certificate writer --------------------------------------------------


@pytest.fixture
def certify_json(capsys, monkeypatch):
    """Run `certify ... --format json`: (exit code, stdout, oracle_json of its payload)."""
    real = cli.write_certificates
    seen = []

    def spy(fh, *args):
        seen.append(args)
        real(fh, *args)

    monkeypatch.setattr(cli, "write_certificates", spy)

    def run(*argv):
        code = cli.main(["certify", *argv, "--format", "json"])
        out = capsys.readouterr().out
        (args,) = seen
        seen.clear()
        return code, out, oracle_json(*args)

    return run


@pytest.mark.parametrize("ident", IDENTITIES)
def test_writer_matches_json_dumps_on_a3(certify_json, ident):
    code, out, want = certify_json("--identity", ident, "--basis", "A3")
    assert code == 0
    assert out == want
    assert out == render_json(json.loads(out))


def test_writer_failing_cells(certify_json):
    code, out, want = certify_json("--identity", "L33_EQ1", "--basis", "A3", "--mode", "exploratory")
    assert code == 1
    assert out == want
    cells = [c for r in json.loads(out)["records"] for c in r["cells"]]
    assert any(not c["pass"] for c in cells) and any(c["pass"] for c in cells)


def test_writer_wall_probes(certify_json):
    code, out, want = certify_json("--identity", "BOULDER_21", "--basis", "B2", "--wall-probe")
    assert code == 0
    assert out == want
    assert json.loads(out)["wall_probes"]


def test_writer_out_file(certify_json, tmp_path):
    path = tmp_path / "cert.json"
    code, out, want = certify_json("--identity", "C36", "--basis", "B2", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text(encoding="utf-8") == want


def test_writer_keys_heads_by_witness_too(a2):
    # certify-matrix runs repeat sign vectors with other witnesses
    signs = (1, -1)
    reps = [
        CertificateReport("C36", {}, 2, 0, [CellRecord(signs, qv(x, -x), 0, 0)]) for x in (1, 2)
    ]
    recs = [report_record(a2, rep) for rep in reps]
    text = written(recs, reps, summary_record(recs))
    assert text == oracle_json(recs, reps, summary_record(recs))
    assert [r["cells"][0]["H"] for r in json.loads(text)["records"]] == [["1", "-1"], ["2", "-2"]]


_A2 = named_basis("A2")
_fracs = st.fractions(min_value=-40, max_value=40, max_denominator=9)


@st.composite
def certificate_payloads(draw):
    """Reports sharing a pool of (signs, witness) cells, as one session's runs do."""
    dim = draw(st.integers(0, 3))
    m = draw(st.integers(0, 3))
    raw = st.tuples(
        st.tuples(*[st.sampled_from((-1, 1))] * m),
        st.lists(_fracs, min_size=dim, max_size=dim).map(QVector)
        | st.lists(st.integers(-40, 40), min_size=dim, max_size=dim).map(tuple),
    )
    pool = draw(st.lists(raw, max_size=4))
    reports = []
    for _ in range(draw(st.integers(0, 3))):
        picks = draw(st.lists(st.sampled_from(pool), max_size=5)) if pool else []
        value = st.integers(-9, 9)
        cells = [CellRecord(s, h, draw(value), draw(value)) for s, h in picks]
        lam = draw(st.none() | st.lists(_fracs, min_size=2, max_size=2).map(QVector))
        params = {} if lam is None else {"lam": lam}
        reports.append(CertificateReport("BOULDER_21", params, m, draw(st.integers(0, 5)), cells))
    wall = st.fixed_dictionaries(
        {"identity": st.just("C36"), "lhs": st.integers(-3, 3), "wall": st.text(max_size=4)}
    )
    walls = draw(st.none() | st.lists(wall, max_size=2))
    return reports, walls


@settings(max_examples=200, deadline=None)
@given(certificate_payloads())
def test_writer_matches_json_dumps_drawn(payload):
    reports, walls = payload
    records = [report_record(_A2, rep) for rep in reports]
    summary = summary_record(records)
    assert written(records, reports, summary, walls) == oracle_json(records, reports, summary, walls)
