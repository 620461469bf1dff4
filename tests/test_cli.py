"""Command line behavior: verbs, exit codes, formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import conecert
from conecert.cli import _parse_mode, main
from conecert.corpus import named_basis
from conecert.errors import ConecertError, InvalidMode
from conecert.verifiers import CertifySession

from oracles import save_basis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bases_listing(capsys):
    code, out, err = run(capsys, "bases")
    assert code == 0
    assert "A2: rank 2" in out
    assert "G2: rank 2" in out
    assert err == ""


def test_bases_emit_json(capsys):
    code, out, _ = run(capsys, "bases", "--basis", "G2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2
    assert data["gram"] == [["2", "-3"], ["-3", "6"]]


def test_bases_emit_random(capsys):
    code1, out1, _ = run(capsys, "bases", "--rank", "3", "--seed", "4", "--format", "json")
    code2, out2, _ = run(capsys, "bases", "--rank", "3", "--seed", "4", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "bases", "--rank", "3", "--seed", "5", "--format", "json")
    assert out3 != out1


def test_verify_passes_on_chain(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--identity", "BOULDER_21", "--basis", "A2",
        "--samples", "12", "--lambda-samples", "3",
    )
    assert code == 0
    assert "0 failed" in out


def test_verify_json_payload(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--identity", "L32", "--basis", "A1",
        "--samples", "5", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == 0
    rec = data["records"][0]
    assert rec["identity"] == "L32"
    assert rec["pass"] is True
    assert "P" in rec and "R" in rec and "H" in rec


def test_verify_covers_non_nested_pairs(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--identity", "L32", "--basis", "A2",
        "--samples", "4", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    notes = {r.get("note", "") for r in data["records"]}
    assert "non-nested pair" in notes


@pytest.mark.parametrize("identity", sorted(conecert.IDENTITIES))
def test_verify_sweeps_every_identity(capsys, identity):
    """The sweep's non-nested-pair test reads only the parameters an identity takes."""
    code, out, err = run(
        capsys,
        "verify", "--identity", identity, "--basis", "A2",
        "--samples", "2", "--lambda-samples", "1", "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"]["failed"] == 0


def test_verify_exploratory_failures_exit_one(capsys, tmp_path):
    path = tmp_path / "sharp.json"
    from conecert.geometry import make_basis

    save_basis(make_basis([[3, 1], [1, 3]], name="sharp"), str(path))
    code, out, _ = run(
        capsys,
        "verify", "--identity", "L33_EQ1", "--basis", str(path),
        "--mode", "exploratory", "--samples", "25", "--lambda-samples", "4",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_strict_non_obtuse_uses_zero_direction(capsys):
    # seed 1 draws a rank-2 gram with a positive off-diagonal entry
    path_code = run(
        capsys,
        "verify", "--identity", "L33_EQ1", "--rank", "2", "--seed", "1",
        "--samples", "10", "--format", "json",
    )
    code, out = path_code[0], path_code[1]
    assert code == 0
    data = json.loads(out)
    lams = {tuple(r["Lambda1"]) for r in data["records"] if "Lambda1" in r}
    assert lams <= {("0", "0")}


def test_certify_strict_non_obtuse_uses_zero_direction(capsys):
    code, out, err = run(
        capsys,
        "certify", "--identity", "L33_EQ1", "--rank", "2", "--seed", "1", "--format", "json",
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["summary"]["failed"] == 0
    assert {tuple(r["Lambda1"]) for r in data["records"]} == {("0", "0")}


def test_certify_chain(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--identity", "BOULDER_21", "--basis", "A2",
        "--lambda-samples", "4",
    )
    assert code == 0
    assert "0 failed" in out


def test_certify_json_cells(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--identity", "BOULDER_21", "--basis", "A1",
        "--lambda-samples", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["total"] == 2
    assert all(len(r["cells"]) == 2 for r in data["records"])


def test_certify_bytes_pinned(capsys):
    """Full output bytes of a multi-direction certificate, layout included."""
    code, out, _ = run(
        capsys,
        "certify", "--identity", "BOULDER_21", "--basis", "A4",
        "--lambda-samples", "3", "--format", "json",
    )
    assert code == 0
    data = out.encode("utf-8")
    assert len(data) == 617_070
    assert (
        hashlib.sha256(data).hexdigest()
        == "cbf63fa01b40ea032765380e41eb5d4a30bffb19d8f793e8e5b405673d05a443"
    )


def test_certify_error_writes_nothing(capsys, monkeypatch, tmp_path):
    """A session that fails after others succeeded leaves no partial output."""
    real = CertifySession.run
    calls = []

    def run_then_fail(self, **kw):
        calls.append(kw)
        if len(calls) == 2:
            raise ConecertError("injected failure")
        return real(self, **kw)

    monkeypatch.setattr(CertifySession, "run", run_then_fail)
    out_path = tmp_path / "cert.json"
    for extra in (("--format", "json"), ("--format", "json", "--out", str(out_path)), ()):
        calls.clear()
        code, out, err = run(
            capsys,
            "certify", "--identity", "C36", "--basis", "A2", "--lambda-samples", "2", *extra,
        )
        assert code == 2
        assert out == ""
        assert err == "error: injected failure\n"
        assert len(calls) == 2
    assert not out_path.exists()


def test_certify_budget_guard(capsys):
    code, _, err = run(
        capsys,
        "certify", "--identity", "BOULDER_21", "--rank", "9",
        "--lambda-samples", "1",
    )
    assert code == 2
    assert "rank" in err


def test_certify_wall_probe(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--identity", "BOULDER_21", "--basis", "A2",
        "--lambda-samples", "1", "--wall-probe",
    )
    assert code == 0
    assert "informational" in out


def test_chambers_default_identity(capsys):
    code, out, _ = run(capsys, "chambers", "--basis", "A1")
    assert code == 0
    assert "2 cells" in out


def test_chambers_json(capsys):
    code, out, _ = run(capsys, "chambers", "--basis", "A2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["num_cells"] == 8
    assert len(data["forms"]) == 4


def test_chambers_rejects_partition_identities(capsys):
    code, _, err = run(
        capsys, "chambers", "--basis", "A2", "--identity", "STAR_RECURSION"
    )
    assert code == 2
    assert "partition" in err


def test_partitions_dump(capsys):
    code, out, _ = run(capsys, "partitions", "--basis", "A2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    by_blocks = {
        tuple(tuple(b) for b in item["blocks"]): item["frames"]
        for item in data["partitions"]
    }
    fr = by_blocks[(("a1",), ("a2",))]
    assert fr["a1"]["lambda"] == ["1", "1/2"]
    assert fr["a1"]["mu"] == ["2/3", "1/3"]
    assert fr["a2"]["mu"] == ["0", "1/2"]


MALFORMED_BASES = {
    "bad_entry": ('{"gram": [["2", "abc"], ["-1", "2"]]}', "bad gram entry 'abc'"),
    "zero_denominator": ('{"gram": [["1/0"]]}', "bad gram entry '1/0'"),
    "truncated": ('{"gram": [[2, -1], [-1', "not a JSON file"),
    "top_level_list": ("[[2, -1], [-1, 2]]", "a basis is a JSON object, not list"),
    "rank_zero": ('{"gram": []}', "rank must be positive"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BASES))
def test_malformed_basis_file_exits_two(capsys, tmp_path, case):
    """A bad basis file is a configuration error: one error line, exit 2."""
    text, message = MALFORMED_BASES[case]
    path = tmp_path / "basis.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "certify", "--identity", "L32", "--basis", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_rank_zero_refused(capsys):
    code, out, err = run(capsys, "certify", "--identity", "L32", "--rank", "0")
    assert (code, out, err) == (2, "", "error: rank must be positive\n")


@pytest.mark.parametrize(
    "cmd, option, value",
    [
        ("verify", "--bound", "0"),
        ("certify", "--bound", "0"),
        ("verify", "--lambda-samples", "0"),
        ("verify", "--lambda-samples", "-3"),
        ("certify", "--lambda-samples", "0"),
        ("verify", "--samples", "-1"),
        ("verify", "--samples", "0"),
    ],
)
def test_non_positive_counts_exit_two(capsys, cmd, option, value):
    """A run that would check nothing, or sample from an empty box, is refused."""
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--identity", "P41", "--basis", "A2", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be a positive integer, not {value}" in captured.err


def test_non_integer_count_message_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "P41", "--basis", "A2", "--samples", "x"])
    assert exc.value.code == 2
    assert "argument --samples: invalid int value: 'x'" in capsys.readouterr().err


def test_mode_token_rejected(capsys):
    code, _, err = run(
        capsys, "verify", "--identity", "L32", "--basis", "A1",
        "--mode", "fast", "--samples", "1",
    )
    assert code == 2
    assert "mode" in err


def test_mode_token_error_class():
    with pytest.raises(InvalidMode):
        _parse_mode("obtuse,fast")
    assert _parse_mode("obtuse,exploratory") == ("obtuse", False)


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert conecert.__version__ == tomllib.load(fh)["project"]["version"]


def test_unknown_identity_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "NOPE", "--basis", "A1"])
    assert exc.value.code == 2


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "--identity", "L32", "--basis", "A1",
        "--samples", "3", "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    data = json.loads(out_path.read_text())
    assert data["summary"]["failed"] == 0


def test_verify_deterministic_bytes(capsys):
    args = (
        "verify", "--identity", "C36", "--basis", "B2",
        "--samples", "6", "--lambda-samples", "2", "--format", "json",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_outputs_unchanged_under_optimize():
    """No guarantee rests on `assert`: `python -O` writes the same bytes."""
    src = str(Path(conecert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    for argv in (
        ("certify", "--identity", "P41", "--basis", "B2", "--lambda-samples", "2"),
        ("verify", "--identity", "BOULDER_21", "--basis", "A3", "--samples", "5"),
    ):
        outs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "conecert.cli", *argv, "--format", "json"],
                env=env, capture_output=True, check=True,
            ).stdout
            for flags in ((), ("-O",))
        ]
        assert json.loads(outs[0])["summary"]["failed"] == 0
        assert outs[0] == outs[1], argv
