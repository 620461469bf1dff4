"""Serialization of verdicts and certificates to diffable records.

Records are plain dicts with deterministic key and element order; rationals
become fraction strings, index masks become sorted label lists, and sign
vectors become +/- strings.  The same records feed both the json and the
text renderers.  Certificates are written by `write_certificates`, which
streams exactly render_json's bytes and formats their cells from templates.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, TextIO

from .geometry import EuclideanBasis
from .partitions import OrderedPartition
from .subsets import bits
from .verifiers import CertificateReport, Verdict


def coords_list(vec) -> list[str]:
    """Coordinates (ints or Fractions, in a tuple or a QVector) as fraction strings."""
    return [str(c) for c in vec]


def mask_labels(basis: EuclideanBasis, mask: int) -> list[str]:
    return [basis.labels[i] for i in bits(mask)]


def _param_value(basis, key, value):
    if value is None:
        return None
    if key in ("p", "q", "r"):
        return mask_labels(basis, value)
    if key == "partition":
        part: OrderedPartition = value
        return [mask_labels(basis, b) for b in part.blocks]
    return coords_list(value)


_KEY_NAMES = {
    "p": "P",
    "q": "Q",
    "r": "R",
    "partition": "partition",
    "lam": "Lambda",
    "lam1": "Lambda1",
    "lam2": "Lambda2",
    "h": "H",
}
_KEY_ORDER = ("p", "q", "r", "partition", "lam", "lam1", "lam2", "h")


def _params_json(basis, params: dict) -> dict:
    out = {}
    for key in _KEY_ORDER:
        if key in params and params[key] is not None:
            out[_KEY_NAMES[key]] = _param_value(basis, key, params[key])
    return out


def verdict_record(basis: EuclideanBasis, v: Verdict) -> dict:
    rec = {"identity": v.identity, "basis": basis.name}
    rec.update(_params_json(basis, v.params))
    rec["lhs"] = v.lhs
    rec["rhs"] = v.rhs
    rec["pass"] = v.ok
    if v.note:
        rec["note"] = v.note
    return rec


def signs_str(signs: Iterable[int]) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def report_record(basis: EuclideanBasis, rep: CertificateReport) -> dict:
    """A certificate's header; `write_certificates` adds its cells."""
    rec = {"identity": rep.identity, "basis": basis.name}
    rec.update(_params_json(basis, rep.params))
    rec["num_forms"] = rep.num_forms
    rec["num_lam_forms"] = rep.num_lam_forms
    rec["num_cells"] = rep.num_cells
    rec["pass"] = rep.ok
    return rec


def summary_record(records: list[dict]) -> dict:
    passed = sum(1 for r in records if r.get("pass"))
    return {"total": len(records), "passed": passed, "failed": len(records) - passed}


def render_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# render_json's layout of a certificate cell, split where its lhs starts
_CELL_HEAD = '\n        {\n          "signs": "%s",\n          "H": %s,\n          "lhs": '
_CELL_TAIL = '%d,\n          "rhs": %d,\n          "pass": %s\n        }'


def _nested(obj, level: int) -> str:
    """json.dumps(obj, indent=2) as it reads `level` containers deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * level)


def write_certificates(fh: TextIO, records: list, reports: list, summary: dict, walls=None) -> None:
    """Write render_json's bytes for a certify payload, cell by cell.

    The payload is {"records", "summary"}, plus "wall_probes" unless `walls`
    is None; each record is its report's `report_record` header with "cells"
    last.  A cell's head depends only on its signs and witness, objects the
    reports of one session share, so each head is formatted once.
    """
    heads: dict = {}  # (id(signs), id(witness)) -> head; the reports keep both alive
    fh.write('{\n  "records": [')
    for k, (rec, rep) in enumerate(zip(records, reports, strict=True)):
        fh.write(",\n    " if k else "\n    ")
        fh.write(_nested(rec, 2)[: -len("\n    }")] + ',\n      "cells": [')
        for i, c in enumerate(rep.cells):
            key = (id(c.signs), id(c.witness))
            if key not in heads:
                h = ",".join(f'\n            "{x}"' for x in coords_list(c.witness))
                heads[key] = _CELL_HEAD % (signs_str(c.signs), f"[{h}\n          ]" if h else "[]")
            ok = "true" if c.ok else "false"
            fh.write(("," if i else "") + heads[key] + _CELL_TAIL % (c.lhs, c.rhs, ok))
        fh.write("\n      ]\n    }" if rep.cells else "]\n    }")
    fh.write("\n  ]," if records else "],")
    fh.write(f'\n  "summary": {_nested(summary, 1)}')
    if walls is not None:
        fh.write(f',\n  "wall_probes": {_nested(walls, 1)}')
    fh.write("\n}\n")


def _fmt_params(rec: dict) -> str:
    parts = []
    for key in ("P", "Q", "R", "partition", "Lambda", "Lambda1", "Lambda2", "H"):
        if key in rec:
            val = rec[key]
            if key == "partition":
                txt = "|".join(",".join(b) for b in val)
            elif key in ("P", "Q", "R"):
                txt = "{" + ",".join(val) + "}"
            else:
                txt = "(" + ",".join(val) + ")"
            parts.append(f"{key}={txt}")
    return " ".join(parts)


def render_verdict_line(rec: dict) -> str:
    tag = "pass" if rec["pass"] else "FAIL"
    note = f" note={rec['note']}" if rec.get("note") else ""
    return (
        f"{tag} {rec['identity']} basis={rec['basis']} {_fmt_params(rec)} "
        f"lhs={rec['lhs']} rhs={rec['rhs']}{note}"
    )


def render_report_line(rec: dict) -> str:
    tag = "pass" if rec["pass"] else "FAIL"
    return (
        f"{tag} certificate {rec['identity']} basis={rec['basis']} {_fmt_params(rec)} "
        f"forms={rec['num_forms']} cells={rec['num_cells']}"
    )


@contextmanager
def output_stream(out: Optional[str]) -> Iterator[TextIO]:
    """stdout for None or "-", else the file `out`, opened for text."""
    if out in (None, "-"):
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh


def write_text(text: str, out: Optional[str]) -> None:
    with output_stream(out) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
