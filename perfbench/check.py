"""Correctness checks on one workload output, run outside the timed region.

The checks read the CLI's JSON and recompute from the `conecert` package in
the checkout, never from the enumerator's own state:

* every certificate has the chamber count recorded in design.json (it does
  not depend on the direction seed), distinct sign vectors, and a witness
  strictly on its recorded side of every form `collect_forms` returns;
* every verify point avoids every wall `collect_forms` returns;
* a seeded sample of cells or verdicts gives the same lhs and rhs under a
  direct `verify`;
* the certificate core digests to the value pinned for pinned seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# The certificate core: what a certificate asserts, not how it is laid out.
CORE_KEYS = ("identity", "basis", "P", "Q", "R", "partition", "Lambda", "Lambda1", "Lambda2", "H", "lhs", "rhs")
CELL_KEYS = ("signs", "H", "lhs", "rhs")
PARAM_KEYS = {"P": "p", "Q": "q", "R": "r"}
DIRECTION_KEYS = {"Lambda": "lam", "Lambda1": "lam1", "Lambda2": "lam2"}


def core_digest(payload: dict) -> str:
    core = []
    for rec in payload["records"]:
        item = {k: rec[k] for k in CORE_KEYS if k in rec}
        if "cells" in rec:
            item["cells"] = [[c[k] for k in CELL_KEYS] for c in rec["cells"]]
        core.append(item)
    blob = json.dumps(core, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def count_checks(payload: dict) -> tuple[int, int]:
    """(checks, failed checks): one per certified cell or per verdict."""
    checks = failed = 0
    for rec in payload["records"]:
        for item in rec.get("cells", [rec]):
            checks += 1
            failed += item["lhs"] != item["rhs"]
    return checks, failed


def output_counts(payload: dict) -> dict:
    """What a traced run must have counted to produce this output."""
    records = payload["records"]
    if records and "cells" in records[0]:
        return {
            "verifiers.runs": len(records),
            "verifiers.cells_evaluated": sum(r["num_cells"] for r in records),
        }
    return {"verifiers.verify_calls": len(records)}


def instance_key(rec: dict) -> str:
    return "|".join(",".join(rec[k]) for k in ("P", "Q", "R") if k in rec)


def _num(s: str):
    return int(s) if "/" not in s else Fraction(s)


def _dot(form, x) -> Fraction:
    return sum(a * b for a, b in zip(form, x))


def _strictly_inside(forms, signs: str, x) -> bool:
    if len(signs) != len(forms):
        return False
    for f, s in zip(forms, signs):
        v = _dot(f, x)
        if v == 0 or (v > 0) != (s == "+"):
            return False
    return True


class Checker:
    """Recomputes one workload's expectations from the package under test."""

    def __init__(self, workload: dict, seed: int):
        from conecert.corpus import resolve_basis
        from conecert.linalg import QVector
        from conecert.verifiers import collect_forms, verify

        self.workload = workload
        self.rng = random.Random(f"perfbench|{seed}")
        self._resolve_basis = resolve_basis
        self._qvector = QVector
        self._collect_forms = collect_forms
        self._verify = verify
        self._bases: dict = {}
        self._forms: dict = {}

    def _basis(self, name):
        # one basis per name, so every check shares its projection and frame caches
        if name not in self._bases:
            self._bases[name] = self._resolve_basis(name)
        return self._bases[name]

    def _instance(self, rec):
        basis = self._basis(rec["basis"])
        labels = basis.labels
        inst = {}
        for key, kw in PARAM_KEYS.items():
            if key in rec:
                inst[kw] = sum(1 << labels.index(lab) for lab in rec[key])
        return basis, inst

    def _h_forms(self, rec):
        key = (rec["identity"], rec["basis"], instance_key(rec))
        if key not in self._forms:
            basis, inst = self._instance(rec)
            self._forms[key] = self._collect_forms(basis, rec["identity"], **inst)[0].forms
        return self._forms[key]

    def _direct(self, rec, h) -> tuple[int, int]:
        basis, inst = self._instance(rec)
        for key, kw in DIRECTION_KEYS.items():
            if key in rec:
                inst[kw] = self._qvector([_num(c) for c in rec[key]])
        v = self._verify(basis, rec["identity"], h=self._qvector([_num(c) for c in h]), **inst)
        return v.lhs, v.rhs

    def check(self, payload: dict) -> list[str]:
        """Problems found in one output; empty when it is correct."""
        problems = []
        records = payload["records"]
        summary = payload.get("summary", {})
        if summary.get("failed") != 0 or summary.get("total") != len(records):
            problems.append(f"summary {summary} does not report {len(records)} passing records")
        if self.workload["kind"] == "certify":
            problems += self._check_certificates(records)
        else:
            problems += self._check_verdicts(records)
        return problems

    def _check_certificates(self, records) -> list[str]:
        problems = []
        counts = self.workload["cells_per_certificate"]
        if len(records) != self.workload["certificates"]:
            problems.append(f"{len(records)} certificates, expected {self.workload['certificates']}")
        checked: set = set()
        for rec in records:
            key = instance_key(rec)
            cells = rec["cells"]
            want = counts.get(key, counts.get("*"))
            if not (rec["num_cells"] == len(cells) == want):
                problems.append(f"{key}: {len(cells)} cells, expected {want}")
            if len({c["signs"] for c in cells}) != len(cells):
                problems.append(f"{key}: repeated sign vectors")
            forms = self._h_forms(rec)
            for c in cells:
                tag = (key, c["signs"], tuple(c["H"]))
                if tag in checked:
                    continue
                checked.add(tag)
                if not _strictly_inside(forms, c["signs"], [_num(s) for s in c["H"]]):
                    problems.append(f"{key}: witness {c['H']} not strictly inside {c['signs']}")
                    break
            sample = min(self.workload["sample_cells_per_certificate"], len(cells))
            for c in self.rng.sample(cells, sample):
                if self._direct(rec, c["H"]) != (c["lhs"], c["rhs"]):
                    problems.append(f"{key}: cell {c['signs']} disagrees with direct verify")
        return problems

    def _check_verdicts(self, records) -> list[str]:
        problems = []
        if len(records) != self.workload["verdicts"]:
            problems.append(f"{len(records)} verdicts, expected {self.workload['verdicts']}")
        for rec in records:
            x = [_num(s) for s in rec["H"]]
            if any(_dot(f, x) == 0 for f in self._h_forms(rec)):
                problems.append(f"{instance_key(rec)}: point {rec['H']} lies on a wall")
                break
        sample = min(self.workload["sample_verdicts"], len(records))
        for rec in self.rng.sample(records, sample):
            if self._direct(rec, rec["H"]) != (rec["lhs"], rec["rhs"]):
                problems.append(f"{instance_key(rec)}: point {rec['H']} disagrees with direct verify")
        return problems
