"""Command line surface: verify, certify, chambers, partitions, bases.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 for
configuration or hypothesis errors (argparse uses 2 as well).

--mode takes comma-separated tokens: "general" or "obtuse" pick the random
basis flavor used with --rank, "strict" or "exploratory" pick whether
hypothesis violations abort or are merely recorded.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Optional

from .chambers import sample_regular, wall_point
from .corpus import CORPUS_NAMES, basis_to_dict, named_basis, random_basis, resolve_basis
from .errors import ConecertError, HypothesisViolated, InvalidMode, InvalidRank
from .geometry import EuclideanBasis
from .linalg import QVector, int_dot
from .partitions import build_frame, enumerate_ordered_partitions
from .reports import (
    coords_list,
    mask_labels,
    output_stream,
    render_json,
    render_report_line,
    render_verdict_line,
    report_record,
    signs_str,
    summary_record,
    verdict_record,
    write_certificates,
    write_text,
)
from .subsets import bits, full_mask, iter_nested_pairs
from .verifiers import IDENTITIES, SIGNATURES, CertifySession, collect_forms, obtuse, verify

MAX_EXHAUSTIVE_RANK = 6


def _parse_mode(mode: str):
    kind = "general"
    strict = True
    for tok in (t.strip() for t in mode.split(",") if t.strip()):
        if tok in ("general", "obtuse"):
            kind = tok
        elif tok == "strict":
            strict = True
        elif tok == "exploratory":
            strict = False
        else:
            raise InvalidMode(f"unknown mode token {tok!r}")
    return kind, strict


def _resolve(args) -> EuclideanBasis:
    kind, _ = _parse_mode(args.mode)
    if args.basis:
        return resolve_basis(args.basis)
    if args.rank is None:
        raise InvalidRank("need --basis or --rank")
    return random_basis(args.rank, args.seed, kind)


def _instances(basis: EuclideanBasis, identity: str, nested_only: bool) -> list[dict]:
    """Subset/partition parameter grid the CLI sweeps for one identity.

    Defaulted subsets give the one default instance; matrix entries sweep
    every pair unless `nested_only`; partitions need a nonempty difference.
    """
    sig = SIGNATURES[identity]
    n = basis.rank
    if "p" in sig.defaults:
        return [sig.resolve(basis, {}, sig.subsets)]
    if "partition" in sig.subsets:
        return [
            dict(p=p, r=r, partition=part)
            for p, r in iter_nested_pairs(n)
            if p != r
            for part in enumerate_ordered_partitions(r & ~p)
        ]
    low, high = sig.subsets
    if sig.matrix and not nested_only:
        return [{low: p, high: r} for p in range(1 << n) for r in range(1 << n)]
    return [{low: p, high: r} for p, r in iter_nested_pairs(n)]


def _inst_key(inst: dict) -> str:
    part = inst.get("partition")
    return "p{}q{}r{}b{}".format(
        inst.get("p"), inst.get("q"), inst.get("r"), part.blocks if part else None
    )


def _hypothesis_lams(basis, lam_fs, count, seed, bound):
    """Regular directions in the cone every basis form pairs <= 0 with.

    Only exists usefully for obtuse bases; otherwise the zero direction is
    the lone hypothesis-compliant choice and is returned unsampled.
    """
    if not obtuse(basis):
        return [QVector([0] * basis.rank)]
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 20_000:
            raise HypothesisViolated("could not sample regular hypothesis directions")
        c = [rng.randint(0, bound) for _ in range(basis.rank)]
        if all(x == 0 for x in c):
            continue
        lam = QVector([0] * basis.rank)
        for i, ci in enumerate(c):
            if ci:
                lam = lam + basis.dual_vector(i).scale(-ci)
        if all(int_dot(f, lam.ints) != 0 for f in lam_fs.forms):
            out.append(lam)
    return out


def _lam_streams(basis, identity, lam_fs, args, inst_key, strict):
    """Per-instance direction samples: list of dicts of verify kwargs.

    Strict runs of an identity whose directions default to zero sample its
    hypothesis cone instead of the whole space.
    """
    sig = SIGNATURES[identity]
    names = sig.lams
    sample = sample_regular
    if strict and any(name in sig.defaults for name in names):
        sample = functools.partial(_hypothesis_lams, basis)
    streams = [  # seed tags l, l1, l2 for lam, lam1, lam2
        sample(lam_fs, args.lambda_samples, f"{args.seed}|l{name[3:]}|{inst_key}", args.bound)
        for name in names
    ]
    return [dict(zip(names, lams)) for lams in zip(*streams)] if names else [dict()]


def _emit(args, payload, text_lines) -> None:
    if args.format == "json":
        write_text(render_json(payload), args.out)
    else:
        write_text("\n".join(text_lines), args.out)


def cmd_verify(args) -> int:
    basis = _resolve(args)
    _, strict = _parse_mode(args.mode)
    identity = args.identity
    sig = SIGNATURES[identity]
    records = []
    for inst in _instances(basis, identity, nested_only=False):
        if sig.trivial(inst["p"], inst.get("r")):
            records.append(verdict_record(basis, verify(basis, identity, **inst)))
            continue
        h_fs, lam_fs = collect_forms(basis, identity, **inst)
        key = _inst_key(inst)
        if not sig.h:
            h_list: list[Optional[QVector]] = [None]
        else:
            h_list = sample_regular(h_fs, args.samples, f"{args.seed}|h|{key}", args.bound)
        for lam_kw in _lam_streams(basis, identity, lam_fs, args, key, strict):
            for h in h_list:
                v = verify(basis, identity, h=h, strict=strict, **inst, **lam_kw)
                records.append(verdict_record(basis, v))
    summ = summary_record(records)
    payload = {"records": records, "summary": summ}
    lines = [render_verdict_line(r) for r in records if not r["pass"]]
    lines.append(
        f"verify {identity} basis={basis.name}: "
        f"{summ['passed']}/{summ['total']} passed, {summ['failed']} failed"
    )
    _emit(args, payload, lines)
    return 0 if summ["failed"] == 0 else 1


def _wall_records(basis, identity, session, lam_kw, args, key):
    out = []
    for w, form in enumerate(session.h_forms.forms):
        pt = wall_point(session.h_forms, w, f"{args.seed}|wall|{key}|{w}", args.bound)
        if pt is None:
            continue
        v = verify(
            basis,
            identity,
            p=session.p,
            q=session.q,
            r=session.r,
            partition=session.partition,
            h=pt,
            strict=False,
            **lam_kw,
        )
        rec = verdict_record(basis, v)
        rec["wall"] = ",".join(str(c) for c in form)
        rec["informational"] = True
        out.append(rec)
    return out


def cmd_certify(args) -> int:
    basis = _resolve(args)
    if basis.rank > MAX_EXHAUSTIVE_RANK:
        raise InvalidRank(
            f"exhaustive certification is budgeted for rank <= {MAX_EXHAUSTIVE_RANK}"
        )
    _, strict = _parse_mode(args.mode)
    identity = args.identity
    records, reports, walls = [], [], []  # reports are kept for json output only
    for inst in _instances(basis, identity, nested_only=True):
        session = CertifySession(basis, identity, strict=strict, **inst)
        key = _inst_key(inst)
        for lam_kw in _lam_streams(basis, identity, session.lam_forms, args, key, strict):
            rep = session.run(**lam_kw)
            records.append(report_record(basis, rep))
            if args.format == "json":
                reports.append(rep)
            if args.wall_probe:
                walls += _wall_records(basis, identity, session, lam_kw, args, key)
    summ = summary_record(records)
    code = 0 if summ["failed"] == 0 else 1
    if args.format == "json":
        with output_stream(args.out) as fh:
            write_certificates(fh, records, reports, summ, walls if args.wall_probe else None)
        return code
    lines = [render_report_line(r) for r in records]
    if args.wall_probe:
        lines += [
            f"wall {r['wall']}: lhs={r['lhs']} rhs={r['rhs']} "
            f"{'agree' if r['pass'] else 'differ'} (informational)"
            for r in walls
        ]
    lines.append(
        f"certify {identity} basis={basis.name}: "
        f"{summ['passed']}/{summ['total']} certificates passed, {summ['failed']} failed"
    )
    write_text("\n".join(lines), args.out)
    return code


def cmd_chambers(args) -> int:
    basis = _resolve(args)
    if basis.rank > MAX_EXHAUSTIVE_RANK:
        raise InvalidRank(
            f"chamber enumeration is budgeted for rank <= {MAX_EXHAUSTIVE_RANK}"
        )
    identity = args.identity or "BOULDER_21"
    subsets = SIGNATURES[identity].subsets
    if "partition" in subsets:
        raise InvalidRank("chambers needs a partition-free identity")
    low, high = subsets
    session = CertifySession(basis, identity, **{low: 0, high: full_mask(basis.rank)})
    payload = {
        "identity": identity,
        "basis": basis.name,
        "forms": [list(f) for f in session.h_forms.forms],
        "num_cells": len(session.cells),
        "cells": [
            {"signs": signs_str(c.signs), "witness": coords_list(c.witness)}
            for c in session.cells
        ],
    }
    lines = [f"arrangement for {identity} on {basis.name}"]
    lines += [f"form {i}: {f}" for i, f in enumerate(session.h_forms.forms)]
    lines += [
        f"cell {signs_str(c.signs)} witness=({','.join(coords_list(c.witness))})"
        for c in session.cells
    ]
    lines.append(f"{len(session.cells)} cells, {len(session.h_forms.forms)} forms")
    _emit(args, payload, lines)
    return 0


def cmd_partitions(args) -> int:
    basis = _resolve(args)
    if basis.rank > MAX_EXHAUSTIVE_RANK:
        raise InvalidRank(f"partition dump is budgeted for rank <= {MAX_EXHAUSTIVE_RANK}")
    ground = full_mask(basis.rank)
    items = []
    for part in enumerate_ordered_partitions(ground):
        frame = build_frame(basis, part)
        items.append(
            {
                "blocks": [mask_labels(basis, b) for b in part.blocks],
                "frames": {
                    basis.labels[i]: {
                        "lambda": coords_list(frame.proj_elements[i]),
                        "mu": coords_list(frame.proj_duals[i]),
                    }
                    for i in bits(ground)
                },
            }
        )
    payload = {"basis": basis.name, "count": len(items), "partitions": items}
    lines = [f"{len(items)} ordered partitions of {basis.name}"]
    for it in items:
        lines.append("partition " + " | ".join(",".join(b) for b in it["blocks"]))
        for lab, fr in it["frames"].items():
            lines.append(
                f"  {lab}: lambda=({','.join(fr['lambda'])}) mu=({','.join(fr['mu'])})"
            )
    _emit(args, payload, lines)
    return 0


def cmd_bases(args) -> int:
    if args.basis or args.rank is not None:
        basis = _resolve(args)
        payload = basis_to_dict(basis)
        lines = [f"name: {payload['name']}", f"rank: {payload['rank']}"]
        lines.append("labels: " + ",".join(payload["labels"]))
        for row in payload["gram"]:
            lines.append("  ".join(str(x) for x in row))
        _emit(args, payload, lines)
        return 0
    items = []
    for name in CORPUS_NAMES:
        b = named_basis(name)
        items.append({"name": name, "rank": b.rank, "obtuse": obtuse(b)})
    payload = {"bases": items}
    lines = [f"{it['name']}: rank {it['rank']}" for it in items]
    _emit(args, payload, lines)
    return 0


def _positive_int(text: str) -> int:
    """argparse type of the sampling options: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


def _add_common(sp, with_identity: Optional[bool] = None, sampling: bool = False):
    if with_identity is not None:
        sp.add_argument(
            "--identity",
            choices=IDENTITIES,
            required=with_identity,
            default=None,
            help="identity token to check",
        )
    sp.add_argument("--basis", help="named family (A2, G2, ...) or a basis file")
    sp.add_argument("--rank", type=int, help="rank for a seeded random basis")
    sp.add_argument("--mode", default="", help="comma tokens: general|obtuse, strict|exploratory")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--bound", type=_positive_int, default=9, help="sampling box half-width")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    if sampling:
        sp.add_argument("--samples", type=_positive_int, default=100, help="points per instance")
        sp.add_argument(
            "--lambda-samples", dest="lambda_samples", type=_positive_int, default=5,
            help="direction samples per instance",
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conecert",
        description="exact verification of cone indicator identities",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("verify", help="pointwise checks at sampled regular points")
    _add_common(sp, with_identity=True, sampling=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("certify", help="exhaustive chamber certification")
    _add_common(sp, with_identity=True, sampling=True)
    sp.add_argument("--wall-probe", action="store_true", help="report wall behavior (informational)")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("chambers", help="dump an identity's arrangement")
    _add_common(sp, with_identity=False)
    sp.set_defaults(func=cmd_chambers)

    sp = sub.add_parser("partitions", help="dump ordered partitions with frames")
    _add_common(sp)
    sp.set_defaults(func=cmd_partitions)

    sp = sub.add_parser("bases", help="list or emit named Gram matrices")
    _add_common(sp)
    sp.set_defaults(func=cmd_bases)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConecertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
