"""Stock Gram matrices, seeded random ones, and basis files.

The named families are the symmetrized integer Cartan forms, normalized so
long members have squared length 2 (so B/C/F pick up entries 1, 4, -2 and
F4 a -1/2).  Random matrices are made strictly diagonally dominant, which
keeps them positive definite without any floating point.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from typing import Optional

from .errors import InvalidRank, RankMismatch
from .geometry import EuclideanBasis, make_basis
from .linalg import QMatrix

CORPUS_NAMES = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2")


def _chain(n, diag, last_diag=None, last_off=Fraction(-1)):
    """Tridiagonal family: consecutive off-diagonal -1, custom last couplings."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(diag)
    if last_diag is not None:
        rows[n - 1][n - 1] = Fraction(last_diag)
    for i in range(n - 1):
        off = Fraction(-1)
        if i == n - 2:
            off = Fraction(last_off)
        rows[i][i + 1] = off
        rows[i + 1][i] = off
    return rows


def named_gram(name: str) -> QMatrix:
    """Gram matrix of a named family member, e.g. "A3", "B2", "G2"."""
    m = re.fullmatch(r"([ABCDGF])(\d+)", name.strip().upper())
    if not m:
        raise InvalidRank(f"unrecognized basis name {name!r}")
    fam, n = m.group(1), int(m.group(2))
    if fam == "A":
        if n < 1:
            raise InvalidRank("A family needs rank >= 1")
        return QMatrix(_chain(n, 2))
    if fam == "B":
        if n < 2:
            raise InvalidRank("B family needs rank >= 2")
        return QMatrix(_chain(n, 2, last_diag=1))
    if fam == "C":
        if n < 2:
            raise InvalidRank("C family needs rank >= 2")
        return QMatrix(_chain(n, 2, last_diag=4, last_off=-2))
    if fam == "D":
        if n < 3:
            raise InvalidRank("D family needs rank >= 3")
        rows = _chain(n - 1, 2)
        for row in rows:
            row.append(Fraction(0))
        rows.append([Fraction(0)] * n)
        rows[n - 1][n - 1] = Fraction(2)
        rows[n - 1][n - 3] = rows[n - 3][n - 1] = Fraction(-1)
        return QMatrix(rows)
    if fam == "G":
        if n != 2:
            raise InvalidRank("G exists at rank 2 only")
        return QMatrix([[2, -3], [-3, 6]])
    if fam == "F":
        if n != 4:
            raise InvalidRank("F exists at rank 4 only")
        half = Fraction(-1, 2)
        return QMatrix(
            [
                [2, -1, 0, 0],
                [-1, 2, -1, 0],
                [0, -1, 1, half],
                [0, 0, half, 1],
            ]
        )
    raise InvalidRank(f"unrecognized basis name {name!r}")  # pragma: no cover


def named_basis(name: str) -> EuclideanBasis:
    canonical = name.strip().upper()
    return make_basis(named_gram(canonical), name=canonical)


def corpus_bases() -> list[EuclideanBasis]:
    """The fixed verification corpus, ranks 1 through 4."""
    return [named_basis(n) for n in CORPUS_NAMES]


def random_gram(rank: int, seed: int, kind: str = "general") -> QMatrix:
    """Seeded random symmetric PD Gram matrix with small rational entries.

    kind "obtuse" keeps every off-diagonal entry <= 0; "general" allows any
    sign.  Positive definiteness comes from strict diagonal dominance.
    """
    if kind not in ("general", "obtuse"):
        raise InvalidRank(f"unknown kind {kind!r}")
    rng = random.Random(("gram", kind, rank, seed).__repr__())
    rows = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            num = rng.randint(-4, 0) if kind == "obtuse" else rng.randint(-4, 4)
            v = Fraction(num, rng.choice((1, 1, 2)))
            rows[i][j] = rows[j][i] = v
    for i in range(rank):
        rows[i][i] = sum(abs(x) for x in rows[i]) + rng.randint(1, 3)
    return QMatrix(rows)


def random_basis(rank: int, seed: int, kind: str = "general") -> EuclideanBasis:
    return make_basis(random_gram(rank, seed, kind), name=f"{kind}-r{rank}-s{seed}")


def _frac_from_json(x) -> Fraction:
    if isinstance(x, bool):
        raise RankMismatch("gram entries must be numbers or fraction strings")
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise RankMismatch(f"bad gram entry {x!r}")


def _frac_to_json(x: Fraction) -> str:
    return str(x)


def basis_from_dict(data: dict) -> EuclideanBasis:
    """Build a basis from {"rank", "gram", optional "labels"/"name"}."""
    if not isinstance(data, dict):
        raise RankMismatch(f"a basis is a JSON object, not {type(data).__name__}")
    rank = data.get("rank")
    gram = data.get("gram")
    if gram is None:
        raise RankMismatch("basis dict needs a gram field")
    if not isinstance(gram, list) or not all(isinstance(row, list) for row in gram):
        raise RankMismatch("gram must be a list of rows")
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, (list, tuple)):
        raise RankMismatch("labels must be a list")
    rows = [[_frac_from_json(x) for x in row] for row in gram]
    if rank is not None and len(rows) != rank:
        raise RankMismatch(f"gram has {len(rows)} rows but rank says {rank}")
    return make_basis(rows, labels=labels, name=data.get("name"))


def basis_to_dict(basis: EuclideanBasis) -> dict:
    return {
        "name": basis.name,
        "rank": basis.rank,
        "labels": list(basis.labels),
        "gram": [
            [_frac_to_json(basis.gram.entry(i, j)) for j in range(basis.rank)]
            for i in range(basis.rank)
        ],
    }


def load_basis(path: str) -> EuclideanBasis:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise RankMismatch(f"{path}: not a JSON file ({exc})") from None
    return basis_from_dict(data)


def resolve_basis(spec: Optional[str], rank: Optional[int] = None, seed: int = 0) -> EuclideanBasis:
    """Basis from a name, a file path, or a seeded random request.

    spec None with a rank builds a seeded random general basis; a spec that
    names a family wins over rank; anything containing a path separator or
    .json suffix loads a file.
    """
    if spec:
        if "/" in spec or spec.endswith(".json"):
            return load_basis(spec)
        return named_basis(spec)
    if rank is None:
        raise InvalidRank("need a basis name, a file, or a rank")
    return random_basis(rank, seed)
