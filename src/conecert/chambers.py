"""Chambers of central hyperplane arrangements, exactly.

The arrangement is given by integer covectors (forms).  A chamber is a
realizable all-strict sign vector; enumeration is incremental: cells carry
their extreme rays (integer tuples), and a new form either leaves a cell on
one side (all rays weakly one side) or splits it, in which case boundary
rays are combined pairwise along the new wall.  Ray signs give an exact
certificate in both directions, and the sum of a cell's rays is an exact
interior witness.  Chambers come in antipodal pairs, so only those where
the first form is positive are enumerated; each also yields its mirror.

Arrangements that do not span the ambient space are quotiented to their
span first, so cones stay pointed throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence

from .errors import CellBudgetExceeded, ConecertError, SamplingExhausted, WitnessNotInterior
from .linalg import QMatrix, QVector, _prim, int_dot, invert, pivots, primitive_tuple

MAX_FORMS = 40
MAX_CELLS = 500_000


@dataclass(frozen=True)
class FormSet:
    """Deduplicated nonzero primitive integer covectors in a fixed dimension.

    Forms differing by a positive scale collapse; a form and its negative
    stay distinct (their sign semantics differ).
    """

    dim: int
    forms: tuple[tuple[int, ...], ...]


def form_set(dim: int, covectors: Iterable[Sequence[int]]) -> FormSet:
    seen = set()
    out = []
    for cov in covectors:
        key = _prim(cov)
        if len(key) != dim:
            raise ValueError(f"covector length {len(key)} vs dim {dim}")
        if all(c == 0 for c in key):
            raise ValueError("zero covector has no wall")
        if key not in seen:
            seen.add(key)
            out.append(key)
    return FormSet(dim, tuple(out))


@dataclass(frozen=True)
class Cell:
    """One chamber: its strict sign per form, plus an integer interior point."""

    signs: tuple[int, ...]
    witness: QVector


def _independent_subset(forms, dim):
    """Indices of a greedy maximal linearly independent subset, in order.

    A form joins when the last pivot of the integer Gram matrix of the chosen
    forms and itself is nonzero.  The earlier pivots are positive, since the
    chosen forms are independent, and the last one is the squared distance
    of the form from their span: zero exactly when the form depends on them.
    """
    chosen: list[int] = []
    gram: list[list[int]] = []  # the chosen forms' Gram matrix
    for idx, f in enumerate(forms):
        col = [int_dot(forms[i], f) for i in chosen]
        rows = [row + [c] for row, c in zip(gram, col)] + [col + [int_dot(f, f)]]
        *_, last = islice(pivots(list(rows)), len(rows))
        if last:
            chosen.append(idx)
            gram = rows
            if len(chosen) == dim:
                break
    return chosen


def _witness(rays, span_basis, dim):
    """Sum of a cone's rays, taken from span coordinates back to a point."""
    y = [sum(col) for col in zip(*rays)]
    return tuple(sum(c * b[i] for c, b in zip(y, span_basis)) for i in range(dim))


class _Cone:
    __slots__ = ("signbits", "rays", "tights")

    def __init__(self, signbits, rays, tights):
        self.signbits = signbits
        self.rays = rays
        self.tights = tights


def enumerate_cells(
    fs: FormSet,
    max_forms: int = MAX_FORMS,
    max_cells: int = MAX_CELLS,
) -> list[Cell]:
    """Every chamber of the arrangement exactly once, sorted by sign vector.

    Each witness is substituted into every form before it is returned.
    Raises CellBudgetExceeded beyond the form or cell budget, and
    WitnessNotInterior if a witness is not strictly inside its sign vector.
    """
    m = len(fs.forms)
    if m > max_forms:
        raise CellBudgetExceeded(f"{m} forms exceed budget {max_forms}")
    if m == 0:
        return [Cell((), QVector([0] * fs.dim))]

    chosen = _independent_subset(fs.forms, fs.dim)
    k = len(chosen)
    span_basis = [fs.forms[i] for i in chosen]  # rows of B; x = B^T y

    proc_order = chosen + [i for i in range(m) if i not in set(chosen)]
    pos_of = {orig: t for t, orig in enumerate(proc_order)}
    mapped = [tuple(int_dot(fs.forms[i], b) for b in span_basis) for i in proc_order]

    # seed cells: the orthants of the first k (independent) mapped forms with the first
    # positive; mapped[:k] is the chosen forms' Gram matrix, so its inverse is symmetric
    inv = invert(QMatrix(mapped[:k]))
    base_rays = [primitive_tuple(row) for row in inv.rows]
    full_k = (1 << k) - 1
    cells: list[_Cone] = []
    for sbits in range(1, 1 << k, 2):
        rays = []
        tights = []
        for j in range(k):
            r = base_rays[j]
            if not (sbits >> j & 1):
                r = tuple(-x for x in r)
            rays.append(r)
            tights.append(full_k ^ (1 << j))
        cells.append(_Cone(sbits, rays, tights))

    for t in range(k, m):
        f = mapped[t]
        bit = 1 << t
        nxt: list[_Cone] = []
        for cone in cells:
            vals = [int_dot(f, r) for r in cone.rays]
            has_pos = any(v > 0 for v in vals)
            has_neg = any(v < 0 for v in vals)
            if not has_neg:
                tights = [tg | bit if v == 0 else tg for tg, v in zip(cone.tights, vals)]
                nxt.append(_Cone(cone.signbits | bit, cone.rays, tights))
            elif not has_pos:
                tights = [tg | bit if v == 0 else tg for tg, v in zip(cone.tights, vals)]
                nxt.append(_Cone(cone.signbits, cone.rays, tights))
            else:
                plus = [i for i, v in enumerate(vals) if v > 0]
                minus = [i for i, v in enumerate(vals) if v < 0]
                zero = [i for i, v in enumerate(vals) if v == 0]
                new_rays = []
                new_tights = []
                for ip in plus:
                    for im in minus:
                        tcommon = cone.tights[ip] & cone.tights[im]
                        adjacent = True
                        for q, tq in enumerate(cone.tights):
                            if q != ip and q != im and tq & tcommon == tcommon:
                                adjacent = False
                                break
                        if not adjacent:
                            continue
                        vp, vm = vals[ip], vals[im]
                        w = _prim([vp * b - vm * a for a, b in zip(cone.rays[ip], cone.rays[im])])
                        new_rays.append(w)
                        new_tights.append(tcommon | bit)
                shared_rays = [cone.rays[i] for i in zero] + new_rays
                shared_tights = [cone.tights[i] | bit for i in zero] + new_tights
                nxt.append(
                    _Cone(
                        cone.signbits | bit,
                        [cone.rays[i] for i in plus] + shared_rays,
                        [cone.tights[i] for i in plus] + shared_tights,
                    )
                )
                nxt.append(
                    _Cone(
                        cone.signbits,
                        [cone.rays[i] for i in minus] + shared_rays,
                        [cone.tights[i] for i in minus] + shared_tights,
                    )
                )
        cells = nxt
        if 2 * len(cells) > max_cells:
            raise CellBudgetExceeded(f"more than {max_cells} cells")

    out = []
    for cone in cells:
        x = _witness(cone.rays, span_basis, fs.dim)
        signs = tuple(1 if cone.signbits >> pos_of[i] & 1 else -1 for i in range(m))
        # the antipodal chamber: each split of the mirrored cone combines the
        # negated rays into the negated new ray, so its witness is -x
        for signs, x in ((signs, x), (tuple(-s for s in signs), tuple(-c for c in x))):
            for f, s in zip(fs.forms, signs):
                if s * int_dot(f, x) <= 0:
                    raise WitnessNotInterior(f"witness {x} not strictly inside cell {signs}")
            out.append(Cell(signs, QVector(x)))
    out.sort(key=lambda c: c.signs)
    return out


def sample_regular(
    fs: FormSet,
    count: int,
    seed: int,
    bound: int = 9,
    max_rejects: int = 10_000,
) -> list[QVector]:
    """Seeded integer points in [-bound, bound]^dim avoiding every wall.

    Raises SamplingExhausted after max_rejects consecutive rejections.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rng = random.Random(seed)
    out: list[QVector] = []
    rejects = 0
    while len(out) < count:
        x = tuple(rng.randint(-bound, bound) for _ in range(fs.dim))
        if all(int_dot(f, x) != 0 for f in fs.forms):
            out.append(QVector(x))
            rejects = 0
        else:
            rejects += 1
            if rejects >= max_rejects:
                raise SamplingExhausted(f"{max_rejects} consecutive rejections")
    return out


def wall_point(
    fs: FormSet,
    wall: int,
    seed: int,
    bound: int = 9,
    max_tries: int = 10_000,
) -> Optional[QVector]:
    """An integer point on exactly the given wall, avoiding all other walls.

    Returns None when the budget runs out (e.g. a second form is a negative
    multiple of the wall form, so every wall point is shared).
    """
    f = fs.forms[wall]
    d = fs.dim
    j = next(i for i, c in enumerate(f) if c != 0)
    kernel = []
    for i in range(d):
        if i == j:
            continue
        v = [0] * d
        v[i] = f[j]
        v[j] = -f[i]
        kernel.append(_prim(v))
    if not kernel:
        return None
    rng = random.Random(seed)
    for _ in range(max_tries):
        x = [0] * d
        for v in kernel:
            c = rng.randint(-bound, bound)
            for i in range(d):
                x[i] += c * v[i]
        if all(c == 0 for c in x):
            continue
        if int_dot(f, x) != 0:
            raise ConecertError(f"kernel combination {x} leaves wall {f}")
        if all(int_dot(g, x) != 0 for t, g in enumerate(fs.forms) if t != wall):
            return QVector(x)
    return None
