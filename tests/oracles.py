"""Test oracles: independent routes to what `src/` computes, and test-only helpers.

The tests compare the package against these constructions exactly:

* `project_onto`: orthogonal projection onto any independent family, by
  normal equations;
* `principal_inverse_system`: projected systems read off two principal
  inverses of the Gram matrix, against which the normal-equation
  construction of `ProjectedBasis` is checked;
* `cofactor_det` and `leading_minors`: determinants by cofactor expansion,
  against which `check_gram`'s pivots are checked;
* `fraction_independent_subset`: greedy independent forms by Fraction row
  reduction, against which the chamber enumeration's pivots are checked;
* `SubsetMatrix`, `signed_matrices`, `block_of`, `fubini` and `save_basis`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence

from conecert.corpus import basis_to_dict
from conecert.errors import NotNested
from conecert.indicators import sign_counts, theta_pair
from conecert.linalg import QMatrix, QVector, invert, solve
from conecert.subsets import bits, is_subset, iter_between, iter_submasks


def project_onto(basis, spanning, x: QVector) -> QVector:
    """Orthogonal projection of x onto span(spanning), via normal equations.

    The spanning family must be linearly independent.  Reference for the
    projection-cache lookups the package uses instead.
    """
    if not spanning:
        return QVector([0] * basis.rank)
    m = QMatrix([[basis.inner(u, v) for v in spanning] for u in spanning])
    t = QVector(basis.inner(u, x) for u in spanning)
    c = solve(m, t)
    out = QVector([0] * basis.rank)
    for k, u in enumerate(spanning):
        out = out + u.scale(c[k])
    return out


def principal_inverse_system(basis, lower: int, upper: int):
    """(elements, duals, elem_icov, dual_icov) of a nested pair, from G_PP^-1 and G_QQ^-1.

    The two identities and their proof are in the `ProjectedBasis` docstring.
    """
    g = basis.gram.rows
    n = basis.rank
    low, up = bits(lower), bits(upper)

    def principal_inverse(idx):
        return invert(QMatrix([[g[i][j] for j in idx] for i in idx])).rows if idx else ()

    low_inv, up_inv = principal_inverse(low), principal_inverse(up)
    elements, duals = {}, {}
    for i in bits(upper & ~lower):
        elem = [Fraction(int(j == i)) for j in range(n)]
        for j, row in zip(low, low_inv):
            elem[j] = -sum(c * g[k][i] for c, k in zip(row, low))
        elements[i] = QVector(elem)
        col = up.index(i)
        dual = [Fraction(0)] * n
        for j, row in zip(up, up_inv):
            dual[j] = row[col]
        duals[i] = QVector(dual)
    elem_icov = {i: basis.icov(v) for i, v in elements.items()}
    dual_icov = {i: basis.icov(v) for i, v in duals.items()}
    return elements, duals, elem_icov, dual_icov


def cofactor_det(rows: Sequence[Sequence]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * x * cofactor_det(sub)
    return total


def leading_minors(rows: Sequence[Sequence]) -> list[Fraction]:
    """Determinants of the leading principal submatrices, sizes 1..n."""
    return [cofactor_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


def fraction_independent_subset(forms, dim):
    """Indices of a greedy maximal linearly independent subset, in order."""
    reduced = []  # (pivot column, reduced row)
    chosen = []
    for idx, f in enumerate(forms):
        v = [Fraction(c) for c in f]
        for p, row in reduced:
            if v[p] != 0:
                fct = v[p] / row[p]
                v = [a - fct * b for a, b in zip(v, row)]
        p = next((j for j, a in enumerate(v) if a != 0), None)
        if p is not None:
            reduced.append((p, v))
            chosen.append(idx)
            if len(chosen) == dim:
                break
    return chosen


class SubsetMatrix:
    """Integer matrix indexed by nested subset pairs of a fixed index set.

    Entries with P not inside Q are identically zero and not stored.
    """

    def __init__(self, rank: int, entries: Optional[dict] = None):
        self.rank = rank
        self.entries = dict(entries) if entries else {}

    def entry(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)

    def set(self, p: int, q: int, value: int) -> None:
        if not is_subset(p, q):
            raise NotNested("entries live on nested pairs only")
        if value:
            self.entries[(p, q)] = value
        else:
            self.entries.pop((p, q), None)

    @classmethod
    def identity(cls, rank: int) -> "SubsetMatrix":
        m = cls(rank)
        for s in range(1 << rank):
            m.set(s, s, 1)
        return m

    def mul(self, other: "SubsetMatrix") -> "SubsetMatrix":
        if self.rank != other.rank:
            raise NotNested("ranks differ")
        out = SubsetMatrix(self.rank)
        for q in range(1 << self.rank):
            for p in iter_submasks(q):
                total = 0
                for s in iter_between(p, q):
                    a = self.entries.get((p, s))
                    if a:
                        b = other.entries.get((s, q))
                        if b:
                            total += a * b
                if total:
                    out.entries[(p, q)] = total
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubsetMatrix)
            and self.rank == other.rank
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SubsetMatrix(rank={self.rank}, nonzero={len(self.entries)})"


def signed_matrices(basis, lam: QVector, h: QVector):
    """The two signed indicator matrices at (lam, h).

    Entry (P, Q) of the first is (-1)^(|P| + b) * theta, of the second
    (-1)^(|P| + b-hat) * theta-hat, with counts taken on the (P, Q)
    projection at lam.  Diagonals are (-1)^|P|.
    """
    n = basis.rank
    th = SubsetMatrix(n)
    th_hat = SubsetMatrix(n)
    for q in range(1 << n):
        for p in iter_submasks(q):
            pb = basis.project(p, q)
            sc = sign_counts(pb, lam)
            t, t_hat = theta_pair(pb, lam, h)
            th.set(p, q, (-1) ** sc.eta * t)
            th_hat.set(p, q, (-1) ** sc.eta_hat * t_hat)
    return th, th_hat


def block_of(partition, i: int) -> int:
    """0-based position of the block of an ordered partition holding index i."""
    for u, b in enumerate(partition.blocks):
        if b >> i & 1:
            return u
    raise KeyError(i)


def fubini(n: int) -> int:
    """Number of ordered partitions of an n-element set."""
    a = [1]
    for m in range(1, n + 1):
        total = 0
        binom = 1
        for k in range(1, m + 1):
            binom = binom * (m - k + 1) // k
            total += binom * a[m - k]
        a.append(total)
    return a[n]


def save_basis(basis, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(basis_to_dict(basis), fh, indent=2)
        fh.write("\n")
