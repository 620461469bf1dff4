"""Exact rational vectors and matrices.

Scalars are `fractions.Fraction` throughout: arbitrary precision, canonical
sign and lowest terms for free.  Nothing in this module ever rounds.  The
matrix routines are plain Gaussian elimination with exact pivots; for the
sizes this library works at (rank <= 8ish) that is entirely adequate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric, SingularMatrix

def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def primitive_tuple(coeffs) -> tuple[int, ...]:
    """Scale a rational tuple to primitive integers by a positive factor.

    The sign pattern is preserved exactly, so the result can stand in for
    the original functional wherever only signs matter.
    """
    fracs = [_frac(c) for c in coeffs]
    den = 1
    for c in fracs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def int_dot(a: Sequence, b: Sequence):
    """Plain dot product for covector-against-point evaluation."""
    return sum(map(mul, a, b))


class QVector:
    """Immutable vector of exact rationals.

    >>> QVector([1, 2]) + QVector([Fraction(1, 2), 0])
    QVector(3/2, 2)
    """

    __slots__ = ("coords", "_ints")

    def __init__(self, coords: Iterable):
        self.coords = tuple(_frac(c) for c in coords)
        self._ints = None

    @property
    def ints(self) -> tuple[int, ...]:
        """Cached primitive_tuple(coords): same sign as coords on any integer form."""
        if self._ints is None:
            self._ints = primitive_tuple(self.coords)
        return self._ints

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, QVector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __add__(self, other: "QVector") -> "QVector":
        self._check(other)
        return QVector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check(other)
        return QVector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self.coords)

    def scale(self, c) -> "QVector":
        c = _frac(c)
        return QVector(c * a for a in self.coords)

    def dot(self, other: "QVector") -> Fraction:
        """Plain coordinate dot product (no metric)."""
        self._check(other)
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def _check(self, other: "QVector") -> None:
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch(f"{len(self.coords)} vs {len(other.coords)}")

    def __repr__(self) -> str:
        return "QVector(%s)" % ", ".join(str(c) for c in self.coords)


def unit_vector(n: int, i: int) -> QVector:
    return QVector([1 if j == i else 0 for j in range(n)])


class QMatrix:
    """Immutable rational matrix stored as a tuple of row tuples."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(tuple(_frac(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise DimensionMismatch("ragged rows")

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def col(self, j: int) -> QVector:
        return QVector(r[j] for r in self.rows)

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def mul_vec(self, v: QVector) -> QVector:
        if len(v) != self.ncols:
            raise DimensionMismatch(f"matrix ncols {self.ncols} vs vector {len(v)}")
        return QVector(sum((r[j] * v[j] for j in range(self.ncols)), Fraction(0)) for r in self.rows)

    def __repr__(self) -> str:
        return "QMatrix(%r)" % (self.rows,)


def solve(mat: QMatrix, rhs: QVector) -> QVector:
    """Solve mat @ x = rhs exactly, as invert(mat) applied to rhs.

    Square systems only; raises SingularMatrix when elimination finds no
    pivot for some column.

    >>> solve(QMatrix([[2, -1], [-1, 2]]), QVector([1, 0]))
    QVector(2/3, 1/3)
    """
    if mat.nrows != mat.ncols:
        raise DimensionMismatch("solve needs a square matrix")
    if mat.nrows != len(rhs):
        raise DimensionMismatch("rhs length differs from matrix size")
    return invert(mat).mul_vec(rhs)


def invert(mat: QMatrix) -> QMatrix:
    """Exact inverse via Gauss-Jordan on [mat | I]; the one elimination routine."""
    if mat.nrows != mat.ncols:
        raise DimensionMismatch("invert needs a square matrix")
    n = mat.nrows
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat.rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrix(f"no pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return QMatrix([row[n:] for row in a])


def leading_minors(mat: QMatrix) -> list[Fraction]:
    """Determinants of the leading principal submatrices, sizes 1..n.

    Computed by fraction-free-ish elimination in natural order: minor k is
    the product of the first k pivots.  A zero pivot before column n means
    some leading minor vanishes; the remaining minors are then computed
    directly by cofactor expansion (sizes here are tiny).
    """
    n = mat.nrows
    if n != mat.ncols:
        raise DimensionMismatch("minors need a square matrix")
    out: list[Fraction] = []
    a = [list(row) for row in mat.rows]
    prod = Fraction(1)
    for col in range(n):
        if a[col][col] == 0:
            # fall back for this and later minors
            for k in range(col + 1, n + 1):
                out.append(_det([row[:k] for row in mat.rows[:k]]))
            return out
        prod *= a[col][col]
        out.append(prod)
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def _det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * x * _det(sub)
    return total


def check_gram(mat: QMatrix) -> None:
    """Validate a Gram matrix candidate: symmetric positive definite.

    Positive definiteness is decided exactly through the leading principal
    minors; the first non-positive one is reported with its value.
    """
    if mat.nrows != mat.ncols:
        raise NotSymmetric("gram matrix must be square")
    if not mat.is_symmetric():
        raise NotSymmetric("gram matrix must be symmetric")
    for k, minor in enumerate(leading_minors(mat), start=1):
        if minor <= 0:
            raise NotPositiveDefinite(k, minor)
