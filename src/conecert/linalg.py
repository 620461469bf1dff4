"""Exact rational vectors and matrices.

Scalars are `fractions.Fraction` throughout: arbitrary precision, canonical
sign and lowest terms for free.  Nothing in this module ever rounds.  The
package has one exact elimination, `pivots` (Gauss-Jordan with exact
pivots): `invert` runs it to the end and `solve` applies the inverse,
`check_gram` reads its pivots as leading principal minors, and chamber
enumeration reads the pivots of an integer Gram matrix to find independent
forms.  For the sizes this library works at (rank <= 8ish) plain
elimination is entirely adequate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric, SingularMatrix

def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _prim(v: Sequence[int]) -> tuple[int, ...]:
    """An integer tuple divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def primitive_tuple(coeffs) -> tuple[int, ...]:
    """Scale a rational tuple to primitive integers by a positive factor.

    Clears denominators, then `_prim`.  The sign pattern is preserved
    exactly, so the result can stand in for the original functional
    wherever only signs matter.
    """
    fracs = [_frac(c) for c in coeffs]
    den = lcm(*(c.denominator for c in fracs))
    return _prim([int(c * den) for c in fracs])


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


def pivots(rows: list[list]) -> Iterator[Fraction]:
    """Gauss-Jordan elimination on `rows`, in place: the one elimination routine.

    Entries are ints or Fractions, and every division is exact.  Column k
    of the leading square block is cleared in every other row with pivot
    row k, which is scaled to a leading 1; the rows may carry further
    columns (an augmented identity, for `invert`).  Raises SingularMatrix
    when no row at or below k has a nonzero entry in column k.

    rows[k][k] is yielded before column k is touched: before the row swap
    and before the SingularMatrix check.  Until a row has been swapped,
    that entry is the k-th leading principal minor over the (k-1)-th, since
    row k has only been reduced by the rows above it, as in elimination
    without pivoting.  So a caller that stops at the first zero pivot reads
    leading minors only and never sees a swap or an exception.
    """
    n = len(rows)
    for col in range(n):
        yield rows[col][col]
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise SingularMatrix(f"no pivot in column {col}")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / _frac(rows[col][col])
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]


def invert(mat: QMatrix) -> QMatrix:
    """Exact inverse: `pivots` run to the end on [mat | I]."""
    if mat.nrows != mat.ncols:
        raise DimensionMismatch("invert needs a square matrix")
    n = mat.nrows
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat.rows)]
    for _ in pivots(a):
        pass
    return QMatrix([row[n:] for row in a])


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


def check_gram(mat: QMatrix) -> None:
    """Validate a Gram matrix candidate: symmetric positive definite.

    Positive definiteness is decided exactly by the leading principal
    minors, read as running products of the pivots of `pivots`: all minors
    are positive iff all pivots are, and elimination stops at the first
    pivot <= 0, which is reported with its minor.
    """
    if mat.nrows != mat.ncols:
        raise NotSymmetric("gram matrix must be square")
    if not mat.is_symmetric():
        raise NotSymmetric("gram matrix must be symmetric")
    minor = Fraction(1)
    for k, pivot in enumerate(pivots([list(row) for row in mat.rows]), start=1):
        minor *= pivot
        if pivot <= 0:
            raise NotPositiveDefinite(k, minor)
