"""Euclidean bases, nested projections, and their dual systems.

A basis is described purely by its Gram matrix: vectors live as coordinate
tuples in the basis frame and every inner product goes through the metric.
For a nested pair of index subsets P <= Q, the projected system consists of
the members of Q outside P projected orthogonally away from span(P), together
with the dual family inside the span of those projections.  Both families
are computed by exact normal equations; no orthonormalization ever happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InvalidRank, NotNested, RankMismatch
from .linalg import (
    QMatrix,
    QVector,
    check_gram,
    int_dot,
    invert,
    primitive_tuple,
    solve,
    unit_vector,
)
from .subsets import bits, full_mask, is_subset


class EuclideanBasis:
    """A basis of a rational Euclidean space, known through its Gram matrix.

    Coordinates are always taken in this basis, so basis vector i is the
    i-th unit coordinate vector and the dual family sits in the columns of
    the inverse Gram matrix.  The rank must be positive.
    """

    def __init__(
        self,
        gram: QMatrix,
        labels: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ):
        if gram.nrows == 0:
            raise InvalidRank("rank must be positive")
        check_gram(gram)
        self.gram = gram
        self.rank = gram.nrows
        if labels is None:
            labels = tuple(f"a{i + 1}" for i in range(self.rank))
        labels = tuple(str(s) for s in labels)
        if len(labels) != self.rank:
            raise RankMismatch(f"{len(labels)} labels for rank {self.rank}")
        self.labels = labels
        self.name = name if name is not None else f"rank{self.rank}"
        # G^-1 is symmetric: row j = column j = coordinates of dual vector j
        self.dual_coords = invert(gram)
        self._proj_cache: dict = {}
        self._frame_cache: dict = {}

    def inner(self, x: QVector, y: QVector) -> Fraction:
        """Metric inner product of two coordinate vectors."""
        if len(x) != self.rank or len(y) != self.rank:
            raise RankMismatch("vector length differs from rank")
        return x.dot(self.gram.mul_vec(y))

    def covector(self, v: QVector) -> QVector:
        """Coordinate functional of pairing with v: covector(v).dot(x) == inner(v, x)."""
        return self.gram.mul_vec(v)

    def icov(self, v: QVector) -> tuple[int, ...]:
        """Primitive integer covector of v (positive rescale of covector(v))."""
        return primitive_tuple(self.covector(v).coords)

    def dual_vector(self, i: int) -> QVector:
        return QVector(self.dual_coords.rows[i])

    def project_span(self, mask: int, x: QVector) -> QVector:
        """Orthogonal projection of x onto the span of basis vectors in mask."""
        idx = bits(mask)
        if not idx:
            return QVector([0] * self.rank)
        m = QMatrix([[self.gram.entry(i, j) for j in idx] for i in idx])
        gx = self.gram.mul_vec(x)
        c = solve(m, QVector(gx[i] for i in idx))
        out = [Fraction(0)] * self.rank
        for k, i in enumerate(idx):
            out[i] = c[k]
        return QVector(out)

    def project(self, lower: int, upper: int) -> "ProjectedBasis":
        """Projected system for the nested pair lower <= upper (cached)."""
        key = (lower, upper)
        pb = self._proj_cache.get(key)
        if pb is None:
            pb = ProjectedBasis(self, lower, upper)
            self._proj_cache[key] = pb
        return pb

    def full_projection(self) -> "ProjectedBasis":
        return self.project(0, full_mask(self.rank))

    def __repr__(self) -> str:
        return f"EuclideanBasis(rank={self.rank}, labels={self.labels!r})"


def make_basis(
    gram_rows, labels: Optional[Sequence[str]] = None, name: Optional[str] = None
) -> EuclideanBasis:
    """Build a basis from Gram matrix rows (validated symmetric PD)."""
    gram = gram_rows if isinstance(gram_rows, QMatrix) else QMatrix(gram_rows)
    return EuclideanBasis(gram, labels, name)


class ProjectedBasis:
    """Members of upper \\ lower projected away from span(lower), plus duals.

    elements[i]  : projection of basis vector i onto the orthogonal
                   complement of span(lower); independent of `upper`.
    duals[i]     : the unique vector in the span of the elements pairing to
                   delta against them; equals the orthogonal projection of
                   the ambient dual vector i onto that span.

    Both families are indexed by the ambient indices in upper \\ lower.
    With P = lower, Q = upper and G the Gram matrix, they equal

      elements[i] = e_i - sum_{j, k in P} (G_PP^-1)_{jk} G_{ki} e_j
      duals[i]    = sum_{j in Q} (G_QQ^-1)_{ji} e_j

    Proof.  The sum in the first line is the projection of e_i onto
    span(P): its coefficients G_PP^-1 G_Pi solve the normal equations.  The
    vector in the second line lies in span(Q) and pairs with e_k to
    delta_ik for every k in Q.  As i is not in P, it is orthogonal to
    span(P), so it lies in the span of the elements, and it pairs to
    delta_ik with element k, which is e_k minus a vector of span(P).  Only
    the dual family has both properties.
    """

    def __init__(self, basis: EuclideanBasis, lower: int, upper: int):
        n = basis.rank
        if not is_subset(lower, full_mask(n)) or not is_subset(upper, full_mask(n)):
            raise RankMismatch("subset mask out of range")
        if not is_subset(lower, upper):
            raise NotNested(f"lower {lower:b} not inside upper {upper:b}")
        self.basis = basis
        self.lower = lower
        self.upper = upper
        self.indices = tuple(bits(upper & ~lower))
        self.size = len(self.indices)

        self.elements: dict[int, QVector] = {}
        for i in self.indices:
            e = unit_vector(n, i)
            self.elements[i] = e - basis.project_span(lower, e)

        # normal equations on the element family give the dual family
        self.duals: dict[int, QVector] = {}
        if self.indices:
            elems = [self.elements[i] for i in self.indices]
            m = QMatrix([[basis.inner(u, v) for v in elems] for u in elems])
            minv = invert(m)
            for k, i in enumerate(self.indices):
                d = QVector([0] * n)
                for a, u in enumerate(elems):
                    d = d + u.scale(minv.entry(a, k))
                self.duals[i] = d

        self.elem_icov = {i: basis.icov(v) for i, v in self.elements.items()}
        self.dual_icov = {i: basis.icov(v) for i, v in self.duals.items()}

    def __repr__(self) -> str:
        return f"ProjectedBasis(lower={self.lower:#b}, upper={self.upper:#b})"


@dataclass(frozen=True)
class LambdaCut:
    """The two cut subsets a direction induces on a nested pair."""

    p_lambda: int
    q_lambda: int


def lambda_cut(pb: ProjectedBasis, lam: QVector) -> LambdaCut:
    """Cut a nested pair by the sign pattern of a direction.

    p_lambda grows the lower set by the indices whose dual pairs <= 0 with
    lam; q_lambda grows it by the indices whose element pairs > 0.  For
    lam = 0 this degenerates to (upper, lower).
    """
    p = pb.lower
    q = pb.lower
    for i in pb.indices:
        if int_dot(pb.dual_icov[i], lam.ints) <= 0:
            p |= 1 << i
        if int_dot(pb.elem_icov[i], lam.ints) > 0:
            q |= 1 << i
    return LambdaCut(p, q)
