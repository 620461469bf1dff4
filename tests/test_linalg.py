"""Exact rational linear algebra: the one elimination, solving, inversion, Gram checks, primitives."""

from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecert.corpus import named_basis
from conecert.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
)
from conecert.linalg import (
    QMatrix,
    QVector,
    check_gram,
    int_dot,
    invert,
    pivots,
    primitive_tuple,
    solve,
    unit_vector,
)
from conecert.subsets import iter_nested_pairs

from oracles import leading_minors


def test_qvector_arithmetic_is_exact():
    u = QVector([1, Fraction(1, 2)])
    v = QVector([Fraction(1, 3), -1])
    assert (u + v).coords == (Fraction(4, 3), Fraction(-1, 2))
    assert (u - v).coords == (Fraction(2, 3), Fraction(3, 2))
    assert u.scale(6).coords == (6, 3)
    assert u.dot(v) == Fraction(1, 3) - Fraction(1, 2)


def test_qvector_dimension_guard():
    with pytest.raises(DimensionMismatch):
        QVector([1, 2]) + QVector([1, 2, 3])


def test_unit_and_zero_vectors():
    assert unit_vector(3, 1).coords == (0, 1, 0)
    assert QVector([0, 0]).is_zero()


def test_int_dot():
    assert int_dot((2, -1), (3, 4)) == 2
    assert int_dot((), ()) == 0


IDENTITY_3 = QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_solve_identity_returns_rhs():
    b = QVector([5, -7, Fraction(1, 3)])
    assert solve(IDENTITY_3, b) == b


def test_solve_chain_gram():
    x = solve(QMatrix([[2, -1], [-1, 2]]), QVector([1, 0]))
    assert x.coords == (Fraction(2, 3), Fraction(1, 3))


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve(QMatrix([[1, 1], [1, 1]]), QVector([1, 0]))


def test_solve_needs_square():
    with pytest.raises(DimensionMismatch):
        solve(QMatrix([[1, 0, 0], [0, 1, 0]]), QVector([1, 2]))


def test_invert_chain_gram():
    inv = invert(QMatrix([[2, -1], [-1, 2]]))
    third = Fraction(1, 3)
    assert inv.rows == (
        (2 * third, third),
        (third, 2 * third),
    )


def test_invert_roundtrip():
    m = QMatrix([[3, 1, 0], [1, 4, -2], [0, -2, 5]])
    inv = invert(m)
    columns = [m.mul_vec(QVector(row[j] for row in inv.rows)).coords for j in range(3)]
    assert QMatrix(columns) == IDENTITY_3


def _pivot_minors(rows):
    """Running products of the pivots, up to and including the first <= 0."""
    out = []
    for minor in accumulate(pivots([list(r) for r in rows]), mul):
        out.append(minor)
        if minor <= 0:
            break
    return out


def test_leading_minors_natural_order():
    for rows in ([[1, 2], [2, 1]], [[2, -1], [-1, 2]], [[3, 1, 0], [1, 4, -2], [0, -2, 5]]):
        assert _pivot_minors(rows) == leading_minors(rows)
    assert _pivot_minors([[1, 2], [2, 1]]) == [1, -3]
    assert _pivot_minors([[2, -1], [-1, 2]]) == [2, 3]


def test_leading_minors_zero_pivot_fallback():
    # the top-left entry vanishes: the pivots stop there, before any row swap
    rows = [[0, 1], [1, 0]]
    assert leading_minors(rows) == [0, -1]
    assert _pivot_minors(rows) == [0]
    with pytest.raises(NotPositiveDefinite) as exc:
        check_gram(QMatrix(rows))
    assert (exc.value.order, exc.value.minor) == (1, 0)


def test_check_gram_accepts_definite():
    check_gram(QMatrix([[2, -1], [-1, 2]]))


def test_check_gram_reports_failing_minor():
    with pytest.raises(NotPositiveDefinite) as exc:
        check_gram(QMatrix([[1, 2], [2, 1]]))
    assert exc.value.order == 2
    assert exc.value.minor == -3


@st.composite
def symmetric_matrices(draw):
    """Small symmetric integer matrices; a copied row and column forces a zero minor."""
    n = draw(st.integers(1, 5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    if n > 1 and draw(st.booleans()):
        a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        rows[b] = list(rows[a])
        for row in rows:
            row[b] = row[a]
    return rows


@settings(max_examples=300, derandomize=True)
@given(symmetric_matrices())
@example([[0]])
@example([[2, 1, 0], [1, 2, 3], [0, 3, 1]])
@example([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
@example([[2, -1, 2], [-1, 2, -1], [2, -1, 2]])
def test_check_gram_matches_cofactor_minors(rows):
    """check_gram reports the first non-positive leading minor, order and value."""
    minors = leading_minors(rows)
    first_bad = next(((k, m) for k, m in enumerate(minors, start=1) if m <= 0), None)
    if first_bad is None:
        check_gram(QMatrix(rows))
        assert _pivot_minors(rows) == minors
        return
    with pytest.raises(NotPositiveDefinite) as exc:
        check_gram(QMatrix(rows))
    assert (exc.value.order, exc.value.minor) == first_bad
    assert _pivot_minors(rows) == minors[: first_bad[0]]


def test_check_gram_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        check_gram(QMatrix([[1, 2], [0, 1]]))


def test_primitive_tuple_clears_denominators():
    assert primitive_tuple((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert primitive_tuple((0, Fraction(5, 7))) == (0, 1)
    assert primitive_tuple((0, 0)) == (0, 0)


@st.composite
def rational_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    nums = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    dens = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return [Fraction(a, b) for a, b in zip(nums, dens)]


@settings(max_examples=60, derandomize=True)
@given(rational_vectors(), st.integers(1, 12))
def test_primitive_tuple_positive_scale_invariant(vec, k):
    assert primitive_tuple([k * v for v in vec]) == primitive_tuple(vec)


@settings(max_examples=60, derandomize=True)
@given(rational_vectors())
def test_primitive_tuple_preserves_signs(vec):
    prim = primitive_tuple(vec)
    for orig, red in zip(vec, prim):
        assert (orig > 0) == (red > 0)
        assert (orig == 0) == (red == 0)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _exact_dot(form, vec: QVector) -> Fraction:
    return sum((a * b for a, b in zip(form, vec.coords)), Fraction(0))


@settings(max_examples=80, derandomize=True)
@given(rational_vectors(), st.data())
def test_qvector_ints_keep_every_form_sign(vec, data):
    n = len(vec)
    forms = data.draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=6)
    )
    # forms vanishing on vec: (v_j, -v_i) in slots (i, j), denominators cleared
    den = 1
    for c in vec:
        den *= c.denominator
    for i in range(n):
        for j in range(i + 1, n):
            f = [0] * n
            f[i] = int(vec[j] * den)
            f[j] = -int(vec[i] * den)
            forms.append(f)
    for v in (QVector(vec), QVector([0] * n)):
        for f in forms:
            assert _sign(int_dot(f, v.ints)) == _sign(_exact_dot(f, v))


@settings(max_examples=40, derandomize=True)
@given(
    st.sampled_from(["A3", "B3", "C3", "G2", "D4"]),
    st.lists(st.integers(0, 9), min_size=4, max_size=4),
)
def test_qvector_ints_on_negated_dual_directions(name, coeffs):
    """Directions built like the CLI's hypothesis samples: -sum c_i * dual_i."""
    basis = named_basis(name)
    lam = QVector([0] * basis.rank)
    for i, c in enumerate(coeffs[: basis.rank]):
        lam = lam + basis.dual_vector(i).scale(-c)
    for p, r in iter_nested_pairs(basis.rank):
        pb = basis.project(p, r)
        for f in list(pb.elem_icov.values()) + list(pb.dual_icov.values()):
            assert _sign(int_dot(f, lam.ints)) == _sign(_exact_dot(f, lam))


def test_qvector_ints_cached_and_equality_unchanged():
    v = QVector([Fraction(2, 3), Fraction(-4, 3), 0])
    assert v.ints == (1, -2, 0)
    assert v.ints is v.ints
    assert v == QVector([Fraction(2, 3), Fraction(-4, 3), 0])
    assert hash(v) == hash(QVector(v.coords))
    assert QVector([0, 0]).ints == (0, 0)


@st.composite
def dominant_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for i in range(n):
        row = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        row[i] = sum(abs(x) for x in row) + draw(st.integers(1, 3))
        rows.append(row)
    return QMatrix(rows)


@settings(max_examples=40, derandomize=True)
@given(dominant_matrices())
def test_solve_then_substitute(m):
    rhs = QVector(range(1, m.nrows + 1))
    x = solve(m, rhs)
    recovered = QVector(
        sum(m.entry(i, j) * x[j] for j in range(m.ncols)) for i in range(m.nrows)
    )
    assert recovered == rhs
