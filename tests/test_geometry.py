"""Gram-metric geometry: duals, projected systems, cuts, norm identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.corpus import CORPUS_NAMES, named_basis, random_basis
from conecert.errors import InvalidRank, NotNested, NotPositiveDefinite, RankMismatch
from conecert.geometry import lambda_cut, make_basis
from conecert.linalg import QVector, int_dot
from conecert.reports import mask_labels
from conecert.subsets import full_mask, iter_nested_pairs

from conftest import qv
from oracles import principal_inverse_system, project_onto


def test_make_basis_validates_gram():
    with pytest.raises(NotPositiveDefinite):
        make_basis([[1, 2], [2, 1]])


def test_make_basis_label_count_guard():
    with pytest.raises(RankMismatch):
        make_basis([[1, 0], [0, 1]], labels=["x"])


def test_default_labels_and_name():
    b = make_basis([[2, -1], [-1, 2]])
    assert b.labels == ("a1", "a2")
    assert b.name == "rank2"
    assert mask_labels(b, 0b10) == ["a2"]


def test_chain_rank2_inner_products(a2):
    e1, e2 = qv(1, 0), qv(0, 1)
    assert a2.inner(e1, e1) == 2
    assert a2.inner(e1, e2) == -1
    assert a2.inner(e2, e2) == 2


def test_chain_rank2_duals(a2):
    mu1 = a2.dual_vector(0)
    mu2 = a2.dual_vector(1)
    assert mu1.coords == (Fraction(2, 3), Fraction(1, 3))
    assert mu2.coords == (Fraction(1, 3), Fraction(2, 3))
    # delta pairing against the basis
    assert a2.inner(mu1, qv(1, 0)) == 1
    assert a2.inner(mu1, qv(0, 1)) == 0
    assert a2.inner(mu1, mu2) == Fraction(1, 3)


def test_covector_and_primitive_covector(a2):
    assert a2.covector(qv(1, 0)).coords == (2, -1)
    assert a2.icov(qv(1, 0)) == (2, -1)
    assert a2.icov(a2.dual_vector(0)) == (1, 0)
    # positive rescale only: signs survive
    assert a2.icov(qv(Fraction(1, 2), 0)) == (2, -1)


def test_icov_pairing_matches_inner(a2):
    v = qv(2, Fraction(-1, 3))
    h = qv(5, 7)
    cov_val = a2.covector(v).dot(h)
    assert cov_val == a2.inner(v, h)
    icv = a2.icov(v)
    assert (int_dot(icv, h.coords) > 0) == (cov_val > 0)


def test_projection_onto_single_vector(a2):
    # drop e2 along e1: the remainder is e2 + e1/2
    pb = a2.project(0b01, 0b11)
    assert pb.indices == (1,)
    assert pb.elements[1].coords == (Fraction(1, 2), 1)
    assert a2.inner(pb.elements[1], qv(1, 0)) == 0
    # the dual of the surviving index is the ambient dual (it avoids e1)
    assert pb.duals[1] == a2.dual_vector(1)


def test_projection_other_side(a2):
    pb = a2.project(0b10, 0b11)
    assert pb.elements[0].coords == (1, Fraction(1, 2))
    assert pb.duals[0] == a2.dual_vector(0)


def test_projection_trivial_and_empty(a2):
    low = a2.project(0, 0b11)
    assert low.elements[0].coords == (1, 0)
    assert low.duals[0] == a2.dual_vector(0)
    empty = a2.project(0b11, 0b11)
    assert empty.indices == ()
    assert empty.size == 0


def test_projection_requires_nesting(a2):
    with pytest.raises(NotNested):
        a2.project(0b10, 0b01)
    with pytest.raises(RankMismatch):
        a2.project(0, 0b100)


def test_duality_pairings_all_pairs(a3):
    for p, q in iter_nested_pairs(a3.rank):
        pb = a3.project(p, q)
        for i in pb.indices:
            for j in pb.indices:
                want = 1 if i == j else 0
                assert a3.inner(pb.duals[i], pb.elements[j]) == want


def test_elements_orthogonal_to_lower(a3):
    for p, q in iter_nested_pairs(a3.rank):
        pb = a3.project(p, q)
        for i in pb.indices:
            for j in range(a3.rank):
                if p >> j & 1:
                    assert a3.inner(pb.elements[i], qv(*(int(k == j) for k in range(3)))) == 0


def test_primal_nesting(a3):
    """Projected elements depend only on the lower set."""
    full = full_mask(a3.rank)
    for p, q in iter_nested_pairs(a3.rank):
        wide = a3.project(p, full)
        pb = a3.project(p, q)
        for i in pb.indices:
            assert pb.elements[i] == wide.elements[i]


def test_dual_nesting(a3):
    """Projected duals depend only on the upper set."""
    for p, q in iter_nested_pairs(a3.rank):
        pb = a3.project(p, q)
        for s, q2 in iter_nested_pairs(a3.rank):
            if q2 == q and s & p == p:
                up = a3.project(s, q)
                for i in up.indices:
                    assert up.duals[i] == pb.duals[i]


def test_lambda_cut_degenerate_direction(a2):
    pb = a2.project(0, 0b11)
    cut = lambda_cut(pb, qv(0, 0))
    assert (cut.p_lambda, cut.q_lambda) == (0b11, 0)


def test_lambda_cut_dominant_direction(a2):
    pb = a2.project(0, 0b11)
    rho = a2.dual_vector(0) + a2.dual_vector(1)
    cut = lambda_cut(pb, rho)
    assert (cut.p_lambda, cut.q_lambda) == (0, 0b11)


def test_lambda_cut_brute_force(a2):
    pb = a2.project(0, 0b11)
    for x in range(-3, 4):
        for y in range(-3, 4):
            lam = qv(x, y)
            cut = lambda_cut(pb, lam)
            p_want = 0
            q_want = 0
            for i in pb.indices:
                if a2.inner(pb.duals[i], lam) <= 0:
                    p_want |= 1 << i
                if a2.inner(pb.elements[i], lam) > 0:
                    q_want |= 1 << i
            assert cut.p_lambda == p_want
            assert cut.q_lambda == q_want


def test_lambda_cut_nested_between(a3):
    full = full_mask(3)
    pb = a3.project(0b001, full)
    for lam in (qv(1, -2, 1), qv(0, 3, -1), qv(-2, -2, 5)):
        cut = lambda_cut(pb, lam)
        assert cut.p_lambda & 0b001 == 0b001
        assert cut.q_lambda & 0b001 == 0b001
        assert cut.p_lambda | full == full


def test_projection_norm_identity(b2):
    """Sum of element-dual pairings against H recovers the projected norm."""
    for p, r in iter_nested_pairs(b2.rank):
        pb = b2.project(p, r)
        for h in (qv(3, -1), qv(-2, 5), qv(1, 1), qv(0, -4)):
            total = sum(
                (b2.inner(pb.elements[i], h) * b2.inner(pb.duals[i], h) for i in pb.indices),
                Fraction(0),
            )
            proj = project_onto(b2, [pb.elements[i] for i in pb.indices], h)
            assert total == b2.inner(proj, proj)
            assert total >= 0
            assert (total == 0) == proj.is_zero()


def test_projection_cache_returns_same_object(a2):
    assert a2.project(0, 0b11) is a2.project(0, 0b11)


def test_random_basis_projections_pair_correctly():
    basis = random_basis(3, seed=11, kind="general")
    pb = basis.full_projection()
    for i in pb.indices:
        for j in pb.indices:
            assert basis.inner(pb.duals[i], pb.elements[j]) == (1 if i == j else 0)


def assert_systems_match_principal_inverses(basis):
    """Every nested pair: the normal-equation families equal the principal-inverse ones."""
    for p, q in iter_nested_pairs(basis.rank):
        pb = basis.project(p, q)
        got = (pb.elements, pb.duals, pb.elem_icov, pb.dual_icov)
        assert got == principal_inverse_system(basis, p, q), (basis.name, p, q)
        assert list(pb.elements) == list(pb.duals) == list(pb.indices)


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "A5", "D5", "F4"])
def test_systems_match_principal_inverses(name):
    assert_systems_match_principal_inverses(named_basis(name))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10**6), st.sampled_from(["general", "obtuse"]))
def test_systems_match_principal_inverses_random_bases(rank, seed, kind):
    assert_systems_match_principal_inverses(random_basis(rank, seed, kind))


def test_rank_zero_basis_refused():
    with pytest.raises(InvalidRank, match="rank must be positive"):
        make_basis([])
