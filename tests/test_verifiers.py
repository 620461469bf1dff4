"""The identity layer: pointwise verdicts, matrices, and chamber certificates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.chambers import sample_regular, wall_point
from conecert.cli import _hypothesis_lams, _instances
from conecert.corpus import named_basis, random_basis
from conecert.errors import (
    HypothesisViolated,
    MissingParam,
    NonRegularLambda,
    NotNested,
)
from conecert.geometry import make_basis
from conecert.linalg import QVector
from conecert.partitions import OrderedPartition, enumerate_ordered_partitions
from conecert.subsets import full_mask, is_subset, iter_nested_pairs, popcount
from conecert import verifiers
from conecert.verifiers import (
    IDENTITIES,
    SIGNATURES,
    CertifySession,
    certify,
    collect_forms,
    hypothesis_ok,
    obtuse,
    verify,
)

from conftest import qv
from oracles import SubsetMatrix, signed_matrices


def lam_h_samples(basis, identity, count, tag, **kw):
    h_fs, lam_fs = collect_forms(basis, identity, **kw)
    lams = sample_regular(lam_fs, count, seed=repr(("lam", tag)))
    hs = sample_regular(h_fs, count, seed=repr(("h", tag)))
    return list(zip(lams, hs))


def test_catalog():
    assert IDENTITIES == (
        "L31_THETA",
        "L31_THETA_HAT",
        "L32",
        "L33_EQ1",
        "L33_EQ2",
        "P34",
        "C35",
        "C36",
        "STAR_RECURSION",
        "STARSTAR_SIGNS",
        "P41",
        "BOULDER_21",
    )


def test_unknown_identity_rejected(a2):
    with pytest.raises(MissingParam):
        verify(a2, "NO_SUCH", p=0, r=3, h=qv(1, 1))


def test_missing_parameter_rejected(a2):
    with pytest.raises(MissingParam):
        verify(a2, "L32", p=0, r=3)  # no h


def test_signatures_declare_each_parameter(a3):
    """verify records exactly the declared parameters; leaving one out raises
    MissingParam naming it, unless the signature gives it a default."""
    for identity, sig in verifiers.SIGNATURES.items():
        inst = _instances(a3, identity, nested_only=True)[-1]
        h_fs, lam_fs = collect_forms(a3, identity, **inst)
        kw = dict(inst, **dict(zip(sig.lams, sample_regular(lam_fs, 2, seed=identity))))
        kw["h"] = sample_regular(h_fs, 1, seed=identity)[0] if sig.h else None
        assert tuple(verify(a3, identity, strict=False, **kw).params) == sig.names
        for name in sig.names:
            partial = {k: v for k, v in kw.items() if k != name}
            if name in sig.defaults:
                assert verify(a3, identity, strict=False, **partial).params[name] is not None
            else:
                with pytest.raises(MissingParam, match=repr(name)):
                    verify(a3, identity, strict=False, **partial)
    # the signatures the catalog's statements fix
    assert verifiers.SIGNATURES["L33_EQ2"].lams == ()  # directions only gate the hypothesis
    assert verifiers.SIGNATURES["C35"].lams == ("lam",)
    assert not verifiers.SIGNATURES["STARSTAR_SIGNS"].h
    v = verify(a3, "BOULDER_21", lam=qv(1, 2, 3), h=qv(3, 1, 2))
    assert (v.params["p"], v.params["r"]) == (0, 0b111)
    v = verify(a3, "L33_EQ1", p=0, r=0b111, h=qv(3, 1, 2))
    assert v.params["lam1"].is_zero() and v.params["lam2"].is_zero()


# -- subset matrices (test-side oracles of the matrix identities) -----------


def test_subset_matrix_entry_defaults_to_zero():
    m = SubsetMatrix(2)
    assert m.entry(0b01, 0b11) == 0
    assert m.entry(0b10, 0b01) == 0


def test_subset_matrix_rejects_non_nested_set():
    m = SubsetMatrix(2)
    with pytest.raises(NotNested):
        m.set(0b10, 0b01, 5)


def test_subset_matrix_identity_law():
    ident = SubsetMatrix.identity(3)
    m = SubsetMatrix(3)
    for p, q in iter_nested_pairs(3):
        m.set(p, q, (p * 31 + q) % 7 - 3)
    assert m.mul(ident).entries == m.entries
    assert ident.mul(m).entries == m.entries


def dense_of(m):
    n = 1 << m.rank
    return [[m.entry(p, q) for q in range(n)] for p in range(n)]


def test_subset_matrix_mul_matches_dense():
    a = SubsetMatrix(2)
    b = SubsetMatrix(2)
    for k, (p, q) in enumerate(iter_nested_pairs(2)):
        a.set(p, q, k - 4)
        b.set(p, q, (3 * k) % 5 - 2)
    got = dense_of(a.mul(b))
    da, db = dense_of(a), dense_of(b)
    want = [
        [sum(da[p][s] * db[s][q] for s in range(4)) for q in range(4)]
        for p in range(4)
    ]
    assert got == want


def test_subset_matrix_stays_triangular():
    a = SubsetMatrix(2)
    for p, q in iter_nested_pairs(2):
        a.set(p, q, 1)
    prod = a.mul(a)
    for (p, q) in prod.entries:
        assert p & q == p


def test_signed_matrices_diagonal(a2):
    for lam, h in lam_h_samples(a2, "C35", 5, "diag", p=0, r=3):
        th, th_hat = signed_matrices(a2, lam, h)
        for s in range(4):
            assert th.entry(s, s) == (-1) ** popcount(s)
            assert th_hat.entry(s, s) == (-1) ** popcount(s)
        assert th.entry(0b10, 0b01) == 0


# -- pointwise verdicts ----------------------------------------------------


def test_rank1_main_identity_all_sign_cases():
    basis = make_basis([[2]])
    table = {
        # (lam, h) -> (lhs, rhs)
        (1, -1): (1, 1),
        (1, 1): (0, 0),
        (-1, 1): (-1, -1),
        (-1, -1): (0, 0),
    }
    for (lv, hv), (lhs, rhs) in table.items():
        v = verify(basis, "BOULDER_21", lam=qv(lv), h=qv(hv))
        assert (v.lhs, v.rhs) == (lhs, rhs)
        assert v.ok


def test_main_identity_defaults_to_full_pair(a2):
    lam, h = qv(1, 1), qv(3, -1)
    v = verify(a2, "BOULDER_21", lam=lam, h=h)
    w = verify(a2, "BOULDER_21", p=0, r=3, lam=lam, h=h)
    assert (v.lhs, v.rhs) == (w.lhs, w.rhs)


def test_interval_sum_collapses_at_equal_pair(a2):
    v = verify(a2, "L32", p=0b01, r=0b01, h=qv(2, -1))
    assert (v.lhs, v.rhs) == (1, 1)
    v = verify(a2, "L33_EQ2", p=0b11, r=0b11, h=qv(2, -1))
    assert (v.lhs, v.rhs) == (1, 1)


def test_product_vanishing_at_equal_pair(a2):
    v = verify(a2, "P34", p=0b01, r=0b01, lam1=qv(1, 1), lam2=qv(-1, 2), h=qv(1, -3))
    assert (v.lhs, v.rhs) == (1, 1)


def test_non_nested_pairs_are_trivial(a2):
    for ident in ("L32", "L33_EQ1", "L33_EQ2", "P34", "C35", "C36"):
        v = verify(
            a2,
            ident,
            p=0b10,
            r=0b01,
            lam=qv(0, 0),
            lam1=qv(0, 0),
            lam2=qv(0, 0),
            h=qv(1, 1),
        )
        assert (v.lhs, v.rhs) == (0, 0)
        assert v.note == "non-nested pair"
        assert set(v.params) == {"p", "r", "lam", "lam1", "lam2", "h"}  # as given


@pytest.mark.parametrize("name", ["A2", "B2", "A3"])
def test_certify_off_nested_pairs_matches_verify(name):
    """A matrix entry off nested pairs certifies to verify's trivial zero entry."""
    basis = named_basis(name)
    n = basis.rank
    lam = QVector(range(1, n + 1))  # outside L33's hypothesis cone: not checked here
    checked = 0
    for ident, sig in SIGNATURES.items():
        if not sig.matrix:
            continue
        lams = {key: lam for key in sig.lams}
        for p in range(1 << n):
            for r in range(1 << n):
                if is_subset(p, r):
                    continue
                h_fs, lam_fs = collect_forms(basis, ident, p=p, r=r)
                assert h_fs.forms == lam_fs.forms == ()
                rep = certify(basis, ident, p=p, r=r, **lams)
                (cell,) = rep.cells
                v = verify(basis, ident, p=p, r=r, h=cell.witness, **lams)
                assert v.note == "non-nested pair"
                assert (cell.lhs, cell.rhs) == (v.lhs, v.rhs) == (0, 0), (ident, p, r)
                assert rep.ok and rep.num_forms == 0
                checked += 1
    assert checked == 6 * (4**n - 3**n)


@pytest.mark.parametrize("ident", ["L31_THETA", "L31_THETA_HAT"])
def test_cone_expansions(ident, a2):
    for p, q in iter_nested_pairs(2):
        for lam, h in lam_h_samples(a2, ident, 6, (ident, p, q), p=p, q=q):
            v = verify(a2, ident, p=p, q=q, lam=lam, h=h)
            assert v.ok, v


def test_interval_products_sampled(b2):
    for p, r in iter_nested_pairs(2):
        for lam, h in lam_h_samples(b2, "L32", 6, ("l32", p, r), p=p, r=r):
            assert verify(b2, "L32", p=p, r=r, h=h).ok
            assert verify(b2, "L33_EQ2", p=p, r=r, h=h).ok


def test_matrix_products_both_orders(g2):
    for lam, h in lam_h_samples(g2, "C35", 8, "c35", p=0, r=3):
        th, th_hat = signed_matrices(g2, lam, h)
        ident = SubsetMatrix.identity(2).entries
        assert th.mul(th_hat).entries == ident
        assert th_hat.mul(th).entries == ident
        v = verify(g2, "C35", p=0, r=3, lam=lam, h=h)
        assert v.ok


def test_dominance_expansion(a3):
    for p, r in ((0, 0b111), (0b001, 0b111), (0b011, 0b111)):
        for lam, h in lam_h_samples(a3, "C36", 5, ("c36", p, r), p=p, r=r):
            assert verify(a3, "C36", p=p, r=r, lam=lam, h=h).ok


def test_recursion_and_sign_bookkeeping(a3):
    full = full_mask(3)
    for partition in enumerate_ordered_partitions(full):
        for lam, h in lam_h_samples(
            a3, "STAR_RECURSION", 4, ("star", partition.blocks),
            p=0, r=full, partition=partition,
        ):
            v = verify(a3, "STAR_RECURSION", p=0, r=full, partition=partition, lam=lam, h=h)
            assert v.ok, v
            w = verify(a3, "STARSTAR_SIGNS", p=0, r=full, partition=partition, lam=lam)
            assert w.ok, w


def test_partition_sum_vs_closed_form(a2):
    for p, r in iter_nested_pairs(2):
        if p == r:
            continue
        for lam, h in lam_h_samples(a2, "P41", 6, ("p41", p, r), p=p, r=r):
            assert verify(a2, "P41", p=p, r=r, lam=lam, h=h).ok


def test_main_identity_rhs_equals_closed_form_route(a3):
    """Both right-hand computations of the full-pair statement agree."""
    full = full_mask(3)
    for lam, h in lam_h_samples(a3, "BOULDER_21", 10, "chain"):
        vb = verify(a3, "BOULDER_21", lam=lam, h=h)
        vp = verify(a3, "P41", p=0, r=full, lam=lam, h=h)
        assert vb.lhs == vp.lhs
        assert vb.rhs == vp.rhs
        assert vb.ok and vp.ok


# -- hypothesis handling ---------------------------------------------------


def test_obtuse_flags():
    assert obtuse(named_basis("A2"))
    assert obtuse(named_basis("D4"))
    assert not obtuse(make_basis([[2, 1], [1, 2]]))


def test_hypothesis_ok_cases(a2):
    assert hypothesis_ok(a2, qv(0, 0))
    # negative of a dominant direction: weakly dominated by zero
    assert hypothesis_ok(a2, (a2.dual_vector(0) + a2.dual_vector(1)).scale(-1))
    assert not hypothesis_ok(a2, a2.dual_vector(0))
    sharp = make_basis([[2, 1], [1, 2]])
    assert not hypothesis_ok(sharp, qv(-1, -1))


def test_two_sided_inverse_needs_its_hypothesis():
    """Strict mode refuses a bad direction; exploratory mode records it and
    the sampled equalities really can fail."""
    sharp = make_basis([[3, 1], [1, 3]])
    lam1, lam2 = qv(-2, -2), qv(0, 1)
    with pytest.raises(HypothesisViolated):
        verify(sharp, "L33_EQ1", p=0, r=3, lam1=lam1, lam2=lam2, h=qv(1, 1))
    h_fs, _ = collect_forms(sharp, "L33_EQ1", p=0, r=3)
    failed = 0
    for h in sample_regular(h_fs, 40, seed="sharp-explore"):
        v = verify(sharp, "L33_EQ1", p=0, r=3, lam1=lam1, lam2=lam2, h=h, strict=False)
        assert "hypothesis_ok=False" in v.note
        failed += 0 if v.ok else 1
    assert failed > 0


def test_two_sided_inverse_holds_under_hypothesis(a2):
    lam = qv(-1, -1)  # negation is dominant on the obtuse chain
    assert hypothesis_ok(a2, lam)
    h_fs, _ = collect_forms(a2, "L33_EQ1", p=0, r=3)
    for h in sample_regular(h_fs, 25, seed="obtuse-holds"):
        v = verify(a2, "L33_EQ1", p=0, r=3, lam1=lam, lam2=lam, h=h)
        assert v.ok, v


# -- chamber certificates --------------------------------------------------


def test_collect_forms_full_pair_rank2(a2):
    h_fs, lam_fs = collect_forms(a2, "BOULDER_21")
    assert len(h_fs.forms) == 4
    assert len(lam_fs.forms) == 4


def test_collect_forms_rank1():
    basis = make_basis([[2]])
    h_fs, lam_fs = collect_forms(basis, "BOULDER_21")
    assert h_fs.forms == ((1,),)
    assert lam_fs.forms == ((1,),)


def test_certificate_rank1_both_sides():
    basis = make_basis([[2]])
    rep = certify(basis, "BOULDER_21", lam=qv(1))
    assert rep.num_cells == 2
    assert rep.ok
    assert {c.lhs for c in rep.cells} == {0, 1}


def test_certificate_full_pair_rank2(a2):
    sess = CertifySession(a2, "BOULDER_21")
    lams = sample_regular(sess.lam_forms, 5, seed="cert-a2")
    for lam in lams:
        rep = sess.run(lam=lam)
        assert rep.num_cells == 8
        assert rep.ok
        assert [c for c in rep.cells if not c.ok] == []


def test_certificate_rejects_wall_direction(a2):
    sess = CertifySession(a2, "BOULDER_21")
    with pytest.raises(NonRegularLambda):
        sess.run(lam=qv(1, 0))  # on the wall of the first dual form


def _routes_agree(basis, identity, lam_keys, count, strict=True, **inst):
    """The certificate route against a direct verify at every witness."""
    sess = CertifySession(basis, identity, strict=strict, **inst)
    lams = sample_regular(sess.lam_forms, count * len(lam_keys), seed=repr(("fg", inst)))
    for k in range(count):
        lam_kw = dict(zip(lam_keys, lams[k * len(lam_keys):]))
        rep = sess.run(**lam_kw)
        slow = [
            verify(basis, identity, h=c.witness, strict=strict, **inst, **lam_kw)
            for c in sess.cells
        ]
        assert [(c.lhs, c.rhs) for c in rep.cells] == [(v.lhs, v.rhs) for v in slow], (
            basis.name, identity, inst, k
        )


def test_fast_and_generic_paths_agree(a2, b2, a3):
    for p, r in ((0, 0b11), (0b01, 0b11)):
        _routes_agree(b2, "P41", ("lam",), 4, p=p, r=r)
    for basis in (a2, a3):
        _routes_agree(basis, "BOULDER_21", ("lam",), 4, p=0, r=full_mask(basis.rank))
    for basis in (a2, b2, a3):
        for identity in IDENTITIES:
            keys = verifiers.SIGNATURES[identity].lams
            # L33_EQ1 at sampled directions breaks its hypothesis: exploratory
            strict = identity != "L33_EQ1"
            for inst in _instances(basis, identity, nested_only=True):
                _routes_agree(basis, identity, keys, 2 if keys else 1, strict=strict, **inst)


def test_two_sided_inverse_certificates_under_hypothesis(a2, b2, a3):
    """Strict L33_EQ1 at zero directions and at the CLI's hypothesis samples."""
    for basis in (a2, b2, a3):
        for inst in _instances(basis, "L33_EQ1", nested_only=True):
            sess = CertifySession(basis, "L33_EQ1", **inst)
            lams = _hypothesis_lams(basis, sess.lam_forms, 2, repr(inst), 9)
            for lam_kw in (dict(), dict(lam1=lams[0], lam2=lams[1])):
                rep = sess.run(**lam_kw)
                slow = [verify(basis, "L33_EQ1", h=c.witness, **inst, **lam_kw) for c in sess.cells]
                assert [(c.lhs, c.rhs) for c in rep.cells] == [(v.lhs, v.rhs) for v in slow]
                assert rep.ok, (basis.name, inst, lam_kw)


def test_zero_direction_certificates_on_non_obtuse_basis():
    """Zero directions are L33_EQ1's hypothesis case on any basis: strict
    certify accepts them and agrees with verify; other wall directions stay refused."""
    basis = random_basis(3, 2)
    assert not obtuse(basis)
    zero = qv(0, 0, 0)
    cells = 0
    for inst in _instances(basis, "L33_EQ1", nested_only=True):
        sess = CertifySession(basis, "L33_EQ1", **inst)
        rep = sess.run(lam1=zero, lam2=zero)
        slow = [
            verify(basis, "L33_EQ1", h=c.witness, lam1=zero, lam2=zero, **inst) for c in sess.cells
        ]
        assert [(c.lhs, c.rhs) for c in rep.cells] == [(v.lhs, v.rhs) for v in slow]
        assert rep.ok
        cells += rep.num_cells
    assert cells == 178
    sess = CertifySession(basis, "L33_EQ1", p=0, r=0b111, strict=False)
    on_wall = wall_point(sess.lam_forms, 0, "lam-wall", 9)
    assert on_wall is not None and not on_wall.is_zero()
    with pytest.raises(NonRegularLambda, match="lam2 lies on wall"):
        sess.run(lam1=zero, lam2=on_wall)
    with pytest.raises(NonRegularLambda):  # P34's directions have no zero default
        CertifySession(basis, "P34", p=0, r=0b111).run(lam1=zero, lam2=zero)


@pytest.mark.parametrize("identity", ["L33_EQ1", "L33_EQ2"])
def test_certify_strict_hypothesis_violation(identity):
    sharp = make_basis([[3, 1], [1, 3]])
    lam1, lam2 = qv(-2, -3), qv(1, 4)
    sess = CertifySession(sharp, identity, p=0, r=3)
    with pytest.raises(HypothesisViolated, match="negations weakly dominant"):
        sess.run(lam1=lam1, lam2=lam2)
    with pytest.raises(HypothesisViolated, match="negations weakly dominant"):
        verify(sharp, identity, p=0, r=3, lam1=lam1, lam2=lam2, h=sess.cells[0].witness)
    explored = CertifySession(sharp, identity, p=0, r=3, strict=False).run(lam1=lam1, lam2=lam2)
    assert explored.num_cells == len(sess.cells)


def test_certify_missing_direction_rejected(a2):
    for identity, inst in (("P34", dict(p=0, r=3)), ("C36", dict(p=0, r=3)), ("BOULDER_21", {})):
        sess = CertifySession(a2, identity, **inst)
        with pytest.raises(MissingParam):
            sess.run(lam1=qv(1, 1) if identity == "P34" else None)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["general", "obtuse"]),
    identity=st.sampled_from(IDENTITIES),
    data=st.data(),
)
def test_session_matches_verify_on_random_bases(seed, kind, identity, data):
    """Session cells equal a direct verify at each witness, rank-3 random bases."""
    basis = random_basis(3, seed, kind)
    inst = data.draw(st.sampled_from(_instances(basis, identity, nested_only=True)))
    keys = verifiers.SIGNATURES[identity].lams
    sess = CertifySession(basis, identity, strict=False, **inst)
    lam_kw = dict(zip(keys, sample_regular(sess.lam_forms, len(keys), seed=seed)))
    rep = sess.run(**lam_kw)
    slow = [
        verify(basis, identity, h=c.witness, strict=False, **inst, **lam_kw) for c in sess.cells
    ]
    assert [(c.signs, c.lhs, c.rhs) for c in rep.cells] == [
        (c.signs, v.lhs, v.rhs) for c, v in zip(sess.cells, slow)
    ]


def test_session_run_calls_no_verify(a3, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify must not fall back to verify")

    sessions = [CertifySession(a3, ident, p=0b001, r=0b111) for ident in ("C36", "L33_EQ1")]
    lam = sample_regular(sessions[0].lam_forms, 1, seed="no-verify")[0]
    monkeypatch.setattr(verifiers, "verify", refuse)
    assert sessions[0].run(lam=lam).ok
    assert sessions[1].run().ok


@settings(max_examples=60, derandomize=True)
@given(st.integers(1, 70), st.data())
def test_bit_sliced_counter_matches_direct_sums(n, data):
    terms = data.draw(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(0, (1 << n) - 1)), max_size=12)
    )
    counters = ([], [])
    for coef, cells in terms:
        if cells:
            verifiers._add(counters[coef < 0], cells, abs(coef))
    plus, minus = (verifiers._decode(c, n) for c in counters)
    want = [sum(coef for coef, cells in terms if cells >> c & 1) for c in range(n)]
    assert [a - b for a, b in zip(plus, minus)] == want


def test_product_vanishing_certificates(a2):
    for p, r in iter_nested_pairs(2):
        sess = CertifySession(a2, "P34", p=p, r=r)
        lams = sample_regular(sess.lam_forms, 6, seed=repr(("pv", p, r)))
        for i in range(0, 6, 2):
            rep = sess.run(lam1=lams[i], lam2=lams[i + 1])
            assert rep.ok, (p, r, [c for c in rep.cells if not c.ok][:2])


def test_certificate_report_shape(a2):
    rep = certify(a2, "C36", p=0, r=3, lam=qv(1, 1))
    assert rep.identity == "C36"
    assert rep.num_cells == len(rep.cells)
    assert rep.num_forms > 0
    assert rep.ok
