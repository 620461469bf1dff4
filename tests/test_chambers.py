"""Chamber enumeration against brute-force grids, plus the samplers."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert import chambers
from conecert.chambers import (
    MAX_CELLS,
    MAX_FORMS,
    Cell,
    _Cone,
    _independent_subset,
    _witness,
    enumerate_cells,
    form_set,
    sample_regular,
    wall_point,
)
from conecert.corpus import corpus_bases, named_basis
from conecert.cli import _instances, main
from conecert.errors import CellBudgetExceeded, SamplingExhausted, WitnessNotInterior
from conecert.linalg import QMatrix, QVector, _prim, int_dot, invert, primitive_tuple
from conecert.verifiers import IDENTITIES, collect_forms

from conftest import qv
from oracles import fraction_independent_subset


def full_orthant_cells(fs, max_forms=MAX_FORMS, max_cells=MAX_CELLS):
    """Reference enumeration: double description from all 2^k seed orthants.

    `enumerate_cells` seeds only the half where the first form is positive
    and mirrors each result; this is the same method without the mirror,
    with the independent forms found by Fraction row reduction.
    """
    m = len(fs.forms)
    if m > max_forms:
        raise CellBudgetExceeded(f"{m} forms exceed budget {max_forms}")
    if m == 0:
        return [Cell((), QVector([0] * fs.dim))]

    chosen = fraction_independent_subset(fs.forms, fs.dim)
    k = len(chosen)
    span_basis = [fs.forms[i] for i in chosen]  # rows of B; x = B^T y

    proc_order = chosen + [i for i in range(m) if i not in set(chosen)]
    pos_of = {orig: t for t, orig in enumerate(proc_order)}
    mapped = [tuple(int_dot(fs.forms[i], b) for b in span_basis) for i in proc_order]

    # seed cells: the 2^k orthants of the first k (independent) mapped forms
    inv = invert(QMatrix(mapped[:k]))
    base_rays = [primitive_tuple(row[j] for row in inv.rows) for j in range(k)]
    full_k = (1 << k) - 1
    cells = []
    for sbits in range(1 << k):
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
        nxt = []
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
        if len(cells) > max_cells:
            raise CellBudgetExceeded(f"more than {max_cells} cells")

    out = []
    for cone in cells:
        x = _witness(cone.rays, span_basis, fs.dim)
        signs = tuple(1 if cone.signbits >> pos_of[i] & 1 else -1 for i in range(m))
        for f, s in zip(fs.forms, signs):
            if s * int_dot(f, x) <= 0:
                raise WitnessNotInterior(f"witness {x} not strictly inside cell {signs}")
        out.append(Cell(signs, QVector(x)))
    out.sort(key=lambda c: c.signs)
    return out


def corpus_arrangements():
    """Every distinct h-side arrangement the CLI certifies on corpus bases up to rank 4."""
    seen = {}
    for basis in corpus_bases():
        if basis.rank > 4:
            continue
        for ident in IDENTITIES:
            for inst in _instances(basis, ident, nested_only=True):
                fs = collect_forms(basis, ident, **inst)[0]
                seen.setdefault(fs.forms, (f"{basis.name}/{ident}", fs))
    return list(seen.values())


def test_form_set_dedup_positive_scale():
    fs = form_set(2, [(2, -2), (1, -1), (3, -3)])
    assert fs.forms == ((1, -1),)


def test_form_set_keeps_negatives_apart():
    fs = form_set(2, [(1, -1), (-1, 1)])
    assert len(fs.forms) == 2


def test_form_set_rejects_zero_and_bad_length():
    with pytest.raises(ValueError):
        form_set(2, [(0, 0)])
    with pytest.raises(ValueError):
        form_set(2, [(1, 0, 0)])


def test_single_form_gives_two_cells():
    cells = enumerate_cells(form_set(1, [(2,)]))
    assert len(cells) == 2
    assert sorted(c.signs for c in cells) == [(-1,), (1,)]


def test_two_independent_forms_give_quadrants():
    cells = enumerate_cells(form_set(2, [(1, 0), (0, 1)]))
    assert len(cells) == 4
    assert {c.signs for c in cells} == set(itertools.product((-1, 1), repeat=2))


def test_empty_form_set_single_cell():
    cells = enumerate_cells(form_set(2, []))
    assert len(cells) == 1
    assert cells[0].signs == ()


def test_rank_deficient_forms():
    # two forms spanning a plane inside dimension three
    cells = enumerate_cells(form_set(3, [(1, 0, 0), (0, 1, 0)]))
    assert len(cells) == 4


def grid_sign_vectors(forms, lo=-3, hi=3, step=Fraction(1, 7)):
    axis = []
    v = Fraction(lo)
    while v <= hi:
        axis.append(v)
        v += step
    seen = set()
    for pt in itertools.product(axis, repeat=2):
        vals = [sum(c * x for c, x in zip(f, pt)) for f in forms]
        if any(v == 0 for v in vals):
            continue
        seen.add(tuple(1 if v > 0 else -1 for v in vals))
    return seen


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_cells_match_grid_scan_rank2(name):
    """Every enumerated sign vector appears on a fine grid and vice versa."""
    basis = named_basis(name)
    fs, _ = collect_forms(basis, "BOULDER_21")
    cells = enumerate_cells(fs)
    got = {c.signs for c in cells}
    want = grid_sign_vectors(fs.forms)
    assert got == want


def test_cells_are_distinct_and_sorted(a2):
    fs, _ = collect_forms(a2, "BOULDER_21")
    cells = enumerate_cells(fs)
    signs = [c.signs for c in cells]
    assert signs == sorted(signs)
    assert len(set(signs)) == len(signs)


def test_witness_strictly_interior(g2):
    fs, _ = collect_forms(g2, "BOULDER_21")
    for cell in enumerate_cells(fs):
        for s, f in zip(cell.signs, fs.forms):
            assert s * int_dot(f, cell.witness.coords) > 0


def test_enumeration_deterministic(b2):
    fs, _ = collect_forms(b2, "BOULDER_21")
    assert enumerate_cells(fs) == enumerate_cells(fs)


def test_enumeration_scale_invariant():
    fs1 = form_set(2, [(2, -1), (-1, 2), (1, 1)])
    fs2 = form_set(2, [(4, -2), (-3, 6), (5, 5)])
    c1 = enumerate_cells(fs1)
    c2 = enumerate_cells(fs2)
    assert [c.signs for c in c1] == [c.signs for c in c2]


def test_form_budget():
    with pytest.raises(CellBudgetExceeded):
        enumerate_cells(form_set(1, [(1,)]), max_forms=0)


def test_cell_budget():
    fs = form_set(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
    with pytest.raises(CellBudgetExceeded):
        enumerate_cells(fs, max_cells=3)


def test_sample_regular_deterministic_and_in_box():
    fs = form_set(2, [(1, 0), (0, 1)])
    pts = sample_regular(fs, 20, seed=5, bound=4)
    assert pts == sample_regular(fs, 20, seed=5, bound=4)
    for p in pts:
        assert all(-4 <= c <= 4 for c in p.coords)
        assert p[0] != 0 and p[1] != 0


def test_sample_regular_bound_one_rank1():
    fs = form_set(1, [(1,)])
    pts = sample_regular(fs, 30, seed=9, bound=1)
    assert {p[0] for p in pts} == {-1, 1}


def test_sample_regular_exhaustion():
    # every integer point of the [-1,1] box lies on one of these walls
    fs = form_set(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
    with pytest.raises(SamplingExhausted):
        sample_regular(fs, 1, seed=0, bound=1, max_rejects=50)


def test_sample_regular_seed_variants():
    fs = form_set(2, [(1, 1)])
    a = sample_regular(fs, 10, seed="tag-a")
    b = sample_regular(fs, 10, seed="tag-b")
    assert a != b


def test_wall_point_lands_on_one_wall():
    fs = form_set(2, [(2, -1), (-1, 2), (1, 1)])
    for wall in range(len(fs.forms)):
        pt = wall_point(fs, wall, seed=3)
        assert pt is not None
        for t, f in enumerate(fs.forms):
            val = int_dot(f, pt.coords)
            assert (val == 0) == (t == wall)


def test_wall_point_impossible_returns_none():
    # the second wall is the same hyperplane, so no point separates them
    fs = form_set(2, [(1, 0), (-1, 0)])
    assert wall_point(fs, 0, seed=1, max_tries=200) is None


def test_wall_point_rank1_none():
    fs = form_set(1, [(1,)])
    assert wall_point(fs, 0, seed=1) is None


def _antipodal_witnesses(monkeypatch):
    real = chambers._witness
    monkeypatch.setattr(
        chambers, "_witness", lambda *args: tuple(-x for x in real(*args))
    )


def test_corrupted_witness_is_refused(monkeypatch):
    _antipodal_witnesses(monkeypatch)
    with pytest.raises(WitnessNotInterior):
        enumerate_cells(form_set(2, [(1, 0), (0, 1)]))


def test_corrupted_witness_exits_two(monkeypatch, capsys):
    _antipodal_witnesses(monkeypatch)
    assert main(["certify", "--identity", "BOULDER_21", "--basis", "A2"]) == 2
    assert "not strictly inside" in capsys.readouterr().err


@pytest.fixture(scope="module")
def corpus_reference():
    """(name, form set, reference cells) per corpus arrangement."""
    return [(name, fs, full_orthant_cells(fs)) for name, fs in corpus_arrangements()]


def _outcome(enum, fs, **budget):
    try:
        return enum(fs, **budget)
    except CellBudgetExceeded:
        return "over budget"


def test_independent_subset_matches_fraction_reduction(corpus_reference):
    """Gram-pivot selection picks the forms Fraction row reduction picks."""
    for name, fs, _ in corpus_reference:
        want = fraction_independent_subset(fs.forms, fs.dim)
        assert _independent_subset(fs.forms, fs.dim) == want, name


def test_half_orthants_match_full_reference_on_corpus(corpus_reference):
    """Signs and witnesses equal the full-orthant reference, cell by cell."""
    assert len(corpus_reference) > 600
    for name, fs, want in corpus_reference:
        assert enumerate_cells(fs) == want, name


def test_cell_budget_counts_both_halves_on_corpus(corpus_reference):
    """`max_cells` at the chamber count passes; one less fails as it did before."""
    for name, fs, want in corpus_reference:
        count = len(want)
        assert len(enumerate_cells(fs, max_cells=count)) == count, name
        got = _outcome(enumerate_cells, fs, max_cells=count - 1)
        assert got == _outcome(full_orthant_cells, fs, max_cells=count - 1), name
        # the budget is checked after each cut, so only independent forms escape it
        independent = len(_independent_subset(fs.forms, fs.dim)) == len(fs.forms)
        assert (got == "over budget") != independent, name


@st.composite
def arrangements(draw):
    """Integer forms in dimension 1-4, possibly rank-deficient, with negated copies."""
    dim = draw(st.integers(1, 4))
    rank = draw(st.integers(1, dim))
    entry = st.integers(-3, 3)
    gens = draw(st.lists(st.tuples(*[entry] * dim), min_size=rank, max_size=rank))
    combos = draw(st.lists(st.tuples(*[entry] * rank), min_size=1, max_size=8))
    forms = [tuple(sum(c * g[i] for c, g in zip(co, gens)) for i in range(dim)) for co in combos]
    forms = [f for f in forms if any(f)]
    negated = draw(st.lists(st.sampled_from(forms), max_size=2)) if forms else []
    return form_set(dim, forms + [tuple(-x for x in f) for f in negated])


@settings(max_examples=150, deadline=None)
@given(arrangements())
def test_half_orthants_match_full_reference_drawn(fs):
    chosen = fraction_independent_subset(fs.forms, fs.dim)
    assert _independent_subset(fs.forms, fs.dim) == chosen
    want = full_orthant_cells(fs)
    assert enumerate_cells(fs) == want
    count = len(want)
    assert len(enumerate_cells(fs, max_cells=count)) == count
    assert _outcome(enumerate_cells, fs, max_cells=count - 1) == _outcome(
        full_orthant_cells, fs, max_cells=count - 1
    )


def test_mirror_handles_a_form_and_its_negative():
    fs = form_set(3, [(1, 0, 0), (0, 1, -1), (-1, 0, 0), (1, 1, 1), (0, -1, 1)])
    cells = enumerate_cells(fs)
    assert cells == full_orthant_cells(fs)
    assert {c.signs for c in cells} == {tuple(-s for s in c.signs) for c in cells}
    for c in cells:
        assert c.signs[0] == -c.signs[2] and c.signs[1] == -c.signs[4]
