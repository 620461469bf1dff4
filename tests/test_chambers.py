"""Chamber enumeration against brute-force grids, plus the samplers."""

import itertools
from fractions import Fraction

import pytest

from conecert import chambers
from conecert.chambers import (
    enumerate_cells,
    form_set,
    sample_regular,
    wall_point,
)
from conecert.corpus import named_basis
from conecert.cli import main
from conecert.errors import CellBudgetExceeded, SamplingExhausted, WitnessNotInterior
from conecert.linalg import QVector, int_dot
from conecert.verifiers import collect_forms

from conftest import qv


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
