"""Stock bases, seeded random Gram matrices, and basis files on disk."""

import json
from fractions import Fraction

import pytest

from conecert.corpus import (
    CORPUS_NAMES,
    basis_from_dict,
    basis_to_dict,
    corpus_bases,
    load_basis,
    named_basis,
    named_gram,
    random_basis,
    random_gram,
    resolve_basis,
)
from conecert.errors import InvalidRank, NotPositiveDefinite, RankMismatch
from conecert.linalg import QMatrix
from conecert.verifiers import obtuse

from oracles import save_basis


def test_named_values_small():
    assert named_gram("A1") == QMatrix([[2]])
    assert named_gram("A2") == QMatrix([[2, -1], [-1, 2]])
    assert named_gram("G2") == QMatrix([[2, -3], [-3, 6]])
    assert named_gram("B2") == QMatrix([[2, -1], [-1, 1]])
    assert named_gram("C3") == QMatrix([[2, -1, 0], [-1, 2, -2], [0, -2, 4]])


def test_named_branch_family():
    d4 = named_gram("D4")
    assert d4.entry(3, 3) == 2
    assert d4.entry(1, 3) == -1 and d4.entry(3, 1) == -1
    assert d4.entry(2, 3) == 0
    assert d4.is_symmetric()


def test_named_half_integer_family():
    f4 = named_gram("F4")
    assert f4.entry(2, 2) == 1
    assert f4.entry(2, 3) == Fraction(-1, 2)


def test_name_normalization():
    assert named_basis(" a2 ").name == "A2"


def test_invalid_names():
    for bad in ("A0", "B1", "C1", "D2", "G3", "F2", "X2", "A", "", "2A"):
        with pytest.raises(InvalidRank):
            named_gram(bad)


def test_corpus_contents():
    bases = corpus_bases()
    assert [b.name for b in bases] == list(CORPUS_NAMES)
    assert [b.rank for b in bases] == [1, 2, 3, 4, 2, 3, 3, 4, 2]
    for b in bases:
        assert obtuse(b)


def test_random_gram_deterministic():
    assert random_gram(3, seed=7) == random_gram(3, seed=7)
    assert random_gram(3, seed=7) != random_gram(3, seed=8)
    assert random_gram(3, seed=7) != random_gram(3, seed=7, kind="obtuse")


def test_random_gram_is_valid():
    for seed in range(12):
        for kind in ("general", "obtuse"):
            basis = random_basis(3, seed=seed, kind=kind)  # runs the PD check
            if kind == "obtuse":
                assert obtuse(basis)


def test_random_gram_guards():
    # rank 0 is refused by the basis constructor, for every way of building one
    with pytest.raises(InvalidRank, match="rank must be positive"):
        random_basis(0, seed=1)
    with pytest.raises(InvalidRank):
        random_gram(2, seed=1, kind="acute")


def test_basis_dict_roundtrip():
    basis = named_basis("F4")
    data = basis_to_dict(basis)
    assert data["rank"] == 4
    assert all(isinstance(x, str) for row in data["gram"] for x in row)
    again = basis_from_dict(json.loads(json.dumps(data)))
    assert again.gram == basis.gram
    assert again.name == "F4"


def test_basis_dict_errors():
    with pytest.raises(RankMismatch):
        basis_from_dict({"rank": 2})
    with pytest.raises(RankMismatch):
        basis_from_dict({"rank": 3, "gram": [[2, -1], [-1, 2]]})
    with pytest.raises(RankMismatch):
        basis_from_dict({"gram": [[2, [1]], [[1], 2]]})
    with pytest.raises(NotPositiveDefinite):
        basis_from_dict({"gram": [[1, 2], [2, 1]]})


def test_file_roundtrip(tmp_path):
    path = tmp_path / "basis.json"
    basis = random_basis(2, seed=3)
    save_basis(basis, str(path))
    again = load_basis(str(path))
    assert again.gram == basis.gram


def test_resolve_named_and_random():
    assert resolve_basis("B3", None, 0).name == "B3"
    r = resolve_basis(None, 3, 5)
    assert r.rank == 3
    assert r.gram == random_gram(3, seed=5)


def test_resolve_file(tmp_path):
    path = tmp_path / "g.json"
    save_basis(named_basis("G2"), str(path))
    assert resolve_basis(str(path), None, 0).gram == named_gram("G2")


MALFORMED = [
    ('{"gram": [["2", "abc"], ["-1", "2"]]}', RankMismatch, "bad gram entry 'abc'"),
    ('{"gram": [["1/0"]]}', RankMismatch, "bad gram entry '1/0'"),
    ('{"gram": [[2, -1], [-1', RankMismatch, "not a JSON file"),
    ("[[2, -1], [-1, 2]]", RankMismatch, "a basis is a JSON object, not list"),
    ('{"gram": []}', InvalidRank, "rank must be positive"),
    ('{"gram": [2, 3]}', RankMismatch, "gram must be a list of rows"),
    ('{"gram": [[2]], "labels": 5}', RankMismatch, "labels must be a list"),
]


@pytest.mark.parametrize("text, error, message", MALFORMED)
def test_load_basis_malformed(tmp_path, text, error, message):
    path = tmp_path / "basis.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error, match=message):
        load_basis(str(path))
