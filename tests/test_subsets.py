"""Bitmask subset helpers: iteration orders, counts, containment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.errors import NotNested
from conecert.subsets import (
    bits,
    full_mask,
    is_subset,
    iter_between,
    iter_nested_pairs,
    iter_submasks,
    popcount,
)


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111


def test_popcount_and_bits():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert bits(0b1010) == [1, 3]
    assert bits(0) == []


def test_is_subset():
    assert is_subset(0, 0b101)
    assert is_subset(0b100, 0b101)
    assert not is_subset(0b10, 0b101)


def test_iter_submasks_complete_and_ascending():
    got = list(iter_submasks(0b101))
    assert got == [0, 0b001, 0b100, 0b101]


def test_iter_submasks_of_zero():
    assert list(iter_submasks(0)) == [0]


def test_iter_between():
    got = list(iter_between(0b001, 0b111))
    assert got == [0b001, 0b011, 0b101, 0b111]
    assert list(iter_between(0b01, 0b01)) == [0b01]


def test_iter_nested_pairs_count():
    # pairs (p, q) with p inside q number 3^n
    for n in range(5):
        assert sum(1 for _ in iter_nested_pairs(n)) == 3**n


def test_iter_nested_pairs_all_nested():
    for p, q in iter_nested_pairs(3):
        assert is_subset(p, q)
        assert is_subset(q, full_mask(3))


@settings(max_examples=80, derandomize=True)
@given(st.integers(0, 2**10 - 1))
def test_submasks_match_definition(mask):
    got = set(iter_submasks(mask))
    want = {s for s in range(mask + 1) if s & mask == s}
    assert got == want


@settings(max_examples=80, derandomize=True)
@given(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1))
def test_between_matches_definition(lower, upper):
    lower &= upper
    got = list(iter_between(lower, upper))
    want = [s | lower for s in iter_submasks(upper & ~lower)]
    assert sorted(got) == sorted(want)
    assert len(set(got)) == len(got)


def test_iter_between_rejects_non_nested():
    with pytest.raises(NotNested):
        list(iter_between(0b10, 0b01))
