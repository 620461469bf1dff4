"""Bitmask subsets of {0, ..., n-1}.

Subsets of basis index sets are plain ints; bit i set means index i is in.
All iterators run in a deterministic ascending order so downstream reports
are byte-stable.
"""

from __future__ import annotations

from typing import Iterator

from .errors import NotNested


def full_mask(n: int) -> int:
    return (1 << n) - 1


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits(mask: int) -> list[int]:
    """Indices present in the mask, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, ascending, including 0 and mask itself."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def iter_between(lower: int, upper: int) -> Iterator[int]:
    """All masks S with lower <= S <= upper in the subset order, ascending."""
    if not is_subset(lower, upper):
        raise NotNested(f"lower {lower:b} not inside upper {upper:b}")
    for extra in iter_submasks(upper & ~lower):
        yield lower | extra


def iter_nested_pairs(n: int) -> Iterator[tuple[int, int]]:
    """All pairs (P, Q) with P a subset of Q, over subsets of n indices.

    Ordered by Q ascending, then P ascending; 3^n pairs in total.
    """
    for q in range(1 << n):
        for p in iter_submasks(q):
            yield p, q
