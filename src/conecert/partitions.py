"""Ordered set partitions of a projected system and their block frames.

An ordered partition splits the index set of a projected system into a
sequence of non-empty blocks.  The running unions of the blocks induce a
filtration by the spans of the corresponding duals; each block then gets its
own "frame": the original members and duals projected into the orthogonal
layer the block carves out of the filtration.  Frames are what the
partition-indexed indicator functions read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyGroundSet, GroundMismatch
from .geometry import EuclideanBasis, ProjectedBasis
from .linalg import QVector
from .subsets import bits, iter_submasks


@dataclass(frozen=True)
class OrderedPartition:
    """Non-empty blocks, as bitmasks, tiling a non-empty ground mask."""

    ground: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        if self.ground == 0:
            raise EmptyGroundSet("ground mask is empty")
        seen = 0
        for b in self.blocks:
            if b == 0:
                raise GroundMismatch("empty block")
            if b & seen:
                raise GroundMismatch("blocks overlap")
            seen |= b
        if seen != self.ground:
            raise GroundMismatch("blocks do not tile the ground mask")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def enumerate_ordered_partitions(ground: int) -> list[OrderedPartition]:
    """All ordered partitions of the ground mask.

    Deterministic: the block tuples come out in lexicographic order (first
    block ascending as a bitmask, then recursively).  The count for a ground
    set of n elements is the n-th ordered-Bell number.
    """
    if ground == 0:
        raise EmptyGroundSet("ground mask is empty")
    out: list[OrderedPartition] = []

    def rec(rest: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(OrderedPartition(ground, acc))
            return
        for first in iter_submasks(rest):
            if first:
                rec(rest & ~first, acc + (first,))

    rec(ground, ())
    return out


class PartitionFrame:
    """Per-block projections of a projected system along a partition.

    For block u with running union E^u (as masks of ambient indices), the
    layer W^u is the orthogonal complement of span(duals of E^{u-1}) inside
    span(duals of E^u).  Index i in block u gets proj_elements[i], element i
    projected onto W^u (equally onto span(duals of E^u)), and proj_duals[i],
    dual i minus its projection onto span(duals of E^{u-1}).  Within one
    block the two families pair to the identity; blocks are orthogonal.

    For the (p, r) system both families are projection-cache lookups:

      proj_elements[i] == basis.project(r & ~E^u, r).elements[i]
      proj_duals[i]    == basis.project(p, r & ~E^{u-1}).duals[i]

    Proof.  Elements outside E pair to zero with duals in E, so inside
    span(elements), span(duals of E) is the orthogonal complement of
    span(elements outside E).  Element i projected onto span(duals of E^u) is
    basis vector i minus its part in span(p) + span(elements outside E^u),
    which is span(r & ~E^u).  Dual i minus its part in span(duals of E^{u-1})
    lies in span(elements outside E^{u-1}) and pairs to delta with them.
    """

    def __init__(self, base: ProjectedBasis, partition: OrderedPartition):
        if partition.ground != base.upper & ~base.lower:
            raise GroundMismatch("partition ground differs from the projected index set")
        self.base = base
        self.partition = partition
        basis = base.basis
        r = base.upper

        self.proj_elements: dict[int, QVector] = {}
        self.proj_duals: dict[int, QVector] = {}
        self.elem_icov: dict[int, tuple[int, ...]] = {}
        self.dual_icov: dict[int, tuple[int, ...]] = {}

        done = 0
        for block in partition.blocks:
            elem_src = basis.project(r & ~(done | block), r)
            dual_src = basis.project(base.lower, r & ~done)
            for i in bits(block):
                self.proj_elements[i] = elem_src.elements[i]
                self.elem_icov[i] = elem_src.elem_icov[i]
                self.proj_duals[i] = dual_src.duals[i]
                self.dual_icov[i] = dual_src.dual_icov[i]
            done |= block

    @property
    def indices(self) -> tuple[int, ...]:
        return self.base.indices


def build_frame(base, partition: OrderedPartition) -> PartitionFrame:
    """Frame for (base, partition), cached on the underlying basis.

    `base` may be a full basis (taken as its trivial projection) or a
    projected system.
    """
    if isinstance(base, EuclideanBasis):
        base = base.full_projection()
    key = (base.lower, base.upper, partition.blocks)
    cache = base.basis._frame_cache
    frame = cache.get(key)
    if frame is None:
        frame = PartitionFrame(base, partition)
        cache[key] = frame
    return frame
