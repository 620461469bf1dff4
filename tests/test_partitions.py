"""Ordered partitions, Fubini counts, and per-block projected frames."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.corpus import named_basis, random_basis
from conecert.errors import EmptyGroundSet, GroundMismatch
from conecert.geometry import make_basis
from conecert.partitions import (
    OrderedPartition,
    build_frame,
    enumerate_ordered_partitions,
)
from conecert.subsets import bits, full_mask, iter_nested_pairs

from oracles import block_of, fubini, project_onto


def test_fubini_sequence():
    assert [fubini(n) for n in range(7)] == [1, 1, 3, 13, 75, 541, 4683]


def test_enumeration_counts_match_fubini():
    for n in range(1, 5):
        parts = enumerate_ordered_partitions(full_mask(n))
        assert len(parts) == fubini(n)
        assert len(set(p.blocks for p in parts)) == len(parts)


def test_two_element_listing():
    got = [p.blocks for p in enumerate_ordered_partitions(0b11)]
    assert got == [(0b01, 0b10), (0b10, 0b01), (0b11,)]


def test_enumeration_rejects_empty_ground():
    with pytest.raises(EmptyGroundSet):
        enumerate_ordered_partitions(0)


def test_partition_validation():
    with pytest.raises(GroundMismatch):
        OrderedPartition(0b11, (0b01,))
    with pytest.raises(GroundMismatch):
        OrderedPartition(0b11, (0b01, 0b01))
    with pytest.raises(GroundMismatch):
        OrderedPartition(0b11, (0b11, 0))
    with pytest.raises(EmptyGroundSet):
        OrderedPartition(0, ())


def test_block_of():
    part = OrderedPartition(0b111, (0b100, 0b011))
    assert block_of(part, 2) == 0
    assert block_of(part, 0) == 1
    assert part.num_blocks == 2


def test_frame_hand_values_rank2_chain(a2):
    """Two singleton blocks in order: the earlier index loses its tail."""
    pb = a2.project(0, 0b11)
    frame = build_frame(pb, OrderedPartition(0b11, (0b01, 0b10)))
    assert frame.proj_elements[0].coords == (1, Fraction(1, 2))
    assert frame.proj_duals[0] == a2.dual_vector(0)
    assert frame.proj_elements[1].coords == (0, 1)
    assert frame.proj_duals[1].coords == (0, Fraction(1, 2))


def test_frame_single_block_is_the_base(a2):
    pb = a2.project(0, 0b11)
    frame = build_frame(pb, OrderedPartition(0b11, (0b11,)))
    for i in pb.indices:
        assert frame.proj_elements[i] == pb.elements[i]
        assert frame.proj_duals[i] == pb.duals[i]


def test_frame_orthonormal_collapses():
    basis = make_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    pb = basis.full_projection()
    for part in enumerate_ordered_partitions(0b111):
        frame = build_frame(pb, part)
        for i in pb.indices:
            assert frame.proj_elements[i] == pb.elements[i]
            assert frame.proj_duals[i] == pb.duals[i]


def test_frame_block_diagonal_duality(a3):
    """Within a block the families pair to delta; across blocks to zero."""
    pb = a3.full_projection()
    for part in enumerate_ordered_partitions(0b111):
        frame = build_frame(pb, part)
        for i in pb.indices:
            for j in pb.indices:
                got = a3.inner(frame.proj_duals[i], frame.proj_elements[j])
                if block_of(frame.partition, i) == block_of(frame.partition, j):
                    assert got == (1 if i == j else 0)
                else:
                    assert got == 0


def test_frame_layer_orthogonality(a3):
    pb = a3.full_projection()
    part = OrderedPartition(0b111, (0b010, 0b101))
    frame = build_frame(pb, part)
    for i in bits(0b010):
        for j in bits(0b101):
            assert a3.inner(frame.proj_duals[i], frame.proj_duals[j]) == 0


def test_frame_four_way_pairings(a3):
    """Projecting either or both members of a matched pair keeps the pairing."""
    pb = a3.full_projection()
    for part in enumerate_ordered_partitions(0b111):
        frame = build_frame(pb, part)
        for i in pb.indices:
            assert a3.inner(pb.duals[i], pb.elements[i]) == 1
            assert a3.inner(pb.duals[i], frame.proj_elements[i]) == 1
            assert a3.inner(frame.proj_duals[i], pb.elements[i]) == 1
            assert a3.inner(frame.proj_duals[i], frame.proj_elements[i]) == 1


def test_frame_last_block_elements_unchanged(a3):
    pb = a3.full_projection()
    part = OrderedPartition(0b111, (0b001, 0b110))
    frame = build_frame(pb, part)
    for i in bits(0b110):
        assert frame.proj_elements[i] == pb.elements[i]


def test_frame_first_block_matches_complement_projection(a3):
    """First-block data coincides with the projection dropping the rest."""
    full = full_mask(3)
    pb = a3.project(0, full)
    for part in enumerate_ordered_partitions(full):
        first = part.blocks[0]
        frame = build_frame(pb, part)
        high = a3.project(full & ~first, full)
        for i in bits(first):
            assert frame.proj_elements[i] == high.elements[i]
            assert frame.proj_duals[i] == high.duals[i]


def test_frame_ground_mismatch(a2):
    pb = a2.project(0b01, 0b11)
    with pytest.raises(GroundMismatch):
        build_frame(pb, OrderedPartition(0b11, (0b01, 0b10)))


def test_frame_cache(a2):
    pb = a2.project(0, 0b11)
    part = OrderedPartition(0b11, (0b01, 0b10))
    assert build_frame(pb, part) is build_frame(pb, part)


def test_frame_on_projected_pair(b2):
    """Frames compose with a nontrivial lower set."""
    pb = b2.project(0b01, 0b11)
    frame = build_frame(pb, OrderedPartition(0b10, (0b10,)))
    assert frame.proj_elements[1] == pb.elements[1]
    assert frame.proj_duals[1] == pb.duals[1]


def reference_frame(base, partition):
    """The four frame dicts by normal equations over the cumulative dual spans."""
    basis = base.basis
    proj_elements = {}
    proj_duals = {}
    prev_duals = []
    for block in partition.blocks:
        cum_duals = prev_duals + [base.duals[i] for i in bits(block)]
        for i in bits(block):
            proj_elements[i] = project_onto(basis, cum_duals, base.elements[i])
            proj_duals[i] = base.duals[i] - project_onto(basis, prev_duals, base.duals[i])
        prev_duals = cum_duals
    elem_icov = {i: basis.icov(v) for i, v in proj_elements.items()}
    dual_icov = {i: basis.icov(v) for i, v in proj_duals.items()}
    return proj_elements, proj_duals, elem_icov, dual_icov


def assert_frames_match_reference(basis):
    checked = 0
    for p, r in iter_nested_pairs(basis.rank):
        if p == r:
            continue
        base = basis.project(p, r)
        for part in enumerate_ordered_partitions(r & ~p):
            frame = build_frame(base, part)
            got = (frame.proj_elements, frame.proj_duals, frame.elem_icov, frame.dual_icov)
            assert got == reference_frame(base, part), (basis.name, p, r, part.blocks)
            checked += 1
    return checked


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "A4"])
def test_frames_match_normal_equations(name):
    """Projection-cache frames equal the normal-equation construction exactly."""
    assert assert_frames_match_reference(named_basis(name)) > 0


@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 10**6),
    st.sampled_from(["general", "obtuse"]),
)
def test_frames_match_normal_equations_random_bases(rank, seed, kind):
    assert_frames_match_reference(random_basis(rank, seed, kind))
