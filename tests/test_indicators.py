"""Cone indicators: tau, theta, the partition pair, and their sign counts."""

import itertools

from conecert.chambers import form_set, sample_regular
from conecert.indicators import (
    dominance,
    partition_indicators,
    sign_counts,
    tau_pair,
    theta_pair,
)
from conecert.partitions import (
    OrderedPartition,
    build_frame,
    enumerate_ordered_partitions,
)
from conecert.subsets import full_mask, popcount

from conftest import qv


def regular_points(basis, count, tag):
    pb = basis.full_projection()
    covs = [pb.elem_icov[i] for i in pb.indices] + [pb.dual_icov[i] for i in pb.indices]
    fs = form_set(basis.rank, covs)
    return sample_regular(fs, count, seed=repr(tag))


def test_tau_on_empty_projection(a2):
    pb = a2.project(0b11, 0b11)
    assert tau_pair(pb, qv(7, -3)) == (1, 1)


def test_tau_rank1():
    from conecert.geometry import make_basis

    basis = make_basis([[2]])
    pb = basis.full_projection()
    assert tau_pair(pb, qv(1)) == (1, 1)
    assert tau_pair(pb, qv(-2)) == (0, 0)
    assert tau_pair(pb, qv(0)) == (0, 0)


def test_tau_chain_rank2(a2):
    pb = a2.full_projection()
    # both coordinates of the dual pairing positive: dominant points
    assert tau_pair(pb, qv(1, 1)) == (1, 1)
    # element pairing reads the gram rows: at (3, 1) the second row dips
    assert tau_pair(pb, qv(3, 1)) == (0, 1)


def test_theta_at_zero_direction_matches_tau(a2):
    """With lam = 0 every flip test reduces to plain positivity."""
    pb = a2.full_projection()
    zero = qv(0, 0)
    for h in regular_points(a2, 25, "theta-zero"):
        assert theta_pair(pb, zero, h) == tau_pair(pb, h)


def test_theta_rank1():
    from conecert.geometry import make_basis

    basis = make_basis([[2]])
    pb = basis.full_projection()
    lam_pos = qv(1)
    # dual positive on lam, so theta wants the element non-positive
    assert theta_pair(pb, lam_pos, qv(-1))[0] == 1
    assert theta_pair(pb, lam_pos, qv(1))[0] == 0
    lam_neg = qv(-1)
    assert theta_pair(pb, lam_neg, qv(1))[0] == 1
    assert theta_pair(pb, lam_neg, qv(-1))[0] == 0


def test_theta_sign_table_rank2(a2):
    """One mixed direction: first index flipped, second not."""
    pb = a2.full_projection()
    lam = qv(1, -1)  # dual 1 pairs positively, dual 2 non-positively
    assert sign_counts(pb, lam).b == 1
    for h in regular_points(a2, 40, "theta-table"):
        e1 = a2.inner(pb.elements[0], h) > 0
        e2 = a2.inner(pb.elements[1], h) > 0
        want = int((not e1) and e2)
        assert theta_pair(pb, lam, h)[0] == want


def test_theta_hat_swaps_roles(a2):
    pb = a2.full_projection()
    lam = qv(2, -3)
    for h in regular_points(a2, 40, "theta-hat"):
        th_hat = theta_pair(pb, lam, h)[1]
        want = 1
        for i in pb.indices:
            e_l = a2.inner(pb.elements[i], lam) > 0
            d_h = a2.inner(pb.duals[i], h) > 0
            if d_h if e_l else not d_h:
                want = 0
        assert th_hat == want


def test_sign_counts_zero_direction(a3):
    pb = a3.project(0b001, 0b111)
    sc = sign_counts(pb, qv(0, 0, 0))
    assert (sc.a, sc.b, sc.b_hat) == (2, 2, 2)
    assert sc.eta == popcount(0b001) + 2
    assert sc.eta_hat == sc.eta


def test_sign_counts_dominant_direction(a2):
    pb = a2.full_projection()
    rho = a2.dual_vector(0) + a2.dual_vector(1)
    sc = sign_counts(pb, rho)
    assert (sc.b, sc.b_hat, sc.eta, sc.eta_hat) == (0, 0, 0, 0)


def test_dominance(a2):
    pb = a2.full_projection()
    assert dominance(pb, a2.dual_vector(0) + a2.dual_vector(1)) == 1
    assert dominance(pb, qv(0, 0)) == 0
    assert dominance(a2.project(0b11, 0b11), qv(0, 0)) == 1


def test_partition_indicators_rank1():
    from conecert.geometry import make_basis

    basis = make_basis([[3]])
    pb = basis.full_projection()
    frame = build_frame(pb, OrderedPartition(0b1, (0b1,)))
    counts = partition_indicators(frame, qv(1), qv(-1))
    assert (counts.phi, counts.psi) == (1, 0)
    assert (counts.alpha, counts.beta) == (2, 1)
    counts = partition_indicators(frame, qv(1), qv(1))
    assert (counts.phi, counts.psi) == (0, 1)


def test_single_block_psi_ignores_lam(a2):
    """A single-block psi is a plain positivity test: c = 0, beta = 1."""
    pb = a2.full_projection()
    frame = build_frame(pb, OrderedPartition(0b11, (0b11,)))
    for lam in (qv(1, -2), qv(-1, -1), qv(3, 1)):
        for h in regular_points(a2, 15, ("psi-single", lam.coords)):
            counts = partition_indicators(frame, lam, h)
            assert counts.c == 0
            assert counts.beta == 1
            assert counts.psi == tau_pair(pb, h)[0]


def test_zero_direction_collapses_phi_psi(a3):
    """At lam = 0 the two indicators agree and the counts lock together."""
    zero = qv(0, 0, 0)
    pb = a3.full_projection()
    for part in enumerate_ordered_partitions(0b111):
        frame = build_frame(pb, part)
        a1 = popcount(part.blocks[0])
        for h in regular_points(a3, 10, ("zero-collapse", part.blocks)):
            counts = partition_indicators(frame, zero, h)
            assert counts.phi == counts.psi
            assert counts.alpha == counts.beta + 2 * a1


def test_exactly_one_sign_pattern_fires(a2):
    """For fixed lam, each regular h satisfies phi for exactly one of the
    two-block frames with a given block structure pattern count check."""
    pb = a2.full_projection()
    frames = [build_frame(pb, p) for p in enumerate_ordered_partitions(0b11)]
    for lam in (qv(0, 0), qv(1, 1), qv(-2, 1)):
        for h in regular_points(a2, 30, ("one-pattern", lam.coords)):
            # each frame's phi tests a full sign pattern on its own forms;
            # over all sign patterns of one frame exactly one fires
            for frame in frames:
                fired = 0
                idx = list(frame.indices)
                for want in itertools.product((False, True), repeat=len(idx)):
                    ok = True
                    for i, w in zip(idx, want):
                        e_h = a2.inner(frame.proj_elements[i], h) > 0
                        if e_h != w:
                            ok = False
                    fired += int(ok)
                assert fired == 1


def test_psi_first_block_is_unconditional(a3):
    pb = a3.full_projection()
    part = OrderedPartition(0b111, (0b011, 0b100))
    frame = build_frame(pb, part)
    for lam in (qv(1, 2, 3), qv(-1, -2, 4), qv(0, 0, 0)):
        for h in regular_points(a3, 10, ("psi-first", lam.coords)):
            counts = partition_indicators(frame, lam, h)
            first_pos = all(
                a3.inner(frame.proj_elements[i], h) > 0 for i in (0, 1)
            )
            if not first_pos:
                assert counts.psi == 0


def test_counts_are_consistent(a3):
    pb = a3.full_projection()
    for part in enumerate_ordered_partitions(0b111):
        frame = build_frame(pb, part)
        for lam in (qv(2, -1, 1), qv(0, 0, 0), qv(-3, -3, -3)):
            counts = partition_indicators(frame, lam, qv(1, 1, 1))
            assert 0 <= counts.c <= counts.b <= pb.size
            a1 = popcount(part.blocks[0])
            assert counts.alpha == counts.b + pb.size + part.num_blocks
            assert counts.beta == 1 + counts.c + (pb.size - a1) + (part.num_blocks - 1)


def test_global_dual_reading_breaks_the_recursion(a2):
    """Reading the flip condition off the unprojected duals is not equivalent.

    The block-projected duals are load bearing: swapping them for the
    ambient duals changes phi on some regular pair, which is the substance
    behind choosing the projected family.
    """
    pb = a2.full_projection()
    part = OrderedPartition(0b11, (0b01, 0b10))
    frame = build_frame(pb, part)
    diverged = False
    for k, lam in enumerate((qv(3, 1), qv(-3, -1), qv(1, -1), qv(-1, 2))):
        for h in regular_points(a2, 20, ("alt-dual", k)):
            counts = partition_indicators(frame, lam, h)
            alt_phi = 1
            for i in frame.indices:
                e_h = a2.inner(frame.proj_elements[i], h) > 0
                d_l = a2.inner(a2.dual_vector(i), lam) > 0
                if e_h if d_l else not e_h:
                    alt_phi = 0
            if alt_phi != counts.phi:
                diverged = True
    assert diverged
