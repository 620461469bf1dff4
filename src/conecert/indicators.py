"""Characteristic functions of cones and their partition refinements.

Every function here is total in (lam, h): conditions use exact > 0 / <= 0
tests, so points on walls still evaluate to something definite.  Regularity
is only ever enforced by callers that need chamber-constancy.

Conventions used throughout:
  * tau / tau-hat test strict positivity against the elements / duals of a
    projected system.
  * theta / theta-hat flip each element test according to the sign the
    direction lam takes on the matching dual / element.
  * the partition versions phi / psi do the same block-projected, with psi
    forcing strict positivity on the first block unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import ProjectedBasis
from .linalg import QVector, int_dot
from .partitions import PartitionFrame
from .subsets import popcount


def _pos(icov, point: QVector) -> bool:
    return int_dot(icov, point.ints) > 0


def tau_pair(pb: ProjectedBasis, h: QVector) -> tuple[int, int]:
    """(tau, tau-hat): all elements positive on h / all duals positive on h.

    Empty systems give (1, 1).
    """
    tau = all(_pos(pb.elem_icov[i], h) for i in pb.indices)
    tau_hat = all(_pos(pb.dual_icov[i], h) for i in pb.indices)
    return int(tau), int(tau_hat)


def theta_pair(pb: ProjectedBasis, lam: QVector, h: QVector) -> tuple[int, int]:
    """(theta, theta-hat) of the lam-conditioned sign tests on h.

    theta: for every index, element(h) <= 0 when dual(lam) > 0, and
    element(h) > 0 otherwise.  theta-hat swaps the roles of elements and
    duals.  Empty systems give (1, 1).
    """
    theta = 1
    theta_hat = 1
    for i in pb.indices:
        e_h = _pos(pb.elem_icov[i], h)
        d_h = _pos(pb.dual_icov[i], h)
        e_l = _pos(pb.elem_icov[i], lam)
        d_l = _pos(pb.dual_icov[i], lam)
        if (e_h if d_l else not e_h):
            theta = 0
        if (d_h if e_l else not d_h):
            theta_hat = 0
    return theta, theta_hat


@dataclass(frozen=True)
class SignCounts:
    """Cardinality and lam-sign counts of a projected system."""

    a: int  # number of projected members
    b: int  # duals pairing <= 0 with lam
    b_hat: int  # elements pairing <= 0 with lam
    eta: int  # |lower| + b
    eta_hat: int  # |lower| + b_hat


def sign_counts(pb: ProjectedBasis, lam: QVector) -> SignCounts:
    b = sum(1 for i in pb.indices if not _pos(pb.dual_icov[i], lam))
    b_hat = sum(1 for i in pb.indices if not _pos(pb.elem_icov[i], lam))
    low = popcount(pb.lower)
    return SignCounts(a=pb.size, b=b, b_hat=b_hat, eta=low + b, eta_hat=low + b_hat)


def dominance(pb: ProjectedBasis, lam: QVector) -> int:
    """1 when lam is strictly positive on every element; empty systems give 1."""
    return int(all(_pos(pb.elem_icov[i], lam) for i in pb.indices))


@dataclass(frozen=True)
class PartitionCounts:
    """Indicator values and sign data of one partition frame at (lam, h)."""

    phi: int
    psi: int
    b: int  # block-projected duals pairing <= 0 with lam
    c: int  # same count restricted to blocks after the first
    alpha: int  # b + (size) + (number of blocks)
    beta: int  # 1 + c + sum over later blocks of (block size + 1)


def partition_indicators(frame: PartitionFrame, lam: QVector, h: QVector) -> PartitionCounts:
    """Evaluate the two partition indicators and their sign counts.

    phi: every block-projected element obeys the lam-flipped sign test
    (element(h) <= 0 iff the block-projected dual pairs > 0 with lam).
    psi: first-block elements must be strictly positive on h regardless of
    lam; later blocks follow the phi rule.
    """
    part = frame.partition
    first = part.blocks[0]
    phi = 1
    psi = 1
    b = 0
    c = 0
    for i in frame.indices:
        in_first = bool(first >> i & 1)
        e_h = _pos(frame.elem_icov[i], h)
        d_l = _pos(frame.dual_icov[i], lam)
        if not d_l:
            b += 1
            if not in_first:
                c += 1
        if (e_h if d_l else not e_h):
            phi = 0
        if in_first:
            if not e_h:
                psi = 0
        elif (e_h if d_l else not e_h):
            psi = 0
    size = frame.base.size
    r = part.num_blocks
    a1 = popcount(first)
    alpha = b + size + r
    beta = 1 + c + (size - a1) + (r - 1)
    return PartitionCounts(phi=phi, psi=psi, b=b, c=c, alpha=alpha, beta=beta)
