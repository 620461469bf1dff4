"""The identity catalog: pointwise verification and chamber certification.

Each identity relates an indicator sum (over intermediate subsets or over
ordered partitions) to a closed form.  `SIGNATURES` declares, once per
identity, the parameters it takes: a nested pair, perhaps a partition, zero
to two directions and usually a point h, with their defaults.  `verify`,
`collect_forms`, `CertifySession` and the CLI's sweeps all read it through
`Signature.resolve`; `IDENTITIES` is its key order.

`verify` evaluates both sides independently at one exact point pair and
returns a Verdict whose two sides must agree exactly; it is also the
reference route for `certify`.

`certify` enumerates every chamber of the arrangement cut out by the h-side
forms the identity reads; every witness is substituted into every form
first.  Once the directions are fixed, each indicator is a conjunction of
sign tests on those forms, so each side compiles to a signed sum of terms
(coef, tests).  One evaluator reads every identity's terms off the chamber
sign vectors, with one bitset of chambers per test and bit-sliced counters.

Identity tokens (the `--identity` vocabulary) and what each one states:

  L31_THETA      flipped-sign indicator == alternating sum of positive-cone
                 indicators over subsets above the direction cut
  L31_THETA_HAT  dual version, summing dual-cone indicators below the cut
  L32            alternating tau / tau-hat products over a nested interval
                 telescope to a delta
  L33_EQ1        signed theta / theta-hat matrices multiply to the identity
                 in both orders (hypotheses: zero directions, or an obtuse
                 basis with the negated directions weakly dominant)
  L33_EQ2        alternating tau-hat / tau products telescope to a delta
  P34            mixed-direction product entry collapses to a signed delta
                 of the two direction cuts
  C35            equal directions: the signed matrices are mutual inverses
  C36            alternating theta-hat / tau sum computes the dominance
                 indicator of the direction
  STAR_RECURSION partition indicators factor through the first block
  STARSTAR_SIGNS the sign counts factor the same way
  P41            alternating phi sum over all ordered partitions equals the
                 signed dual flipped indicator
  BOULDER_21     alternating phi sum equals dominance plus alternating psi sum
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .chambers import MAX_CELLS, MAX_FORMS, Cell, enumerate_cells, form_set
from .errors import HypothesisViolated, MissingParam, NonRegularLambda
from .geometry import EuclideanBasis, lambda_cut
from .indicators import (
    _pos,
    dominance,
    partition_indicators,
    sign_counts,
    tau_pair,
    theta_pair,
)
from .linalg import QVector, int_dot
from .partitions import OrderedPartition, build_frame, enumerate_ordered_partitions
from .subsets import full_mask, is_subset, iter_between, popcount


@dataclass(frozen=True)
class Signature:
    """The parameters one identity takes, in the order they are checked.

    `subsets` is ("p", "q"), ("p", "r") or ("p", "r", "partition"); a
    `matrix` identity states entry (P, R) of a subset matrix, zero off nested
    pairs.  `lams` names the directions and `h` says whether a point is read.
    A name in `defaults` may be left out: p is then 0, r the full set, and a
    direction zero.
    """

    subsets: tuple[str, ...]
    lams: tuple[str, ...] = ("lam",)
    h: bool = True
    matrix: bool = False
    defaults: tuple[str, ...] = ()

    @property
    def names(self) -> tuple[str, ...]:
        return self.subsets + self.lams + (("h",) if self.h else ())

    def resolve(self, basis: EuclideanBasis, given: dict, names) -> dict:
        """`given` with each of `names` set, defaults filled in.

        Raises MissingParam for the first name neither given nor defaulted.
        """
        out = dict(given)
        for name in names:
            if out.get(name) is None and name in self.defaults:
                full = full_mask(basis.rank)
                out[name] = _zero(basis) if name.startswith("lam") else 0 if name == "p" else full
            if out.get(name) is None:
                raise MissingParam(f"identity requires parameter {name!r}")
        return out

    def trivial(self, p: int, r: Optional[int]) -> bool:
        """True at a matrix entry off nested pairs: zero on both sides, no walls."""
        return self.matrix and not is_subset(p, r)


_PQ, _PR, _L12 = ("p", "q"), ("p", "r"), ("lam1", "lam2")

SIGNATURES = {
    "L31_THETA": Signature(_PQ),
    "L31_THETA_HAT": Signature(_PQ),
    "L32": Signature(_PR, (), matrix=True),
    "L33_EQ1": Signature(_PR, _L12, matrix=True, defaults=_L12),
    "L33_EQ2": Signature(_PR, (), matrix=True),
    "P34": Signature(_PR, _L12, matrix=True),
    "C35": Signature(_PR, matrix=True),
    "C36": Signature(_PR, matrix=True),
    "STAR_RECURSION": Signature(_PR + ("partition",)),
    "STARSTAR_SIGNS": Signature(_PR + ("partition",), h=False),
    "P41": Signature(_PR),
    "BOULDER_21": Signature(_PR, defaults=_PR),
}

IDENTITIES = tuple(SIGNATURES)


def _signature(identity: str) -> Signature:
    if identity not in SIGNATURES:
        raise MissingParam(f"unknown identity {identity!r}")
    return SIGNATURES[identity]


def _sign(n: int) -> int:
    return -1 if n & 1 else 1


def _delta(a, b) -> int:
    return int(a == b)


@dataclass
class Verdict:
    """One exact check: lhs is the indicator sum, rhs the closed form."""

    identity: str
    lhs: int
    rhs: int
    params: dict = field(default_factory=dict)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class CellRecord:
    """Verdict values at one chamber's interior witness."""

    signs: tuple[int, ...]
    witness: QVector
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class CertificateReport:
    """Exhaustive per-chamber verdicts for fixed direction parameters."""

    identity: str
    params: dict
    num_forms: int
    num_lam_forms: int
    cells: list[CellRecord]

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)


def obtuse(basis: EuclideanBasis) -> bool:
    """All distinct basis vectors pair non-positively."""
    g = basis.gram
    return all(
        g.entry(i, j) <= 0 for i in range(basis.rank) for j in range(basis.rank) if i != j
    )


def hypothesis_ok(basis: EuclideanBasis, lam: Optional[QVector]) -> bool:
    """Zero direction, or obtuse basis with -lam weakly dominant."""
    if lam is None or lam.is_zero():
        return True
    if not obtuse(basis):
        return False
    full = basis.full_projection()
    return all(int_dot(full.elem_icov[i], lam.ints) <= 0 for i in full.indices)


def _check_hypothesis(basis: EuclideanBasis, lam1, lam2) -> None:
    if not (hypothesis_ok(basis, lam1) and hypothesis_ok(basis, lam2)):
        raise HypothesisViolated(
            "directions must be zero, or the basis obtuse with "
            "their negations weakly dominant"
        )


def _zero(basis: EuclideanBasis) -> QVector:
    return QVector([0] * basis.rank)


def _tail_partition(part: OrderedPartition):
    """(first block, tail partition or None) of a partition."""
    first = part.blocks[0]
    rest = part.ground & ~first
    if rest == 0:
        return first, None
    return first, OrderedPartition(rest, part.blocks[1:])


def _starstar_sides(basis, p, r, partition, lam) -> tuple[int, int]:
    """(64*alpha + b, its first-block rebuild); 64 exceeds any count here."""
    pb = basis.project(p, r)
    zero = _zero(basis)
    pc = partition_indicators(build_frame(pb, partition), lam, zero)
    first, tail = _tail_partition(partition)
    q_mid = r & ~first
    if tail is None:
        alpha_tail = 0
        b_tail = 0
    else:
        tc = partition_indicators(build_frame(basis.project(p, q_mid), tail), lam, zero)
        alpha_tail = tc.alpha
        b_tail = tc.b
    b_high = sign_counts(basis.project(q_mid, r), lam).b
    a_first = popcount(first)
    lhs = 64 * pc.alpha + pc.b
    rhs = 64 * (alpha_tail + a_first + 1 + b_high) + (b_high + b_tail)
    return lhs, rhs


def _theta_products(basis, p, r, lam1, lam2, h):
    """Entries (P, R) of both signed products: (first*second-hat, second-hat*first)."""
    a_entry = 0
    b_entry = 0
    for q in iter_between(p, r):
        low = basis.project(p, q)
        high = basis.project(q, r)
        th_low = theta_pair(low, lam1, h)[0]
        th_hat_low = theta_pair(low, lam2, h)[1]
        th_high = theta_pair(high, lam1, h)[0]
        th_hat_high = theta_pair(high, lam2, h)[1]
        s_low1 = _sign(sign_counts(low, lam1).eta)
        s_low2 = _sign(sign_counts(low, lam2).eta_hat)
        s_high1 = _sign(sign_counts(high, lam1).eta)
        s_high2 = _sign(sign_counts(high, lam2).eta_hat)
        a_entry += (s_low1 * th_low) * (s_high2 * th_hat_high)
        b_entry += (s_low2 * th_hat_low) * (s_high1 * th_high)
    return a_entry, b_entry


def _partition_sums(basis, p, r, lam, h) -> tuple[int, int]:
    """(alternating phi sum, dominance plus alternating psi sum) over every
    ordered partition of the (p, r) system; p == r has phi sum 1, no psi terms."""
    pb = basis.project(p, r)
    phi, psi = int(p == r), dominance(pb, lam)
    for part in enumerate_ordered_partitions(r & ~p) if p != r else ():
        pc = partition_indicators(build_frame(pb, part), lam, h)
        phi += _sign(pc.alpha) * pc.phi
        psi += _sign(pc.beta) * pc.psi
    return phi, psi


def verify(
    basis: EuclideanBasis,
    identity: str,
    *,
    p: Optional[int] = None,
    q: Optional[int] = None,
    r: Optional[int] = None,
    partition: Optional[OrderedPartition] = None,
    lam: Optional[QVector] = None,
    lam1: Optional[QVector] = None,
    lam2: Optional[QVector] = None,
    h: Optional[QVector] = None,
    strict: bool = True,
) -> Verdict:
    """Evaluate one identity at one exact parameter point.

    lhs is always the side computed by summation over subsets or ordered
    partitions; rhs is the closed form.  The verdict passes iff they agree
    exactly.  For the two-clause identities both clauses are packed into a
    single integer pair, documented below per identity.
    """
    sig = _signature(identity)
    given = dict(p=p, q=q, r=r, partition=partition, lam=lam, lam1=lam1, lam2=lam2, h=h)
    if sig.matrix:
        sig.resolve(basis, given, ("p", "r"))
        if sig.trivial(p, r):
            params = {k: v for k, v in given.items() if v is not None}
            return Verdict(identity, 0, 0, params, note="non-nested pair")
    given = sig.resolve(basis, given, sig.names)
    params = {k: given[k] for k in sig.names}
    p, q, r, partition, lam, lam1, lam2, h = given.values()
    note = ""

    if identity == "L31_THETA":
        pb = basis.project(p, q)
        cut = lambda_cut(pb, lam)
        lhs = 0
        for s in iter_between(cut.p_lambda, q):
            lhs += _sign(popcount(s & ~cut.p_lambda)) * tau_pair(basis.project(p, s), h)[0]
        rhs = theta_pair(pb, lam, h)[0]

    elif identity == "L31_THETA_HAT":
        pb = basis.project(p, q)
        cut = lambda_cut(pb, lam)
        lhs = 0
        for s in iter_between(p, cut.q_lambda):
            lhs += _sign(popcount(cut.q_lambda & ~s)) * tau_pair(basis.project(s, q), h)[1]
        rhs = theta_pair(pb, lam, h)[1]

    elif identity == "L32":
        lhs = 0
        for s in iter_between(p, r):
            tau = tau_pair(basis.project(p, s), h)[0]
            tau_hat = tau_pair(basis.project(s, r), h)[1]
            lhs += _sign(popcount(s & ~p)) * tau * tau_hat
        rhs = _delta(p, r)

    elif identity in ("L33_EQ1", "C35"):
        # lhs packs both product orders as their total deviation from the
        # delta entry; rhs is 0.
        if identity == "C35":
            lam1 = lam2 = lam
        elif strict:
            _check_hypothesis(basis, lam1, lam2)
        elif not (hypothesis_ok(basis, lam1) and hypothesis_ok(basis, lam2)):
            note = "hypothesis_ok=False"
        a_entry, b_entry = _theta_products(basis, p, r, lam1, lam2, h)
        d = _delta(p, r)
        lhs = abs(a_entry - d) + abs(b_entry - d)
        rhs = 0
        note = (note + " " if note else "") + f"entries=({a_entry},{b_entry})"

    elif identity == "L33_EQ2":
        # the directions only feed the strict hypothesis check
        if strict:
            _check_hypothesis(basis, lam1, lam2)
        lhs = 0
        for s in iter_between(p, r):
            tau_hat = tau_pair(basis.project(p, s), h)[1]
            tau = tau_pair(basis.project(s, r), h)[0]
            lhs += _sign(popcount(s & ~p)) * tau_hat * tau
        rhs = _delta(p, r)

    elif identity == "P34":
        _, lhs = _theta_products(basis, p, r, lam1, lam2, h)
        pb = basis.project(p, r)
        t1 = lambda_cut(pb, lam1).p_lambda
        t2 = lambda_cut(pb, lam2).q_lambda
        rhs = _sign(popcount(t1 & ~p)) * _delta(t1, t2)

    elif identity == "C36":
        lhs = 0
        for s in iter_between(p, r):
            low = basis.project(p, s)
            b_hat = sign_counts(low, lam).b_hat
            th_hat = theta_pair(low, lam, h)[1]
            tau = tau_pair(basis.project(s, r), h)[0]
            lhs += _sign(b_hat) * th_hat * tau
        rhs = dominance(basis.project(p, r), lam)

    elif identity == "STAR_RECURSION":
        # lhs = 2*phi + psi of the partition; rhs = 2*theta*phi' + tau*phi'
        # through the first-block split (phi' is the tail partition's phi).
        pb = basis.project(p, r)
        pc = partition_indicators(build_frame(pb, partition), lam, h)
        first, tail = _tail_partition(partition)
        q_mid = r & ~first
        if tail is None:
            phi_tail = 1
        else:
            phi_tail = partition_indicators(
                build_frame(basis.project(p, q_mid), tail), lam, h
            ).phi
        high = basis.project(q_mid, r)
        theta = theta_pair(high, lam, h)[0]
        tau = tau_pair(high, h)[0]
        lhs = 2 * pc.phi + pc.psi
        rhs = 2 * theta * phi_tail + tau * phi_tail

    elif identity == "STARSTAR_SIGNS":
        # lhs = 64*alpha + b of the partition; rhs rebuilds both through the
        # first-block split (64 > any count here, so the packing is faithful).
        lhs, rhs = _starstar_sides(basis, p, r, partition, lam)

    elif identity == "P41":
        lhs = _partition_sums(basis, p, r, lam, h)[0]
        pb = basis.project(p, r)
        rhs = _sign(sign_counts(pb, lam).b_hat) * theta_pair(pb, lam, h)[1]

    elif identity == "BOULDER_21":
        lhs, rhs = _partition_sums(basis, p, r, lam, h)

    else:  # pragma: no cover
        raise MissingParam(identity)

    return Verdict(identity=identity, lhs=lhs, rhs=rhs, params=params, note=note)


# ---------------------------------------------------------------------------
# form collection


def _pair_covs(basis, p, r):
    """(element covectors, lower-side dual covectors, upper-side dual and
    element covectors) shared by the interval-product identities."""
    elem_low = []
    dual_low = []
    elem_high = []
    dual_high = []
    for s in iter_between(p, r):
        low = basis.project(p, s)
        high = basis.project(s, r)
        elem_low += [low.elem_icov[i] for i in low.indices]
        dual_low += [low.dual_icov[i] for i in low.indices]
        elem_high += [high.elem_icov[i] for i in high.indices]
        dual_high += [high.dual_icov[i] for i in high.indices]
    return elem_low, dual_low, elem_high, dual_high


def collect_forms(
    basis: EuclideanBasis,
    identity: str,
    *,
    p: Optional[int] = None,
    q: Optional[int] = None,
    r: Optional[int] = None,
    partition: Optional[OrderedPartition] = None,
):
    """(h-side, lam-side) wall families an identity's indicators read.

    The h-side set generates the arrangement `certify` enumerates; the
    lam-side set is the regularity gate for direction parameters.  A matrix
    entry off nested pairs is zero on both sides and reads no walls.
    """
    sig = _signature(identity)
    given = dict(p=p, q=q, r=r, partition=partition)
    p, q, r, partition = sig.resolve(basis, given, sig.subsets).values()
    n = basis.rank
    if sig.trivial(p, r):
        return form_set(n, []), form_set(n, [])

    if identity in ("L31_THETA", "L31_THETA_HAT"):
        pb = basis.project(p, q)
        elem = [pb.elem_icov[i] for i in pb.indices]
        if identity == "L31_THETA":
            h_covs = elem
            lam_covs = [pb.dual_icov[i] for i in pb.indices]
        else:
            h_covs = []
            for s in iter_between(p, q):
                up = basis.project(s, q)
                h_covs += [up.dual_icov[i] for i in up.indices]
            lam_covs = elem
        return form_set(n, h_covs), form_set(n, lam_covs)

    if identity in ("L32", "L33_EQ2"):
        el, dl, eh, dh = _pair_covs(basis, p, r)
        return form_set(n, el + dl + eh + dh), form_set(n, [])

    if identity in ("L33_EQ1", "C35", "P34"):
        el, dl, eh, dh = _pair_covs(basis, p, r)
        covs = el + dl + eh + dh
        return form_set(n, covs), form_set(n, covs)

    if identity == "C36":
        el, dl, eh, dh = _pair_covs(basis, p, r)
        return form_set(n, dl + eh), form_set(n, el)

    if identity in ("STAR_RECURSION", "STARSTAR_SIGNS"):
        pb = basis.project(p, r)
        frame = build_frame(pb, partition)
        lam_covs = [frame.dual_icov[i] for i in pb.indices]
        if identity == "STARSTAR_SIGNS":
            # pure sign identity, no h dependence: one trivial chamber
            return form_set(n, []), form_set(n, lam_covs)
        h_covs = [frame.elem_icov[i] for i in pb.indices]
        first, tail = _tail_partition(partition)
        high = basis.project(r & ~first, r)
        h_covs += [high.elem_icov[i] for i in high.indices]
        if tail is not None:
            tail_frame = build_frame(basis.project(p, r & ~first), tail)
            h_covs += [tail_frame.elem_icov[i] for i in tail_frame.indices]
            lam_covs += [tail_frame.dual_icov[i] for i in tail_frame.indices]
        lam_covs += [high.dual_icov[i] for i in high.indices]
        return form_set(n, h_covs), form_set(n, lam_covs)

    if identity in ("P41", "BOULDER_21"):
        pb = basis.project(p, r)
        h_covs = []
        lam_covs = []
        if p != r:
            for part in enumerate_ordered_partitions(r & ~p):
                frame = build_frame(pb, part)
                h_covs += [frame.elem_icov[i] for i in pb.indices]
                lam_covs += [frame.dual_icov[i] for i in pb.indices]
        lam_covs += [pb.elem_icov[i] for i in pb.indices]
        if identity == "P41":
            h_covs += [pb.dual_icov[i] for i in pb.indices]
        return form_set(n, h_covs), form_set(n, lam_covs)

    raise MissingParam(identity)  # pragma: no cover


# ---------------------------------------------------------------------------
# certification


def _add(slices: list, cells: int, weight: int) -> None:
    """Add weight at every cell of a bitset to a bit-sliced counter."""
    slices += [0] * (weight.bit_length() - len(slices))
    for k in range(weight.bit_length()):
        carry, i = (cells if weight >> k & 1 else 0), k
        while carry:
            if i == len(slices):
                slices.append(0)
            slices[i], carry = slices[i] ^ carry, slices[i] & carry
            i += 1


def _decode(slices: list, n: int) -> list[int]:
    """Per-cell counts of a bit-sliced counter over n cells."""
    out = [0] * n
    for k, sl in enumerate(slices):
        bits_k = format(sl, "b")[::-1]  # character c is cell c's bit
        c = bits_k.find("1")
        while c >= 0:
            out[c] += 1 << k
            c = bits_k.find("1", c + 1)
    return out


class CertifySession:
    """Chamber-exhaustive checking of one identity at fixed subset params.

    The arrangement is enumerated once and shared by every direction the
    session is asked to certify.
    """

    def __init__(
        self,
        basis: EuclideanBasis,
        identity: str,
        *,
        p: Optional[int] = None,
        q: Optional[int] = None,
        r: Optional[int] = None,
        partition: Optional[OrderedPartition] = None,
        strict: bool = True,
        max_forms: int = MAX_FORMS,
        max_cells: int = MAX_CELLS,
    ):
        self.basis = basis
        self.identity = identity
        self.signature = sig = _signature(identity)
        given = dict(p=p, q=q, r=r, partition=partition)
        self.p, self.q, self.r, self.partition = sig.resolve(basis, given, sig.subsets).values()
        self.strict = strict
        self.trivial = sig.trivial(self.p, self.r)
        self.h_forms, self.lam_forms = collect_forms(
            basis, identity, p=self.p, q=self.q, r=self.r, partition=self.partition
        )
        self.cells: list[Cell] = enumerate_cells(
            self.h_forms, max_forms=max_forms, max_cells=max_cells
        )
        self._index = {f: i for i, f in enumerate(self.h_forms.forms)}
        # per test 2*j + w, the cells passing it as a bitset (bit c is cell c)
        every = (1 << len(self.cells)) - 1
        self._sets: list[int] = []
        for col in zip(*(c.signs for c in reversed(self.cells))):
            on = int("".join("1" if s > 0 else "0" for s in col), 2)
            self._sets += [every ^ on, on]

    # -- the term compiler -------------------------------------------------
    #
    # A test 2*j + w asks form j of the h-side set to be positive on h (w = 1)
    # or negative (w = 0).  A conjunction is a list of tests, so products of
    # indicators concatenate; a channel is a list of (coef, conjunction).

    def _tests(self, pairs) -> list[int]:
        return [self._index[cov] << 1 | int(want) for cov, want in pairs]

    def _tau(self, pb):
        return self._tests((pb.elem_icov[i], True) for i in pb.indices)

    def _tau_hat(self, pb):
        return self._tests((pb.dual_icov[i], True) for i in pb.indices)

    def _theta(self, pb, lam, first: int = 0):
        """theta of a projection, phi of a frame; psi when first = its first block."""
        return self._tests(
            (pb.elem_icov[i], first >> i & 1 or not _pos(pb.dual_icov[i], lam)) for i in pb.indices
        )

    def _theta_hat(self, pb, lam):
        return self._tests((pb.dual_icov[i], not _pos(pb.elem_icov[i], lam)) for i in pb.indices)

    def _compile(self, lam, lam1, lam2):
        """(channels, finish) of the identity at fixed directions.

        Channels are (lhs, rhs) unless `finish` is given, which maps the
        per-cell channel values to (lhs, rhs).  Direction-only checks run
        here, once, with verify's errors and messages.
        """
        basis, p, q, r, ident = self.basis, self.p, self.q, self.r, self.identity
        if self.trivial:
            return ([], []), None  # verify's zero entry
        proj = basis.project
        if ident == "L31_THETA":
            cut = lambda_cut(proj(p, q), lam).p_lambda
            lhs = [(_sign(popcount(s & ~cut)), self._tau(proj(p, s))) for s in iter_between(cut, q)]
            return (lhs, [(1, self._theta(proj(p, q), lam))]), None
        if ident == "L31_THETA_HAT":
            cut = lambda_cut(proj(p, q), lam).q_lambda
            lhs = [
                (_sign(popcount(cut & ~s)), self._tau_hat(proj(s, q))) for s in iter_between(p, cut)
            ]
            return (lhs, [(1, self._theta_hat(proj(p, q), lam))]), None
        if ident in ("L32", "L33_EQ2"):
            if ident == "L33_EQ2" and self.strict:
                _check_hypothesis(basis, lam1, lam2)
            low, high = (self._tau, self._tau_hat) if ident == "L32" else (self._tau_hat, self._tau)
            lhs = [
                (_sign(popcount(s & ~p)), low(proj(p, s)) + high(proj(s, r)))
                for s in iter_between(p, r)
            ]
            return (lhs, [(_delta(p, r), [])]), None
        if ident in ("L33_EQ1", "C35", "P34"):
            if ident == "C35":
                lam1 = lam2 = lam
            elif ident == "L33_EQ1" and self.strict:
                _check_hypothesis(basis, lam1, lam2)
            a_terms, b_terms = [], []  # entry (P, R) of both signed products
            for s in iter_between(p, r):
                low, high = proj(p, s), proj(s, r)
                sl1, sh1 = (_sign(sign_counts(x, lam1).eta) for x in (low, high))
                sl2, sh2 = (_sign(sign_counts(x, lam2).eta_hat) for x in (low, high))
                a_terms.append((sl1 * sh2, self._theta(low, lam1) + self._theta_hat(high, lam2)))
                b_terms.append((sl2 * sh1, self._theta_hat(low, lam2) + self._theta(high, lam1)))
            if ident == "P34":
                t1 = lambda_cut(proj(p, r), lam1).p_lambda
                t2 = lambda_cut(proj(p, r), lam2).q_lambda
                return (b_terms, [(_sign(popcount(t1 & ~p)) * _delta(t1, t2), [])]), None
            d = _delta(p, r)
            return (a_terms, b_terms), lambda a, b: (abs(a - d) + abs(b - d), 0)
        if ident == "C36":
            lhs = [
                (
                    _sign(sign_counts(proj(p, s), lam).b_hat),
                    self._theta_hat(proj(p, s), lam) + self._tau(proj(s, r)),
                )
                for s in iter_between(p, r)
            ]
            return (lhs, [(dominance(proj(p, r), lam), [])]), None
        if ident == "STAR_RECURSION":
            frame = build_frame(proj(p, r), self.partition)
            first, tail = _tail_partition(self.partition)
            high = proj(r & ~first, r)
            phi_tail = []
            if tail is not None:
                phi_tail = self._theta(build_frame(proj(p, r & ~first), tail), lam)
            lhs = [(2, self._theta(frame, lam)), (1, self._theta(frame, lam, first))]
            rhs = [(2, self._theta(high, lam) + phi_tail), (1, self._tau(high) + phi_tail)]
            return (lhs, rhs), None
        if ident == "STARSTAR_SIGNS":
            lhs, rhs = _starstar_sides(basis, p, r, self.partition, lam)
            return ([(lhs, [])], [(rhs, [])]), None
        # P41 and BOULDER_21: alternating phi (and psi) sums over ordered partitions
        pb = proj(p, r)
        phi = [(1, [])] if p == r else []
        psi = [(dominance(pb, lam), [])]
        for part in enumerate_ordered_partitions(r & ~p) if p != r else ():
            frame = build_frame(pb, part)
            pc = partition_indicators(frame, lam, _zero(basis))  # sign counts only
            phi.append((_sign(pc.alpha), self._theta(frame, lam)))
            psi.append((_sign(pc.beta), self._theta(frame, lam, part.blocks[0])))
        if ident == "P41":
            psi = [(_sign(sign_counts(pb, lam).b_hat), self._theta_hat(pb, lam))]
        return (phi, psi), None

    # -- the bitset evaluator ------------------------------------------------

    def _evaluate(self, channel) -> list[int]:
        """Per-cell value of a channel, summed in bit-sliced counters.

        Positive and negative coefficients go to two unsigned counters whose
        slice k holds bit k of every cell's count (Knuth, TAOCP 4A, 7.1.3).
        """
        every = (1 << len(self.cells)) - 1
        counters: tuple[list, list] = ([], [])
        for coef, tests in channel:
            cells = every
            for t in tests:
                cells &= self._sets[t]
            if cells:
                _add(counters[coef < 0], cells, abs(coef))
        plus, minus = (_decode(c, len(self.cells)) for c in counters)
        return [a - b for a, b in zip(plus, minus)]

    def _check_regular(self, lam: QVector, name: str) -> None:
        # a defaulted direction may be zero (L33_EQ1's first hypothesis case)
        if name in self.signature.defaults and lam.is_zero():
            return
        for f in self.lam_forms.forms:
            if int_dot(f, lam.ints) == 0:
                raise NonRegularLambda(f"{name} lies on wall {f}")

    def run(
        self,
        lam: Optional[QVector] = None,
        lam1: Optional[QVector] = None,
        lam2: Optional[QVector] = None,
    ) -> CertificateReport:
        sig = self.signature
        given = sig.resolve(self.basis, dict(lam=lam, lam1=lam1, lam2=lam2), sig.lams)
        for name in sig.lams:
            self._check_regular(given[name], name)
        channels, finish = self._compile(**given)
        values = zip(*(self._evaluate(ch) for ch in channels))
        if finish is not None:
            values = (finish(*v) for v in values)
        records = [CellRecord(c.signs, c.witness, *v) for c, v in zip(self.cells, values)]
        params = {k: getattr(self, k) for k in sig.subsets}
        params.update((k, given[k]) for k in sig.lams)
        return CertificateReport(
            identity=self.identity,
            params=params,
            num_forms=len(self.h_forms.forms),
            num_lam_forms=len(self.lam_forms.forms),
            cells=records,
        )


def certify(
    basis: EuclideanBasis,
    identity: str,
    *,
    p: Optional[int] = None,
    q: Optional[int] = None,
    r: Optional[int] = None,
    partition: Optional[OrderedPartition] = None,
    lam: Optional[QVector] = None,
    lam1: Optional[QVector] = None,
    lam2: Optional[QVector] = None,
    strict: bool = True,
    max_forms: int = MAX_FORMS,
    max_cells: int = MAX_CELLS,
) -> CertificateReport:
    """One-shot chamber certification; see CertifySession for batched runs."""
    session = CertifySession(
        basis,
        identity,
        p=p,
        q=q,
        r=r,
        partition=partition,
        strict=strict,
        max_forms=max_forms,
        max_cells=max_cells,
    )
    return session.run(lam=lam, lam1=lam1, lam2=lam2)
