"""End-to-end acceptance battery over the whole identity catalog.

Eight independent checks.  Each one prints a single summary line (echoed
again in the terminal summary) and every comparison is exact: integer
against integer, rational against rational, no tolerance anywhere.
"""

import itertools
import random
from fractions import Fraction

from conecert.chambers import enumerate_cells, form_set, sample_regular
from conecert.corpus import named_basis, random_basis
from conecert.indicators import dominance, partition_indicators
from conecert.linalg import QVector
from conecert.partitions import build_frame, enumerate_ordered_partitions
from conecert.subsets import full_mask, iter_nested_pairs, popcount
from conecert.verifiers import CertifySession, collect_forms, verify

import conftest
from oracles import SubsetMatrix, fubini, signed_matrices


def all_interval_forms(basis):
    """Walls read by any nested pair: every projected element and dual."""
    covs = []
    for a, b in iter_nested_pairs(basis.rank):
        pb = basis.project(a, b)
        covs += [pb.elem_icov[i] for i in pb.indices]
        covs += [pb.dual_icov[i] for i in pb.indices]
    return form_set(basis.rank, covs)


def conclude(num: int, failures: list, detail: str) -> None:
    tag = "PASS" if not failures else "FAIL"
    line = f"[acceptance {num}] {tag} {detail}"
    if failures:
        line += f" ({len(failures)} failures, first: {failures[0]})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert not failures, line


def test_acceptance_1_exhaustive_main_identity(corpus):
    """Full-pair main identity certified on every chamber, 25 directions."""
    failures = []
    total_cells = 0
    total_runs = 0
    for basis in corpus:
        sess = CertifySession(basis, "BOULDER_21")
        lams = sample_regular(sess.lam_forms, 25, seed=f"a1|{basis.name}")
        for lam in lams:
            rep = sess.run(lam=lam)
            total_runs += 1
            total_cells += rep.num_cells
            for cell in (c for c in rep.cells if not c.ok):
                failures.append((basis.name, tuple(lam.coords), cell.signs))
    conclude(
        1,
        failures,
        f"main identity exhaustive on {len(corpus)} bases x 25 directions, "
        f"{total_runs} certificates / {total_cells} chamber checks",
    )


def test_acceptance_2_zero_direction_degeneracy(corpus):
    """At the zero direction the two partition indicators coincide."""
    failures = []
    checks = 0
    for basis in corpus:
        zero = QVector([0] * basis.rank)
        full = full_mask(basis.rank)
        pb = basis.full_projection()
        frames = [build_frame(pb, part) for part in enumerate_ordered_partitions(full)]
        h_fs, _ = collect_forms(basis, "BOULDER_21")
        if dominance(pb, zero) != 0:
            failures.append((basis.name, "dominance"))
        for h in sample_regular(h_fs, 200, seed=f"a2|{basis.name}"):
            v = verify(basis, "BOULDER_21", lam=zero, h=h)
            checks += 1
            if not v.ok:
                failures.append((basis.name, "identity", tuple(h.coords)))
            for frame in frames:
                counts = partition_indicators(frame, zero, h)
                a1 = popcount(frame.partition.blocks[0])
                if counts.phi != counts.psi:
                    failures.append((basis.name, "phi!=psi", frame.partition.blocks))
                if counts.alpha != counts.beta + 2 * a1:
                    failures.append((basis.name, "alpha", frame.partition.blocks))
    conclude(
        2,
        failures,
        f"zero-direction degeneracy on {len(corpus)} bases x 200 points "
        f"({checks} identity checks, all partitions)",
    )


def test_acceptance_3_interval_inverse_on_random_bases():
    """Alternating interval product inverts on 50 seeded rank-3 bases."""
    failures = []
    checks = 0
    pairs = [(p, r) for p in range(8) for r in range(8)]
    for seed in range(50):
        basis = random_basis(3, seed=seed, kind="general")
        h_fs = all_interval_forms(basis)
        for h in sample_regular(h_fs, 200, seed=f"a3|{seed}"):
            for p, r in pairs:
                v = verify(basis, "L32", p=p, r=r, h=h)
                checks += 1
                if not v.ok:
                    failures.append((seed, p, r, tuple(h.coords)))
    conclude(
        3,
        failures,
        f"interval inversion on 50 random bases x 200 points x 64 pairs "
        f"({checks} checks)",
    )


def test_acceptance_4_signed_matrices_are_inverse(corpus):
    """Both products of the signed matrices equal the identity matrix."""
    failures = []
    for basis in corpus:
        fs = all_interval_forms(basis)
        lams = sample_regular(fs, 50, seed=f"a4l|{basis.name}")
        hs = sample_regular(fs, 50, seed=f"a4h|{basis.name}")
        ident = SubsetMatrix.identity(basis.rank).entries
        for lam, h in zip(lams, hs):
            th, th_hat = signed_matrices(basis, lam, h)
            if th.mul(th_hat).entries != ident or th_hat.mul(th).entries != ident:
                failures.append((basis.name, tuple(lam.coords), tuple(h.coords)))
    conclude(
        4,
        failures,
        f"signed matrix inverses on {len(corpus)} bases x 50 direction/point pairs, "
        "both product orders",
    )


def test_acceptance_5_product_vanishing(corpus):
    """The mixed-direction product entry matches its closed form on every
    chamber, for every ordered subset pair."""
    failures = []
    chamber_checks = 0
    for basis in corpus:
        n = basis.rank
        for p in range(1 << n):
            for r in range(1 << n):
                if p & r != p:
                    v = verify(
                        basis, "P34", p=p, r=r,
                        lam1=QVector([0] * n), lam2=QVector([0] * n),
                        h=QVector([1] * n),
                    )
                    if (v.lhs, v.rhs) != (0, 0):
                        failures.append((basis.name, p, r, "non-nested"))
                    continue
                sess = CertifySession(basis, "P34", p=p, r=r)
                lams = sample_regular(
                    sess.lam_forms, 50, seed=f"a5|{basis.name}|{p}|{r}"
                )
                for i in range(0, 50, 2):
                    rep = sess.run(lam1=lams[i], lam2=lams[i + 1])
                    chamber_checks += rep.num_cells
                    if not rep.ok:
                        failures.append((basis.name, p, r, i, "chamber"))
    conclude(
        5,
        failures,
        f"product vanishing: 25 direction pairs per subset pair, "
        f"{chamber_checks} exhaustive chamber checks",
    )


def test_acceptance_6_partition_recursion(corpus):
    """Partition sum vs closed form on every chamber, plus both recursion
    clauses on every multi-block partition."""
    failures = []
    chamber_checks = 0
    recursion_checks = 0
    for basis in corpus:
        n = basis.rank
        for p, r in iter_nested_pairs(n):
            sess = CertifySession(basis, "P41", p=p, r=r)
            lams = sample_regular(sess.lam_forms, 3, seed=f"a6|{basis.name}|{p}|{r}")
            for lam in lams:
                rep = sess.run(lam=lam)
                chamber_checks += rep.num_cells
                if not rep.ok:
                    failures.append((basis.name, p, r, tuple(lam.coords), "chambers"))
            if p == r:
                continue
            for part in enumerate_ordered_partitions(r & ~p):
                if part.num_blocks < 2:
                    continue
                h_fs, lam_fs = collect_forms(
                    basis, "STAR_RECURSION", p=p, r=r, partition=part
                )
                key = f"a6s|{basis.name}|{p}|{r}|{part.blocks}"
                lams = sample_regular(lam_fs, 3, seed="l" + key)
                hs = sample_regular(h_fs, 3, seed="h" + key)
                for lam, h in zip(lams, hs):
                    recursion_checks += 1
                    v = verify(
                        basis, "STAR_RECURSION",
                        p=p, r=r, partition=part, lam=lam, h=h,
                    )
                    w = verify(
                        basis, "STARSTAR_SIGNS", p=p, r=r, partition=part, lam=lam
                    )
                    if not v.ok:
                        failures.append((basis.name, p, r, part.blocks, "recursion"))
                    if not w.ok:
                        failures.append((basis.name, p, r, part.blocks, "signs"))
    conclude(
        6,
        failures,
        f"partition sums: {chamber_checks} chamber checks over all nested pairs, "
        f"{recursion_checks} multi-block recursion checks",
    )


def test_acceptance_7_structural_invariants(corpus):
    """Counting, duality, nesting, and the projected-norm identity."""
    failures = []
    if [fubini(n) for n in range(1, 7)] != [1, 3, 13, 75, 541, 4683]:
        failures.append(("fubini",))
    for basis in corpus:
        n = basis.rank
        full = full_mask(n)
        if len(enumerate_ordered_partitions(full)) != fubini(n):
            failures.append((basis.name, "partition count"))
        for p, q in iter_nested_pairs(n):
            pb = basis.project(p, q)
            # duality pairings
            for i in pb.indices:
                for j in pb.indices:
                    want = 1 if i == j else 0
                    if basis.inner(pb.duals[i], pb.elements[j]) != want:
                        failures.append((basis.name, p, q, "duality"))
            # elements read only the lower set, duals only the upper set
            wide = basis.project(p, full)
            for i in pb.indices:
                if pb.elements[i] != wide.elements[i]:
                    failures.append((basis.name, p, q, "primal nesting"))
            low = basis.project(0, q)
            for i in pb.indices:
                if pb.duals[i] != low.duals[i]:
                    failures.append((basis.name, p, q, "dual nesting"))
        # projected-norm identity at 500 integer points per basis
        rng = random.Random(f"a7|{basis.name}")
        pair_data = []
        for p, r in iter_nested_pairs(n):
            pb = basis.project(p, r)
            elem_covs = [basis.covector(pb.elements[i]).coords for i in pb.indices]
            dual_covs = [basis.covector(pb.duals[i]).coords for i in pb.indices]
            gram = [
                [basis.inner(pb.elements[i], pb.elements[j]) for j in pb.indices]
                for i in pb.indices
            ]
            pair_data.append((elem_covs, dual_covs, gram))
        for _ in range(500):
            h = tuple(rng.randint(-9, 9) for _ in range(n))
            for elem_covs, dual_covs, gram in pair_data:
                t = [sum(c * x for c, x in zip(cov, h)) for cov in dual_covs]
                u = [sum(c * x for c, x in zip(cov, h)) for cov in elem_covs]
                lhs = sum(a * b for a, b in zip(u, t))
                rhs = sum(
                    t[i] * t[j] * gram[i][j]
                    for i in range(len(t))
                    for j in range(len(t))
                )
                if lhs != rhs or rhs < 0 or (rhs == 0) != all(x == 0 for x in t):
                    failures.append((basis.name, h, "norm identity"))
    conclude(
        7,
        failures,
        f"structural invariants on {len(corpus)} bases "
        "(counts, duality, nesting, projected norms at 500 points each)",
    )


def grid_axis(lo, hi, step):
    out = []
    v = Fraction(lo)
    while v <= hi:
        out.append(v)
        v += step
    return out


def test_acceptance_8_oracle_cross_checks():
    """Chamber enumeration vs a grid scan."""
    failures = []
    # sign vectors of the rank-2 arrangements match a resolution-1/7 scan
    axis = grid_axis(-3, 3, Fraction(1, 7))
    for name in ("A2", "B2", "G2"):
        basis = named_basis(name)
        fs, _ = collect_forms(basis, "BOULDER_21")
        enumerated = {c.signs for c in enumerate_cells(fs)}
        scanned = set()
        for pt in itertools.product(axis, repeat=2):
            vals = [sum(c * x for c, x in zip(f, pt)) for f in fs.forms]
            if any(v == 0 for v in vals):
                continue
            scanned.add(tuple(1 if v > 0 else -1 for v in vals))
        if enumerated != scanned:
            failures.append((name, "chambers vs grid"))
    conclude(8, failures, "oracles: 3 rank-2 arrangements vs 1/7-grid")
