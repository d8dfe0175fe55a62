"""Top-level guarantees of the package, one printed line per criterion.

Each test re-derives its expected values from the independent reference
routes (closed-form counts, one-colour oracles, walk numbers) rather
than from the code under test, and prints a single PASS/FAIL line that
is repeated in the terminal summary.
"""

from __future__ import annotations

import random

from conftest import record_acceptance

from bubblealg.basis import enumerate_basis, enumerate_bras, rank_identity, standard_labels
from bubblealg.diagram import BLUE, RED, compose, propagating_index
from bubblealg.basis import monochrome_straight_diagrams
from bubblealg.checks import tl_gram_poly
from bubblealg.exactpoly import DB, DR, ONE, ZERO, Element, identity_element, white_generator
from bubblealg.oracles import bubble_basis_count, tl_bras
from bubblealg.numeric import FAMILIES, NumericParams
from bubblealg.spinchain import homomorphism_report
from bubblealg.stdmod import (
    cyclic_span_report,
    gram_blocks,
    gram_det_report,
    gram_matrix,
    localisation_report,
    restriction_report,
    scan_gram_roots,
)
from bubblealg.yangbaxter import transfer_sweep, ybe_sweep
from helpers import ROOT_TOLERANCE, kron, match_special_value, perturbed_ybe_residual, split_by_colour

SEED = 20260822


def report(num: int, label: str, ok: bool) -> bool:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {label}"
    print(line)
    record_acceptance(line)
    return ok


def test_criterion_01_basis_counts():
    frozen = {1: 2, 2: 10, 3: 70, 6: 56628}
    ok = all(
        len(enumerate_basis(n)) == bubble_basis_count(n) == want
        for n, want in frozen.items()
    )
    assert report(1, "basis sizes at n=1,2,3,6 equal the closed-form counts", ok)


def test_criterion_02_rank_identity():
    ok = all(rank_identity(n).holds for n in range(1, 7))
    assert report(2, "basis size equals the sum of squared module dimensions, n<=6", ok)


def test_criterion_03_gram_ground_truths():
    ok = True
    for n in range(1, 7):
        for i in range(n + 1):
            g = gram_matrix(n, i, n - i)
            k = range(len(g))
            ok = ok and g == tuple(tuple(ONE if r == c else ZERO for c in k) for r in k)
    # canonical bra order at (0,0) lists the blue arc first; reorder to red-first
    bras = enumerate_bras(2, 0, 0)
    swapped = [bras[1], bras[0]]
    ok = ok and gram_matrix(2, 0, 0, bras=swapped) == ((DR, ZERO), (ZERO, DB))
    assert report(3, "full-cut forms are identities and G_2(0,0) = diag(dr, db)", ok)


def test_criterion_04_blocks_match_one_colour_oracle():
    ok = True
    checked = 0
    for n in range(2, 7):
        for i in range(n - 1):
            j = n - 2 - i
            bras, blocks = gram_blocks(n, i, j)
            for blk in blocks:
                n_r = blk.word.count("r")
                n_b = blk.word.count("b")
                reds = tl_bras(n_r, i)
                blues = tl_bras(n_b, j)
                ok = ok and len(blk.indices) == len(reds) * len(blues)
                pos = {}
                for local, k in enumerate(blk.indices):
                    r_half, b_half = split_by_colour(bras[k])
                    pos[(reds.index(r_half), blues.index(b_half))] = local
                perm = [pos[(a, b)] for a in range(len(reds)) for b in range(len(blues))]
                expect = kron(tl_gram_poly(n_r, i, RED), tl_gram_poly(n_b, j, BLUE))
                for a in range(len(perm)):
                    for b in range(len(perm)):
                        ok = ok and blk.matrix[perm[a]][perm[b]] == expect[a][b]
                checked += 1
    ok = ok and checked > 0
    assert report(4, "one-arc blocks equal one-colour forms up to the recorded order", ok)


def test_criterion_05_root_locations():
    ok = True
    for n in range(1, 6):
        for i, j in standard_labels(n):
            det_report = gram_det_report(n, i, j)
            for var in (RED, BLUE):
                scan = scan_gram_roots(det_report, var=var)
                # the exact verdict, and each root's exact name against the
                # float reference
                ok = ok and scan.all_matched
                ok = ok and all(
                    matched is not None and matched == match_special_value(z, 2 * n, ROOT_TOLERANCE)
                    for z, matched in scan.roots
                )
    assert report(5, "every determinant root matches 2cos(pi m/k), k<=2n, n<=5", ok)


def test_criterion_06_algebraic_relations():
    weight = DR + DB
    ok = True
    for n in range(2, 5):
        for pos in range(1, n):
            u = white_generator(n, pos)
            ok = ok and u * u == u.scale(weight)
    for n in range(1, 5):
        straights = monochrome_straight_diagrams(n)
        ok = ok and len(straights) == 2**n
        total = Element.zero(n, n)
        for a in straights:
            total = total + Element.from_diagram(a)
            for b in straights:
                prod = Element.from_diagram(a) * Element.from_diagram(b)
                want = Element.from_diagram(a) if a == b else Element.zero(n, n)
                ok = ok and prod == want
        ok = ok and total == identity_element(n)
    for n in range(1, 5):
        basis = enumerate_basis(n)
        props = {d: propagating_index(d) for d in basis}
        for a in basis:
            pa = props[a]
            for b in basis:
                res = compose(a, b)
                if res is None:
                    continue
                pc = propagating_index(res[2])
                pb = props[b]
                ok = ok and pc[0] <= min(pa[0], pb[0]) and pc[1] <= min(pa[1], pb[1])
    assert report(6, "idempotent relations and the propagating filtration, n<=4", ok)


def test_criterion_07_spin_chain_homomorphism():
    rng = random.Random(SEED)
    ok = True
    for _ in range(5):
        params = NumericParams(
            q_r=complex(rng.uniform(1.2, 3.0), rng.uniform(0.3, 1.7)),
            q_b=complex(rng.uniform(1.2, 3.0), rng.uniform(-1.7, -0.3)),
        )
        rep = homomorphism_report(2, params)
        ok = ok and rep.pairs_checked == 100 and rep.max_residual < 1e-12
    assert report(7, "all 100 two-strand products match the 16x16 matrices", ok)


def test_criterion_08_yang_baxter():
    tl = ybe_sweep("tl", count=20, seed=SEED)
    bubble = ybe_sweep("bubble", count=20, seed=SEED)
    ok = tl.max_residual < 1e-12 and bubble.max_residual < 1e-10
    lam, u, v = 0.73, 0.41, -0.29
    for group in FAMILIES["tl"].groups:
        ok = ok and perturbed_ybe_residual(lam, u, v, group, kind="tl") > 1e-5
    for group in FAMILIES["bubble"].groups:
        ok = ok and perturbed_ybe_residual(lam, u, v, group, kind="bubble") > 1e-5
    assert report(8, "spectral identity holds and the detector sees perturbations", ok)


def test_criterion_09_transfer_matrices():
    ok = True
    for kind, n in (("tl", 2), ("tl", 3), ("bubble", 2)):
        sweep = transfer_sweep(n, kind, count=10, seed=SEED)
        ok = ok and sweep.max_residual < 1e-9
    assert report(9, "transfer matrices commute at distinct spectral parameters", ok)


def test_criterion_10_structure_checks():
    ok = all(localisation_report(n).holds for n in (2, 3, 4))
    for n in range(1, 7):
        for i, j in standard_labels(n):
            ok = ok and restriction_report(n, i, j).holds
    for n in range(1, 5):
        for i, j in standard_labels(n):
            ok = ok and cyclic_span_report(n, i, j).holds
    assert report(10, "localisation, restriction, and cyclic-generator dimensions", ok)
