"""Cross-module property suite behind the `check` CLI subcommand.

Each check re-runs one of the package's verified invariants at a
configurable size and reports pass/fail with a short detail string.  A
crash inside a check is reported as a failure of that check rather than
aborting the suite; a size past the basis guard is refused before any
check runs.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .basis import (
    enumerate_basis,
    monochrome_straight_diagrams,
    rank_identity,
    standard_labels,
)
from .diagram import BLUE, RED, products, propagating_index
from .exactpoly import (
    DB,
    DR,
    ZERO,
    Element,
    LaurentPoly,
    PolyMatrix,
    identity_element,
    poly_det,
    white_generator,
)
from .numeric import NumericParams, check_size
from .oracles import bubble_basis_count, tl_gram_exponents
from .spinchain import homomorphism_report
from .stdmod import (
    cyclic_span_report,
    gram_blocks,
    gram_det_report,
    gram_matrix,
    is_tensor,
    localisation_report,
    restriction_report,
    scan_gram_roots,
)
from .yangbaxter import (
    TRANSFER_TOLERANCE,
    YBE_TOLERANCE,
    transfer_commutator,
    unitarity_sweep,
    ybe_sweep,
)


class Outcome(NamedTuple):
    """What one check found; ``run_checks`` names it."""

    passed: bool
    detail: str


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def _check_basis_counts(size: int) -> Outcome:
    for n in range(1, size + 1):
        got = len(enumerate_basis(n))
        want = bubble_basis_count(n)
        if got != want:
            return Outcome(False, f"n={n}: enumerated {got}, closed form {want}")
    return Outcome(True, f"counts match the closed form, n<={size}")


def _check_rank_identity(size: int) -> Outcome:
    for n in range(1, size + 1):
        rep = rank_identity(n)
        if not rep.holds:
            return Outcome(False, f"n={n}: basis {rep.basis_size} != square sum {rep.dim_square_sum}")
    return Outcome(True, f"basis size equals square sum, n<={size}")


def _check_gram_identity_top(size: int) -> Outcome:
    for n in range(1, size + 1):
        for i in range(n + 1):
            g = gram_matrix(n, i, n - i)
            if g != PolyMatrix.identity(g.rows):
                return Outcome(False, f"G_{n}({i},{n - i}) is not the identity")
    return Outcome(True, f"full-cut forms are identities, n<={size}")


def _check_gram_g2_diagonal() -> Outcome:
    g = gram_matrix(2, 0, 0)
    want = PolyMatrix.diagonal([DB, DR])
    if g != want:
        return Outcome(False, "G_2(0,0) mismatch")
    return Outcome(True, "G_2(0,0) = diag(db, dr) in canonical bra order")


def tl_gram_poly(n_points: int, defects: int, colour: int) -> PolyMatrix:
    """One-colour Gram matrix as polynomials in that colour's loop parameter."""
    expo = tl_gram_exponents(n_points, defects)
    entry = lambda e: ZERO if e is None else (
        LaurentPoly.monomial(e, 0) if colour == RED else LaurentPoly.monomial(0, e)
    )
    return PolyMatrix([[entry(e) for e in row] for row in expo])


def _check_gram_tl_blocks(size: int) -> Outcome:
    checked = 0
    for n in range(2, size + 1):
        for i in range(n - 1):
            j = n - 2 - i
            _, blocks = gram_blocks(n, i, j)
            for blk in blocks:
                n_r = blk.word.count("r")
                n_b = blk.word.count("b")
                tl_r = tl_gram_poly(n_r, i, RED)
                tl_b = tl_gram_poly(n_b, j, BLUE)
                det_r = poly_det(tl_r) ** tl_b.rows
                det_b = poly_det(tl_b) ** tl_r.rows
                red = {a: c for (a, _), c in det_r.terms.items()}
                blue = {b: c for (_, b), c in det_b.terms.items()}
                if not is_tensor(blk.det, red, blue):
                    return Outcome(False, f"block {blk.word} of G_{n}({i},{j}) has wrong determinant")
                checked += 1
    return Outcome(True, f"{checked} word blocks match the one-colour oracle")


def _check_gram_det_dual_route(size: int) -> Outcome:
    labels = [(2, 0, 0), (3, 1, 0), (3, 0, 1)]
    if size >= 4:
        labels += [(4, 2, 0), (4, 1, 1), (4, 0, 0)]
    for n, i, j in labels:
        gram_det_report(n, i, j)
    return Outcome(True, f"{len(labels)} determinants agree both routes, n<={max(n for n, _, _ in labels)}")


def _check_root_scan(size: int) -> Outcome:
    jobs = [(3, 1, 0, RED), (3, 0, 1, BLUE)]
    if size >= 4:
        jobs.append((4, 0, 0, RED))
    for n, i, j, var in jobs:
        scan = scan_gram_roots(gram_det_report(n, i, j), var=var)
        if not scan.all_matched:
            return Outcome(False, f"unmatched root in det G_{n}({i},{j}) scanning colour {var}")
    top = max(n for n, _, _, _ in jobs)
    return Outcome(True, f"{len(jobs)} scans hit only 2cos(pi m/k) points, n<={top}")


def _check_white_idempotent(size: int) -> Outcome:
    weight = DR + DB
    for n in range(2, size + 1):
        for pos in range(1, n):
            u = white_generator(n, pos)
            if u * u != u.scale(weight):
                return Outcome(False, f"U_{pos} at n={n} fails its square rule")
    return Outcome(True, f"U_i^2 = (dr+db) U_i for all positions, n<={size}")


def _check_identity_decomposition(n: int) -> Outcome:
    straights = monochrome_straight_diagrams(n)
    total = Element.zero(n, n)
    for a in straights:
        total = total + Element.from_diagram(a)
        for b in straights:
            prod = Element.from_diagram(a) * Element.from_diagram(b)
            want = Element.from_diagram(a) if a == b else Element.zero(n, n)
            if prod != want:
                return Outcome(False, f"straights not orthogonal at n={n}")
    if total != identity_element(n):
        return Outcome(False, f"straights do not sum to 1 at n={n}")
    return Outcome(True, f"2^{n} orthogonal idempotents sum to 1")


def _check_filtration(size: int) -> Outcome:
    n = min(size, 4)
    basis = enumerate_basis(n)
    index = {d: propagating_index(d) for d in basis}
    pairs = 0
    for a, b, _, _, d in products(basis, basis):
        pa, pb, pc = index[a], index[b], index[d]
        if pc[0] > min(pa[0], pb[0]) or pc[1] > min(pa[1], pb[1]):
            return Outcome(False, f"{a.encode()} o {b.encode()} raises a propagating count")
        pairs += 1
    return Outcome(True, f"propagating counts never grow over {pairs} products (n={n})")


def _check_homomorphism(seed: int) -> Outcome:
    rng = random.Random(seed)
    params = NumericParams(
        q_r=complex(rng.uniform(1.5, 3.5), rng.uniform(0.5, 1.5)),
        q_b=complex(rng.uniform(1.5, 3.5), rng.uniform(-1.5, -0.5)),
    )
    rep = homomorphism_report(2, params)
    if not rep.max_residual < 1e-12:
        return Outcome(False, f"residual {rep.max_residual:.3e} at generic point")
    return Outcome(True, f"{rep.pairs_checked} products match, residual {rep.max_residual:.1e}")


def _check_ybe(seed: int, count: int) -> Outcome:
    tl = ybe_sweep("tl", count=count, seed=seed)
    bubble = ybe_sweep("bubble", count=count, seed=seed)
    if not all(r.max_residual < YBE_TOLERANCE[r.kind] for r in (tl, bubble)):
        return Outcome(False, f"tl {tl.max_residual:.3e}, bubble {bubble.max_residual:.3e}")
    return Outcome(True, f"tl {tl.max_residual:.1e}, bubble {bubble.max_residual:.1e} over {count} points")


def _check_unitarity(seed: int, count: int) -> Outcome:
    tl = unitarity_sweep("tl", count=count, seed=seed)
    bubble = unitarity_sweep("bubble", count=count, seed=seed)
    if not all(r.max_residual < YBE_TOLERANCE[r.kind] for r in (tl, bubble)):
        return Outcome(False, f"tl {tl.max_residual:.3e}, bubble {bubble.max_residual:.3e}")
    return Outcome(True, "both families scalar to working precision")


def _check_transfer(size: int, seed: int) -> Outcome:
    rng = random.Random(seed)
    vectors = np.random.default_rng(seed)
    residuals = []
    for kind in ("tl", "bubble"):
        for n in range(2, size + 1):
            lam = rng.uniform(0.4, 0.9)
            u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
            residuals.append(transfer_commutator(lam, u, v, n, kind, vectors))
    # NaN propagates, and then fails the gate
    worst = float(np.max(residuals))
    if not worst < TRANSFER_TOLERANCE:
        return Outcome(False, f"relative commutator {worst:.3e}, n<={size}")
    return Outcome(True, f"worst relative commutator {worst:.1e}, n<={size}")


def _check_localisation(size: int) -> Outcome:
    for n in range(2, size + 1):
        rep = localisation_report(n)
        if not rep.holds:
            return Outcome(False, f"n={n}: rank {rep.rank}, expected {rep.expected}")
    return Outcome(True, f"sandwich rank equals |B_(n-2)|, n<={size}")


def _check_restriction(size: int) -> Outcome:
    for n in range(2, size + 1):
        for i, j in standard_labels(n):
            rep = restriction_report(n, i, j)
            if not rep.holds:
                return Outcome(False, f"n={n}, label ({i},{j}) fails the recursion")
    return Outcome(True, f"walk recursion realised for every label, n<={size}")


def _check_cyclic_span(size: int) -> Outcome:
    for n in range(1, size + 1):
        basis = enumerate_basis(n)
        for i, j in standard_labels(n):
            rep = cyclic_span_report(n, i, j, basis=basis)
            if not rep.holds:
                return Outcome(False, f"n={n}, label ({i},{j}): rank {rep.rank} != {rep.expected}")
    return Outcome(True, f"orbit rank equals walk dimension for every label, n<={size}")


def run_checks(size: int = 4, seed: int = 20260822, quick: bool = False) -> list[CheckResult]:
    """Run the whole suite; `quick` trims sizes and sweep counts.

    Each check's name is given here once; a check that raises fails under
    that name with the error as its detail.  ``numeric.check_size`` sizes
    the suite and refuses a size under 2, or past DEFAULT_MAX_N, before
    any check runs, as the basis checks would refuse the latter only after
    the rest ran.
    """
    size = check_size(size, quick)
    sweep_count = 3 if quick else 5
    jobs = [
        ("basis_counts", lambda: _check_basis_counts(size)),
        ("rank_identity", lambda: _check_rank_identity(size)),
        ("gram_identity_top", lambda: _check_gram_identity_top(size)),
        ("gram_g2_diagonal", _check_gram_g2_diagonal),
        ("gram_tl_blocks", lambda: _check_gram_tl_blocks(size)),
        ("gram_det_dual_route", lambda: _check_gram_det_dual_route(size)),
        ("gram_root_scan", lambda: _check_root_scan(size)),
        ("white_idempotent", lambda: _check_white_idempotent(size)),
        ("identity_decomposition", lambda: _check_identity_decomposition(size)),
        ("filtration", lambda: _check_filtration(size)),
        ("spin_homomorphism", lambda: _check_homomorphism(seed)),
        ("yang_baxter", lambda: _check_ybe(seed, sweep_count)),
        ("unitarity", lambda: _check_unitarity(seed, sweep_count)),
        ("transfer_commute", lambda: _check_transfer(size, seed)),
        ("localisation", lambda: _check_localisation(size)),
        ("restriction", lambda: _check_restriction(size)),
        ("cyclic_span", lambda: _check_cyclic_span(size)),
    ]
    results = []
    for name, job in jobs:
        try:
            outcome = job()
        except Exception as exc:
            outcome = Outcome(False, f"error: {exc!r}")
        results.append(CheckResult(name, *outcome))
    return results
