"""Shared test oracles, coded independently of the paths they check."""

from __future__ import annotations

import random
from fractions import Fraction

from bubblealg.diagram import Diagram, make_diagram
from bubblealg.exactpoly import LaurentPoly, PolyMatrix, poly_det


def cofactor_det(m: PolyMatrix) -> LaurentPoly:
    """Determinant by first-row cofactor expansion (small sizes only)."""
    if m.rows != m.cols:
        raise ValueError("non-square")
    n = m.rows
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return m[0, 0]
    acc = LaurentPoly.zero()
    for j in range(n):
        entry = m[0, j]
        if entry.is_zero:
            continue
        minor = PolyMatrix(
            [[m[i, k] for k in range(n) if k != j] for i in range(1, n)]
        )
        term = entry * cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def blockwise_det(blocks) -> LaurentPoly:
    """Product of the block determinants, eliminated and multiplied one at a time."""
    acc = LaurentPoly.one()
    for blk in blocks:
        acc = acc * poly_det(blk.matrix)
    return acc


def univariate(poly: LaurentPoly, var: int, other: Fraction) -> list[Fraction]:
    """Coefficients in colour var's loop weight, lowest first, of poly with
    the other loop weight set to the rational other."""
    acc: dict[int, Fraction] = {}
    for exp, coeff in poly.terms.items():
        e, oe = exp[var], exp[1 - var]
        acc[e] = acc.get(e, Fraction(0)) + Fraction(coeff) * other**oe
    acc = {e: v for e, v in acc.items() if v}
    if not acc:
        return []
    return [acc.get(e, Fraction(0)) for e in range(min(acc), max(acc) + 1)]


def random_poly(rng: random.Random, max_terms: int = 4, span: int = 3) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = (rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))
        terms[exp] = terms.get(exp, 0) + rng.randrange(-5, 6)
    return LaurentPoly(terms)


def random_monomial(rng: random.Random, span: int = 2) -> LaurentPoly:
    return LaurentPoly.monomial(
        rng.randrange(-span, span + 1),
        rng.randrange(-span, span + 1),
        rng.randrange(-4, 5),
    )


def brute_walk_count(n: int, i: int, j: int) -> int:
    """Count quadrant walks by enumerating all 4^n step sequences."""
    count = 0
    stack = [(0, 0, 0)]
    while stack:
        step, x, y = stack.pop()
        if step == n:
            count += x == i and y == j
            continue
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            x2, y2 = x + dx, y + dy
            if x2 >= 0 and y2 >= 0:
                stack.append((step + 1, x2, y2))
    return count


def mirror(d: Diagram) -> Diagram:
    """Top-bottom mirror d*: northern point p becomes southern point p."""
    nn, ns = d.n_north, d.n_south

    def image(p: int) -> int:
        return ns + p if p <= nn else p - nn

    return make_diagram(ns, nn, [(image(p), image(q), c) for p, q, c in d.pairs])
