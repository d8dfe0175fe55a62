"""Shared test oracles, coded independently of the paths they check."""

from __future__ import annotations

import random
from fractions import Fraction

from bubblealg.diagram import BLUE, RED, Diagram, make_diagram
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


def enumerate_via_seeds(n_north: int, n_south: int | None = None) -> list[Diagram]:
    """Second enumeration route: colour every uncoloured pair matching.

    Each matching of the boundary points is a seed.  Its strands are
    ordered by first clockwise appearance and coloured one at a time;
    a strand crossed by an already coloured strand must avoid that
    colour, everything else branches.  A seed whose crossing graph is
    not properly colourable contributes nothing.  The result is sorted
    by ``Diagram.encode``, the canonical order itself.
    """
    if n_south is None:
        n_south = n_north
    # clockwise from the top left corner: north left to right, south right to left
    circ = [*range(1, n_north + 1), *range(n_north + n_south, n_north, -1)]
    order = {pid: k for k, pid in enumerate(circ)}
    total = len(circ)
    results: list[Diagram] = []
    if total % 2:
        return results

    def matchings(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        first = points[0]
        for k in range(1, len(points)):
            partner = points[k]
            rest = points[1:k] + points[k + 1 :]
            for tail in matchings(rest):
                yield ((first, partner),) + tail

    def crossing(a: tuple[int, int], b: tuple[int, int]) -> bool:
        pa, pb = sorted((order[a[0]], order[a[1]]))
        inside = sum(1 for x in (order[b[0]], order[b[1]]) if pa < x < pb)
        return inside == 1

    for seed in matchings(tuple(range(1, total + 1))):
        lines = sorted(seed, key=lambda pr: min(order[pr[0]], order[pr[1]]))
        m = len(lines)
        earlier_crossings = [
            [j for j in range(i) if crossing(lines[i], lines[j])] for i in range(m)
        ]
        colours = [0] * m

        def paint(i: int) -> None:
            if i == m:
                results.append(
                    make_diagram(
                        n_north,
                        n_south,
                        [(p, q, colours[k]) for k, (p, q) in enumerate(lines)],
                    )
                )
                return
            banned = {colours[j] for j in earlier_crossings[i]}
            for c in (RED, BLUE):
                if c in banned:
                    continue
                colours[i] = c
                paint(i + 1)

        paint(0)
    return sorted(results, key=Diagram.encode)
