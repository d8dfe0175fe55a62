"""Shared test oracles, coded independently of the paths they check, and
the tools that only the tests use: the brute-force enumeration of
coloured diagrams, one-colour diagrams, their ballot count and their
union-find composition, diagram builders, cutting and joining halves,
module matrices, matrix products over the loop ring, ranks over
GF(2^61 - 1), element matrices in the spin chain and the perturbed
Yang-Baxter probe."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping

import numpy as np

from bubblealg.basis import HalfDiagram, enumerate_basis, enumerate_bras, make_half
from bubblealg.diagram import (
    BLUE,
    COLOUR_CHARS,
    RED,
    Diagram,
    make_diagram,
    propagating_index,
    straight_diagram,
)
from bubblealg.exactpoly import (
    ONE,
    ZERO,
    Element,
    LaurentPoly,
    PolyMatrix,
    poly_det,
    white_generator,
)
from bubblealg.spinchain import NumericParams, diagram_matrix
from bubblealg.stdmod import act_diagram, psi
from bubblealg.yangbaxter import group_matrices, rmatrix, ybe_residual_matrices


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


def psi_product_reference(table: dict[int, int]) -> dict[int, int]:
    """prod psi_k^a_k over an exponent table in the loop ring, powers and
    products of ``LaurentPoly``, as {exponent of d: coefficient}: the
    reference for the packed ``stdmod.psi_coefficients``."""
    product = math.prod((psi(k) ** a for k, a in table.items()), start=ONE)
    return {a: c for (a, _), c in product.terms.items()}


def expanded_det(report) -> LaurentPoly:
    """A ``GramDetReport``'s determinant, its red part times its blue part
    multiplied out."""
    red, blue = report.parts
    return LaurentPoly({(a, 0): c for a, c in red.items()}) * LaurentPoly(
        {(0, b): c for b, c in blue.items()}
    )


# a float within this of 2 cos(pi m / k) is taken to be that value
ROOT_TOLERANCE = 1e-8


def match_special_value(z: complex, max_k: int, tol: float) -> tuple[int, int] | None:
    """Smallest k with |z - 2 cos(pi m / k)| inside tolerance, as (m, k):
    the float reference for the exact names the root scan gives."""
    for k in range(1, max_k + 1):
        for m in range(k + 1):
            if abs(z - 2.0 * math.cos(math.pi * m / k)) <= tol:
                return (m, k)
    return None


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


def _fraction_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Long division of coefficient lists, lowest first, b's leading
    coefficient nonzero: (quotient, remainder), both without trailing zeros."""
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while r and len(r) >= len(b):
        if r[-1]:
            f = r[-1] / b[-1]
            off = len(r) - len(b)
            q[off] = f
            for k in range(len(b)):
                r[off + k] -= f * b[k]
        r.pop()
    while r and not r[-1]:
        r.pop()
    while q and not q[-1]:
        q.pop()
    return q, r


def expanded_root_input(det: LaurentPoly, var: int, other: Fraction) -> list[Fraction]:
    """The nonzero roots of ``det`` in colour var's loop weight, each once, as
    a polynomial for a float root finder, by expanding: ``det`` with the
    other loop weight set to other, less its factor of the root 0, divided
    by its monic gcd with its derivative.  Lowest coefficient first; []
    where it vanishes."""
    p = univariate(det, var, other)
    if len(p) <= 2:
        return p
    a, b = p, [c * k for k, c in enumerate(p)][1:]
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    gcd = [c / a[-1] for c in a]
    if len(gcd) == 1:
        return p
    q, r = _fraction_divmod(p, gcd)
    assert not r, "inexact division in square-free reduction"
    return q


def random_poly(rng: random.Random, max_terms: int = 4, span: int = 3) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = (rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))
        terms[exp] = terms.get(exp, 0) + rng.randrange(-5, 6)
    return LaurentPoly(terms)


def evaluate(p: LaurentPoly, dr: complex, db: complex) -> complex:
    """Value of p at numbers (dr, db), term by term."""
    return sum((c * dr**a * db**b for (a, b), c in p.terms.items()), 0j)


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


def tl_halfdiagram_count(n: int, defects: int) -> int:
    """Ballot count of one-colour half diagrams with the given defect number."""
    if defects < 0 or defects > n or (n - defects) % 2:
        return 0
    m = (n - defects) // 2
    return math.comb(n, m) - (math.comb(n, m - 1) if m >= 1 else 0)


# ---------------------------------------------------------------------------
# brute-force enumeration of coloured diagrams


def _circular(n_north: int, n_south: int) -> list[int]:
    return list(range(1, n_north + 1)) + [n_north + k for k in range(n_south, 0, -1)]


def _all_matchings(points: list[int]) -> Iterator[list[tuple[int, int]]]:
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for k, partner in enumerate(rest):
        sub = rest[:k] + rest[k + 1 :]
        for tail in _all_matchings(sub):
            yield [(first, partner)] + tail


def _chords_cross(order: dict[int, int], a: int, b: int, c: int, d: int) -> bool:
    # cut the circle at a; the chord a-b crosses c-d iff exactly one of
    # c, d falls strictly between a and b in the cut order
    pa, pb = order[a], order[b]
    if pa > pb:
        pa, pb = pb, pa
    inside = sum(1 for x in (order[c], order[d]) if pa < x < pb)
    return inside == 1


def brute_force_bubble_encodings(n_north: int, n_south: int | None = None) -> list[str]:
    """All valid coloured diagrams by exhaustive filter, as sorted encodings."""
    if n_south is None:
        n_south = n_north
    circ = _circular(n_north, n_south)
    order = {pid: k for k, pid in enumerate(circ)}
    out = []
    for matching in _all_matchings(list(range(1, n_north + n_south + 1))):
        m = len(matching)
        crossing_pairs = [
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if _chords_cross(order, *matching[i], *matching[j])
        ]
        for colours in product("rb", repeat=m):
            if any(colours[i] == colours[j] for i, j in crossing_pairs):
                continue
            body = ";".join(
                f"({min(p, q)},{max(p, q)},{c})"
                for (p, q), c in sorted(
                    zip(matching, colours), key=lambda t: min(t[0])
                )
            )
            out.append(f"D[{n_north},{n_south}]{{{body}}}")
    return sorted(out)


# ---------------------------------------------------------------------------
# one-colour full diagrams and union-find composition

TLDiagram = tuple[tuple[int, int], ...]


def tl_diagrams(n: int) -> list[TLDiagram]:
    """All one-colour diagrams on n + n points, sorted."""
    circ = _circular(n, n)
    order = {pid: k for k, pid in enumerate(circ)}
    out = []
    for matching in _all_matchings(list(range(1, 2 * n + 1))):
        m = len(matching)
        if any(
            _chords_cross(order, *matching[i], *matching[j])
            for i in range(m)
            for j in range(i + 1, m)
        ):
            continue
        out.append(tuple(sorted((min(p, q), max(p, q)) for p, q in matching)))
    return sorted(out)


def tl_compose(n: int, top: TLDiagram, bottom: TLDiagram) -> tuple[int, TLDiagram]:
    """Union-find contraction of two stacked one-colour diagrams.

    Returns (loop count, result diagram).  Node layout: the top
    diagram's points keep their ids, the bottom diagram's are shifted
    by n so its northern edge lands on the top one's southern edge.
    """
    parent = list(range(3 * n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for p, q in top:
        union(p, q)
    for p, q in bottom:
        union(p + n, q + n)
    boundary: dict[int, list[int]] = {}
    for p in range(1, n + 1):
        boundary.setdefault(find(p), []).append(p)
    for p in range(2 * n + 1, 3 * n + 1):
        boundary.setdefault(find(p), []).append(p - n)
    pairs = []
    for members in boundary.values():
        assert len(members) == 2
        pairs.append((min(members), max(members)))
    middle_only = set()
    for p in range(n + 1, 2 * n + 1):
        r = find(p)
        if r not in boundary:
            middle_only.add(r)
    return len(middle_only), tuple(sorted(pairs))


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


# ---------------------------------------------------------------------------
# diagram builders


def tensor_diagram(a: Diagram, b: Diagram) -> Diagram:
    """Place ``b`` to the right of ``a`` on a shared rectangle."""
    nn = a.n_north + b.n_north

    def remap_a(p: int) -> int:
        return p if p <= a.n_north else nn + (p - a.n_north)

    def remap_b(p: int) -> int:
        return a.n_north + p if p <= b.n_north else nn + a.n_south + (p - b.n_north)

    pairs = [(remap_a(p), remap_a(q), c) for p, q, c in a.pairs]
    pairs += [(remap_b(p), remap_b(q), c) for p, q, c in b.pairs]
    return make_diagram(nn, a.n_south + b.n_south, pairs)


def pad_with_identity(x: Element, left: int, right: int) -> Element:
    """Tensor ``x`` with identity strands: ``left`` on the left, ``right`` on the right."""
    out_terms: list[tuple[Diagram, LaurentPoly]] = []
    for d, c in x.items():
        for lw in product((RED, BLUE), repeat=left):
            mid = tensor_diagram(straight_diagram(lw), d) if left else d
            for rw in product((RED, BLUE), repeat=right):
                full = tensor_diagram(mid, straight_diagram(rw)) if right else mid
                out_terms.append((full, c))
    return Element(x.n_north + left + right, x.n_south + left + right, out_terms)


def natural_inclusion(x: Element) -> Element:
    """Unital embedding that appends one identity strand on the right."""
    return pad_with_identity(x, 0, 1)


def white_cupcap_chain(n: int, m: int) -> Element:
    """Chain of m adjacent cup-caps at the left, every line summed over colours.

    Equals the product of the cup-cap generators at positions 1, 3, ..., 2m-1.
    """
    if not 0 <= 2 * m <= n:
        raise ValueError(f"cannot fit {m} cup-caps into {n} strands")
    free = list(range(2 * m + 1, n + 1))
    terms = []
    for colours in product((RED, BLUE), repeat=n):
        cups = colours[:m]
        caps = colours[m : 2 * m]
        rest = colours[2 * m :]
        pairs = [(2 * t + 1, 2 * t + 2, cups[t]) for t in range(m)]
        pairs += [(n + 2 * t + 1, n + 2 * t + 2, caps[t]) for t in range(m)]
        pairs += [(k, n + k, c) for k, c in zip(free, rest)]
        terms.append((make_diagram(n, n, pairs), LaurentPoly.one()))
    return Element(n, n, terms)


def module_generator(n: int, word: Iterable[int], cup_colour: int = RED) -> Diagram:
    """Single diagram with monochrome cup-caps at the left and strands coloured by ``word``.

    The word length fixes the number of propagating strands; n - len(word)
    must be even.
    """
    w = list(word)
    if (n - len(w)) % 2 or len(w) > n:
        raise ValueError(f"word of length {len(w)} has wrong parity for n={n}")
    m = (n - len(w)) // 2
    pairs = [(2 * t + 1, 2 * t + 2, cup_colour) for t in range(m)]
    pairs += [(n + 2 * t + 1, n + 2 * t + 2, cup_colour) for t in range(m)]
    pairs += [(2 * m + s + 1, n + 2 * m + s + 1, c) for s, c in enumerate(w)]
    return make_diagram(n, n, pairs)


def word_from_chars(chars: str) -> tuple[int, ...]:
    """Translate a colour word like ``'rrb'`` into colour indices."""
    out = []
    for ch in chars:
        idx = COLOUR_CHARS.find(ch)
        if idx < 0:
            raise ValueError(f"unknown colour letter {ch!r}")
        out.append(idx)
    return tuple(out)


def stratify(diagrams: list[Diagram]) -> dict[tuple[int, int], list[Diagram]]:
    """Group diagrams by their per-colour propagating counts."""
    out: dict[tuple[int, int], list[Diagram]] = {}
    for d in diagrams:
        out.setdefault(propagating_index(d), []).append(d)
    return out


# ---------------------------------------------------------------------------
# cutting a diagram into halves, joining them back, one-point moves


def cut_diagram(d: Diagram) -> tuple[HalfDiagram, HalfDiagram]:
    """Split a diagram along its waist into a northern and a southern half.

    Propagating lines of one colour keep their left-to-right order, so
    the pairing of cuts is implicit and the split loses nothing.
    """
    nn = d.n_north
    north_arcs, south_arcs = [], []
    north_cuts: dict[int, list[int]] = {RED: [], BLUE: []}
    south_cuts: dict[int, list[int]] = {RED: [], BLUE: []}
    for p, q, c in d.pairs:
        if q <= nn:
            north_arcs.append((p, q, c))
        elif p > nn:
            south_arcs.append((p - nn, q - nn, c))
        else:
            north_cuts[c].append(p)
            south_cuts[c].append(q - nn)
    bra = make_half(nn, north_arcs, north_cuts[RED], north_cuts[BLUE])
    ket = make_half(d.n_south, south_arcs, south_cuts[RED], south_cuts[BLUE])
    return bra, ket


def cuts_of(bra: HalfDiagram, c: int) -> tuple[int, ...]:
    """The frame points of the cuts of colour c."""
    return bra.red_cuts if c == RED else bra.blue_cuts


def join_halves(bra: HalfDiagram, ket: HalfDiagram) -> Diagram:
    """Rebuild the diagram whose northern half is ``bra`` and southern ``ket``."""
    if propagating_index(bra) != propagating_index(ket):
        raise ValueError("halves have different propagating counts")
    nn = bra.n
    pairs = list(bra.arcs)
    pairs += [(p + nn, q + nn, c) for p, q, c in ket.arcs]
    for c in (RED, BLUE):
        pairs += [(p, q + nn, c) for p, q in zip(cuts_of(bra, c), cuts_of(ket, c))]
    return make_diagram(nn, ket.n, pairs)


def add_line(bra: HalfDiagram, c: int) -> HalfDiagram:
    """Append a frame point carrying a new cut of colour c."""
    red = bra.red_cuts + ((bra.n + 1,) if c == RED else ())
    blue = bra.blue_cuts + ((bra.n + 1,) if c == BLUE else ())
    return make_half(bra.n + 1, bra.arcs, red, blue)


def turn_back(bra: HalfDiagram, c: int) -> HalfDiagram:
    """Append a frame point and bend the last cut of colour c onto it."""
    cuts = cuts_of(bra, c)
    if not cuts:
        raise ValueError("no cut of that colour to turn back")
    t = cuts[-1]
    red = bra.red_cuts[:-1] if c == RED else bra.red_cuts
    blue = bra.blue_cuts[:-1] if c == BLUE else bra.blue_cuts
    return make_half(bra.n + 1, bra.arcs + ((t, bra.n + 1, c),), red, blue)


# ---------------------------------------------------------------------------
# standard modules


def act(x: Element | Diagram, bra: HalfDiagram) -> dict[HalfDiagram, LaurentPoly]:
    """Linear extension of the diagram action; returns a sparse vector."""
    if isinstance(x, Diagram):
        x = Element.from_diagram(x)
    out: dict[HalfDiagram, LaurentPoly] = {}
    for d, coeff in x.items():
        r = act_diagram(d, bra)
        if r is None:
            continue
        lr, lb, half = r
        acc = out.get(half, ZERO) + coeff * LaurentPoly.monomial(lr, lb)
        if acc.is_zero:
            out.pop(half, None)
        else:
            out[half] = acc
    return out


def rep_matrix(
    x: Element | Diagram, n: int, i: int, j: int, bras: list[HalfDiagram] | None = None
) -> PolyMatrix:
    """Matrix of the action on the (i, j) module; column k is the image
    of the k-th basis half diagram."""
    if bras is None:
        bras = enumerate_bras(n, i, j)
    index = {b: r for r, b in enumerate(bras)}
    cols = []
    for b in bras:
        col = [ZERO] * len(bras)
        for half, coeff in act(x, b).items():
            col[index[half]] = coeff
        cols.append(col)
    return PolyMatrix([list(row) for row in zip(*cols)])


def split_by_colour(bra: HalfDiagram) -> tuple[
    tuple[tuple[tuple[int, int], ...], tuple[int, ...]],
    tuple[tuple[tuple[int, int], ...], tuple[int, ...]],
]:
    """One-colour halves of a bra in relabelled coordinates.

    The frame points of each colour are renumbered 1..n_c preserving
    order; each half is (arcs, defect positions), matching the shape the
    one-colour reference code uses.
    """
    colour = bra.endpoints[1]
    out = []
    for c in (RED, BLUE):
        points = [k for k in range(1, bra.n + 1) if colour[k] == c]
        rank = {p: r + 1 for r, p in enumerate(points)}
        arcs = tuple(sorted((rank[p], rank[q]) for p, q, cc in bra.arcs if cc == c))
        defects = tuple(rank[t] for t in cuts_of(bra, c))
        out.append((arcs, defects))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# matrices over the loop ring


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Matrix product over the loop ring."""
    if a.cols != b.rows:
        raise ValueError("inner dimensions differ")
    return PolyMatrix(
        [
            [sum((a[i, k] * b[k, j] for k in range(a.cols)), ZERO) for j in range(b.cols)]
            for i in range(a.rows)
        ]
    )


def kron(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product; the left factor indexes the coarse blocks."""
    return PolyMatrix(
        [
            [a[i, j] * b[r, s] for j in range(a.cols) for s in range(b.cols)]
            for i in range(a.rows)
            for r in range(b.rows)
        ]
    )


# ---------------------------------------------------------------------------
# ranks over GF(PRIME): a rank there never exceeds the generic rank, and at
# a random point it falls below with probability at most degree / PRIME

PRIME = 2**61 - 1


def eval_mod(p: LaurentPoly, dr: int, db: int) -> int:
    """Value of p at (dr, db) in GF(PRIME); a negative exponent needs a nonzero base."""
    return sum(c * pow(dr, a, PRIME) * pow(db, b, PRIME) for (a, b), c in p._terms.items()) % PRIME


def rank_mod(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank over GF(PRIME) of sparse rows {column: value}, by row elimination.

    Each stored pivot row is scaled to 1 at its smallest column, so
    reducing a row by it only adds larger columns and always ends.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        work = {col: v % PRIME for col, v in row.items() if v % PRIME}
        while work:
            col = min(work)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(work[col], -1, PRIME)
                pivots[col] = {c: v * inv % PRIME for c, v in work.items()}
                break
            f = work[col]
            for c, v in pivot.items():
                work[c] = (work.get(c, 0) - f * v) % PRIME
            work = {c: v for c, v in work.items() if v}
    return len(pivots)


def localisation_rank_reference(n: int, seed: int) -> int:
    """Rank of e·B_n·e, e the all-colours cup-cap at points 1, 2, with no
    closure argument: the row of each triple product e·d·e over B_n, as
    ``Element`` products, ranked over GF(PRIME) at two seeded random
    points whose ranks must agree."""
    e = white_generator(n, 1)
    basis = enumerate_basis(n)
    index = {d: k for k, d in enumerate(basis)}
    rows = [{index[x]: c for x, c in (e * Element.from_diagram(d) * e).items()} for d in basis]
    rng = random.Random(seed)
    points = [(rng.randrange(1, PRIME), rng.randrange(1, PRIME)) for _ in range(2)]
    ranks = {rank_mod({k: eval_mod(c, *pt) for k, c in row.items()} for row in rows) for pt in points}
    assert len(ranks) == 1, f"ranks at two random points disagree: {sorted(ranks)}"
    return ranks.pop()


# ---------------------------------------------------------------------------
# spin chain and spectral parameters


def element_matrix(x: Element, params: NumericParams) -> np.ndarray:
    """Matrix of a linear combination; loop coefficients evaluate through
    delta_c = q_c + 1/q_c."""
    m = np.zeros((4**x.n_north, 4**x.n_south), dtype=complex)
    for d, coeff in x.items():
        m += evaluate(coeff, params.delta_r, params.delta_b) * diagram_matrix(d, params)
    return m


# the labels of a site's four states, in the order spinchain indexes them
SITE_STATES = ("r+", "r-", "b+", "b-")


def site_basis_order(n: int) -> list[tuple[str, ...]]:
    """State labels in index order; the first site is most significant."""
    return [tuple(s) for s in product(SITE_STATES, repeat=n)]


def perturbed_ybe_residual(
    lam: float, u: float, v: float, group: str, eps: float = 1e-3, kind: str = "bubble"
) -> float:
    """Yang-Baxter defect after shifting one coefficient of R(u) by eps.

    R is linear in its coefficients, so the shift adds eps times the
    group's matrix to the library's own R(u).  The identity should fail
    once any single group coefficient moves off its exact value.
    """
    mats = group_matrices(kind, lam)
    if group not in mats:
        raise ValueError(f"unknown coefficient group {group!r}")
    r_u = rmatrix(kind, lam, u) + eps * mats[group]
    return ybe_residual_matrices(r_u, rmatrix(kind, lam, u + v), rmatrix(kind, lam, v))
