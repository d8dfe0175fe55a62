"""Standard modules: diagram action on half diagrams, bilinear forms,
Gram determinants, restriction, and root location.

The module labelled (i, j) has the half diagrams with that propagating
count as basis.  A half diagram is read as a diagram from its n frame
points to i + j cut points (see ``HalfDiagram``), so the action and the
form are both calls of the gluing kernel ``diagram.glue``.  A diagram
acts by gluing its southern edge onto the frame; a chain joining two cut
points would bend a propagating line back and makes the image zero,
which realises the quotient by lower layers of the filtration.

The bilinear form glues one half diagram, flipped top to bottom, onto
the other; it is nonzero only when every chain runs from a cut of one
to a cut of the other.  It is block diagonal over the boundary colour
word, and each block is a tensor product of two one-colour forms: with
k_r red and k_b blue frame points, its determinant is
D_r(k_r, i)^rows_b * D_b(k_b, j)^rows_r, where D_c(k, d) and rows_c are
the determinant and size of the one-colour form on k points with d
cuts.  So the Gram determinant is a red part times a blue part, each a
product of a few one-colour determinants.  ``gram_det_report`` keeps it
in that factored form and checks every block against it, and
``scan_gram_roots`` works on the distinct factors of the scanned colour
without expanding either part.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache

from .basis import (
    HalfDiagram,
    count_basis,
    enumerate_basis,
    enumerate_bras,
    make_half,
    restrict_bra,
    walk_count,
)
from .diagram import (
    BLUE,
    COLOUR_CHARS,
    RED,
    Diagram,
    Element,
    SizeMismatchError,
    endpoint_arrays,
    glue,
    white_generator,
)
from .exactpoly import ONE, PRIME, ZERO, LaurentPoly, PolyMatrix, eval_mod, poly_det, rank_mod
from .oracles import tl_gram_exponents

# ---------------------------------------------------------------------------
# action of diagrams on half diagrams


def act_diagram(d: Diagram, bra: HalfDiagram) -> tuple[int, int, HalfDiagram] | None:
    """Glue d's southern edge onto the frame; None when the result is zero.

    Zero happens when strand colours disagree at a glued point or when a
    chain connects two propagating slots of the frame, which would drop
    the propagating count.
    """
    if d.n_south != bra.n:
        raise SizeMismatchError(
            f"diagram with {d.n_south} southern points cannot act on a frame of {bra.n}"
        )
    nn = d.n_north
    top = endpoint_arrays(nn + d.n_south, d.pairs)
    r = glue(top, bra.endpoints, nn, bra.n, sum(bra.propagating))
    # a pair with both ends among the slots is a chain that leaves the layer
    if r is None or any(p > nn for p, _, _ in r[2]):
        return None
    lr, lb, pairs = r
    arcs = tuple(pair for pair in pairs if pair[1] <= nn)
    red, blue = (tuple(p for p, q, c in pairs if q > nn and c == col) for col in (RED, BLUE))
    return lr, lb, HalfDiagram._raw(nn, arcs, red, blue)


# ---------------------------------------------------------------------------
# bilinear form


def rb_word(bra: HalfDiagram) -> str:
    """Boundary colour word: the colour letter at each frame point."""
    colour = bra.endpoints[1]
    return "".join(COLOUR_CHARS[colour[k]] for k in range(1, bra.n + 1))


def bra_inner(x: HalfDiagram, y: HalfDiagram) -> LaurentPoly:
    """Glue two half diagrams frame to frame; a monomial in the loop ring.

    This is the gluing of x flipped top to bottom onto y.  It is zero
    unless the colour words agree and every chain joins a propagating
    slot of one half to one of the other.
    """
    if x.n != y.n:
        raise SizeMismatchError("frames have different sizes")
    k = sum(x.propagating)
    r = glue(x.flipped_endpoints, y.endpoints, k, x.n, sum(y.propagating))
    if r is None or any(not p <= k < q for p, q, _ in r[2]):
        return ZERO
    return LaurentPoly.monomial(r[0], r[1])


def gram_matrix(n: int, i: int, j: int, bras: list[HalfDiagram] | None = None) -> PolyMatrix:
    if bras is None:
        bras = enumerate_bras(n, i, j)
    return PolyMatrix([[bra_inner(x, y) for y in bras] for x in bras])


# ---------------------------------------------------------------------------
# block structure over colour words


def tl_gram_poly(n_points: int, defects: int, colour: int) -> PolyMatrix:
    """One-colour Gram matrix as polynomials in that colour's loop parameter."""
    expo = tl_gram_exponents(n_points, defects)
    entry = lambda e: ZERO if e is None else (
        LaurentPoly.monomial(e, 0) if colour == RED else LaurentPoly.monomial(0, e)
    )
    return PolyMatrix([[entry(e) for e in row] for row in expo])


@dataclass(frozen=True)
class GramBlock:
    word: str
    indices: tuple[int, ...]
    matrix: PolyMatrix

    @cached_property
    def det(self) -> LaurentPoly:
        """The block's determinant, eliminated on first use only."""
        return block_det(self.matrix)


def gram_blocks(
    n: int, i: int, j: int, bras: list[HalfDiagram] | None = None
) -> tuple[list[HalfDiagram], list[GramBlock]]:
    """Split the form by colour word; returns (basis, blocks).

    Off-block entries vanish because the form is zero across different
    colour words, so the blocks carry the whole matrix.
    """
    if bras is None:
        bras = enumerate_bras(n, i, j)
    groups: dict[str, list[int]] = {}
    for k, b in enumerate(bras):
        groups.setdefault(rb_word(b), []).append(k)
    blocks = []
    for word in sorted(groups):
        idx = groups[word]
        sub = PolyMatrix(
            [[bra_inner(bras[a], bras[b]) for b in idx] for a in idx]
        )
        blocks.append(GramBlock(word, tuple(idx), sub))
    return bras, blocks


@lru_cache(maxsize=256)
def block_det(m: PolyMatrix) -> LaurentPoly:
    """``poly_det`` once per distinct block: blocks of one (k_r, k_b) shape
    repeat, and ``one_colour_det`` eliminates one-colour modules' blocks."""
    return poly_det(m)


@cache
def one_colour_det(colour: int, points: int, defects: int) -> tuple[LaurentPoly, int]:
    """Determinant and size of the one-colour form on `points` points.

    This is the all-`colour` word block of the module with `defects`
    cuts of that colour, computed with ``bra_inner`` and ``poly_det``
    like any other block from a walk over that colour's half diagrams
    only.  Blocks never have more points than the module they come
    from, which has passed the size guard already.
    """
    label = (defects, 0) if colour == RED else (0, defects)
    bras = enumerate_bras(points, *label, max_n=points, colours=(colour,))
    return block_det(gram_matrix(points, *label, bras=bras)), len(bras)


Factors = tuple[tuple[LaurentPoly, int], ...]

CROSS_CHECK_MAX_SIZE = 36


@dataclass(frozen=True)
class GramDetReport:
    """Gram determinant kept factored by colour.

    ``factors[c]`` lists the distinct one-colour determinants of colour
    c with their multiplicities; ``det`` is their product, expanded on
    first use as (red part) * (blue part).
    """

    n: int
    label: tuple[int, int]
    size: int
    factors: tuple[Factors, Factors]
    blocks: tuple[GramBlock, ...]
    cross_checked: bool

    @cached_property
    def parts(self) -> tuple[LaurentPoly, LaurentPoly]:
        """The red and the blue part, each in its own loop weight only."""
        out = []
        for factors in self.factors:
            acc = ONE
            for f, m in factors:
                acc = acc * f**m
            out.append(acc)
        return out[0], out[1]

    @cached_property
    def det(self) -> LaurentPoly:
        red, blue = self.parts
        return red * blue

    @property
    def det_is_zero(self) -> bool:
        return any(f.is_zero for factors in self.factors for f, _ in factors)


def gram_det_report(
    n: int, i: int, j: int, bras: list[HalfDiagram] | None = None
) -> GramDetReport:
    """Gram determinant from the word blocks, factored by colour.

    Every block determinant comes from elimination on the block itself
    and must equal D_r(k_r, i)^rows_b * D_b(k_b, j)^rows_r built from
    the one-colour determinants; a mismatch raises ArithmeticError.
    Up to CROSS_CHECK_MAX_SIZE basis elements, where it is cheap, the
    unblocked matrix goes through fraction-free elimination as well and
    must give the product of the factors exactly.
    """
    bras, blocks = gram_blocks(n, i, j, bras=bras)
    mult: tuple[dict[LaurentPoly, int], dict[LaurentPoly, int]] = ({}, {})
    tensor: dict[tuple[int, int], LaurentPoly] = {}
    for blk in blocks:
        k_r = blk.word.count("r")
        k_b = len(blk.word) - k_r
        det_r, rows_r = one_colour_det(RED, k_r, i)
        det_b, rows_b = one_colour_det(BLUE, k_b, j)
        if (k_r, k_b) not in tensor:
            tensor[k_r, k_b] = det_r**rows_b * det_b**rows_r
        if blk.det != tensor[k_r, k_b]:
            raise ArithmeticError(
                f"block {blk.word} of G_{n}({i},{j}) is not the tensor product of one-colour forms"
            )
        mult[RED][det_r] = mult[RED].get(det_r, 0) + rows_b
        mult[BLUE][det_b] = mult[BLUE].get(det_b, 0) + rows_r
    factors = (tuple(mult[RED].items()), tuple(mult[BLUE].items()))
    size = len(bras)
    report = GramDetReport(n, (i, j), size, factors, tuple(blocks), size <= CROSS_CHECK_MAX_SIZE)
    if report.cross_checked:
        full = poly_det(gram_matrix(n, i, j, bras=bras))
        if full != report.det:
            raise ArithmeticError(
                f"block determinant product disagrees with direct elimination at n={n}, label=({i},{j})"
            )
    return report


# ---------------------------------------------------------------------------
# restriction to one point fewer


@dataclass(frozen=True)
class RestrictionReport:
    n: int
    label: tuple[int, int]
    neighbour_sizes: dict[tuple[int, int], int]
    bijective: bool

    @property
    def holds(self) -> bool:
        total = sum(self.neighbour_sizes.values())
        return self.bijective and total == walk_count(self.n, *self.label)


def restriction_report(n: int, i: int, j: int) -> RestrictionReport:
    """Classify every bra by its last frame point and check the drop maps
    hit each neighbouring basis exactly once."""
    buckets: dict[tuple[int, int], set[HalfDiagram]] = {}
    for bra in enumerate_bras(n, i, j):
        label, smaller = restrict_bra(bra)
        buckets.setdefault(label, set()).add(smaller)
    bijective = True
    sizes = {}
    for label, got in buckets.items():
        expect = set(enumerate_bras(n - 1, *label))
        sizes[label] = len(got)
        if got != expect:
            bijective = False
    return RestrictionReport(n, (i, j), sizes, bijective)


# ---------------------------------------------------------------------------
# generic-parameter ranks


def cyclic_generator_bra(n: int, i: int, j: int) -> HalfDiagram:
    """Red cups at the left, then i red and j blue propagating lines."""
    m = (n - i - j) // 2
    arcs = [(2 * t + 1, 2 * t + 2, RED) for t in range(m)]
    red = tuple(range(2 * m + 1, 2 * m + i + 1))
    blue = tuple(range(2 * m + i + 1, n + 1))
    return make_half(n, arcs, red, blue)


@dataclass(frozen=True)
class SpanReport:
    n: int
    label: tuple[int, int] | None
    rank: int
    expected: int

    @property
    def holds(self) -> bool:
        return self.rank == self.expected


def cyclic_span_report(n: int, i: int, j: int, basis: list[Diagram] | None = None) -> SpanReport:
    """Dimension of the orbit of the standard generator under all diagrams.

    Each diagram sends the generator to zero or to a monomial times one
    half diagram, and monomials are units of the loop ring, so the orbit
    spans exactly the half diagrams it reaches.  ``basis`` is B_n when the
    caller has it already.
    """
    if basis is None:
        basis = enumerate_basis(n)
    gen = cyclic_generator_bra(n, i, j)
    reached = {r[2] for d in basis if (r := act_diagram(d, gen))}
    return SpanReport(n, (i, j), len(reached), walk_count(n, i, j))


RANK_POINTS = 2


def localisation_report(n: int, seed: int = 20260822) -> SpanReport:
    """Rank of the corner algebra cut out by one all-colours cup-cap.

    Sandwiching the basis between two copies of the leftmost cup-cap
    spans a space of dimension equal to the basis two sizes down.  The
    rank is taken over GF(PRIME) at RANK_POINTS seeded random points, which
    must agree: such a rank never exceeds the generic one and falls
    below it with probability at most degree / PRIME.
    """
    if n < 2:
        raise ValueError("needs at least two strands")
    e = white_generator(n, 1)
    basis = enumerate_basis(n)
    index = {d: k for k, d in enumerate(basis)}
    rows = [{index[dd]: c for dd, c in (e * Element.from_diagram(d) * e).items()} for d in basis]
    rng = random.Random(seed)
    points = [(rng.randrange(1, PRIME), rng.randrange(1, PRIME)) for _ in range(RANK_POINTS)]
    ranks = {rank_mod({k: eval_mod(c, *pt) for k, c in row.items()} for row in rows) for pt in points}
    if len(ranks) != 1:
        raise ArithmeticError(f"generic rank estimates disagree: {sorted(ranks)}")
    return SpanReport(n, None, ranks.pop(), count_basis(n - 2))


# ---------------------------------------------------------------------------
# root location for Gram determinants


def _coefficients(poly: LaurentPoly, var: int) -> tuple[int, list[Fraction]]:
    """A nonzero polynomial in colour var's loop weight as (lowest
    exponent, coefficient list from that exponent up)."""
    terms = {exp[var]: Fraction(c) for exp, c in poly.terms.items()}
    lo, hi = min(terms), max(terms)
    return lo, [terms.get(e, Fraction(0)) for e in range(lo, hi + 1)]


def _value(poly: LaurentPoly, colour: int, x: Fraction) -> Fraction:
    """Exact value at x of a polynomial in one colour's loop weight."""
    return sum((Fraction(c) * x ** exp[colour] for exp, c in poly.terms.items()), Fraction(0))


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            out[s + t] += x * y
    return out


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Long division of trimmed coefficient lists: (quotient, remainder)."""
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while _trim(r) and len(r) >= len(b):
        f = r[-1] / b[-1]
        off = len(r) - len(b)
        q[off] = f
        for k in range(len(b)):
            r[off + k] -= f * b[k]
        r.pop()
    return _trim(q), r


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _square_free(p: list[Fraction]) -> list[Fraction]:
    """Strip repeated factors exactly before any floating point touches them."""
    if len(p) <= 2:
        return list(p)
    deriv = [c * k for k, c in enumerate(p)][1:]
    g = _poly_gcd(p, deriv)
    if len(g) <= 1:
        return list(p)
    q, r = _poly_divmod(p, g)
    assert not r, "inexact division in square-free reduction"
    return q


def match_special_value(z: complex, max_k: int, tol: float) -> tuple[int, int] | None:
    """Smallest k with |z - 2 cos(pi m / k)| inside tolerance, as (m, k)."""
    for k in range(1, max_k + 1):
        for m in range(k + 1):
            if abs(z - 2.0 * math.cos(math.pi * m / k)) <= tol:
                return (m, k)
    return None


@dataclass(frozen=True)
class RootRecord:
    value: complex
    matched: tuple[int, int] | None


@dataclass(frozen=True)
class SampleScan:
    other_value: Fraction
    degenerate: bool
    zero_root_multiplicity: int
    roots: tuple[RootRecord, ...]

    @property
    def all_matched(self) -> bool:
        return not self.degenerate and all(r.matched is not None for r in self.roots)


@dataclass(frozen=True)
class GramRootScan:
    n: int
    label: tuple[int, int]
    var: int
    det_is_zero: bool
    samples: tuple[SampleScan, ...]

    @property
    def all_matched(self) -> bool:
        return not self.det_is_zero and all(s.all_matched for s in self.samples)


# the other loop weight is pinned to each sample in turn; a root matches
# 2 cos(pi m / k) within ROOT_TOLERANCE for some k <= 2n
ROOT_SAMPLES = (Fraction(7, 3), Fraction(5, 2))
ROOT_TOLERANCE = 1e-8


def scan_gram_roots(report: GramDetReport, var: int = RED) -> GramRootScan:
    """Locate the roots of a reported Gram determinant in one loop parameter.

    The part in ``var`` is a product of powers f^m of a few one-colour
    determinants, so it is never expanded: its roots are those of the
    product of the distinct f, whose repeated factors are removed by
    exact polynomial arithmetic.  Its lowest exponent, the multiplicity
    of the root 0, is the sum of m * lo(f), and its leading coefficient
    the product of lead(f)^m.  The other parameter is pinned to exact
    rationals, which turns the part in the other colour into one exact
    number; the monic square-free product, scaled by the leading
    coefficient and that number, is what the numeric root finder sees.
    Every root must then lie within tolerance of twice a cosine of a
    rational angle with denominator at most 2n.
    """
    n = report.n
    max_k = 2 * n
    if report.det_is_zero:
        return GramRootScan(n, report.label, var, True, ())
    zero_mult, lead, product = 0, Fraction(1), [Fraction(1)]
    for f, m in report.factors[var]:
        lo, coeffs = _coefficients(f, var)
        zero_mult += m * lo
        lead *= coeffs[-1] ** m
        product = _poly_mul(product, coeffs)
    sq = _square_free(product)
    monic = [c / sq[-1] for c in sq]
    zero_mult = max(zero_mult, 0)
    rest = 1 - var
    samples = []
    for other in ROOT_SAMPLES:
        scale = math.prod(
            (_value(f, rest, other) ** m for f, m in report.factors[rest]), start=Fraction(1)
        )
        if not scale:
            samples.append(SampleScan(other, True, 0, ()))
            continue
        records = []
        if zero_mult:
            records.append(RootRecord(0.0, match_special_value(0.0, max_k, ROOT_TOLERANCE)))
        if len(monic) > 1:
            factor = lead * scale
            roots = _float_roots([c * factor for c in monic])
            for z in sorted(roots, key=lambda w: (w.real, w.imag)):
                records.append(RootRecord(complex(z), match_special_value(complex(z), max_k, ROOT_TOLERANCE)))
        samples.append(SampleScan(other, False, zero_mult, tuple(records)))
    return GramRootScan(n, report.label, var, False, tuple(samples))


def _float_roots(coeffs: list[Fraction]):
    """``np.roots`` of exact coefficients, lowest first: the one float step.

    Scaling by the power of two that brings the leading coefficient near
    1 keeps huge coefficients in float range, and changes no bit of the
    companion matrix, which ``np.roots`` divides by it.
    """
    lead = abs(coeffs[-1])
    shift = Fraction(2) ** (lead.denominator.bit_length() - lead.numerator.bit_length())
    import numpy as np  # other requests skip the import

    return np.roots([float(c * shift) for c in reversed(coeffs)])
