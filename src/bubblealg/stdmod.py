"""Standard modules: diagram action on half diagrams, bilinear forms,
Gram determinants, restriction, and root location.

The module labelled (i, j) has the half diagrams with that propagating
count as basis.  A half diagram is read as a diagram from its n frame
points to i + j cut points (see ``HalfDiagram``), so the action and the
form are both calls of the gluing kernel ``diagram.glue``.  A diagram
acts by gluing its southern edge onto the frame, and the glued pairs are
the image's view, read back by ``HalfDiagram._from_view``; a chain
joining two cut points would bend a propagating line back and makes the
image zero, which realises the quotient by lower layers of the
filtration.

The bilinear form glues one half diagram, flipped top to bottom, onto
the other; it is nonzero only when every chain runs from a cut of one
to a cut of the other.  It is block diagonal over the boundary colour
word, and each block is a tensor product of two one-colour forms: with
k_r red and k_b blue frame points, its determinant is
D_r(k_r, i)^rows_b * D_b(k_b, j)^rows_r, where D_c(k, d) and rows_c are
the determinant and size of the one-colour form on k points with d
cuts.  Each D_c has a closed form, a product of powers of psi_k, the
factors of the Chebyshev numbers [k] whose zeros are the loop weights
2 cos(pi m / k) (Westbury, Math. Z. 219 (1995); Ridout and Saint-Aubin,
arXiv:1204.4505).  So the Gram determinant is a red part times a blue
part, each stored as a table of psi_k exponents, and the two are
multiplied out only where a check needs the product.  The factors share
no variable, so each coefficient of a product of a red and a blue factor
is one red coefficient times one blue one.  ``gram_det_report``
eliminates every distinct block and compares it with its two expanded
one-colour factors that way, and ``GramDetReport.det_text`` writes the
determinant's text term by term from the two parts.
``scan_gram_roots`` reads the roots of the scanned colour off its table
without expanding either part: each is a primitive cosine 2 cos(pi m / k)
of a psi_k in the table, printed as that float, and whether every k is
at most 2n is decided exactly.  No float root finder runs, so this
module needs no numpy.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Iterator

from .basis import (
    HalfDiagram,
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
from .exactpoly import (
    DB,
    DR,
    ONE,
    PRIME,
    ZERO,
    LaurentPoly,
    PolyMatrix,
    divexact,
    eval_mod,
    poly_det,
    rank_mod,
)
from .oracles import tl_gram_exponents, tl_halfdiagram_count

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
    return r[0], r[1], HalfDiagram._from_view(nn, r[2])


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
    repeat."""
    return poly_det(m)


@cache
def quantum_number(k: int, colour: int) -> LaurentPoly:
    """[k] in colour's loop weight d: [0] = 0, [1] = 1, [k+1] = d[k] - [k-1]."""
    if k < 2:
        return LaurentPoly.const(k)
    d = DR if colour == RED else DB
    return d * quantum_number(k - 1, colour) - quantum_number(k - 2, colour)


@cache
def psi(k: int, colour: int) -> LaurentPoly:
    """The factor psi_k of [k] = prod of psi_l over the divisors l > 1 of k.

    Its zeros are the d = 2 cos(pi m / k) with m prime to k, all in
    (-2, 2); psi_1 = 1 and psi_2 = d.  Each division is exact.
    """
    out = quantum_number(k, colour)
    for l in range(2, k):
        if k % l == 0:
            out = divexact(out, psi(l, colour))
    return out


Table = dict[int, int]


def psi_product(table: Table, colour: int) -> LaurentPoly:
    """prod psi_k^a_k over the exponent table, in colour's loop weight."""
    return math.prod((psi(k, colour) ** a for k, a in table.items()), start=ONE)


def one_colour_det(points: int, defects: int) -> tuple[Table, int]:
    """Determinant and size of the one-colour form on `points` points with
    `defects` cuts, as ({k: a_k}, rows) with determinant prod psi_k^a_k.

    The closed form is det = prod_{j=1}^{m} ([p+j+1] / [j])^dim W(n, p+2j)
    with n points, p defects and m = (n - p) / 2, so a_k sums
    dim W(n, p+2j) * (1[k | p+j+1] - 1[k | j]) over j; rows = dim W(n, p).
    Only the nonzero a_k, for k > 1, are kept.
    """
    dims = [
        (j, tl_halfdiagram_count(points, defects + 2 * j))
        for j in range(1, (points - defects) // 2 + 1)
    ]
    table = {}
    for k in range(2, points + 2):
        a = sum(dim * (((defects + j + 1) % k == 0) - (j % k == 0)) for j, dim in dims)
        if a:
            table[k] = a
    return table, tl_halfdiagram_count(points, defects)


def _coefficients(p: LaurentPoly, colour: int) -> dict[int, int]:
    """p's coefficients keyed by the exponent of colour's loop weight; p
    must be in that weight only."""
    return {exp[colour]: c for exp, c in p.terms.items()}


CROSS_CHECK_MAX_SIZE = 36


@dataclass(frozen=True)
class GramDetReport:
    """Gram determinant kept factored by colour.

    ``factors[c]`` is colour c's exponent table {k: A_k}: its part of the
    determinant is prod psi_k^A_k in its own loop weight.  ``det_text``
    writes the text of their product from the two parts; ``det`` is the
    product expanded, built only when something asks for it.
    """

    n: int
    label: tuple[int, int]
    size: int
    factors: tuple[Table, Table]
    blocks: tuple[GramBlock, ...]
    cross_checked: bool

    @cached_property
    def parts(self) -> tuple[LaurentPoly, LaurentPoly]:
        """The red and the blue part, each in its own loop weight only."""
        return psi_product(self.factors[RED], RED), psi_product(self.factors[BLUE], BLUE)

    @cached_property
    def det(self) -> LaurentPoly:
        red, blue = self.parts
        return red * blue

    def det_text(self) -> Iterator[str]:
        """``str(self.det)`` in pieces, one per total degree, without
        expanding ``det``.

        The parts share no variable, so the term (a, b) of the product is
        red_a * blue_b and no two terms collide.  The total degree s runs
        down, and within it the red exponent a runs down over the window
        where both parts can have a term: graded lex order, largest first.
        """
        # each part is a product of psi_k, so neither is zero
        red, blue = _coefficients(self.parts[RED], RED), _coefficients(self.parts[BLUE], BLUE)
        a_lo, a_hi, b_lo, b_hi = min(red), max(red), min(blue), max(blue)
        sep = ""
        for s in range(a_hi + b_hi, a_lo + b_lo - 1, -1):
            terms = [
                f"{red[a] * blue[s - a]}*dr^{a}*db^{s - a}"
                for a in range(min(a_hi, s - b_lo), max(a_lo, s - b_hi) - 1, -1)
                if a in red and s - a in blue
            ]
            if terms:
                yield sep + " + ".join(terms)
                sep = " + "


def gram_det_report(
    n: int, i: int, j: int, bras: list[HalfDiagram] | None = None
) -> GramDetReport:
    """Gram determinant from the word blocks, factored by colour.

    Every block determinant comes from elimination on the block itself
    and must equal R * B, with R = D_r(k_r, i)^rows_b and
    B = D_b(k_b, j)^rows_r expanded from the closed-form one-colour
    tables; a mismatch raises ArithmeticError.  R and B share no
    variable, so the block determinant equals R * B exactly when it has
    len(R) * len(B) terms and each coefficient at (a, b) is R_a * B_b:
    the product is never expanded.  Up to CROSS_CHECK_MAX_SIZE basis
    elements, where it is cheap, the unblocked matrix goes through
    fraction-free elimination as well and must give the expanded product
    of the factors exactly.
    """
    bras, blocks = gram_blocks(n, i, j, bras=bras)
    factors: tuple[Counter, Counter] = (Counter(), Counter())
    tensor: dict[tuple[int, int], tuple[dict[int, int], dict[int, int]]] = {}
    for blk in blocks:
        k_r = blk.word.count("r")
        k_b = len(blk.word) - k_r
        table_r, rows_r = one_colour_det(k_r, i)
        table_b, rows_b = one_colour_det(k_b, j)
        if (k_r, k_b) not in tensor:
            det_r, det_b = psi_product(table_r, RED), psi_product(table_b, BLUE)
            tensor[k_r, k_b] = _coefficients(det_r**rows_b, RED), _coefficients(det_b**rows_r, BLUE)
        red, blue = tensor[k_r, k_b]
        terms = blk.det.terms
        if len(terms) != len(red) * len(blue) or any(
            c != red.get(a, 0) * blue.get(b, 0) for (a, b), c in terms.items()
        ):
            raise ArithmeticError(
                f"block {blk.word} of G_{n}({i},{j}) is not the tensor product of one-colour forms"
            )
        factors[RED].update({k: a * rows_b for k, a in table_r.items()})
        factors[BLUE].update({k: a * rows_r for k, a in table_b.items()})
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
    return SpanReport(n, None, ranks.pop(), walk_count(2 * n - 4, 0, 0))


# ---------------------------------------------------------------------------
# root location for Gram determinants


def match_special_value(z: complex, max_k: int, tol: float) -> tuple[int, int] | None:
    """Smallest k with |z - 2 cos(pi m / k)| inside tolerance, as (m, k)."""
    for k in range(1, max_k + 1):
        for m in range(k + 1):
            if abs(z - 2.0 * math.cos(math.pi * m / k)) <= tol:
                return (m, k)
    return None


@dataclass(frozen=True)
class RootRecord:
    value: float
    matched: tuple[int, int] | None


@dataclass(frozen=True)
class SampleScan:
    other_value: Fraction
    zero_root_multiplicity: int
    roots: tuple[RootRecord, ...]


@dataclass(frozen=True)
class GramRootScan:
    """Roots of one colour's part at each sample of the other colour;
    ``all_matched`` is exact: no k with A_k > 0 in the scanned table
    exceeds 2n.  The float ``matched`` of a root only names its value."""

    n: int
    label: tuple[int, int]
    var: int
    samples: tuple[SampleScan, ...]
    all_matched: bool


# the other loop weight is pinned to each sample in turn; each root is
# printed with the first 2 cos(pi m / k), k <= 2n, within ROOT_TOLERANCE
# of it, or with none.  The samples must exceed 2: every zero of a psi_k
# lies in (-2, 2), so the other colour's part never vanishes at a sample
# and moves no root
ROOT_SAMPLES = (Fraction(7, 3), Fraction(5, 2))
ROOT_TOLERANCE = 1e-8


def scan_gram_roots(report: GramDetReport, var: int = RED) -> GramRootScan:
    """Locate the roots of a reported Gram determinant in one loop parameter.

    The part in ``var`` is prod psi_k^A_k from its exponent table, so its
    roots are read off the table without expanding anything: the root 0
    has multiplicity A_2, as psi_2 = d, and each k >= 3 in the table adds
    the zeros of psi_k, the 2 cos(pi m / k) with m prime to k, printed
    once each in ascending order.  The other parameter is pinned to each
    exact sample in turn, where the other colour's part is a nonzero
    number, so every sample lists the same roots.  Every root is twice a
    cosine of a rational angle with denominator at most 2n exactly when
    the table has no k > 2n; each root is also matched in floats to the
    first such value within tolerance, for the record.
    """
    n = report.n
    max_k = 2 * n
    table = report.factors[var]
    zero_mult = table.get(2, 0)
    roots = [0.0] if zero_mult else []
    roots += sorted(
        2 * math.cos(math.pi * m / k)
        for k in table
        if k >= 3
        for m in range(1, k)
        if math.gcd(m, k) == 1
    )
    records = tuple(RootRecord(z, match_special_value(z, max_k, ROOT_TOLERANCE)) for z in roots)
    samples = tuple(SampleScan(other, zero_mult, records) for other in ROOT_SAMPLES)
    all_matched = all(k <= max_k for k, a in table.items() if a > 0)
    return GramRootScan(n, report.label, var, samples, all_matched)
