"""Standard modules: diagram action on half diagrams, bilinear forms,
Gram determinants, restriction, and root location.

The module labelled (i, j) has the half diagrams with that propagating
count as basis.  A half diagram is a diagram from its n frame points
to i + j cut points (see ``HalfDiagram``), so the action and the
form are both calls of the gluing kernel ``diagram.glue``.  A diagram
acts by gluing its southern edge onto the frame, and the glued pairs are
the image, a ``HalfDiagram`` as they stand; a chain
joining two cut points would bend a propagating line back and makes the
image zero, which realises the quotient by lower layers of the
filtration.  ``cyclic_span_report`` finds the orbit of the standard
generator breadth first, acting with the table of B_2 diagrams placed
at an adjacent pair, ``exactpoly.local_generators``, built once per
(n, k), so it lists no B_n.  ``localisation_report`` lists none
either: it acts with the one cap that fits each bra of each W(n; i, j),
and sums the squares of the numbers of distinct images, one term per
label, since the caps' closures of B_n are the pairs of images.

The bilinear form glues one half diagram, flipped top to bottom, onto
the other; it is nonzero only when every chain runs from a cut of one
to a cut of the other.  ``gram_blocks`` glues one form per number of
red frame points, which every colour word with that count shares, its
bras in the form's row order; ``gram_matrix``, the unblocked route of
the cross-check below, glues every ordered pair and so stays
independent of that sharing.  The form is block diagonal
over the boundary colour word, and each block is a tensor product of two
one-colour forms: with k_r red and k_b blue frame points, its
determinant is
D_r(k_r, i)^rows_b * D_b(k_b, j)^rows_r, where D_c(k, d) and rows_c are
the determinant and size of the one-colour form on k points with d
cuts.  Each D_c has a closed form, a product of powers of psi_k, the
factors of the Chebyshev numbers [k] whose zeros are the loop weights
2 cos(pi m / k) (Westbury, Math. Z. 219 (1995); Ridout and Saint-Aubin,
arXiv:1204.4505).  So the Gram determinant is a red part times a blue
part, each stored as a table of psi_k exponents and expanded, one colour
at a time, into the coefficients of a polynomial in that colour's loop
weight: ``psi_coefficients`` packs each psi_k into one integer by
Kronecker substitution and takes the powers and the product on
integers, as ``poly_det`` does, so no ``LaurentPoly`` product is formed.
The two parts are never multiplied out.  They share no variable,
so each coefficient of their product is one red coefficient times one
blue one.  ``is_tensor`` checks each eliminated block against its two
one-colour factors that way, and, up to size 36, the unblocked
determinant against the two parts; ``GramDetReport.det_text`` writes
the determinant's text term by term.  ``scan_gram_roots`` reads the
roots of the scanned colour off its table: each is a primitive cosine
2 cos(pi m / k) of a psi_k in the table, named exactly by (m, k) when
k is at most 2n.  No float root finder runs, so this module needs no
numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache, cached_property
from itertools import product
from typing import Iterator, NamedTuple

from .basis import (
    DEFAULT_MAX_N,
    HalfDiagram,
    _check_size,
    enumerate_bras,
    make_half,
    restrict_bra,
    standard_labels,
    walk_count,
)
from .diagram import (
    BLUE,
    COLOUR_CHARS,
    RED,
    Diagram,
    SizeMismatchError,
    glue,
    make_diagram,
)
from .exactpoly import (
    DR,
    ZERO,
    LaurentPoly,
    Matrix,
    _pack,
    _unpack,
    divexact,
    local_generators,
    poly_det,
)

# ---------------------------------------------------------------------------
# action of diagrams on half diagrams


def act_diagram(d: Diagram, bra: HalfDiagram) -> tuple[int, int, HalfDiagram] | None:
    """Glue d's southern edge onto the frame; None when the result is zero.

    Zero happens when strand colours disagree at a glued point or when a
    chain connects two propagating slots of the frame, which would drop
    the propagating count.
    """
    if d.n_south != bra.n_north:
        raise SizeMismatchError(
            f"diagram with {d.n_south} southern points cannot act on a frame of {bra.n_north}"
        )
    nn = d.n_north
    r = glue(d.endpoints, bra.endpoints, nn, bra.n_north, bra.n_south)
    # a pair with both ends among the slots is a chain that leaves the layer
    if r is None or any(p > nn for p, _, _ in r[2]):
        return None
    return r[0], r[1], HalfDiagram._raw(nn, bra.n_south, tuple(r[2]))


# ---------------------------------------------------------------------------
# bilinear form


def rb_word(bra: HalfDiagram) -> str:
    """Boundary colour word: the colour letter at each frame point."""
    return "".join(COLOUR_CHARS[c] for c in bra.words[0])


def bra_inner(x: HalfDiagram, y: HalfDiagram) -> LaurentPoly:
    """Glue two half diagrams frame to frame; a monomial in the loop ring.

    This is the gluing of x flipped top to bottom onto y.  It is zero
    unless the colour words agree and every chain joins a propagating
    slot of one half to one of the other.
    """
    if x.n_north != y.n_north:
        raise SizeMismatchError("frames have different sizes")
    k = x.n_south
    r = glue(x.flipped_endpoints, y.endpoints, k, x.n_north, y.n_south)
    if r is None or any(not p <= k < q for p, q, _ in r[2]):
        return ZERO
    return LaurentPoly.monomial(r[0], r[1])


def gram_matrix(n: int, i: int, j: int, bras: list[HalfDiagram] | None = None) -> Matrix:
    if bras is None:
        bras = enumerate_bras(n, i, j)
    return tuple(tuple([bra_inner(x, y) for y in bras]) for x in bras)


# ---------------------------------------------------------------------------
# block structure over colour words


class GramRows(tuple):
    """The rows of one red count's form, shared by every block with that
    count, keeping their determinant."""

    @cached_property
    def det(self) -> LaurentPoly:
        return poly_det(self)


class GramBlock(NamedTuple):
    """One colour word's block of the form: the basis indices that carry
    the word, in the row order of its form, and the form on them."""

    word: str
    indices: tuple[int, ...]
    matrix: GramRows

    @property
    def det(self) -> LaurentPoly:
        """The block's determinant, eliminated on first use of its rows."""
        return self.matrix.det


def renumbered_pairs(bra: HalfDiagram) -> tuple[tuple[int, int, int], ...]:
    """bra's sorted pairs, each frame point numbered within its colour; cuts keep their slots."""
    n, word = bra.n_north, bra.words[0]
    rank = [0] + [word[:p].count(word[p - 1]) for p in range(1, n + 1)]
    return tuple(sorted((rank[p], rank[q] if q <= n else q, c) for p, q, c in bra.pairs))


def gram_blocks(
    n: int, i: int, j: int, bras: list[HalfDiagram] | None = None
) -> tuple[list[HalfDiagram], list[GramBlock]]:
    """Split the form by colour word; returns (basis, blocks).

    Off-block entries vanish because the form is zero across different
    colour words, so the blocks carry the whole matrix.  Gluing meets a
    colour only at that colour's frame points, so an entry depends only
    on the two bras' (red half, blue half), which ``renumbered_pairs``
    names, and every word with k red points carries each such pair
    exactly once.  So with each word's bras sorted by that name, all
    words with k red points have one form: it is glued once, over every
    ordered pair of the first such word, and their blocks share its
    ``GramRows``, so each red count's form is eliminated once.
    """
    if bras is None:
        bras = enumerate_bras(n, i, j)
    groups: dict[str, list[int]] = {}
    for k, b in enumerate(bras):
        groups.setdefault(rb_word(b), []).append(k)
    forms: dict[int, GramRows] = {}
    blocks = []
    for word in sorted(groups):
        idx = tuple(sorted(groups[word], key=lambda k: renumbered_pairs(bras[k])))
        k_r = word.count("r")
        if k_r not in forms:
            forms[k_r] = GramRows(tuple([bra_inner(bras[a], bras[b]) for b in idx]) for a in idx)
        blocks.append(GramBlock(word, idx, forms[k_r]))
    return bras, blocks


@cache
def quantum_number(k: int) -> LaurentPoly:
    """[k] in a loop weight d, written as dr: [0] = 0, [1] = 1,
    [k+1] = d[k] - [k-1]."""
    if k < 2:
        return LaurentPoly.const(k)
    return DR * quantum_number(k - 1) - quantum_number(k - 2)


@cache
def psi(k: int) -> LaurentPoly:
    """The factor psi_k of [k] = prod of psi_l over the divisors l > 1 of k.

    Its zeros are the d = 2 cos(pi m / k) with m prime to k, all in
    (-2, 2); psi_1 = 1 and psi_2 = d.  Each division is exact.
    """
    out = quantum_number(k)
    for l in range(2, k):
        if k % l == 0:
            out = divexact(out, psi(l))
    return out


Table = dict[int, int]
Coefficients = dict[int, int]


def psi_width(table: Table) -> int:
    """Bytes per slot that pack prod psi_k^a_k over the table: its
    coefficients are at most the product of the psi_k's coefficient-sum
    norms to the a_k, and a slot of w bytes holds |c| < 2^(8w - 1)."""
    bound = math.prod(sum(map(abs, psi(k).terms.values())) ** a for k, a in table.items())
    return (bound.bit_length() + 8) // 8


def psi_coefficients(table: Table) -> Coefficients:
    """prod psi_k^a_k over the exponent table, as {exponent of d: coefficient}.

    Each psi_k is packed once into an integer by Kronecker substitution,
    d = 256^w with w = ``psi_width(table)``, raised to a_k and multiplied
    on integers, and the product is unpacked once, as in ``poly_det``.
    """
    width = psi_width(table)
    packed = (
        _pack({a: c for (a, _), c in psi(k).terms.items()}, width) ** a for k, a in table.items()
    )
    return _unpack(math.prod(packed), width)


def is_tensor(det: LaurentPoly, red: Coefficients, blue: Coefficients) -> bool:
    """Whether det is red in dr times blue in db, without multiplying out.

    The two share no variable, so no two terms of their product collide:
    it has len(red) * len(blue) terms, and the one at (a, b) is
    red[a] * blue[b].
    """
    terms = det.terms
    return len(terms) == len(red) * len(blue) and all(
        c == red.get(a, 0) * blue.get(b, 0) for (a, b), c in terms.items()
    )


def ballot(points: int, defects: int) -> int:
    """Size of the one-colour form on ``points`` points with ``defects``
    cuts, points - defects even: the ballot number C(n, m) - C(n, m - 1),
    m = (n - d) / 2."""
    m = (points - defects) // 2
    return math.comb(points, m) - (math.comb(points, m - 1) if m else 0)


def one_colour_det(points: int, defects: int) -> tuple[Table, int]:
    """Determinant and size of the one-colour form on `points` points with
    `defects` cuts, as ({k: a_k}, rows) with determinant prod psi_k^a_k.

    The closed form is det = prod_{j=1}^{m} ([p+j+1] / [j])^dim W(n, p+2j)
    with n points, p defects and m = (n - p) / 2, so a_k sums
    dim W(n, p+2j) * (1[k | p+j+1] - 1[k | j]) over j; rows = dim W(n, p).
    Only the nonzero a_k, for k > 1, are kept.
    """
    dims = [
        (j, ballot(points, defects + 2 * j))
        for j in range(1, (points - defects) // 2 + 1)
    ]
    table = {}
    for k in range(2, points + 2):
        a = sum(dim * (((defects + j + 1) % k == 0) - (j % k == 0)) for j, dim in dims)
        if a:
            table[k] = a
    return table, ballot(points, defects)


CROSS_CHECK_MAX_SIZE = 36


class _GramDetReportFields(NamedTuple):
    n: int
    label: tuple[int, int]
    size: int
    factors: tuple[Table, Table]
    blocks: tuple[GramBlock, ...]
    cross_checked: bool


class GramDetReport(_GramDetReportFields):
    """Gram determinant kept factored by colour.

    ``factors[c]`` is colour c's exponent table {k: A_k}: its part of the
    determinant is prod psi_k^A_k in its own loop weight.  ``parts`` are
    the two parts' coefficients and ``det_text`` writes the text of their
    product from them; the product itself is never expanded.
    """

    @cached_property
    def parts(self) -> tuple[Coefficients, Coefficients]:
        """The red and the blue part, each keyed by its own exponent."""
        return psi_coefficients(self.factors[RED]), psi_coefficients(self.factors[BLUE])

    def det_text(self) -> Iterator[str]:
        """The determinant's text, as ``str`` of the expanded product would
        write it, in pieces, one per total degree.

        The parts share no variable, so the term (a, b) of the product is
        red_a * blue_b and no two terms collide.  The total degree s runs
        down, and within it the red exponent a runs down over the red
        exponents present where blue has s - a: graded lex order, largest
        first.  psi_2 = d and every other psi_k is even in d, so each
        part's exponents share one parity: s steps over the sums the parts
        can make, by the gcd of their exponent gaps, and misses none.
        """
        # each part is a product of psi_k, so neither is empty
        red, blue = self.parts
        reds = sorted(red)
        b_lo, b_hi = min(blue), max(blue)
        step = math.gcd(*(a - reds[0] for a in reds), *(b - b_lo for b in blue)) or 1
        texts = {a: f"*dr^{a}*db^" for a in reds}
        sep = ""
        for s in range(reds[-1] + b_hi, reds[0] + b_lo - 1, -step):
            window = reds[bisect_left(reds, s - b_hi) : bisect_right(reds, s - b_lo)]
            terms = [
                f"{red[a] * blue[s - a]}{texts[a]}{s - a}"
                for a in reversed(window)
                if s - a in blue
            ]
            if terms:
                yield sep + " + ".join(terms)
                sep = " + "


def gram_det_report(
    n: int, i: int, j: int, bras: list[HalfDiagram] | None = None
) -> GramDetReport:
    """Gram determinant from the word blocks, factored by colour.

    Every block determinant comes from elimination on the block itself
    and must be the tensor product (``is_tensor``) of R = D_r(k_r, i)^rows_b
    and B = D_b(k_b, j)^rows_r, expanded one colour at a time from the
    closed-form tables; a mismatch raises ArithmeticError.  Up to
    CROSS_CHECK_MAX_SIZE basis elements, where it is cheap, the unblocked
    matrix goes through elimination as well and must be the tensor
    product of the report's two parts.
    """
    bras, blocks = gram_blocks(n, i, j, bras=bras)
    # the words with k_r red points share one form: it is checked once, and
    # its tables count once per word
    words = Counter(blk.word.count("r") for blk in blocks)
    forms = {blk.word.count("r"): blk for blk in blocks}
    factors: tuple[Counter, Counter] = (Counter(), Counter())
    for k_r, blk in forms.items():
        table_r, rows_r = one_colour_det(k_r, i)
        table_b, rows_b = one_colour_det(n - k_r, j)
        # the form's two factors, D_r^rows_b and D_b^rows_r, as tables
        table_r = {k: a * rows_b for k, a in table_r.items()}
        table_b = {k: a * rows_r for k, a in table_b.items()}
        if not is_tensor(blk.det, psi_coefficients(table_r), psi_coefficients(table_b)):
            raise ArithmeticError(
                f"block {blk.word} of G_{n}({i},{j}) is not the tensor product of one-colour forms"
            )
        factors[RED].update({k: a * words[k_r] for k, a in table_r.items()})
        factors[BLUE].update({k: a * words[k_r] for k, a in table_b.items()})
    size = len(bras)
    report = GramDetReport(n, (i, j), size, factors, tuple(blocks), size <= CROSS_CHECK_MAX_SIZE)
    if report.cross_checked and not is_tensor(poly_det(gram_matrix(n, i, j, bras=bras)), *report.parts):
        raise ArithmeticError(
            f"block determinant product disagrees with direct elimination at n={n}, label=({i},{j})"
        )
    return report


# ---------------------------------------------------------------------------
# restriction to one point fewer


class RestrictionReport(NamedTuple):
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


class SpanReport(NamedTuple):
    n: int
    label: tuple[int, int] | None
    rank: int
    expected: int

    @property
    def holds(self) -> bool:
        return self.rank == self.expected


def cyclic_span_report(n: int, i: int, j: int) -> SpanReport:
    """Dimension of the orbit of the standard generator under B_n, found
    by breadth-first search from the generator.

    Each step acts on a reached bra with the six generators at each
    adjacent pair, ``local_generators``, whose southern word is the bra's;
    a straight B_2 diagram there would act as the identity or zero.  The
    products of such steps are diagrams of B_n, so no claim that they
    generate B_n is needed: the orbit found lies in B_n·gen, inside the
    module.  Each diagram sends a bra to zero or to a monomial times one
    half diagram, and monomials are units of the loop ring, so the orbit
    spans exactly the half diagrams it reaches.
    """
    # the generators by the southern word they act on
    steps: dict[tuple[int, ...], list[Diagram]] = {}
    for k in range(1, n):
        for d in local_generators(n, k):
            steps.setdefault(d.words[1], []).append(d)
    gen = cyclic_generator_bra(n, i, j)
    reached, frontier = {gen}, [gen]
    while frontier:
        found = []
        for bra in frontier:
            for d in steps.get(bra.words[0], ()):
                r = act_diagram(d, bra)
                if r and r[2] not in reached:
                    reached.add(r[2])
                    found.append(r[2])
        frontier = found
    return SpanReport(n, (i, j), len(reached), walk_count(n, i, j))


def localisation_report(n: int) -> SpanReport:
    """Rank of the corner algebra cut out by one all-colours cup-cap.

    The cup-cap e at points 1, 2 is U·V, with U the cups (n over n - 2)
    and V the caps (n - 2 over n), each summed over all colourings.  For
    d in B_n, V·d·U is zero or a monomial times one closure x, d with
    points 1, 2 capped north and south, and the U·x·V of distinct x share
    no diagram, so the rank of e·B_n·e is the number of distinct
    closures, which should be the size of the basis two sizes down.  They are counted on the cell modules, so no diagram
    of B_n is listed or walked.  Write d = C(x, y), glued from bras x and
    y of one label.  One cap fits x's frame word, or none does and V·d is
    zero; by the mirror, the cups act on y as the caps do.  V·C(x, y)·U is
    a monomial times C(V·x, V·y) when both images are bras, so those
    closures are the pairs of images, and their number is the sum over
    labels of the squared count of distinct images.  It reaches
    |B_{n-2}|, the number of all such pairs two sizes down, exactly when
    the caps send each W(n; i, j) onto W(n - 2; i, j), and then the
    closures are all of B_{n-2}.
    """
    if n < 2:
        raise ValueError("needs at least two strands")
    _check_size(n, DEFAULT_MAX_N)
    # each cap by the southern word it fits
    caps = {}
    for c, *word in product((RED, BLUE), repeat=n - 1):
        pairs = [(n - 1, n, c)] + [(k, n + k, w) for k, w in enumerate(word, 1)]
        cap = make_diagram(n - 2, n, pairs)
        caps[cap.words[1]] = cap
    rank = 0
    for i, j in standard_labels(n):
        images = set()
        for bra in enumerate_bras(n, i, j):
            cap = caps.get(bra.words[0])
            r = cap and act_diagram(cap, bra)
            if r:
                images.add(r[2])
        rank += len(images) ** 2
    return SpanReport(n, None, rank, walk_count(2 * n - 4, 0, 0))


# ---------------------------------------------------------------------------
# root location for Gram determinants


class GramRootScan(NamedTuple):
    """Roots of one colour's part, each as (value, (m, k)) with value
    2 cos(pi m / k), or (value, None) when k exceeds 2n; the root 0 comes
    first, when the part has it, with multiplicity
    ``zero_root_multiplicity``.  The same roots hold at every sample of
    the other colour."""

    n: int
    label: tuple[int, int]
    var: int
    roots: tuple[tuple[float, tuple[int, int] | None], ...]
    zero_root_multiplicity: int

    @property
    def all_matched(self) -> bool:
        return all(matched is not None for _, matched in self.roots)


# the other loop weight is pinned to each sample in turn.  The samples
# must exceed 2: every zero of a psi_k lies in (-2, 2), so the other
# colour's part never vanishes at a sample and moves no root.  They are
# only printed, so they are kept as the text of the exact fractions
ROOT_SAMPLES = ("7/3", "5/2")


def scan_gram_roots(report: GramDetReport, var: int = RED) -> GramRootScan:
    """Locate the roots of a reported Gram determinant in one loop parameter.

    The part in ``var`` is prod psi_k^A_k from its exponent table, so its
    roots are read off the table without expanding anything: the root 0
    has multiplicity A_2, as psi_2 = d, and each k >= 3 in the table adds
    the zeros of psi_k, the 2 cos(pi m / k) with m prime to k, listed
    once each in ascending order.  Each root is named by its exact (m, k)
    when k is at most 2n.
    """
    max_k = 2 * report.n
    table = report.factors[var]
    zero_mult = table.get(2, 0)
    # the root 0 is 2 cos(pi / 2), written exactly as 0.0
    roots = [(0.0, (1, 2))] if zero_mult else []
    roots += sorted(
        (2 * math.cos(math.pi * m / k), (m, k))
        for k in table
        if k >= 3
        for m in range(1, k)
        if math.gcd(m, k) == 1
    )
    roots = tuple((z, mk if mk[1] <= max_k else None) for z, mk in roots)
    return GramRootScan(report.n, report.label, var, roots, zero_mult)
