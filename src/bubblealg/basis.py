"""Basis enumeration, dimension counts, and half-diagram combinatorics.

Diagram bases are produced by an event recursion over the circular
boundary order: at each boundary point a strand either opens or closes
the innermost open strand of its colour.  A feasibility bound on the
remaining positions makes the recursion free of dead ends.

That recursion is one walker, ``_walk_matchings``, for full diagrams
and half diagrams alike: it walks a run of boundary points
from given open strands and hands each way to match them to a leaf
callback, already in canonical pair order.  The B_n front ends take one
size n.  ``enumerate_basis`` walks the whole boundary from no open
strand, builds and sorts the diagrams and is the tests' independent
reference for the text.  |B_n| has the closed form
``oracles.bubble_basis_count``, which ``rank_identity`` compares with the
sum of squared dimensions and with walk_count(2n, 0, 0);
``check``'s ``basis_counts`` counts the leaves of the whole boundary's
walk, builds no diagram, and compares the count with the closed form.
``_bra_views`` walks the frame of a half diagram from its cuts, already
open, to its pairs.
``basis_encodings``, which ``basis --diagrams`` and the cache use, reads
a diagram as a north and a south view of one label, joined cut to cut,
which is why |B_n| = sum dim(n, i, j)^2: each north view becomes a
``diagram.north_template`` with a hole per cut, each south view fills
the holes and gives a ``diagram.south_tail``, and the strings are
sorted, since canonical order is string order of the encoding.  No
front end builds a diagram it would only encode.

Dimensions follow a two-dimensional lattice walk: the number of half
diagrams on n points with (i, j) propagating lines of the two colours
equals the number of n-step walks from the origin to (i, j) using unit
steps in the four axis directions while staying in the closed positive
quadrant.  The full diagram basis has size walk_count(2n, 0, 0).
``walk_count`` takes that number from its product formula of factorials,
so no count here walks a lattice, recurses or keeps a cache, and any n
the size guard admits costs a few big-integer products.

``enumerate_basis`` builds valid diagrams and skips the validity rule
through ``Diagram._raw``; ``enumerate_bras``, ``restrict_bra`` and
``stdmod.act_diagram`` do the same for half diagrams, which are diagrams
too: ``HalfDiagram`` is the diagram from n frame points to i + j cut
points, red cut k at point n + k and blue cut k at point n + i + k, so a
checked one meets the diagram rule and one rule of its own, that every
cut starts on the frame in a slot of its colour.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .diagram import (
    BLUE,
    RED,
    Diagram,
    Endpoints,
    circular_positions,
    endpoint_arrays,
    north_template,
    pair_text,
    pairs_text,
    south_tail,
    straight_diagram,
)

DEFAULT_MAX_N = 8


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the configured size guard."""


def _check_size(n: int, max_n: int) -> None:
    """Refuse a negative n, and a B_n past the size guard."""
    if n < 0:
        raise ValueError(f"negative size n={n}")
    if n > max_n:
        raise ResourceLimitError(
            f"{2 * n} boundary points exceed the limit of {2 * max_n}; "
            "raise max_n explicitly to proceed"
        )


def walk_count(n: int, i: int, j: int) -> int:
    """Quadrant walks of length n from the origin to (i, j), axis steps only.

    With a = (n - i - j) / 2 steps that cancel, the count is the product
    (i + 1)(j + 1) n! (n + 2)! / (a! (a + i + 1)! (a + j + 1)! (a + i + j + 2)!)
    of Guy, Krattenthaler and Sagan, Ars Combin. 34 (1992).
    """
    if i < 0 or j < 0 or n < 0 or i + j > n or (n - i - j) % 2:
        return 0
    a = (n - i - j) // 2
    num = (i + 1) * (j + 1) * factorial(n) * factorial(n + 2)
    den = factorial(a) * factorial(a + i + 1) * factorial(a + j + 1) * factorial(a + i + j + 2)
    return num // den


def standard_labels(n: int) -> list[tuple[int, int]]:
    """Propagating-count labels with non-zero dimension, top of the
    filtration first."""
    out = []
    for total in range(n, -1, -1):
        if (n - total) % 2:
            continue
        for i in range(total, -1, -1):
            out.append((i, total - i))
    return out


# ---------------------------------------------------------------------------
# full diagram enumeration


def _walk_matchings(
    run: Sequence[int],
    stacks: tuple[list[int], list[int]],
    leaf: Callable[[list], object],
) -> None:
    """Walk the boundary points ``run`` in circular order, from the open
    strands in ``stacks``, and call ``leaf(slots)`` at the end of every way
    to match them.

    ``stacks[c]`` holds the open points of colour c, innermost last, and
    the walk restores it before it returns.  No point opens a strand that
    the rest of the run could not close, so from no more open strands
    than ``run`` has points every leaf closes every strand: with ``run``
    the whole boundary and empty stacks, the leaves are the diagrams.
    ``slots[p]`` is the pair ``(p, q, c)`` whose smaller endpoint is p
    and None at every other index, so the pairs in index order are in
    canonical order.  ``slots`` is reused between calls; a leaf copies
    what it keeps.
    """
    end = len(run)
    slots: list[tuple[int, int, int] | None] = [None] * (max(run, default=0) + 1)

    def rec(idx: int) -> None:
        if idx == end:
            leaf(slots)
            return
        pid = run[idx]
        rem = end - idx - 1
        n_open = len(stacks[RED]) + len(stacks[BLUE])
        for c in (RED, BLUE):
            if stacks[c]:
                # closing keeps rem - (n_open - 1) parity automatically; a
                # southern pair opens at its larger endpoint
                top = stacks[c].pop()
                p, q = (top, pid) if top < pid else (pid, top)
                slots[p] = (p, q, c)
                rec(idx + 1)
                slots[p] = None
                stacks[c].append(top)
            if rem >= n_open + 1:
                stacks[c].append(pid)
                rec(idx + 1)
                stacks[c].pop()

    rec(0)


def enumerate_basis(n: int, max_n: int = DEFAULT_MAX_N) -> list[Diagram]:
    """All diagrams of B_n, one per leaf of the whole boundary's walk,
    sorted by their encoding, which within one shape is the order of
    ``diagram.pairs_text``.  Its length is the enumerated |B_n| that the
    tests compare with the closed form."""
    _check_size(n, max_n)
    results: list[Diagram] = []
    _walk_matchings(
        circular_positions(n, n),
        ([], []),
        lambda slots: results.append(Diagram._raw(n, n, tuple(filter(None, slots)))),
    )
    results.sort(key=lambda d: pairs_text(d.pairs))
    return results


def basis_encodings(n: int, max_n: int = DEFAULT_MAX_N) -> list[str]:
    """Canonical encodings of every diagram of B_n, sorted:
    ``[d.encode() for d in enumerate_basis(n)]`` without the diagrams.

    A diagram is a north bra and a south bra of one label (r, b), joined
    cut to cut: through line s is red cut s, then blue cut s - r, each
    colour counted from the left, and in a bra's view it is the pair
    (p, n + s, c).  For each label, every view becomes a
    ``diagram.north_template`` with a hole (p, s, c) per cut, and every
    view, its frame point p at point n + p, fills the holes with its cut
    points and gives the ``diagram.south_tail`` of its arcs."""
    _check_size(n, max_n)
    results: list[str] = []
    for r, b in standard_labels(n):
        views = _bra_views(n, r, b)
        templates = []
        for view in views:
            pieces = [None if q > n else (p, q, c) for p, q, c in view]
            holes = tuple((p, q - n, c) for p, q, c in view if q > n)
            templates.append((north_template(n, n, pieces), holes))
        # the texts of one south view: each distinct hole's, then the tail
        holes = sorted({hole for _, template_holes in templates for hole in template_holes})
        index = {hole: k for k, hole in enumerate(holes)}
        fills = []
        for view in views:
            ends = {q - n: n + p for p, q, _ in view if q > n}
            tail = south_tail(n, [(n + p, n + q, c) for p, q, c in view if q <= n])
            fills.append([pair_text((p, ends[s], c)) for p, s, c in holes] + [tail])
        for pattern, template_holes in templates:
            # with no hole it takes the tail alone, a string, which % accepts
            take = itemgetter(*[index[hole] for hole in template_holes], len(holes))
            results += [pattern % take(texts) for texts in fills]
    results.sort()
    return results


class RankIdentity(NamedTuple):
    """Comparison of the basis size with the sum of squared module
    dimensions and with the walk total, three different formulas."""

    n: int
    basis_size: int
    dim_square_sum: int
    walk_total: int

    @property
    def holds(self) -> bool:
        return self.basis_size == self.dim_square_sum == self.walk_total


def rank_identity(n: int, max_n: int = DEFAULT_MAX_N) -> RankIdentity:
    """|B_n| = sum dim(n, i, j)^2 = walk_count(2n, 0, 0), with |B_n| from
    the closed form: no diagram is walked, but B_n's size guard holds.
    The oracle module loads here, so basis and gram requests never load it."""
    from .oracles import bubble_basis_count

    _check_size(n, max_n)
    basis_size = bubble_basis_count(n)
    squares = sum(walk_count(n, i, j) ** 2 for i, j in standard_labels(n))
    return RankIdentity(n, basis_size, squares, walk_count(2 * n, 0, 0))


# ---------------------------------------------------------------------------
# half diagrams


class HalfDiagram(Diagram):
    """Coloured half diagram: the diagram from its n frame points to its
    i + j cut points that gluing and validation read it as.

    Frame points 1..n are north; red cut k is point n + k and blue cut k
    point n + i + k, which is canonical, as colours may cross and
    same-colour cuts keep their frame order.  ``n``, ``arcs``,
    ``red_cuts`` and ``blue_cuts`` read the frame's side of it back.
    ``HalfDiagram(n, i + j, pairs)`` validates through ``__post_init__``:
    the diagram rule, then every pair that reaches a cut starts on the
    frame, red exactly when its slot is among the first i.  A cut inside
    an arc of its colour or an unused frame point fails the diagram rule.
    """

    def __post_init__(self) -> None:
        Diagram.__post_init__(self)
        n = self.n_north
        cuts = [pair for pair in self.pairs if pair[1] > n]
        i = sum(c == RED for _, _, c in cuts)
        for p, q, c in cuts:
            if p > n:
                raise ValueError(f"pair ({p},{q}) joins two cuts")
            if (c == RED) != (q - n <= i):
                raise ValueError(f"cut ({p},{q}) sits in a slot of the other colour")

    @property
    def n(self) -> int:
        return self.n_north

    @property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(pair for pair in self.pairs if pair[1] <= self.n_north)

    @property
    def red_cuts(self) -> tuple[int, ...]:
        return tuple(p for p, q, c in self.pairs if q > self.n_north and c == RED)

    @property
    def blue_cuts(self) -> tuple[int, ...]:
        return tuple(p for p, q, c in self.pairs if q > self.n_north and c == BLUE)

    @cached_property
    def flipped_endpoints(self) -> Endpoints:
        """Endpoint arrays mirrored top to bottom: i + j over n points."""
        n, cuts = self.n_north, self.n_south
        return endpoint_arrays(
            n + cuts, ((p + cuts, q + cuts if q <= n else q - n, c) for p, q, c in self.pairs)
        )

    @cached_property
    def _text(self) -> str:
        body = ";".join(map(pair_text, self.arcs))
        reds = ",".join(map(str, self.red_cuts))
        blues = ",".join(map(str, self.blue_cuts))
        return f"H[{self.n}]{{{body}}}{{r:{reds}}}{{b:{blues}}}"

    def encode(self) -> str:
        """The text ``H[n]{arcs}{r:cuts}{b:cuts}``, written once and kept:
        ``enumerate_bras`` sorts by it and ``gram`` prints it."""
        return self._text

    @classmethod
    def decode(cls, text: str) -> "HalfDiagram":
        """Refused: half diagrams are written as ``H[...]`` but never read back."""
        raise TypeError(f"half diagrams are written as H[...] but never read back: {text!r}")


def _slotted(
    n: int, arcs: Iterable[tuple[int, int, int]], red_cuts: Sequence[int], blue_cuts: Sequence[int]
) -> tuple[tuple[int, int, int], ...]:
    """The sorted pairs of the half diagram on n frame points with these
    arcs and cuts, each colour's cuts listed by frame point: red cut k
    joins point n + k, blue cut k point n + len(red_cuts) + k."""
    i = len(red_cuts)
    pairs = [*arcs]
    pairs += [(t, n + k, RED) for k, t in enumerate(red_cuts, 1)]
    pairs += [(t, n + i + k, BLUE) for k, t in enumerate(blue_cuts, 1)]
    return tuple(sorted(pairs))


def make_half(n: int, arcs, red_cuts=(), blue_cuts=()) -> HalfDiagram:
    """Validating constructor from the frame's side; normalises the ends
    and order of the arcs and the order of the cuts."""
    norm = [(min(p, q), max(p, q), c) for p, q, c in arcs]
    red, blue = sorted(red_cuts), sorted(blue_cuts)
    return HalfDiagram(n, len(red) + len(blue), _slotted(n, norm, red, blue))


def _bra_views(n: int, i: int, j: int) -> list[tuple[tuple[int, int, int], ...]]:
    """The canonical pairs of the half diagrams on n points with (i, j)
    propagating cuts, in walk order; the label must carry a module.

    The cuts are open before the walk starts, as strands: red
    n + 1..n + i, then blue n + i + 1..n + i + j, stacked in the circular
    order of the south edge, so n + 1 and n + i + 1 are innermost.
    ``_walk_matchings`` then walks the frame points, and each leaf is one
    half diagram.  A cut strand starts under every frame strand of its
    colour, so it closes only where no arc of that colour is open: no cut
    sits inside an arc of its own colour.
    """
    stacks = (list(range(n + i, n, -1)), list(range(n + i + j, n + i, -1)))
    views: list[tuple[tuple[int, int, int], ...]] = []
    _walk_matchings(range(1, n + 1), stacks, lambda slots: views.append(tuple(filter(None, slots))))
    return views


def enumerate_bras(n: int, i: int, j: int, max_n: int = DEFAULT_MAX_N) -> list[HalfDiagram]:
    """All half diagrams on n points with (i, j) propagating cuts, sorted
    by their encoding: ``gram`` prints them in this order."""
    _check_size(n, max_n)
    if i < 0 or j < 0 or i + j > n or (n - i - j) % 2:
        return []
    bras = [HalfDiagram._raw(n, i + j, view) for view in _bra_views(n, i, j)]
    return sorted(bras, key=HalfDiagram.encode)


# ---------------------------------------------------------------------------
# restriction to one frame point fewer


def restrict_bra(bra: HalfDiagram) -> tuple[tuple[int, int], HalfDiagram]:
    """Remove the last frame point; returns the neighbour label it lands in.

    On one frame point fewer the half diagram keeps every arc and cut but
    the cut that starts at point n, which leaves with its point; an arc
    ending at n keeps its other end, which the smaller frame reads as a
    cut of the arc's colour, and ``_slotted`` numbers the cuts afresh.
    Both moves are invertible (append a point with a new cut, or bend the
    last cut of that colour onto a new point), so restriction is a
    bijection onto the union of the at most four neighbouring
    half-diagram sets one level down.
    """
    n = bra.n_north
    if n == 0:
        raise ValueError("empty half diagram has no rightmost point")
    arcs: list[tuple[int, int, int]] = []
    cuts: tuple[list[int], list[int]] = ([], [])
    for p, q, c in bra.pairs:
        if q < n:
            arcs.append((p, q, c))
        elif p != n:
            cuts[c].append(p)
    label = (len(cuts[RED]), len(cuts[BLUE]))
    return label, HalfDiagram._raw(n - 1, sum(label), _slotted(n - 1, arcs, *cuts))


def monochrome_straight_diagrams(n: int) -> list[Diagram]:
    """The all-propagating single-colour-per-strand diagrams, sorted: their
    encodings differ only in colour letters, and "b" sorts before "r"."""
    return [straight_diagram(word) for word in product((BLUE, RED), repeat=n)]
