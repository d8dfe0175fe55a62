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
reference for the text.  Nothing walks B_n only to count it: |B_n| has
the closed form ``oracles.bubble_basis_count``, which ``rank_identity``
compares with the sum of squared dimensions and with
walk_count(2n, 0, 0).  ``_bra_views`` walks the frame of a half diagram
from its cuts, already open, to its views.
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

``enumerate_basis`` builds valid diagrams and skips the validity rule
``diagram.check_matching`` (``Diagram._raw``); ``enumerate_bras``,
``restrict_bra`` and ``stdmod.act_diagram`` do the same for half
diagrams, each through ``HalfDiagram._from_view``, the one constructor
from a view.  A checked ``HalfDiagram`` applies
the rule to its view, n frame points over i + j with red cut k joined to
point n + k and blue cut k to point n + i + k: a cut inside an arc of its
colour, same-colour cuts out of order and an unused frame point all fail
it as an interleave or a count mismatch.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .diagram import (
    BLUE,
    RED,
    Diagram,
    Endpoints,
    check_matching,
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


def _guard(points: int, max_n: int) -> None:
    if points > 2 * max_n:
        raise ResourceLimitError(
            f"{points} boundary points exceed the limit of {2 * max_n}; "
            "raise max_n explicitly to proceed"
        )


def walk_count(n: int, i: int, j: int) -> int:
    """Quadrant walks of length n from the origin to (i, j), axis steps only."""
    if i < 0 or j < 0 or n < 0 or i + j > n or (n - i - j) % 2:
        return 0
    # B_n's size asks for the corner alone, a module dimension for a layer
    return _walk_layer(n, 0 if i == j == 0 else n)[i][j]


@lru_cache(maxsize=None)
def _walk_layer(n: int, top: int) -> list[list[int]]:
    """Counts of the quadrant walks of length n from the origin, as
    ``rows[i][j]`` for the ends (i, j) with i + j <= top.

    The layers are built a step at a time by the recurrence: a walk ends
    at (i, j) after one step from one of its four neighbours.  After m
    steps only the points with i + j <= min(m, top + n - m) are kept, the
    ones that the remaining n - m steps can still bring to a kept end.
    No recursion, so any n the size guard admits is counted.
    """
    rows = [[1]]
    for m in range(1, n + 1):
        hi = min(m, top + n - m)
        # the last layer with a zero border, every row hi + 3 wide, and
        # two zero rows below it so that rows i - 1 and i + 1 always exist
        zero = [0] * (hi + 3)
        pad = [[0, *row] + [0] * (hi + 2 - len(row)) for row in rows]
        pad += [zero] * (hi + 2 - len(pad))
        below = [zero, *pad]
        rows = [
            [
                a + b + c + d
                for a, b, c, d in zip(below[i][1 : hi - i + 2], pad[i + 1][1:], pad[i], pad[i][2:])
            ]
            for i in range(hi + 1)
        ]
    return rows


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


def _check_size(n: int, max_n: int) -> None:
    """Refuse a negative n, and a B_n past the size guard."""
    if n < 0:
        raise ValueError(f"negative size n={n}")
    _guard(2 * n, max_n)


def enumerate_basis(n: int, max_n: int = DEFAULT_MAX_N) -> list[Diagram]:
    """All diagrams of B_n, one per leaf of the whole boundary's walk,
    sorted by their encoding, which within one shape is the order of
    ``diagram.pairs_text``.  Its length is the enumerated |B_n| that
    ``check`` and the tests compare with the closed form."""
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
    dimensions and with the walk total, three independent formulas."""

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


class _HalfDiagramFields(NamedTuple):
    n: int
    arcs: tuple[tuple[int, int, int], ...]
    red_cuts: tuple[int, ...]
    blue_cuts: tuple[int, ...]


class HalfDiagram(_HalfDiagramFields):
    """Coloured half diagram: arcs above a framed edge plus propagating cuts.

    Points 1..n sit on the frame.  Arcs of the same colour never
    interleave, and a cut of some colour never sits strictly inside an
    arc of that colour; cuts of the other colour may.

    It is read, for validation and for gluing, as a diagram from the
    frame to i + j points: red cut k runs to point k and blue cut k to
    point i + k, which is canonical as colours may cross and same-colour
    cuts keep their order.  ``_view(0, n)`` writes that diagram's pairs,
    and ``_from_view`` reads its canonical pairs back; the walk, the
    module action and restriction all build through the latter.
    ``HalfDiagram(...)`` builds the tuple and validates it through
    ``__post_init__``.  No ``__slots__``: the cached endpoint arrays live
    in the instance ``__dict__``.
    """

    def __new__(
        cls,
        n: int,
        arcs: tuple[tuple[int, int, int], ...],
        red_cuts: tuple[int, ...],
        blue_cuts: tuple[int, ...],
    ) -> "HalfDiagram":
        self = tuple.__new__(cls, (n, arcs, red_cuts, blue_cuts))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, fields: Iterable) -> "HalfDiagram":
        # the named tuple's _make and _replace build through here, checked
        return cls(*fields)

    def __post_init__(self) -> None:
        prev = 0
        for p, q, _ in self.arcs:
            if not prev < p < q <= self.n:
                raise ValueError(f"arc ({p},{q}) out of range, unordered or not sorted")
            prev = p
        check_matching(self.n, sum(self.propagating), self._view(0, self.n))

    @classmethod
    def _raw(
        cls,
        n: int,
        arcs: tuple[tuple[int, int, int], ...],
        red_cuts: tuple[int, ...],
        blue_cuts: tuple[int, ...],
    ) -> "HalfDiagram":
        # internal fast path; caller guarantees a valid canonical half diagram
        return tuple.__new__(cls, (n, arcs, red_cuts, blue_cuts))

    @classmethod
    def _from_view(cls, n: int, pairs: Sequence[tuple[int, int, int]]) -> "HalfDiagram":
        """The inverse of ``_view(0, n)``, unchecked like ``_raw``: of the
        canonical ``pairs``, those with q <= n are the arcs and the frame
        ends of the others are the cuts of their colour."""
        arcs = tuple(pair for pair in pairs if pair[1] <= n)
        red, blue = (tuple(p for p, q, c in pairs if q > n and c == col) for col in (RED, BLUE))
        return cls._raw(n, arcs, red, blue)

    @property
    def propagating(self) -> tuple[int, int]:
        return (len(self.red_cuts), len(self.blue_cuts))

    def _view(self, frame: int, cut: int) -> list[tuple[int, int, int]]:
        # frame point p becomes endpoint frame + p, cut slot k endpoint cut + k
        i = len(self.red_cuts)
        pairs = [(frame + p, frame + q, c) for p, q, c in self.arcs]
        pairs += [(frame + t, cut + k, RED) for k, t in enumerate(self.red_cuts, 1)]
        pairs += [(frame + t, cut + i + k, BLUE) for k, t in enumerate(self.blue_cuts, 1)]
        return pairs

    @cached_property
    def endpoints(self) -> Endpoints:
        """Endpoint arrays with the frame north: n over i + j points.

        Cached and shared by every caller, so they are read, never changed.
        """
        return endpoint_arrays(self.n + sum(self.propagating), self._view(0, self.n))

    @cached_property
    def flipped_endpoints(self) -> Endpoints:
        """Endpoint arrays mirrored top to bottom: i + j over n points."""
        cuts = sum(self.propagating)
        return endpoint_arrays(self.n + cuts, self._view(cuts, 0))

    def cuts(self, c: int) -> tuple[int, ...]:
        return self.red_cuts if c == RED else self.blue_cuts

    def encode(self) -> str:
        body = ";".join(map(pair_text, self.arcs))
        reds = ",".join(map(str, self.red_cuts))
        blues = ",".join(map(str, self.blue_cuts))
        return f"H[{self.n}]{{{body}}}{{r:{reds}}}{{b:{blues}}}"

    def __str__(self) -> str:
        return self.encode()


def make_half(n: int, arcs, red_cuts=(), blue_cuts=()) -> HalfDiagram:
    norm = tuple(sorted((min(p, q), max(p, q), c) for p, q, c in arcs))
    return HalfDiagram(n, norm, tuple(sorted(red_cuts)), tuple(sorted(blue_cuts)))


def _bra_views(n: int, i: int, j: int) -> list[tuple[tuple[int, int, int], ...]]:
    """The canonical views of the half diagrams on n points with (i, j)
    propagating cuts, in walk order; the label must carry a module.

    The cuts are open before the walk starts, as the view's strands: red
    n + 1..n + i, then blue n + i + 1..n + i + j, stacked in the circular
    order of the view's south edge, so n + 1 and n + i + 1 are innermost.
    ``_walk_matchings`` then walks the frame points, and each leaf is one
    view.  A cut strand starts under every frame strand of its colour, so
    it closes only where no arc of that colour is open: no cut sits inside
    an arc of its own colour.
    """
    stacks = (list(range(n + i, n, -1)), list(range(n + i + j, n + i, -1)))
    views: list[tuple[tuple[int, int, int], ...]] = []
    _walk_matchings(range(1, n + 1), stacks, lambda slots: views.append(tuple(filter(None, slots))))
    return views


def enumerate_bras(n: int, i: int, j: int, max_n: int = DEFAULT_MAX_N) -> list[HalfDiagram]:
    """All half diagrams on n points with (i, j) propagating cuts, sorted
    by their encoding: ``gram`` prints them in this order."""
    _guard(2 * n, max_n)
    if i < 0 or j < 0 or i + j > n or (n - i - j) % 2:
        return []
    bras = [HalfDiagram._from_view(n, view) for view in _bra_views(n, i, j)]
    return sorted(bras, key=HalfDiagram.encode)


# ---------------------------------------------------------------------------
# restriction to one frame point fewer


def restrict_bra(bra: HalfDiagram) -> tuple[tuple[int, int], HalfDiagram]:
    """Remove the last frame point; returns the neighbour label it lands in.

    Read on one frame point fewer, the view keeps every pair but the cut
    that starts at point n, which leaves with its point; an arc ending at
    n keeps its other end, which the smaller frame reads as a cut of the
    arc's colour.  Both moves are invertible (append a point with a new
    cut, or bend the last cut of that colour onto a new point), so
    restriction is a bijection onto the union of the at most four
    neighbouring half-diagram sets one level down.
    """
    n = bra.n
    if n == 0:
        raise ValueError("empty half diagram has no rightmost point")
    rest = sorted(pair for pair in bra._view(0, n) if pair[0] != n)
    smaller = HalfDiagram._from_view(n - 1, rest)
    return smaller.propagating, smaller


def monochrome_straight_diagrams(n: int) -> list[Diagram]:
    """The all-propagating single-colour-per-strand diagrams, sorted: their
    encodings differ only in colour letters, and "b" sorts before "r"."""
    return [straight_diagram(word) for word in product((BLUE, RED), repeat=n)]
