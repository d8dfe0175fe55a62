"""Two-colour diagrams: canonical matchings, their text and composition.

A diagram is a perfect pair matching of the boundary points of a
rectangle, every pair carrying a colour tag.  Matchings are taken up to
sheet-wise deformation, whose normal form is exactly the data stored
here: pairs of the same colour never interleave in the circular boundary
order, while pairs of different colours may cross freely.  Endpoints are
numbered 1..n_north left to right along the northern edge and
n_north+1..n_north+n_south left to right along the southern edge; the
circular order runs clockwise from the top left corner, i.e. north left
to right followed by south right to left.

Composition stacks the left factor on top of the right one, gluing the
southern edge of the upper diagram to the northern edge of the lower.
The product is zero unless strand colours agree at every glued point;
closed loops created by the gluing are removed and counted per colour,
each contributing one loop-parameter factor at the algebra level.
``glue`` is the one routine that follows strands across a glued edge,
working on endpoint arrays; ``products``, the action on standard modules
and their bilinear form (see ``stdmod``) are thin adapters over it.
This module knows no ring: ``products`` returns plain loop counts, and
the weighing of loops in the coefficient ring, with the algebra's
elements, lives in ``exactpoly``.  It imports nothing from the package.

The textual encoding of a diagram is
``D[n_north,n_south]{(p,q,c);...}`` with ``p < q``, pairs sorted by
smaller endpoint, numbers in decimal without leading zeros and ``c`` one
of ``r``/``b``.  Canonical enumeration order everywhere in the package is
lexicographic on this encoding.  Each pair's text is written in one
place, the memo behind ``pair_text``, and every encoding is built from
it here: ``encode_pairs`` writes one diagram's text, for
``Diagram.encode``; ``north_template`` and ``south_tail`` write the same
text in two parts, the pairs starting on the north edge with a hole for
each through line and the pairs on the south edge, which
``basis.basis_encodings`` joins, filling each hole with a ``pair_text``
once the line's south end is known.  ``Diagram.decode`` accepts
exactly the text ``encode`` writes, by round trip: it builds the diagram
and rejects the text unless ``encode`` gives it back, so whitespace,
signs, leading zeros, ``p > q`` and unsorted pairs are all rejected.

Validity is one rule, ``check_matching``, run where data enters:
``Diagram(...)``, hence ``make_diagram`` and ``Diagram.decode``, checks
its canonical form and then the rule.  ``basis.HalfDiagram`` is a
diagram from its frame to its cuts, so it passes the same check and adds
one rule on where its cuts sit.  A diagram is a named tuple
``(n_north, n_south, pairs)``, so it compares and hashes as that tuple;
``Diagram(...)`` builds the tuple and then validates it through
``Diagram.__post_init__``, the one hook every checked construction
passes.  ``products`` and ``basis.enumerate_basis`` build valid diagrams
by construction and skip it through ``Diagram._raw``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

RED = 0
BLUE = 1
COLOUR_CHARS = "rb"


class SizeMismatchError(ValueError):
    """Composition of diagrams whose glued edges have different sizes."""


def circular_positions(n_north: int, n_south: int) -> list[int]:
    """Endpoint ids in clockwise boundary order from the top left corner."""
    return [*range(1, n_north + 1), *range(n_north + n_south, n_north, -1)]


def check_matching(n_north: int, n_south: int, pairs: Sequence[tuple[int, int, int]]) -> None:
    """Raise ValueError unless every endpoint is matched exactly once, every
    colour is RED or BLUE, and, walking the circular order with one stack
    per colour, each pair closes on top of its own colour's stack."""
    total = n_north + n_south
    if 2 * len(pairs) != total:
        raise ValueError("pair count does not match boundary size")
    partner = [0] * (total + 1)
    colour = [0] * (total + 1)
    for p, q, c in pairs:
        if c != RED and c != BLUE:
            raise ValueError(f"colour index {c} is neither red nor blue")
        if not (0 < p <= total and 0 < q <= total) or p == q or partner[p] or partner[q]:
            raise ValueError(f"endpoint pair ({p},{q}) out of range or matched twice")
        partner[p] = q
        partner[q] = p
        colour[p] = colour[q] = c
    # an endpoint that cannot close is pushed, so an interleave stays stacked
    stacks: tuple[list[int], list[int]] = ([], [])
    for pid in circular_positions(n_north, n_south):
        st = stacks[colour[pid]]
        if st and st[-1] == partner[pid]:
            st.pop()
        else:
            st.append(pid)
    if stacks[RED] or stacks[BLUE]:
        raise ValueError(f"same-colour pairs interleave in {n_north},{n_south} matching")


class _DiagramFields(NamedTuple):
    n_north: int
    n_south: int
    pairs: tuple[tuple[int, int, int], ...]


class Diagram(_DiagramFields):
    """Canonical coloured pair matching of a rectangle's boundary."""

    __slots__ = ()

    def __new__(
        cls, n_north: int, n_south: int, pairs: tuple[tuple[int, int, int], ...]
    ) -> "Diagram":
        self = tuple.__new__(cls, (n_north, n_south, pairs))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, fields: Iterable) -> "Diagram":
        # the named tuple's _make and _replace build through here, checked
        return cls(*fields)

    def __post_init__(self) -> None:
        total = self.n_north + self.n_south
        if self.n_north < 0 or self.n_south < 0 or total % 2:
            raise ValueError("boundary size must be even and non-negative")
        prev_p = 0
        for p, q, _ in self.pairs:
            if not prev_p < p < q:
                raise ValueError(f"pair ({p},{q}) out of range, unordered or not sorted")
            prev_p = p
        check_matching(self.n_north, self.n_south, self.pairs)

    @classmethod
    def _raw(cls, n_north: int, n_south: int, pairs: tuple[tuple[int, int, int], ...]) -> "Diagram":
        # internal fast path; caller guarantees a valid canonical diagram
        return tuple.__new__(cls, (n_north, n_south, pairs))

    def encode(self) -> str:
        return encode_pairs(self.n_north, self.n_south, self.pairs)

    @classmethod
    def decode(cls, text: str) -> "Diagram":
        """Parse canonical text, exactly what ``encode`` writes.

        The text is split loosely and built through ``Diagram(...)``; it is
        accepted only if encoding the result gives the same text back."""
        head, brace, body = text.partition("]{")
        if head[:2] != "D[" or not brace or body[-1:] != "}":
            raise ValueError(f"malformed diagram encoding: {text!r}")
        n_north, n_south = map(int, head[2:].split(","))
        pieces = body[:-1].split(";") if len(body) > 1 else ()
        pairs = []
        for piece in pieces:
            p, q, c = piece[1:-1].split(",")
            pairs.append((int(p), int(q), COLOUR_CHARS.index(c)))
        d = cls(n_north, n_south, tuple(pairs))
        if d.encode() != text:
            raise ValueError(f"not a canonical diagram encoding: {text!r}")
        return d

    def __str__(self) -> str:
        return self.encode()


class _PairTexts(dict):
    """Canonical text ``(p,q,c)`` of each pair tuple, written on first use."""

    def __missing__(self, pair: tuple[int, int, int]) -> str:
        p, q, c = pair
        text = self[pair] = f"({p},{q},{COLOUR_CHARS[c]})"
        return text


# one entry per distinct pair ever encoded, so it grows with the sizes
# encoded, never with the number of diagrams
_PAIR_TEXT = _PairTexts()


# the text of one pair, from the memo
pair_text = _PAIR_TEXT.__getitem__


def pairs_text(pairs: Iterable[tuple[int, int, int]]) -> str:
    """The body of an encoding: each pair's text, joined by ``;``.

    No pair text is a prefix of another, so diagrams of one shape sort by
    this text exactly as by their encodings."""
    return ";".join(map(pair_text, pairs))


def encode_pairs(n_north: int, n_south: int, pairs: Iterable[tuple[int, int, int]]) -> str:
    """The canonical encoding of canonical ``pairs`` on the rectangle."""
    return f"D[{n_north},{n_south}]{{{pairs_text(pairs)}}}"


def north_template(
    n_north: int, n_south: int, north: Iterable[tuple[int, int, int] | None]
) -> str:
    """The encodings that begin with the north pieces ``north``, as a
    ``%``-pattern.

    ``north`` lists in canonical order the pairs whose smaller endpoint
    is on the north edge, with None for a through line whose southern
    end is not yet known.  Each None becomes a ``%s`` hole for that
    line's ``pair_text``, and one last hole takes ``south_tail``; no
    other ``%`` occurs, since pair texts hold none.
    """
    pieces = ";".join("%s" if pair is None else pair_text(pair) for pair in north)
    return f"D[{n_north},{n_south}]{{{pieces}%s"


def south_tail(n_north: int, south: Iterable[tuple[int, int, int]]) -> str:
    """The rest of an encoding after its north pieces: the texts of the
    pairs ``south`` with both ends on the south edge, then the close."""
    body = pairs_text(south)
    return f";{body}}}" if n_north and body else f"{body}}}"


def make_diagram(n_north: int, n_south: int, pairs: Iterable[tuple[int, int, int]]) -> Diagram:
    """Validating constructor; normalises endpoint order and pair order."""
    norm = sorted((min(p, q), max(p, q), c) for p, q, c in pairs)
    return Diagram(n_north, n_south, tuple(norm))


def straight_diagram(word: Iterable[int]) -> Diagram:
    """All-propagating diagram with strand k coloured by word[k]."""
    w = list(word)
    n = len(w)
    return Diagram(n, n, tuple((k + 1, n + k + 1, w[k]) for k in range(n)))


Endpoints = tuple[list[int], list[int]]


def endpoint_arrays(total: int, pairs: Iterable[tuple[int, int, int]]) -> Endpoints:
    """Partner and colour of each endpoint 1..total (index 0 unused)."""
    partner = [0] * (total + 1)
    colour = [0] * (total + 1)
    for p, q, c in pairs:
        partner[p] = q
        partner[q] = p
        colour[p] = c
        colour[q] = c
    return partner, colour


def glue(
    top: Endpoints, bottom: Endpoints, n_north: int, n_glued: int, n_south: int
) -> tuple[int, int, list[tuple[int, int, int]]] | None:
    """Stack ``top`` on ``bottom`` and follow every strand across the seam.

    ``top`` and ``bottom`` are the (partner, colour) endpoint arrays of a
    factor with ``n_north`` over ``n_glued`` points and of one with
    ``n_glued`` over ``n_south`` points.  Returns None when the colours
    clash at a glued point, else (loops_r, loops_b, pairs): the closed
    loops per colour and the result's canonical pairs, numbered north
    then south with the smaller endpoint first and sorted by it.
    """
    pa, ca = top
    pb, cb = bottom
    if ca[n_north + 1 :] != cb[1 : n_glued + 1]:
        return None
    # one index space: the lower factor's point y becomes off + y; a strand
    # reaching a glued point carries on from its twin, a free end has twin 0
    off = n_north + n_glued
    last = off + n_glued
    partner = pa + [off + q for q in pb[1:]]
    colour = ca + cb[1:]
    twin = [0] * (n_north + 1) + [*range(off + 1, last + 1), *range(n_north + 1, off + 1)]
    twin += [0] * n_south
    seen = [True] + [False] * (last + n_south)
    pairs: list[tuple[int, int, int]] = []
    shift = last - n_north
    for start in (*range(1, n_north + 1), *range(last + 1, last + n_south + 1)):
        if seen[start]:
            continue
        cur = start
        while not seen[cur]:
            q = partner[cur]
            seen[cur] = seen[q] = True
            cur = twin[q]
        p = start if start <= n_north else start - shift
        pairs.append((p, q if q <= n_north else q - shift, colour[start]))
    # anything left closes up into loops alternating between the factors
    loops = [0, 0]
    for start in range(n_north + 1, off + 1):
        if seen[start]:
            continue
        loops[colour[start]] += 1
        cur = start
        while not seen[cur]:
            q = partner[cur]
            seen[cur] = seen[q] = True
            cur = twin[q]
    return loops[0], loops[1], pairs


def products(
    left: Iterable[Diagram], right: Iterable[Diagram]
) -> Iterator[tuple[Diagram, Diagram, int, int, Diagram]]:
    """(a, b, loops_r, loops_b, a·b) for every non-zero a·b, a in ``left``
    and b in ``right``, in their order.  The straight diagrams are
    orthogonal idempotents, one per colour word, so a·b is zero unless a's
    southern word is b's northern one: ``right`` is bucketed by northern
    word, so mismatched pairs are never glued."""
    buckets: dict[tuple[int, ...], list[tuple[Diagram, Endpoints]]] = {}
    for b in right:
        bottom = endpoint_arrays(b.n_north + b.n_south, b.pairs)
        buckets.setdefault(tuple(bottom[1][1 : b.n_north + 1]), []).append((b, bottom))
    for a in left:
        top = endpoint_arrays(a.n_north + a.n_south, a.pairs)
        for b, bottom in buckets.get(tuple(top[1][a.n_north + 1 :]), ()):
            # equal words never clash, so glue does not return None
            lr, lb, pairs = glue(top, bottom, a.n_north, a.n_south, b.n_south)
            yield a, b, lr, lb, Diagram._raw(a.n_north, b.n_south, tuple(pairs))


def compose(a: Diagram, b: Diagram) -> tuple[int, int, Diagram] | None:
    """Stack ``a`` on top of ``b``; returns (loops_r, loops_b, result).

    Returns None when the product is zero, i.e. when strand colours
    disagree at some glued point.  Raises SizeMismatchError when the glued
    edges have different sizes, which is distinct from the algebraic zero.
    """
    if a.n_south != b.n_north:
        raise SizeMismatchError(
            f"cannot glue {a.n_south} southern points to {b.n_north} northern points"
        )
    for _, _, lr, lb, d in products((a,), (b,)):
        return lr, lb, d
    return None


def propagating_index(d: Diagram) -> tuple[int, int]:
    """Counts of propagating strands per colour, red first."""
    counts = [0, 0]
    for p, q, c in d.pairs:
        if p <= d.n_north < q:
            counts[c] += 1
    return tuple(counts)
