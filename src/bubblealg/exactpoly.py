"""Exact arithmetic over the two-parameter loop ring, and the algebra's elements.

Scalars of the diagram algebra live in the ring of integer Laurent
polynomials in the two loop parameters ``dr`` and ``db``, one per line
colour.  A polynomial is stored sparsely as a map from exponent pairs
``(a, b)``, standing for the monomial ``dr^a * db^b``, to nonzero integer
coefficients.  Coefficients are Python ints, so nothing overflows and
equality is exact.  ``LaurentPoly(...)`` takes every exponent and
coefficient through ``operator.index``: a numpy integer enters as its
int, and a float, ``Fraction`` or string raises TypeError, never truncated.

The canonical term order, used for printing and for the textual form, is
graded lexicographic on the exponent pair, largest first.  The textual
form is a ``' + '``-joined list of ``c*dr^a*db^b`` terms, for example
``1*dr^1*db^1``; the zero polynomial prints as ``0``.

A matrix over the ring is a tuple of row tuples of ``LaurentPoly``, as
``stdmod`` builds the Gram matrices, and ``poly_det`` takes their
determinants by fraction-free (Bareiss) elimination, where every
intermediate division is exact in the ring.  It eliminates on integers:
each entry is packed into one Python int by Kronecker substitution, so
the elimination runs on CPython's big-integer arithmetic and only the
determinant is unpacked.  ``divexact`` divides polynomials exactly; the
``psi_k`` factors of the Chebyshev numbers in ``stdmod`` are its caller.

Everything whose coefficients are Laurent polynomials lives here: the
ring, the determinant of a matrix over it, and the algebra's elements.
:class:`Element` is a finite combination of equal-shape diagrams with
ring coefficients, summed in one place, ``Element._raw``; its product
multiplies diagrams through ``diagram.products``, the one place diagrams
are glued, and weighs each product's loop counts as a monomial.
``identity_element`` builds the unit and ``white_generator`` the cup-cap
generators, each summed over every colouring of its lines; the latter
sums the cup-caps of ``local_generators``, the one table of B_n's local
generators: the six B_2 diagrams that are not straight, placed at an
adjacent pair and built valid through ``Diagram._raw`` once per (n, k).
"""

from __future__ import annotations

from functools import cache
from itertools import chain, product
from operator import index
from typing import Iterable, Iterator, Mapping, Sequence

from .diagram import BLUE, RED, Diagram, SizeMismatchError, products, straight_diagram

Exponent = tuple[int, int]


def _grlex_key(exp: Exponent) -> tuple[int, int, int]:
    a, b = exp
    return (a + b, a, b)


class LaurentPoly:
    """Immutable integer Laurent polynomial in ``dr`` and ``db``: data enters
    checked through ``LaurentPoly(...)``, arithmetic builds through ``_raw``."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None) -> None:
        self._terms = {}
        for (a, b), c in terms.items() if terms else ():
            exp, c = (index(a), index(b)), index(c)
            if c:
                self._terms[exp] = c

    @classmethod
    def _raw(cls, data: dict[Exponent, int]) -> "LaurentPoly":
        # internal fast path; caller guarantees ints and no zero coefficients
        p = object.__new__(cls)
        p._terms = data
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({(0, 0): 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, a: int, b: int, coeff: int = 1) -> "LaurentPoly":
        return cls({(a, b): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def terms(self) -> dict[Exponent, int]:
        """Copy of the exponent-to-coefficient map."""
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Terms in canonical order (graded lex, largest first)."""
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    # ring operations

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        data = dict(self._terms)
        for exp, c in o._terms.items():
            acc = data.get(exp, 0) + c
            if acc:
                data[exp] = acc
            elif exp in data:
                del data[exp]
        return LaurentPoly._raw(data)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        data: dict[Exponent, int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in o._terms.items():
                key = (a1 + a2, b1 + b2)
                acc = data.get(key, 0) + c1 * c2
                if acc:
                    data[key] = acc
                elif key in data:
                    del data[key]
        return LaurentPoly._raw(data)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        # as ring data enters: a numpy integer is taken, a float, Fraction or
        # string raises TypeError
        k = index(k)
        if k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            # the square after the last bit would go unused
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        # a constant equals the int it holds, so it hashes as that int
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # text form

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = [f"{c}*dr^{a}*db^{b}" for (a, b), c in self.sorted_terms()]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


DR = LaurentPoly.monomial(1, 0)
DB = LaurentPoly.monomial(0, 1)
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()

# a matrix over the ring, as the Gram matrices are built: a tuple of row tuples
Matrix = tuple[tuple[LaurentPoly, ...], ...]


def _lead(terms: dict[Exponent, int]) -> Exponent:
    return max(terms, key=_grlex_key)


def divexact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact division p / q in the Laurent ring, by long division from the
    leading terms.

    Raises ArithmeticError when q does not divide p.
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return ZERO
    rem = dict(p._terms)
    qt = q._terms
    qlead = _lead(qt)
    qlc = qt[qlead]
    quot: dict[Exponent, int] = {}
    # exact long division needs one step per quotient term; the generous cap
    # only guards against an inexact input looping forever
    for _ in range(200_000):
        if not rem:
            return LaurentPoly._raw(quot)
        plead = _lead(rem)
        plc = rem[plead]
        if plc % qlc:
            raise ArithmeticError("inexact polynomial division")
        tc = plc // qlc
        texp = (plead[0] - qlead[0], plead[1] - qlead[1])
        quot[texp] = tc
        for (a, b), c in qt.items():
            key = (a + texp[0], b + texp[1])
            acc = rem.get(key, 0) - tc * c
            if acc:
                rem[key] = acc
            elif key in rem:
                del rem[key]
    raise ArithmeticError("inexact polynomial division (no progress)")


def _pack(slots: Mapping[int, int], width: int) -> int:
    """The integer sum of c * X^k over ``slots`` {k: c}, with X = 256^width
    and every |c| < X / 2.

    Each slot is written as the bytes of c + X/2 and the bias is taken off
    once, so the cost is linear in the length of the result.
    """
    if not slots:
        return 0
    bias = 1 << (8 * width - 1)
    filler = bias.to_bytes(width, "little")
    out = [filler] * (max(slots) + 1)
    for k, c in slots.items():
        out[k] = (c + bias).to_bytes(width, "little")
    return int.from_bytes(b"".join(out), "little") - int.from_bytes(filler * len(out), "little")


def _unpack(value: int, width: int) -> dict[int, int]:
    """Inverse of ``_pack``: the nonzero balanced base-X digits of value.

    A top digit c at slot k makes |value| >= X^k / 2, so bit_length // s + 1
    slots hold every digit (s = 8 * width).  Adding X/2 to each of them
    leaves plain base-X digits with no borrows, read off the bytes.
    """
    bias = 1 << (8 * width - 1)
    filler = bias.to_bytes(width, "little")
    top = value.bit_length() // (8 * width) + 1
    raw = (value + int.from_bytes(filler * top, "little")).to_bytes(width * top, "little")
    out = {}
    for k, at in enumerate(range(0, width * top, width)):
        chunk = raw[at : at + width]
        if chunk != filler:
            out[k] = int.from_bytes(chunk, "little") - bias
    return out


def poly_det(m: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of the matrix with rows ``m``, by fraction-free
    (Bareiss) elimination on packed integers.

    ``m`` is a sequence of n rows, each a sequence of n ``LaurentPoly``
    entries.  This is the one place a matrix is checked: a row of another
    length raises ValueError, and an entry that is not a ``LaurentPoly``
    (an int included) raises TypeError.

    Each row is divided by its lowest monomial, so every exponent is at
    least 0, and each entry is packed into one integer by Kronecker
    substitution dr = X, db = X^K with X = 2^s.  Every intermediate Bareiss
    entry is a minor of the matrix (after row swaps), and the packing must
    be injective on all of them:

    - degree: a minor's dr-degree is at most the sum of its rows'
      dr-spans, so K = 1 + the sum over all rows keeps each dr^a db^b in
      its own slot a + K*b;
    - coefficients: a coefficient of a Laurent polynomial is at most its
      largest absolute value on the torus |dr| = |db| = 1.  There each
      entry is at most its coefficient-sum norm, so by Hadamard's
      inequality a minor is at most the product over its rows of
      sqrt(sum of the squared norms); that is at most H, the same product
      over all rows, since every factor of a nonzero row is at least 1.
      s is a multiple of 8 with 2^(s-1) > H.

    So an entry is zero exactly when its integer is, each division is
    exact on the integers because it is exact in the ring, and the
    determinant is read back from its balanced base-X digits.  Packing and
    unpacking go through bytes in linear time.  The work grows with the
    packed length, not with the number of terms: it suits dense entries
    of low degree, such as the Gram matrices.  Sparse entries with wide
    coefficients are its slow case: 5 x 5 and 6 x 6 matrices of entries
    with up to three terms, exponents within 3 of 0 and 200-bit
    coefficients take 2.5 s and 11 s, against 0.05 s and 0.36 s for
    Bareiss on the polynomials themselves (2 vCPU Xeon).  No command
    sends such a matrix.

    Row swaps handle zero pivots.  The empty matrix has determinant 1 and
    a matrix with a zero row has 0, both found without packing.
    """
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("determinant of a non-square matrix")
        for e in row:
            if not isinstance(e, LaurentPoly):
                raise TypeError(f"cannot use {type(e).__name__} as a matrix entry")
    if n == 0:
        return ONE
    degree = 0
    # H^2, an integer: 2^(s-1) > H holds once 2s - 2 >= its bit length
    h_squared = 1
    lows = []
    for row in m:
        exps = [exp for e in row for exp in e._terms]
        if not exps:
            return ZERO
        lo_a = min(a for a, _ in exps)
        lo_b = min(b for _, b in exps)
        degree += max(a for a, _ in exps) - lo_a
        h_squared *= sum(sum(map(abs, e._terms.values())) ** 2 for e in row)
        lows.append((lo_a, lo_b))
    k_db = degree + 1
    width = (h_squared.bit_length() + 17) // 16
    work = [
        [
            _pack({a - lo_a + k_db * (b - lo_b): c for (a, b), c in e._terms.items()}, width)
            for e in row
        ]
        for row, (lo_a, lo_b) in zip(m, lows)
    ]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not work[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if work[i][k]), None)
            if pivot_row is None:
                return ZERO
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        row_k = work[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = work[i]
            head = row_i[k]
            if head:
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
            else:
                # the update is pivot * x / prev, and it keeps zeros zero
                for j in range(k + 1, n):
                    if row_i[j]:
                        row_i[j] = pivot * row_i[j] // prev
        prev = pivot
    det = _unpack(sign * work[n - 1][n - 1], width)
    low_a, low_b = map(sum, zip(*lows))
    return LaurentPoly._raw(
        {(k % k_db + low_a, k // k_db + low_b): c for k, c in det.items()}
    )


def _ring_element(c: LaurentPoly | int) -> LaurentPoly:
    """c as a polynomial; an integer enters through ``LaurentPoly.const``,
    which refuses anything inexact with TypeError."""
    return c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)


class Element:
    """Finite linear combination of equal-shape diagrams over the loop ring.

    ``Element(...)`` checks each diagram's shape, and it and ``scale`` take
    a coefficient through ``_ring_element``.  ``_raw`` is the one sum: it
    adds equal diagrams and drops zero terms, and ``Element(...)``, ``+``,
    ``scale`` and ``*`` build through it, so terms an element holds are not
    checked again.
    """

    __slots__ = ("n_north", "n_south", "_terms")

    def __init__(
        self,
        n_north: int,
        n_south: int,
        terms: Mapping[Diagram, LaurentPoly] | Iterable[tuple[Diagram, LaurentPoly]] | None = None,
    ) -> None:
        checked = []
        for d, c in terms.items() if hasattr(terms, "items") else terms or ():
            if d.n_north != n_north or d.n_south != n_south:
                raise SizeMismatchError("diagram shape differs from element shape")
            checked.append((d, _ring_element(c)))
        self.n_north = n_north
        self.n_south = n_south
        self._terms = Element._raw(n_north, n_south, checked)._terms

    @classmethod
    def _raw(
        cls, n_north: int, n_south: int, pairs: Iterable[tuple[Diagram, LaurentPoly]]
    ) -> "Element":
        # internal fast path; caller guarantees shapes and ring coefficients
        data: dict[Diagram, LaurentPoly] = {}
        for d, c in pairs:
            acc = data[d] + c if d in data else c
            if acc.is_zero:
                data.pop(d, None)
            else:
                data[d] = acc
        out = object.__new__(cls)
        out.n_north, out.n_south, out._terms = n_north, n_south, data
        return out

    @classmethod
    def zero(cls, n_north: int, n_south: int) -> "Element":
        return cls(n_north, n_south)

    @classmethod
    def from_diagram(cls, d: Diagram, coeff: LaurentPoly | int = 1) -> "Element":
        return cls(d.n_north, d.n_south, [(d, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[Diagram, LaurentPoly]]:
        return iter(self._terms.items())

    def diagrams(self) -> list[Diagram]:
        return list(self._terms)

    def coefficient(self, d: Diagram) -> LaurentPoly:
        return self._terms.get(d, ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if self.n_north != other.n_north or self.n_south != other.n_south:
            raise SizeMismatchError("element shapes differ")
        both = chain(self._terms.items(), other._terms.items())
        return Element._raw(self.n_north, self.n_south, both)

    def scale(self, coeff: LaurentPoly | int) -> "Element":
        # coerced before the terms are read, so the zero element refuses
        # what any other does
        coeff = _ring_element(coeff)
        scaled = ((d, c * coeff) for d, c in self._terms.items())
        return Element._raw(self.n_north, self.n_south, scaled)

    def __mul__(self, other):
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        if self.n_south != other.n_north:
            raise SizeMismatchError("element shapes cannot be composed")
        left, right = self._terms, other._terms
        weighed = (
            (d, left[a] * right[b] * LaurentPoly.monomial(lr, lb))
            for a, b, lr, lb, d in products(left, right)
        )
        return Element._raw(self.n_north, other.n_south, weighed)

    # an Element on the left is handled by __mul__, so only scalars come here
    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.n_north == other.n_north
            and self.n_south == other.n_south
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        terms = sorted(self._terms.items(), key=lambda t: t[0].encode())
        body = " + ".join(f"({c})*{d.encode()}" for d, c in terms) or "0"
        return f"Element[{self.n_north},{self.n_south}]({body})"


def identity_element(n: int) -> Element:
    """Sum of all monochrome-strand straight diagrams; the unit of the algebra."""
    words = product((RED, BLUE), repeat=n)
    return Element._raw(n, n, ((straight_diagram(word), ONE) for word in words))


@cache
def local_generators(n: int, k: int) -> tuple[Diagram, ...]:
    """The two crossings, then the four cup-caps, of B_2 at points k, k+1
    of n, every other strand straight: each in all 2^(n-2) colourings of
    those strands in turn, built valid once per (n, k) and shared."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator position {k} out of range for n={n}")
    crossings = [((k, n + k + 1, c), (k + 1, n + k, d)) for c, d in ((RED, BLUE), (BLUE, RED))]
    cupcaps = [((k, k + 1, c), (n + k, n + k + 1, d)) for c in (RED, BLUE) for d in (RED, BLUE)]
    free = [m for m in range(1, n + 1) if m not in (k, k + 1)]
    return tuple(
        Diagram._raw(n, n, tuple(sorted([*local, *((m, n + m, c) for m, c in zip(free, rest))])))
        for local in crossings + cupcaps
        for rest in product((RED, BLUE), repeat=n - 2)
    )


def white_generator(n: int, i: int) -> Element:
    """Cup-cap at position i with every line summed over all colours: the
    cup-caps of ``local_generators(n, i)``, after its 2·2^(n-2) crossings."""
    return Element._raw(n, n, ((d, ONE) for d in local_generators(n, i)[2 ** (n - 1) :]))
