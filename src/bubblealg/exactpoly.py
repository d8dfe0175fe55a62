"""Exact arithmetic over the two-parameter loop ring.

Scalars of the diagram algebra live in the ring of integer Laurent
polynomials in the two loop parameters ``dr`` and ``db``, one per line
colour.  A polynomial is stored sparsely as a map from exponent pairs
``(a, b)``, standing for the monomial ``dr^a * db^b``, to nonzero integer
coefficients.  Coefficients are Python ints, so nothing overflows and
equality is exact.

The canonical term order, used for printing and for the textual form, is
graded lexicographic on the exponent pair, largest first.  The textual
form is a ``' + '``-joined list of ``c*dr^a*db^b`` terms, for example
``1*dr^1*db^1``; the zero polynomial prints as ``0``.

:class:`PolyMatrix` holds the Gram matrices, and ``poly_det`` takes
their determinants by fraction-free (Bareiss) elimination, where every
intermediate division is exact in the ring.  It eliminates on integers:
each entry is packed into one Python int by Kronecker substitution, so
the elimination runs on CPython's big-integer arithmetic and only the
determinant is unpacked.  ``divexact`` divides polynomials exactly; the
``psi_k`` factors of the Chebyshev numbers in ``stdmod`` are its caller.
``eval_mod`` and ``rank_mod`` evaluate polynomials and take ranks over
GF(PRIME) at a point: a rank there never exceeds the generic rank, and at
a random point it falls below with probability at most degree / PRIME.
"""

from __future__ import annotations

from typing import Iterable, Mapping

Exponent = tuple[int, int]


def _grlex_key(exp: Exponent) -> tuple[int, int, int]:
    a, b = exp
    return (a + b, a, b)


class LaurentPoly:
    """Immutable integer Laurent polynomial in ``dr`` and ``db``."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None) -> None:
        self._terms = {exp: c for exp, c in terms.items() if c} if terms else {}

    @classmethod
    def _raw(cls, data: dict[Exponent, int]) -> "LaurentPoly":
        # internal fast path; caller guarantees no zero coefficients
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
        return cls._raw({(0, 0): int(c)} if c else {})

    @classmethod
    def monomial(cls, a: int, b: int, coeff: int = 1) -> "LaurentPoly":
        return cls._raw({(int(a), int(b)): int(coeff)} if coeff else {})

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
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
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


class PolyMatrix:
    """Rectangular matrix with :class:`LaurentPoly` entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]) -> None:
        rows = []
        for row in entries:
            rows.append(tuple(_as_poly(e) for e in row))
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.entries: tuple[tuple[LaurentPoly, ...], ...] = tuple(rows)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0

    @classmethod
    def identity(cls, k: int) -> "PolyMatrix":
        return cls([[ONE if i == j else ZERO for j in range(k)] for i in range(k)])

    @classmethod
    def diagonal(cls, diag: Iterable) -> "PolyMatrix":
        d = [_as_poly(x) for x in diag]
        return cls([[d[i] if i == j else ZERO for j in range(len(d))] for i in range(len(d))])

    def __getitem__(self, key: tuple[int, int]) -> LaurentPoly:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"PolyMatrix[{self.rows}x{self.cols}]({body})"


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")


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


def poly_det(m: PolyMatrix) -> LaurentPoly:
    """Exact determinant by fraction-free (Bareiss) elimination on packed integers.

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
    of low degree, such as the Gram matrices.

    Row swaps handle zero pivots.  The empty matrix has determinant 1 and
    a matrix with a zero row has 0, both found without packing.  Raises
    ValueError on a non-square input.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return ONE
    degree = 0
    # H^2, an integer: 2^(s-1) > H holds once 2s - 2 >= its bit length
    h_squared = 1
    lows = []
    for row in m.entries:
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
        for row, (lo_a, lo_b) in zip(m.entries, lows)
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
