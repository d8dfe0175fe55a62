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
intermediate division is exact in the ring.
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
    """Exact division p / q in the Laurent ring.

    Raises ArithmeticError when q does not divide p; used by the Bareiss
    determinant, where every division is exact by construction.
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


def poly_det(m: PolyMatrix) -> LaurentPoly:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Row swaps handle zero pivots; the determinant of the empty matrix is 1.
    Raises ValueError on a non-square input.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return ONE
    work = [list(row) for row in m.entries]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if work[k][k].is_zero:
            pivot_row = next((i for i in range(k + 1, n) if not work[i][k].is_zero), None)
            if pivot_row is None:
                return ZERO
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            row_i = work[i]
            head = row_i[k]
            if head.is_zero:
                # the update is pivot * x / prev, and it keeps zeros zero
                for j in range(k + 1, n):
                    if not row_i[j].is_zero:
                        row_i[j] = divexact(pivot * row_i[j], prev)
                continue
            for j in range(k + 1, n):
                num = pivot * row_i[j] - head * work[k][j]
                row_i[j] = divexact(num, prev)
            row_i[k] = ZERO
        prev = pivot
    det = work[n - 1][n - 1]
    return det if sign > 0 else -det


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
