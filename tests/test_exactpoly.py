import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from bubblealg.basis import enumerate_basis
from bubblealg.diagram import RED, products, straight_diagram
from bubblealg.exactpoly import (
    DB,
    DR,
    ONE,
    ZERO,
    Element,
    LaurentPoly,
    _pack,
    _unpack,
    divexact,
    poly_det,
    white_generator,
)
from helpers import (
    PRIME,
    cofactor_det,
    eval_mod,
    evaluate,
    identity_rows,
    matmul,
    random_monomial,
    random_poly,
    rank_mod,
)


def test_additive_identity():
    p = DR + DB
    assert p + ZERO == p
    assert ZERO + p == p


def test_distinct_monomials_do_not_merge():
    p = DR + DB
    assert p.terms == {(1, 0): 1, (0, 1): 1}


def test_cancellation_to_zero():
    assert (DR - DR).is_zero
    assert DR - DR == ZERO


def test_int_minus_poly():
    assert 1 - DR == LaurentPoly.const(1) - DR == -(DR - 1)


def test_inverse_pair_product_is_one():
    inv = LaurentPoly.monomial(-1, 0)
    assert DR * inv == ONE


def test_binomial_square():
    expected = LaurentPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert (DR + DB) ** 2 == expected


def test_power_skips_the_square_after_the_last_bit(monkeypatch):
    # one product per set bit and one square per bit below the top one
    calls = []
    real = LaurentPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    base = DR - 2 * DB
    want = ONE
    for k in range(1, 10):
        want = real(want, base)
        calls.clear()
        assert base**k == want, k
        assert len(calls) == k.bit_length() + k.bit_count() - 1, k


def test_zero_annihilates():
    p = 3 * DR + DB * DB - 7
    assert (p * ZERO).is_zero


def test_text_form():
    p = LaurentPoly({(2, 0): 1, (0, 0): -1, (-1, 3): 5})
    assert str(p) == "1*dr^2*db^0 + 5*dr^-1*db^3 + -1*dr^0*db^0"
    assert str(ZERO) == "0"
    assert str(DR * DB) == "1*dr^1*db^1"


def test_reprs_show_the_text_form():
    assert repr(DR * DB - 2) == "LaurentPoly(1*dr^1*db^1 + -2*dr^0*db^0)"
    assert repr(ZERO) == "LaurentPoly(0)"


def test_canonical_order_is_graded_lex_descending():
    p = LaurentPoly({(0, 0): 1, (1, 1): 1, (2, 0): 1, (0, 2): 1})
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(2, 0), (1, 1), (0, 2), (0, 0)]


def test_ring_axioms_fuzz():
    rng = random.Random(99173)
    for _ in range(200):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_divexact_round_trip():
    rng = random.Random(4821)
    for _ in range(100):
        q = random_poly(rng)
        h = random_poly(rng)
        if q.is_zero:
            continue
        assert divexact(q * h, q) == h


def test_divexact_rejects_inexact():
    with pytest.raises(ArithmeticError):
        divexact(DR + 1, LaurentPoly.const(2))


def test_det_identity():
    assert poly_det(identity_rows(4)) == ONE
    assert poly_det(()) == ONE


def test_det_diagonal():
    m = ((DR, ZERO), (ZERO, DB))
    assert poly_det(m) == DR * DB


def test_det_two_by_two_gram_shape():
    m = ((DR, ONE), (ONE, DR))
    assert poly_det(m) == DR * DR - 1


def test_det_singular():
    m = ((DR, DR), (DR, DR))
    assert poly_det(m) == ZERO


def test_det_zero_pivot_needs_row_swap():
    m = ((ZERO, ONE), (ONE, ZERO))
    assert poly_det(m) == LaurentPoly.const(-1)


def test_det_matches_cofactor_oracle():
    rng = random.Random(260815)
    for size in (2, 3, 4):
        for _ in range(40):
            m = [[random_monomial(rng) for _ in range(size)] for _ in range(size)]
            assert poly_det(m) == cofactor_det(m)


def test_det_evaluation_matches_numeric_det():
    rng = random.Random(77310)
    for size in (2, 4, 6, 8):
        for _ in range(8):
            m = [[random_monomial(rng) for _ in range(size)] for _ in range(size)]
            dr = rng.uniform(1.2, 2.0) + 1j * rng.uniform(0.1, 0.5)
            db = rng.uniform(1.2, 2.0) - 1j * rng.uniform(0.1, 0.5)
            exact = evaluate(poly_det(m), dr, db)
            numeric = np.linalg.det(np.array([[evaluate(e, dr, db) for e in row] for row in m]))
            scale = max(1.0, abs(numeric))
            assert abs(exact - numeric) <= 1e-9 * scale


def test_matmul_identity():
    m = ((DR, ONE), (DB, ZERO))
    assert matmul(m, identity_rows(2)) == m
    assert matmul(identity_rows(2), m) == m


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: DR**-1, ValueError, "non-negative integer"),
        (lambda: divexact(DR, ZERO), ZeroDivisionError, "zero polynomial"),
        (lambda: poly_det([[ONE, ZERO], [ONE]]), ValueError, "non-square"),
        (lambda: poly_det([[ONE, 0.5], [ZERO, ONE]]), TypeError, "cannot use float"),
    ],
    ids=["negative_power", "division_by_zero", "ragged_rows", "float_entry"],
)
def test_invalid_operation_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_det_non_square_rejected():
    with pytest.raises(ValueError):
        poly_det([[ONE, ZERO]])


def test_det_checks_every_row_before_it_eliminates():
    # an int entry is not coerced, and a bad entry or row after a zero row,
    # where elimination could stop early, is still refused
    with pytest.raises(TypeError, match="cannot use int"):
        poly_det(((ONE, 0), (ZERO, ONE)))
    with pytest.raises(TypeError, match="cannot use float"):
        poly_det(((ZERO, ZERO), (ONE, 2.0)))
    with pytest.raises(ValueError, match="non-square"):
        poly_det(((ZERO, ZERO), (ONE, ONE, ONE)))
    assert poly_det(((ZERO, ZERO), (DR, DB))) == ZERO
    assert poly_det(((DR, DB), (ZERO, ZERO))) == ZERO
    assert poly_det(()) == ONE


def rank_at(rows, dr: int, db: int) -> int:
    return rank_mod({k: eval_mod(e, dr, db) for k, e in enumerate(row)} for row in rows)


def test_eval_mod_inverts_negative_exponents():
    assert eval_mod(LaurentPoly.monomial(-1, 0), 2, 5) * 2 % PRIME == 1
    assert eval_mod(LaurentPoly.monomial(2, -3, 7), 2, 5) * 125 % PRIME == 28
    assert eval_mod(LaurentPoly.const(-1), 2, 5) == PRIME - 1
    assert eval_mod(ZERO, 2, 5) == 0


def test_eval_mod_is_a_ring_map():
    rng = random.Random(61)
    for _ in range(60):
        p, q = random_poly(rng), random_poly(rng)
        x, y = rng.randrange(1, PRIME), rng.randrange(1, PRIME)
        px, qx = eval_mod(p, x, y), eval_mod(q, x, y)
        assert eval_mod(p * q, x, y) == px * qx % PRIME
        assert eval_mod(p - q, x, y) == (px - qx) % PRIME


def test_rank_mod_reduces_entries():
    assert rank_mod([]) == 0
    assert rank_mod([{0: PRIME, 3: 2 * PRIME}]) == 0
    assert rank_mod([{0: 1, 1: 2}, {0: 2, 1: 4 + PRIME}]) == 1
    assert rank_mod([{5: 1}, {2: 1}, {2: 3, 5: 7}]) == 2


def test_rank_mod_known_ranks():
    point = (123456789, 987654321)
    assert rank_at([[ZERO, ZERO]], *point) == 0
    assert rank_at(identity_rows(3), *point) == 3
    row1 = [DR, ONE, DB, ZERO]
    row2 = [ONE, DB, ZERO, DR * DB]
    row3 = [a + DR * b for a, b in zip(row1, row2)]
    assert rank_at([row1, row2, row3], *point) == 2
    assert rank_at([row3, row2, row1], *point) == 2
    assert rank_at([row1, row2, row3, [ONE, ZERO, ZERO, ZERO]], *point) == 3
    # the 2x2 Gram-type matrix [[dr, 1], [1, dr]] drops rank only at dr = +-1
    gram = [[DR, ONE], [ONE, DR]]
    assert rank_at(gram, *point) == 2
    assert rank_at(gram, 1, 3) == rank_at(gram, PRIME - 1, 3) == 1


def test_rank_mod_is_full_exactly_when_det_is_nonzero():
    rng = random.Random(40961)
    for size in (2, 3, 4):
        for _ in range(30):
            rows = [[random_monomial(rng, span=1) for _ in range(size)] for _ in range(size)]
            if size > 2 and rng.random() < 0.3:
                # last row = first row - (dr / db) * second row
                rows[-1] = [a - LaurentPoly.monomial(1, -1) * b for a, b in zip(rows[0], rows[1])]
            det = poly_det(rows)
            point = (rng.randrange(1, PRIME), rng.randrange(1, PRIME))
            assert (rank_at(rows, *point) == size) == (not det.is_zero)


def _sparse_entry(rng: random.Random) -> LaurentPoly:
    return ZERO if rng.random() < 0.4 else random_poly(rng, max_terms=2, span=1)


def _permutation_sign(perm: list[int]) -> int:
    sign, seen = 1, set()
    for start in range(len(perm)):
        k, length = start, 0
        while k not in seen:
            seen.add(k)
            k, length = perm[k], length + 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _permuted_block_diagonal(blocks, rows: list[int], cols: list[int]) -> list[list[LaurentPoly]]:
    size = sum(map(len, blocks))
    dense = [[ZERO] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for r, row in enumerate(b):
            dense[off + r][off : off + len(b)] = row
        off += len(b)
    return [[dense[r][c] for c in cols] for r in rows]


def test_det_of_permuted_block_diagonal_is_the_product_of_block_dets():
    rng = random.Random(5150)
    for trial in range(30):
        blocks, size = [], 0
        while size < rng.randrange(1, 21):
            k = min(rng.randrange(1, 6), 20 - size)
            blocks.append([[_sparse_entry(rng) for _ in range(k)] for _ in range(k)])
            size += k
        rows, cols = list(range(size)), list(range(size))
        rng.shuffle(rows)
        if trial % 2:
            cols = list(rows)  # a similarity: the sign cancels
        else:
            rng.shuffle(cols)
        expect = ONE
        for b in blocks:
            expect = expect * cofactor_det(b)
        sign = _permutation_sign(rows) * _permutation_sign(cols)
        assert poly_det(_permuted_block_diagonal(blocks, rows, cols)) == sign * expect


def test_det_of_block_diagonal_with_a_zero_first_pivot():
    # the first pivot is zero, so elimination must swap rows before it starts
    first = [[ZERO, DR + 1], [DB - 2, DR * DB]]
    rng = random.Random(90210)
    rest = []
    for k in (4, 5, 4, 5):
        block = []
        while cofactor_det(block) in (ZERO, ONE):
            block = [[_sparse_entry(rng) for _ in range(k)] for _ in range(k)]
        rest.append(block)
    size = 20
    tail = list(range(2, size))
    rng.shuffle(tail)
    order = [0, 1] + tail
    m = _permuted_block_diagonal([first, *rest], order, order)
    assert m[0][0].is_zero
    expect = cofactor_det(first)
    for b in rest:
        expect = expect * cofactor_det(b)
    assert poly_det(m) == expect


def test_det_of_sparse_matrices_matches_cofactor_expansion():
    rng = random.Random(6061)
    for size in range(7):
        for _ in range(12):
            m = [[_sparse_entry(rng) for _ in range(size)] for _ in range(size)]
            assert poly_det(m) == cofactor_det(m)


def _wide_entry(rng: random.Random, bits: int) -> LaurentPoly:
    # up to three terms, exponents of either sign, coefficients of either sign
    terms = {}
    for _ in range(rng.randrange(4)):
        exp = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        terms[exp] = rng.choice((-1, 1)) * (rng.getrandbits(bits) | (1 << bits))
    return LaurentPoly(terms)


@pytest.mark.parametrize("bits, max_size", [(2, 6), (200, 4)])
def test_packed_det_matches_cofactor_expansion(bits, max_size):
    # bits = 200 puts every input coefficient above 2^200; each slot is then
    # over 800 bits wide, and CPython divides such integers in quadratic time
    rng = random.Random(31337 + bits)
    for size in range(1, max_size + 1):
        for trial in range(12):
            rows = [[_wide_entry(rng, bits) for _ in range(size)] for _ in range(size)]
            if trial % 4 == 0:
                rows[rng.randrange(size)] = [ZERO] * size
            det = poly_det(rows)
            assert det == cofactor_det(rows)
            if trial % 4 == 0:
                assert det == ZERO


def test_packed_det_edge_shapes():
    assert poly_det([]) == ONE
    for rows in ([[ONE, ZERO]], [[ONE], [DR]], [[]], [[DR, DB, ONE], [ONE, ONE, ONE]]):
        with pytest.raises(ValueError):
            poly_det(rows)


def test_packing_round_trips_digits_at_the_boundary():
    # the widest balanced digits, +-(2^(s-1) - 1) with s = 8 * width, next
    # to each other, to gaps and to small digits
    rng = random.Random(2024)
    for width in (1, 2, 5):
        edge = 2 ** (8 * width - 1) - 1
        for _ in range(40):
            slots = {}
            for k in rng.sample(range(64), rng.randrange(30)):
                slots[k] = rng.choice((edge, -edge, rng.randrange(-edge, edge + 1)))
            slots = {k: c for k, c in slots.items() if c}
            value = _pack(slots, width)
            assert value == sum(c << (8 * width * k) for k, c in slots.items())
            assert _unpack(value, width) == slots


def test_det_digit_at_the_packing_boundary():
    # 7 * 31 * 151 = 2^15 - 1 bounds every minor's coefficients, so the
    # slots are 16 bits wide and the determinant's one coefficient is the
    # widest digit a slot holds, 2^15 - 1 in either sign
    diag = [LaurentPoly.monomial(-1, 0, 7), LaurentPoly.monomial(0, 2, -31), LaurentPoly.monomial(1, 1, 151)]
    for perm in permutations(range(3)):
        m = [[diag[r] if c == perm[r] else ZERO for c in range(3)] for r in range(3)]
        det = poly_det(m)
        assert det == cofactor_det(m)
        assert abs(det.terms[(0, 3)]) == 2**15 - 1


def test_det_with_huge_coefficients_and_exponents():
    # coefficients near 2^400 and exponents of either sign up to 40: the
    # packed entries span hundreds of slots, each hundreds of bits wide
    c = 3**250
    m = [
        [c * DR**2 - c, LaurentPoly.monomial(0, 40, c), ONE],
        [LaurentPoly.monomial(-40, 0, -c), c * DB + 1, LaurentPoly.monomial(39, -39, 5)],
        [DR - DB, ZERO, LaurentPoly.monomial(-3, 40, -c * c)],
    ]
    det = poly_det(m)
    assert det == cofactor_det(m)
    assert max(abs(x) for x in det.terms.values()) > 2**1000


# ---------------------------------------------------------------------------
# ring data is checked where it enters: nothing inexact is truncated


@pytest.mark.parametrize(
    "call",
    [
        lambda: LaurentPoly.const(0.5),
        lambda: LaurentPoly.monomial(1.7, 0, 2.9),
        lambda: LaurentPoly({(0, 0): 0.5}),
        lambda: LaurentPoly({(0.5, 0): 1}),
        lambda: Element.from_diagram(straight_diagram([RED]), 2.5),
        lambda: white_generator(2, 1).scale(1.5),
    ],
    ids=["const", "monomial", "coefficient", "exponent", "from_diagram", "scale"],
)
def test_an_inexact_number_is_refused_not_truncated(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "value",
    [0.0, 2.0, Fraction(4, 2), "3", np.float64(1.0)],
    ids=["float_zero", "float_two", "fraction", "string", "numpy_float"],
)
def test_every_entry_refuses_a_non_integer(value):
    # an integral float is refused too: the check is on the type, not the value
    for call in (
        lambda: LaurentPoly.const(value),
        lambda: LaurentPoly.monomial(value, 0),
        lambda: LaurentPoly.monomial(0, 1, value),
        lambda: LaurentPoly({(0, value): 1}),
        # a zero coefficient does not let a bad exponent through
        lambda: LaurentPoly({(value, 0): 0}),
        lambda: Element(1, 1, [(straight_diagram([RED]), value)]),
    ):
        with pytest.raises(TypeError):
            call()


def test_numpy_integers_enter_as_ints():
    p = LaurentPoly({(np.int64(2), np.int32(-1)): np.int64(3)})
    assert p == LaurentPoly.monomial(2, -1, 3)
    assert p == LaurentPoly.monomial(np.int64(2), np.int8(-1), np.uint8(3))
    assert [type(x) for (a, b), c in p.terms.items() for x in (a, b, c)] == [int, int, int]
    assert str(p) == "3*dr^2*db^-1"
    assert LaurentPoly.const(np.int64(0)) == ZERO and LaurentPoly.const(np.int64(0)).is_zero
    x = Element.from_diagram(straight_diagram([RED]), np.int64(-4))
    assert x.coefficient(straight_diagram([RED])) == LaurentPoly.const(-4)


def test_a_bool_enters_as_its_int():
    assert str(LaurentPoly.const(True)) == "1*dr^0*db^0"
    assert LaurentPoly.monomial(True, False, True) == DR


@pytest.mark.parametrize("c", [-3, 0, 1, 2**70])
def test_a_constant_hashes_as_the_int_it_equals(c):
    p = LaurentPoly.const(c)
    assert p == c and hash(p) == hash(c)
    assert c in {p} and p in {c}


def test_a_set_keeps_one_of_each_equal_constant_and_int():
    assert len({ONE, LaurentPoly.const(1), 1, ZERO, 0, DR}) == 3
    # equal polynomials built apart still hash alike
    assert hash(DR + DB) == hash(LaurentPoly({(0, 1): 1, (1, 0): 1}))


def test_a_non_constant_equals_no_int():
    for p in (DR, DB, DR - 1, LaurentPoly.monomial(-1, 0, 5), LaurentPoly.monomial(0, 0, 2) + DB):
        assert all(p != c for c in range(-10, 11))
        assert not {p} & set(range(-10, 11))


# ---------------------------------------------------------------------------
# Element sums its terms in one place: parity with a sum made by hand


def _reference(pairs) -> dict:
    """Plain-dict sum of (diagram, coefficient) pairs, zeros dropped."""
    out: dict = {}
    for d, c in pairs:
        out[d] = out.get(d, ZERO) + c
    return {d: c for d, c in out.items() if not c.is_zero}


def _random_terms(rng: random.Random, basis: list, count: int) -> list:
    """Terms with int and polynomial coefficients, repeated diagrams and
    pairs that cancel, so the sum must add and drop."""
    terms = []
    for _ in range(count):
        d = rng.choice(basis)
        c = rng.randrange(-3, 4) if rng.random() < 0.4 else random_poly(rng, 2, 1)
        terms.append((d, c))
        if rng.random() < 0.3:
            terms.append((d, -c))
    rng.shuffle(terms)
    return terms


def test_element_arithmetic_matches_a_hand_made_sum():
    rng = random.Random(46)
    basis = enumerate_basis(3)
    cancelled = 0
    for _ in range(40):
        tx, ty = (_random_terms(rng, basis, rng.randrange(0, 30)) for _ in range(2))
        x, y = Element(3, 3, tx), Element(3, 3, ty)
        rx, ry = _reference(tx), _reference(ty)
        assert dict(x.items()) == rx and dict(y.items()) == ry
        sum_ref = _reference([*rx.items(), *ry.items()])
        assert dict((x + y).items()) == sum_ref
        cancelled += len(rx) + len(ry) - len(sum_ref)
        for c in (0, 1, -2, rng.randrange(-3, 4), random_poly(rng, 3, 2), ZERO):
            scaled = _reference((d, v * c) for d, v in rx.items())
            assert dict(x.scale(c).items()) == scaled
            assert dict((c * x).items()) == scaled == dict((x * c).items())
        # the product, weighed loop by loop without Element or monomial
        prod_ref = _reference(
            (d, rx[a] * ry[b] * DR**lr * DB**lb) for a, b, lr, lb, d in products(rx, ry)
        )
        assert dict((x * y).items()) == prod_ref
    # some sums cancelled whole diagrams, so the drop of zero terms was exercised
    assert cancelled > 0


def test_no_zero_term_is_ever_held():
    rng = random.Random(7)
    basis = enumerate_basis(2)
    for _ in range(50):
        x = Element(2, 2, _random_terms(rng, basis, 12))
        y = Element(2, 2, _random_terms(rng, basis, 12))
        for z in (x, x + y, x * y, x.scale(0), x + x.scale(-1), 0 * x):
            assert all(not c.is_zero for _, c in z.items())
    assert (x + x.scale(-1)).is_zero and len(0 * x) == 0


def test_power_takes_its_exponent_as_an_integer():
    # a numpy integer is an integer; a negative one is still refused
    assert DR ** np.int64(2) == DR * DR
    assert DR ** np.int8(0) == ONE
    with pytest.raises(ValueError, match="non-negative integer"):
        DR ** np.int64(-1)
    for value in (2.0, Fraction(2, 1), "2"):
        with pytest.raises(TypeError):
            DR**value


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), "2"], ids=["float", "fraction", "string"])
@pytest.mark.parametrize("element", [Element.zero(2, 2), white_generator(2, 1)], ids=["zero", "nonzero"])
def test_scale_refuses_an_inexact_coefficient_on_every_element(element, value):
    with pytest.raises(TypeError):
        element.scale(value)


@pytest.mark.parametrize("element", [Element.zero(2, 2), white_generator(2, 1)], ids=["zero", "nonzero"])
def test_scale_takes_an_int_or_a_polynomial(element):
    assert element.scale(3) == element + element + element
    assert element.scale(DR) == element * DR
    assert element.scale(np.int64(2)) == element + element
