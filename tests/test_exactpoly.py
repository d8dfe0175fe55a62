import random
from itertools import permutations

import numpy as np
import pytest

from bubblealg.exactpoly import (
    DB,
    DR,
    ONE,
    PRIME,
    ZERO,
    LaurentPoly,
    PolyMatrix,
    _pack,
    _unpack,
    divexact,
    eval_mod,
    poly_det,
    rank_mod,
)
from helpers import cofactor_det, evaluate, matmul, random_monomial, random_poly


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


def test_inverse_pair_product_is_one():
    inv = LaurentPoly.monomial(-1, 0)
    assert DR * inv == ONE


def test_binomial_square():
    expected = LaurentPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert (DR + DB) ** 2 == expected


def test_zero_annihilates():
    p = 3 * DR + DB * DB - 7
    assert (p * ZERO).is_zero


def test_text_form():
    p = LaurentPoly({(2, 0): 1, (0, 0): -1, (-1, 3): 5})
    assert str(p) == "1*dr^2*db^0 + 5*dr^-1*db^3 + -1*dr^0*db^0"
    assert str(ZERO) == "0"
    assert str(DR * DB) == "1*dr^1*db^1"


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
    assert poly_det(PolyMatrix.identity(4)) == ONE
    assert poly_det(PolyMatrix([])) == ONE


def test_det_diagonal():
    m = PolyMatrix.diagonal([DR, DB])
    assert poly_det(m) == DR * DB


def test_det_two_by_two_gram_shape():
    m = PolyMatrix([[DR, ONE], [ONE, DR]])
    assert poly_det(m) == DR * DR - 1


def test_det_singular():
    m = PolyMatrix([[DR, DR], [DR, DR]])
    assert poly_det(m) == ZERO


def test_det_zero_pivot_needs_row_swap():
    m = PolyMatrix([[ZERO, ONE], [ONE, ZERO]])
    assert poly_det(m) == LaurentPoly.const(-1)


def test_det_matches_cofactor_oracle():
    rng = random.Random(260815)
    for size in (2, 3, 4):
        for _ in range(40):
            m = PolyMatrix(
                [[random_monomial(rng) for _ in range(size)] for _ in range(size)]
            )
            assert poly_det(m) == cofactor_det(m)


def test_det_evaluation_matches_numeric_det():
    rng = random.Random(77310)
    for size in (2, 4, 6, 8):
        for _ in range(8):
            m = PolyMatrix(
                [[random_monomial(rng) for _ in range(size)] for _ in range(size)]
            )
            dr = rng.uniform(1.2, 2.0) + 1j * rng.uniform(0.1, 0.5)
            db = rng.uniform(1.2, 2.0) - 1j * rng.uniform(0.1, 0.5)
            exact = evaluate(poly_det(m), dr, db)
            numeric = np.linalg.det(np.array([[evaluate(e, dr, db) for e in row] for row in m.entries]))
            scale = max(1.0, abs(numeric))
            assert abs(exact - numeric) <= 1e-9 * scale


def test_matmul_identity():
    m = PolyMatrix([[DR, ONE], [DB, ZERO]])
    assert matmul(m, PolyMatrix.identity(2)) == m
    assert matmul(PolyMatrix.identity(2), m) == m


def test_det_non_square_rejected():
    with pytest.raises(ValueError):
        poly_det(PolyMatrix([[ONE, ZERO]]))


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
    assert rank_at(PolyMatrix.identity(3).entries, *point) == 3
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
            det = poly_det(PolyMatrix(rows))
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


def _permuted_block_diagonal(blocks, rows: list[int], cols: list[int]) -> PolyMatrix:
    size = sum(b.rows for b in blocks)
    dense = [[ZERO] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for r, row in enumerate(b.entries):
            dense[off + r][off : off + b.rows] = row
        off += b.rows
    return PolyMatrix([[dense[r][c] for c in cols] for r in rows])


def test_det_of_permuted_block_diagonal_is_the_product_of_block_dets():
    rng = random.Random(5150)
    for trial in range(30):
        blocks, size = [], 0
        while size < rng.randrange(1, 21):
            k = min(rng.randrange(1, 6), 20 - size)
            blocks.append(PolyMatrix([[_sparse_entry(rng) for _ in range(k)] for _ in range(k)]))
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
    first = PolyMatrix([[ZERO, DR + 1], [DB - 2, DR * DB]])
    rng = random.Random(90210)
    rest = []
    for k in (4, 5, 4, 5):
        block = PolyMatrix([])
        while cofactor_det(block) in (ZERO, ONE):
            block = PolyMatrix([[_sparse_entry(rng) for _ in range(k)] for _ in range(k)])
        rest.append(block)
    size = 20
    tail = list(range(2, size))
    rng.shuffle(tail)
    order = [0, 1] + tail
    m = _permuted_block_diagonal([first, *rest], order, order)
    assert m[0, 0].is_zero
    expect = cofactor_det(first)
    for b in rest:
        expect = expect * cofactor_det(b)
    assert poly_det(m) == expect


def test_det_of_sparse_matrices_matches_cofactor_expansion():
    rng = random.Random(6061)
    for size in range(7):
        for _ in range(12):
            m = PolyMatrix([[_sparse_entry(rng) for _ in range(size)] for _ in range(size)])
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
            m = PolyMatrix(rows)
            det = poly_det(m)
            assert det == cofactor_det(m)
            if trial % 4 == 0:
                assert det == ZERO


def test_packed_det_edge_shapes():
    assert poly_det(PolyMatrix([])) == ONE
    for rows in ([[ONE, ZERO]], [[ONE], [DR]], [[]], [[DR, DB, ONE], [ONE, ONE, ONE]]):
        with pytest.raises(ValueError):
            poly_det(PolyMatrix(rows))


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
        m = PolyMatrix([[diag[r] if c == perm[r] else ZERO for c in range(3)] for r in range(3)])
        det = poly_det(m)
        assert det == cofactor_det(m)
        assert abs(det.terms[(0, 3)]) == 2**15 - 1


def test_det_with_huge_coefficients_and_exponents():
    # coefficients near 2^400 and exponents near +-1000 in both weights: the
    # packed entries span thousands of slots, each hundreds of bits wide
    c = 3**250
    m = PolyMatrix(
        [
            [c * DR**2 - c, LaurentPoly.monomial(0, 1000, c), ONE],
            [LaurentPoly.monomial(-1000, 0, -c), c * DB + 1, LaurentPoly.monomial(999, -999, 5)],
            [DR - DB, ZERO, LaurentPoly.monomial(-3, 1000, -c * c)],
        ]
    )
    det = poly_det(m)
    assert det == cofactor_det(m)
    assert max(abs(x) for x in det.terms.values()) > 2**1000


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
            m = PolyMatrix(rows)
            det = poly_det(m)
            assert det == cofactor_det(m)
            if trial % 4 == 0:
                assert det == ZERO


def test_packed_det_edge_shapes():
    assert poly_det(PolyMatrix([])) == ONE
    for rows in ([[ONE, ZERO]], [[ONE], [DR]], [[]], [[DR, DB, ONE], [ONE, ONE, ONE]]):
        with pytest.raises(ValueError):
            poly_det(PolyMatrix(rows))


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
        m = PolyMatrix([[diag[r] if c == perm[r] else ZERO for c in range(3)] for r in range(3)])
        det = poly_det(m)
        assert det == cofactor_det(m)
        assert abs(det.terms[(0, 3)]) == 2**15 - 1


def test_det_with_huge_coefficients_and_exponents():
    # coefficients near 2^400 and exponents of either sign up to 40: the
    # packed entries span hundreds of slots, each hundreds of bits wide
    c = 3**250
    m = PolyMatrix(
        [
            [c * DR**2 - c, LaurentPoly.monomial(0, 40, c), ONE],
            [LaurentPoly.monomial(-40, 0, -c), c * DB + 1, LaurentPoly.monomial(39, -39, 5)],
            [DR - DB, ZERO, LaurentPoly.monomial(-3, 40, -c * c)],
        ]
    )
    det = poly_det(m)
    assert det == cofactor_det(m)
    assert max(abs(x) for x in det.terms.values()) > 2**1000
