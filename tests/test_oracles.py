"""Self-consistency of the reference computations."""

from __future__ import annotations

from math import comb

from bubblealg.oracles import (
    bubble_basis_count,
    catalan,
    tl_bras,
    tl_gram_exponents,
    tl_halfdiagram_count,
    tl_inner_exponent,
)
from helpers import brute_force_bubble_encodings, tl_compose, tl_diagrams


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_bubble_count_closed_form():
    assert [bubble_basis_count(n) for n in range(1, 7)] == [2, 10, 70, 588, 5544, 56628]


def test_brute_force_matches_closed_form():
    for n in range(1, 5):
        enc = brute_force_bubble_encodings(n)
        assert len(enc) == bubble_basis_count(n)
        assert len(set(enc)) == len(enc)
        assert enc == sorted(enc)


def test_brute_force_rotation_invariant_counts():
    # the count only depends on the total number of boundary points
    assert len(brute_force_bubble_encodings(3, 1)) == 10
    assert len(brute_force_bubble_encodings(4, 0)) == 10
    assert len(brute_force_bubble_encodings(2, 2)) == 10


def test_smallest_encodings():
    assert brute_force_bubble_encodings(1) == ["D[1,1]{(1,2,b)}", "D[1,1]{(1,2,r)}"]


def test_halfdiagram_counts():
    assert tl_halfdiagram_count(3, 1) == 2
    assert tl_halfdiagram_count(4, 0) == 2
    assert tl_halfdiagram_count(4, 2) == 3
    assert tl_halfdiagram_count(5, 1) == 5
    assert tl_halfdiagram_count(4, 1) == 0
    assert tl_halfdiagram_count(2, 4) == 0


def test_halfdiagram_squares_sum_to_dimension():
    for n in range(1, 9):
        total = sum(tl_halfdiagram_count(n, k) ** 2 for k in range(n + 1))
        assert total == catalan(n)


def test_bras_match_counts():
    for n in range(1, 8):
        for k in range(n + 1):
            assert len(tl_bras(n, k)) == tl_halfdiagram_count(n, k)


def test_bras_small_cases():
    assert tl_bras(3, 1) == [(((1, 2),), (3,)), (((2, 3),), (1,))]
    assert tl_bras(2, 0) == [(((1, 2),), ())]
    assert tl_bras(2, 2) == [((), (1, 2))]


def test_gram_exponent_matrices():
    assert tl_gram_exponents(2, 0) == [[1]]
    assert tl_gram_exponents(3, 1) == [[1, 0], [0, 1]]
    assert tl_gram_exponents(4, 0) == [[2, 1], [1, 2]]
    # tridiagonal with zeros where a chain joins two same-side defects
    assert tl_gram_exponents(4, 2) == [[1, 0, None], [0, 1, 0], [None, 0, 1]]


def test_inner_turn_back_is_zero():
    x = (((1, 2),), (3, 4))
    y = (((3, 4),), (1, 2))
    assert tl_inner_exponent(x, y) is None
    assert tl_inner_exponent(x, x) == 1


def test_full_diagram_counts():
    for n in range(1, 5):
        assert len(tl_diagrams(n)) == catalan(n)


def test_tl_composition_relations():
    e = ((1, 2), (3, 4))
    ident = ((1, 3), (2, 4))
    assert tl_compose(2, e, e) == (1, e)
    assert tl_compose(2, ident, e) == (0, e)
    assert tl_compose(2, e, ident) == (0, e)
    # the braid-like relation e1 e2 e1 = e1 with no loops
    e1 = ((1, 2), (3, 6), (4, 5))
    e2 = ((1, 4), (2, 3), (5, 6))
    loops1, d1 = tl_compose(3, e1, e2)
    loops2, d2 = tl_compose(3, d1, e1)
    assert (loops1 + loops2, d2) == (0, e1)


def test_tl_closure_under_composition():
    diagrams = set(tl_diagrams(3))
    for a in diagrams:
        for b in diagrams:
            loops, d = tl_compose(3, a, b)
            assert d in diagrams
            assert loops >= 0


def test_ballot_formula_identity():
    # the defect-count refinement telescopes against binomials
    for n in range(1, 9):
        for k in range(n + 1):
            if (n - k) % 2 == 0:
                m = (n - k) // 2
                expect = comb(n, m) - (comb(n, m - 1) if m else 0)
                assert tl_halfdiagram_count(n, k) == expect
