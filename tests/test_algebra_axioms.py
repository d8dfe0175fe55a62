"""The algebra's own axioms, on diagrams, through ``diagram.products`` alone.

Everything else rests on B_n being an associative algebra whose loop
weights multiply, with the sum of the straight diagrams as its unit and
the top-bottom mirror as an anti-involution (the cellular structure
needs it).  These tests compare the output of ``products`` with itself
and never build an ``Element``, so a fault in the gluing kernel cannot
hide behind the same fault in the element product.  A product is the
triple (red loops, blue loops, diagram); two products multiply by adding
their loop counts.

Associativity is checked on every triple of B_n for n <= 3, on seeded
samples of the listed B_n at n = 5 and 6, and at n = 7 and 8 on triples
drawn without listing B_n: each factor is a random word in the ten B_2
diagrams, each placed at an adjacent pair with straight strands
elsewhere.  Over all of B_4 (818 496 triples) it takes about 7 s, too
long for these tests.

The same placed B_2 diagrams generate B_n: a closure under right
multiplication (Froidure and Pin, "Algorithms for computing finite
semigroups", 1997) from the six that are not straight, at every adjacent
pair and in every colouring of the other strands, reaches every diagram
of B_n but the two one-colour straight ones for n <= 5.
"""

from __future__ import annotations

import functools
import random
from itertools import product

import pytest

from bubblealg.basis import enumerate_basis
from bubblealg.diagram import BLUE, RED, endpoint_arrays, make_diagram, products, straight_diagram
from helpers import mirror


def product_table(left, right) -> dict:
    """{(a, b): (loops_r, loops_b, a·b)} over every nonzero product."""
    return {(a, b): (lr, lb, d) for a, b, lr, lb, d in products(left, right)}


def times(a, b):
    """(loops_r, loops_b, a·b), or None for a zero product."""
    for _, _, lr, lb, d in products((a,), (b,)):
        return lr, lb, d
    return None


def associates(a, b, c, extra_red_loop: bool = False) -> bool:
    """Whether (a·b)·c is a·(b·c), loops added, for a·b and b·c nonzero;
    ``extra_red_loop`` as in ``associativity_failures``."""
    lr1, lb1, ab = times(a, b)
    lr2, lb2, bc = times(b, c)
    lr3, lb3, left = times(ab, c)
    lr4, lb4, right = times(a, bc)
    lr4 += extra_red_loop and lr2 > 0
    return (lr1 + lr3, lb1 + lb3, left) == (lr2 + lr4, lb2 + lb4, right)


def associativity_failures(basis, extra_red_loop: bool = False) -> tuple[int, int]:
    """(triples, failures) over every triple a, b, c of ``basis`` with
    a·b and b·c nonzero, comparing (a·b)·c with a·(b·c), loops added.

    With ``extra_red_loop`` the right side gains one red loop whenever
    b·c closed one: a fault the check must see."""
    table = product_table(basis, basis)
    after: dict = {}
    for (b, c), bc in table.items():
        after.setdefault(b, []).append((c, bc))
    triples = failures = 0
    for (a, b), (lr1, lb1, ab) in table.items():
        for c, (lr2, lb2, bc) in after.get(b, ()):
            triples += 1
            lr3, lb3, left = table[ab, c]
            lr4, lb4, right = table[a, bc]
            lr4 += extra_red_loop and lr2 > 0
            if (lr1 + lr3, lb1 + lb3, left) != (lr2 + lr4, lb2 + lb4, right):
                failures += 1
    return triples, failures


@pytest.mark.parametrize("n, triples", [(1, 2), (2, 70), (3, 5626)])
def test_associative_on_every_triple(n, triples):
    assert associativity_failures(enumerate_basis(n)) == (triples, 0)


def test_an_extra_red_loop_breaks_associativity():
    # the control: the check sees a loop count that is off by one
    assert associativity_failures(enumerate_basis(3), extra_red_loop=True) == (5626, 1150)


def words(d) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The colour words of d's northern and southern edges."""
    colour = endpoint_arrays(d.n_north + d.n_south, d.pairs)[1]
    return tuple(colour[1 : d.n_north + 1]), tuple(colour[d.n_north + 1 :])


@pytest.mark.parametrize("n, seed", [(5, 5), (6, 6)])
def test_associative_on_sampled_triples(n, seed):
    # a·b is nonzero exactly when a's southern word is b's northern one,
    # as ``products`` buckets them, so each draw is a nonzero triple
    basis = enumerate_basis(n)
    by_north: dict = {}
    for d in basis:
        by_north.setdefault(words(d)[0], []).append(d)
    rng = random.Random(seed)
    for _ in range(20_000):
        a = rng.choice(basis)
        b = rng.choice(by_north[words(a)[1]])
        c = rng.choice(by_north[words(b)[1]])
        assert associates(a, b, c)


B2 = enumerate_basis(2)


def placed(g, k: int, word: tuple[int, ...]):
    """The B_2 diagram g at points k, k+1 of n = len(word), every other
    strand straight in word's colour there."""
    n = len(word)
    point = (0, k, k + 1, n + k, n + k + 1)
    straight = [(m, n + m, c) for m, c in enumerate(word, 1) if m not in (k, k + 1)]
    return make_diagram(n, n, straight + [(point[p], point[q], c) for p, q, c in g.pairs])


def drawn(rng: random.Random, word: tuple[int, ...]):
    """A diagram with northern word ``word``: a product of 3n B_2
    diagrams, each drawn with a random adjacent pair among those whose
    north fits the colours there, the loops dropped."""
    n = len(word)
    d = straight_diagram(word)
    for _ in range(3 * n):
        k = rng.randrange(1, n)
        south = words(d)[1]
        g = rng.choice([g for g in B2 if words(g)[0] == south[k - 1 : k + 1]])
        d = times(d, placed(g, k, south))[2]
    return d


@functools.cache
def drawn_triples(n: int, seed: int) -> tuple:
    """500 seeded triples (a, b, c) of B_n, b drawn from a's southern word
    and c from b's, so a·b and b·c are nonzero."""
    rng = random.Random(seed)
    triples = []
    for _ in range(500):
        a = drawn(rng, tuple(rng.choice((RED, BLUE)) for _ in range(n)))
        b = drawn(rng, words(a)[1])
        triples.append((a, b, drawn(rng, words(b)[1])))
    return tuple(triples)


@pytest.mark.parametrize("n, seed", [(7, 7), (8, 8)])
def test_associative_on_drawn_triples(n, seed):
    assert all(associates(*triple) for triple in drawn_triples(n, seed))


@pytest.mark.parametrize("n, seed", [(7, 7), (8, 8)])
def test_an_extra_red_loop_breaks_the_drawn_triples(n, seed):
    # the control, on the same sample
    assert not all(associates(*triple, extra_red_loop=True) for triple in drawn_triples(n, seed))


def test_the_mirror_is_an_anti_involution_on_b4():
    basis = enumerate_basis(4)
    image = {d: mirror(d) for d in basis}
    assert all(image[image[d]] == d for d in basis)
    table = product_table(basis, basis)
    mirrored = product_table(image.values(), image.values())
    assert len(table) == 21_912
    # (a·b)* = b*·a*, loops kept; as many nonzero pairs on both sides, so
    # a zero pair maps to a zero pair
    assert len(mirrored) == len(table)
    for (a, b), (lr, lb, d) in table.items():
        assert mirrored[image[b], image[a]] == (lr, lb, image[d])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_straight_diagrams_sum_to_a_two_sided_unit(n):
    # each diagram meets exactly one straight diagram on either side, with
    # no loop, and comes back unchanged
    straights = [straight_diagram(word) for word in product((RED, BLUE), repeat=n)]
    basis = enumerate_basis(n)
    for d in basis:
        assert list(products(straights, (d,))) == [(straight_diagram(words(d)[0]), d, 0, 0, d)]
        assert list(products((d,), straights)) == [(d, straight_diagram(words(d)[1]), 0, 0, d)]


def local_generators(n: int, crossings: bool = True) -> list:
    """The B_2 diagrams that are not straight, each placed at every
    adjacent pair of n points in every colouring of the other strands:
    6·(n-1)·2^(n-2) of them, or 4·(n-1)·2^(n-2) without the two crossings."""
    left_out = [{(1, 3), (2, 4)}] + ([] if crossings else [{(1, 4), (2, 3)}])
    shapes = [g for g in B2 if {(p, q) for p, q, _ in g.pairs} not in left_out]
    return [
        placed(g, k, rest[: k - 1] + (RED, RED) + rest[k - 1 :])
        for k in range(1, n)
        for rest in product((RED, BLUE), repeat=n - 2)
        for g in shapes
    ]


def right_closure(generators: list) -> set:
    """Every nonzero product of one or more generators, loops dropped,
    found breadth first by multiplying the newest on the right."""
    reached = set(generators)
    frontier = reached
    while frontier:
        frontier = {d for *_, d in products(frontier, generators)} - reached
        reached |= frontier
    return reached


@pytest.mark.parametrize("n, reached", [(2, 8), (3, 68), (4, 586), (5, 5_542)])
def test_the_local_generators_generate_b_n(n, reached):
    generators = local_generators(n)
    assert len(generators) == len(set(generators)) == 6 * (n - 1) * 2 ** (n - 2)
    closure = right_closure(generators)
    # the one-colour straight diagrams are identities, not products
    identities = {straight_diagram((RED,) * n), straight_diagram((BLUE,) * n)}
    assert len(closure) == reached
    assert closure == set(enumerate_basis(n)) - identities


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_without_the_crossings_fewer_diagrams_are_reached(n):
    # the control: no strand can pass one of the other colour
    generators = local_generators(n, crossings=False)
    assert len(generators) == 4 * (n - 1) * 2 ** (n - 2)
    assert len(right_closure(generators)) < len(enumerate_basis(n)) - 2
