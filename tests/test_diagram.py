"""Diagram construction, composition, and element algebra."""

from __future__ import annotations

import tracemalloc

import pytest

from bubblealg import diagram
from bubblealg.basis import enumerate_basis, enumerate_bras, standard_labels
from bubblealg.diagram import (
    BLUE,
    RED,
    Diagram,
    SizeMismatchError,
    circular_positions,
    compose,
    endpoint_arrays,
    glue,
    make_diagram,
    products,
    propagating_index,
    straight_diagram,
)
from bubblealg.exactpoly import (
    DB,
    DR,
    Element,
    LaurentPoly,
    identity_element,
    local_generators,
    white_generator,
)
from helpers import (
    enumerate_via_seeds,
    module_generator,
    natural_inclusion,
    pad_with_identity,
    tensor_diagram,
    white_cupcap_chain,
    word_from_chars,
)


def cupcap(c_top: int, c_bot: int) -> Diagram:
    return make_diagram(2, 2, [(1, 2, c_top), (3, 4, c_bot)])


def crossing(c_left: int, c_right: int) -> Diagram:
    # north point 1 runs to the south right point, north point 2 to the
    # south left point; distinct colours are required for planarity
    return make_diagram(2, 2, [(1, 4, c_left), (2, 3, c_right)])


class TestConstruction:
    def test_circular_order_interleaves_south(self):
        assert circular_positions(2, 2) == [1, 2, 4, 3]
        assert circular_positions(3, 1) == [1, 2, 3, 4]
        assert circular_positions(0, 4) == [4, 3, 2, 1]

    def test_make_diagram_normalises(self):
        d = make_diagram(2, 2, [(4, 3, RED), (2, 1, BLUE)])
        assert d.pairs == ((1, 2, BLUE), (3, 4, RED))

    def test_same_colour_crossing_rejected(self):
        with pytest.raises(ValueError):
            make_diagram(2, 2, [(1, 4, RED), (2, 3, RED)])

    def test_different_colour_crossing_allowed(self):
        crossing(RED, BLUE)
        crossing(BLUE, RED)

    def test_nested_same_colour_allowed(self):
        # (1,4) nests (2,3) on the northern edge alone
        make_diagram(4, 0, [(1, 4, RED), (2, 3, RED)])

    def test_north_south_pairs_not_crossing(self):
        # two parallel strands do not interleave circularly: order 1,2,4,3
        straight_diagram([RED, RED])
        # but swapping the south endpoints of same-coloured strands does
        with pytest.raises(ValueError):
            make_diagram(2, 2, [(1, 4, RED), (2, 3, RED)])

    def test_double_matched_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Diagram(2, 2, ((1, 2, RED), (2, 4, RED)))

    def test_tuple_copies_are_checked_too(self):
        # a diagram is a named tuple; its _make and _replace validate
        d = Diagram(2, 2, ((1, 2, RED), (3, 4, RED)))
        assert d._replace(pairs=((1, 2, BLUE), (3, 4, BLUE))) == Diagram._make(
            (2, 2, ((1, 2, BLUE), (3, 4, BLUE)))
        )
        with pytest.raises(ValueError):
            d._replace(pairs=((1, 4, RED), (2, 3, RED)))
        with pytest.raises(ValueError):
            Diagram._make((2, 2, ((2, 1, RED), (3, 4, RED))))

    @pytest.mark.parametrize("colour", [2, -1])
    def test_colour_that_is_neither_red_nor_blue_rejected(self, colour):
        with pytest.raises(ValueError, match="neither red nor blue"):
            Diagram(1, 1, ((1, 2, colour),))

    def test_odd_boundary_rejected(self):
        with pytest.raises(ValueError):
            Diagram(2, 1, ((1, 2, RED),))

    def test_encode_decode_round_trip(self):
        samples = [
            cupcap(RED, BLUE),
            crossing(RED, BLUE),
            straight_diagram([RED, BLUE, RED]),
            module_generator(4, word_from_chars("rb")),
            make_diagram(4, 0, [(1, 4, RED), (2, 3, BLUE)]),
        ]
        for d in samples:
            assert Diagram.decode(d.encode()) == d
        for n in range(0, 5):
            for d in enumerate_basis(n):
                assert Diagram.decode(d.encode()) == d

    def test_encoding_text(self):
        assert cupcap(RED, RED).encode() == "D[2,2]{(1,2,r);(3,4,r)}"
        assert straight_diagram([BLUE]).encode() == "D[1,1]{(1,2,b)}"

    def test_decode_rejects_malformed(self):
        for bad in [
            "",
            "D[2,2]{(1,2,x)}",
            "D[2,2]{(1,2,r)}",
            "D[2,2]{(1,2,r);(3,4,r)",
            # decode accepts canonical text only
            "D[2,2]{(2,1,r);(3,4,r)}",
            "D[2,2]{(3,4,r);(1,2,r)}",
            "D[2,2]{(01,2,r);(3,4,r)}",
            "D[2,2]{(1,2,r);(3,4,r)} ",
            "D[99999,99999]{}",
            # loose splitting and int() take most of these; the round trip
            # refuses them all
            "D[+2,2]{(1,2,r);(3,4,r)}",
            "D[2,2]{(1, 2,r);(3,4,r)}",
            "D[2,2]{( 1,2,r);(3,4,r)}",
            "D[2,2]{(1,2,r);(3,4,r)}".replace("4", "\u0664"),
            "D[2,2]{(1,2,R);(3,4,r)}",
            "D[2,2]{(1,2,);(3,4,r)}",
            "D[2,2]{(1,2,r);(3,4,r)}]{}",
            "D[2,2]{(1,2,r)]{(3,4,r)}",
            "D[10,0]{(1,1_0,r);(2,9,r);(3,8,r);(4,7,r);(5,6,r)}",
        ]:
            with pytest.raises(ValueError):
                Diagram.decode(bad)

    def test_huge_sizes_fail_on_the_pair_count_first(self):
        # the count is checked before any endpoint array is allocated: two
        # arrays of 199 999 slots would take over 3 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="pair count"):
                Diagram.decode("D[99999,99999]{}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestCompose:
    def test_straight_over_straight(self):
        s = straight_diagram([RED, BLUE])
        assert compose(s, s) == (0, 0, s)

    def test_colour_mismatch_is_zero(self):
        s_r = straight_diagram([RED, RED])
        s_b = straight_diagram([BLUE, BLUE])
        assert compose(s_r, s_b) is None

    def test_size_mismatch_raises(self):
        with pytest.raises(SizeMismatchError):
            compose(straight_diagram([RED]), straight_diagram([RED, RED]))

    def test_loop_extraction(self):
        d = cupcap(RED, RED)
        assert compose(d, d) == (1, 0, d)
        db_ = cupcap(BLUE, BLUE)
        assert compose(db_, db_) == (0, 1, db_)

    def test_loop_colour_from_glued_strands(self):
        # red cap glued onto blue cup is zero, not a loop
        assert compose(cupcap(RED, RED), cupcap(BLUE, BLUE)) is None
        # blue cap onto blue cup closes a blue loop whatever the outer colours
        assert compose(cupcap(RED, BLUE), cupcap(BLUE, RED)) == (0, 1, cupcap(RED, RED))

    def test_crossing_squares(self):
        x = crossing(RED, BLUE)
        y = crossing(BLUE, RED)
        # gluing x over x mismatches colours pointwise
        assert compose(x, x) is None
        assert compose(x, y) == (0, 0, straight_diagram([RED, BLUE]))
        assert compose(y, x) == (0, 0, straight_diagram([BLUE, RED]))

    def test_cup_through_crossing(self):
        # crossing over a red cup-cap recolours nothing but permutes feet
        x = crossing(RED, BLUE)
        r = compose(x, cupcap(BLUE, RED))
        # upper south: point 3 colour b, point 4 colour r; lower north cup
        # is blue only at both points, so the red half mismatches
        assert r is None
        ok = compose(cupcap(RED, BLUE), straight_diagram([BLUE, BLUE]))
        assert ok == (0, 0, cupcap(RED, BLUE))

    def test_rectangular_shapes(self):
        cap = make_diagram(0, 2, [(1, 2, RED)])
        cup = make_diagram(2, 0, [(1, 2, RED)])
        # no points are glued: the arcs stack into a cup-cap
        assert compose(cup, cap) == (0, 0, cupcap(RED, RED))
        # the other order closes a single red loop
        assert compose(cap, cup) == (1, 0, make_diagram(0, 0, []))

    def test_propagating_index(self):
        assert propagating_index(straight_diagram([RED, BLUE, BLUE])) == (1, 2)
        assert propagating_index(cupcap(RED, RED)) == (0, 0)
        assert propagating_index(module_generator(4, word_from_chars("rb"))) == (1, 1)


class TestProducts:
    @staticmethod
    def glued_pairs(left, right):
        """Every pair glued, without buckets; the colour clashes drop out."""
        out = []
        for a in left:
            for b in right:
                top = endpoint_arrays(a.n_north + a.n_south, a.pairs)
                bottom = endpoint_arrays(b.n_north + b.n_south, b.pairs)
                if (r := glue(top, bottom, a.n_north, a.n_south, b.n_south)) is not None:
                    out.append((a, b, r[0], r[1], make_diagram(a.n_north, b.n_south, r[2])))
        return out

    def assert_products_agree(self, left, right):
        want = self.glued_pairs(left, right)
        assert want and list(products(left, right)) == want
        nonzero = {(a, b): (lr, lb, d) for a, b, lr, lb, d in want}
        for a in left:
            for b in right:
                assert compose(a, b) == nonzero.get((a, b))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_yields_exactly_the_nonzero_compositions(self, n):
        basis = enumerate_basis(n)
        self.assert_products_agree(basis, basis)

    @pytest.mark.parametrize("top, bottom", [((1, 3), (3, 1)), ((3, 1), (1, 3)), ((2, 4), (4, 0))])
    def test_rectangular_shapes_agree_with_compose(self, top, bottom):
        # B_n's front ends are square; the seed route builds rectangles
        self.assert_products_agree(enumerate_via_seeds(*top), enumerate_via_seeds(*bottom))

    def test_glues_only_word_matched_pairs(self, monkeypatch):
        glue, calls = diagram.glue, []

        def counting(*args):
            calls.append(args)
            return glue(*args)

        monkeypatch.setattr(diagram, "glue", counting)
        basis = enumerate_basis(3)
        assert sum(1 for _ in products(basis, basis)) == 626
        assert len(calls) == 626


def edge_words(d: Diagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The colours of the north points, then of the south points, each
    point's colour looked up pair by pair."""
    colours = []
    for point in range(1, d.n_north + d.n_south + 1):
        colours += [c for p, q, c in d.pairs if point in (p, q)]
    return tuple(colours[: d.n_north]), tuple(colours[d.n_north :])


class TestKeptArrays:
    """What a diagram keeps once read: its endpoint arrays and edge words."""

    @staticmethod
    def diagrams_and_bras():
        for n in range(5):
            yield from enumerate_basis(n)
        for n in range(7):
            for i, j in standard_labels(n):
                yield from enumerate_bras(n, i, j)

    def test_words_and_arrays_are_read_off_the_pairs(self):
        for d in self.diagrams_and_bras():
            assert d.words == edge_words(d)
            assert d.endpoints == endpoint_arrays(d.n_north + d.n_south, d.pairs)

    def test_a_second_read_returns_the_same_object(self):
        bra = enumerate_bras(4, 1, 1)[0]
        product = next(products(enumerate_basis(2), enumerate_basis(2)))[4]
        for d in (cupcap(RED, BLUE), make_diagram(0, 2, [(1, 2, RED)]), bra, product):
            assert d.endpoints is d.endpoints
            assert d.words is d.words

    @pytest.mark.parametrize("n", range(2, 7))
    def test_local_generators_are_one_table_per_position(self, n):
        for k in range(1, n):
            table = local_generators(n, k)
            assert isinstance(table, tuple)
            assert local_generators(n, k) is table
        # a refused position is refused on every call, never cached
        for k in (0, n):
            for _ in range(2):
                with pytest.raises(ValueError, match="out of range"):
                    local_generators(n, k)


class TestElement:
    def test_zero_coefficients_pruned(self):
        e = Element(2, 2, [(cupcap(RED, RED), LaurentPoly.zero())])
        assert e.is_zero

    def test_add_cancels(self):
        d = cupcap(RED, RED)
        x = Element.from_diagram(d)
        e = x + x.scale(-1)
        assert e.is_zero

    def test_shape_mismatch_raises(self):
        with pytest.raises(SizeMismatchError):
            Element(2, 2, [(straight_diagram([RED]), LaurentPoly.one())])

    def test_sum_and_product_across_shapes_raise(self):
        one, two = identity_element(1), identity_element(2)
        with pytest.raises(SizeMismatchError, match="element shapes differ"):
            one + two
        with pytest.raises(SizeMismatchError, match="cannot be composed"):
            one * two

    def test_repr_lists_terms_by_diagram_encoding(self):
        assert repr(Element.zero(3, 1)) == "Element[3,1](0)"
        # built straight first, printed cup-cap first: its encoding sorts first
        e = Element(2, 2, [(straight_diagram([RED, BLUE]), 2 * DR), (cupcap(BLUE, RED), -1)])
        assert repr(e) == (
            "Element[2,2]((-1*dr^0*db^0)*D[2,2]{(1,2,b);(3,4,r)} + (2*dr^1*db^0)*D[2,2]{(1,3,r);(2,4,b)})"
        )

    def test_cancelling_terms_are_dropped(self):
        u = cupcap(RED, RED)
        assert Element(2, 2, [(u, DR), (u, -DR)]) == Element.zero(2, 2)
        # U U = dr U and U 1 = U, so U (U - dr 1) cancels term by term
        x = Element.from_diagram(u)
        product = x * (x + Element.from_diagram(straight_diagram([RED, RED])).scale(-DR))
        assert product.is_zero and len(product) == 0

    @pytest.mark.parametrize("i", [0, 3])
    def test_white_generator_position_out_of_range(self, i):
        with pytest.raises(ValueError, match="generator position"):
            white_generator(3, i)

    def test_white_generator_square(self):
        # the all-colours cup-cap squares to (dr + db) times itself
        for n, i in [(2, 1), (3, 1), (3, 2)]:
            u = white_generator(n, i)
            assert len(u) == 2 ** n
            assert u * u == u.scale(DR + DB)

    def test_identity_is_unit(self):
        one = identity_element(2)
        assert len(one) == 4
        assert one * one == one
        u = white_generator(2, 1)
        assert one * u == u
        assert u * one == u

    def test_identity_terms_are_orthogonal_idempotents(self):
        one = identity_element(3)
        parts = [Element.from_diagram(d) for d in one.diagrams()]
        for i, p in enumerate(parts):
            for j, q in enumerate(parts):
                expect = p if i == j else Element.zero(3, 3)
                assert p * q == expect

    def test_scalar_multiplication(self):
        u = white_generator(2, 1)
        assert u.scale(2) + u.scale(-2) == Element.zero(2, 2)
        assert (DR * u) == u.scale(DR)
        assert (u * 3).coefficient(cupcap(RED, BLUE)) == LaurentPoly.const(3)

    def test_associativity_exhaustive_on_sample(self):
        sample = [
            straight_diagram([RED, RED]),
            straight_diagram([RED, BLUE]),
            cupcap(RED, RED),
            cupcap(BLUE, RED),
            crossing(RED, BLUE),
            crossing(BLUE, RED),
        ]
        elems = [Element.from_diagram(d) for d in sample]
        for x in elems:
            for y in elems:
                for z in elems:
                    assert (x * y) * z == x * (y * z)

    def test_distributivity(self):
        u = white_generator(2, 1)
        x = Element.from_diagram(crossing(RED, BLUE))
        y = Element.from_diagram(cupcap(RED, BLUE))
        assert u * (x + y) == u * x + u * y
        assert (x + y) * u == x * u + y * u


class TestBuilders:
    def test_tensor_of_straights(self):
        a = straight_diagram([RED])
        b = cupcap(BLUE, BLUE)
        t = tensor_diagram(a, b)
        assert t == make_diagram(3, 3, [(1, 4, RED), (2, 3, BLUE), (5, 6, BLUE)])

    def test_inclusion_matches_wider_generator(self):
        # appending a summed strand to the n=2 cup-cap gives the n=3 one
        assert natural_inclusion(white_generator(2, 1)) == white_generator(3, 1)

    def test_padding_left_shifts_position(self):
        assert pad_with_identity(white_generator(2, 1), 1, 0) == white_generator(3, 2)
        # the cup-cap at i is the n = 2 one with i - 1 strands on its left
        for n in range(2, 7):
            for i in range(1, n):
                assert pad_with_identity(white_generator(2, 1), i - 1, n - i - 1) == white_generator(n, i)

    def test_inclusion_preserves_products(self):
        u = white_generator(2, 1)
        x = Element.from_diagram(crossing(RED, BLUE))
        assert natural_inclusion(u * x) == natural_inclusion(u) * natural_inclusion(x)
        assert natural_inclusion(identity_element(2)) == identity_element(3)

    def test_cupcap_chain_is_generator_product(self):
        assert white_cupcap_chain(2, 1) == white_generator(2, 1)
        assert white_cupcap_chain(4, 0) == identity_element(4)
        prod = white_generator(4, 1) * white_generator(4, 3)
        assert white_cupcap_chain(4, 2) == prod

    def test_module_generator_shape(self):
        d = module_generator(4, word_from_chars("rb"))
        assert d.encode() == "D[4,4]{(1,2,r);(3,7,r);(4,8,b);(5,6,r)}"
        d2 = module_generator(3, word_from_chars("b"), cup_colour=BLUE)
        assert d2.encode() == "D[3,3]{(1,2,b);(3,6,b);(4,5,b)}"
        with pytest.raises(ValueError):
            module_generator(4, word_from_chars("r"))

    def test_word_parsing(self):
        assert word_from_chars("rbr") == (RED, BLUE, RED)
        with pytest.raises(ValueError):
            word_from_chars("rx")
