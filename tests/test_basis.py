"""Basis enumeration against the reference routes, dimensions, halves."""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bubblealg
from bubblealg import basis
from bubblealg.basis import (
    DEFAULT_MAX_N,
    HalfDiagram,
    ResourceLimitError,
    basis_encodings,
    enumerate_basis,
    enumerate_bras,
    make_half,
    monochrome_straight_diagrams,
    rank_identity,
    restrict_bra,
    standard_labels,
    walk_count,
)
from bubblealg.diagram import BLUE, RED, Diagram, compose, propagating_index
from bubblealg.oracles import bubble_basis_count, catalan
from bubblealg.stdmod import act_diagram
from helpers import (
    add_line,
    brute_force_bubble_encodings,
    brute_walk_count,
    cut_diagram,
    enumerate_via_seeds,
    join_halves,
    stratify,
    tl_compose,
    tl_diagrams,
    turn_back,
)


def half_from_view(encoding: str, n: int, i: int) -> str | None:
    """The half-diagram encoding a diagram view stands for, None when the
    view has a southern arc or a cut of the wrong colour."""
    pairs = [(int(p), int(q), c) for p, q, c in re.findall(r"\((\d+),(\d+),([rb])\)", encoding)]
    arcs = [f"({p},{q},{c})" for p, q, c in pairs if q <= n]
    cuts = sorted((q - n, p, c) for p, q, c in pairs if q > n)
    if any(p > n or c != ("r" if k <= i else "b") for k, p, c in cuts):
        return None
    reds = ",".join(str(p) for k, p, c in cuts if c == "r")
    blues = ",".join(str(p) for k, p, c in cuts if c == "b")
    return f"H[{n}]{{{';'.join(arcs)}}}{{r:{reds}}}{{b:{blues}}}"


def all_red(diagrams: list[Diagram]) -> list[Diagram]:
    """The one-colour basis: the all-red diagrams, in the given order."""
    return [d for d in diagrams if all(c == RED for _, _, c in d.pairs)]


class TestEnumeration:
    def test_counts_match_closed_form(self):
        for n in range(0, 6):
            assert len(enumerate_basis(n)) == bubble_basis_count(n)

    def test_matches_brute_force(self):
        for n in range(1, 5):
            engine = [d.encode() for d in enumerate_basis(n)]
            assert engine == brute_force_bubble_encodings(n)

    def test_seed_route_agrees(self):
        for n in range(0, 6):
            assert enumerate_via_seeds(n) == enumerate_basis(n)

    def test_sorted_and_unique(self):
        basis = enumerate_basis(3)
        encs = [d.encode() for d in basis]
        assert encs == sorted(encs)
        assert len(set(encs)) == len(encs)

    @pytest.mark.parametrize("shape", [(5, 5), (6, 6)])
    def test_encoding_order_at_two_digit_endpoints(self, shape):
        # from 10 points on, string order puts the pair text (10, before (2,
        n, _ = shape
        encs = [d.encode() for d in enumerate_basis(n)]
        assert all(a < b for a, b in zip(encs, encs[1:]))
        assert len(encs) == walk_count(sum(shape), 0, 0)

    def test_one_colour_restriction_counts(self):
        for n in range(1, 5):
            assert len(all_red(enumerate_basis(n))) == catalan(n)

    def test_one_colour_composition_matches_union_find(self):
        n = 3
        basis = all_red(enumerate_basis(n))
        as_tuples = {d: tuple(sorted((p, q) for p, q, _ in d.pairs)) for d in basis}
        assert sorted(as_tuples.values()) == list(tl_diagrams(n))
        for a in basis:
            for b in basis:
                r = compose(a, b)
                assert r is not None
                loops_r, loops_b, d = r
                assert loops_b == 0
                assert (loops_r, as_tuples[d]) == tl_compose(n, as_tuples[a], as_tuples[b])

    def test_straight_diagrams_in_basis(self):
        straights = monochrome_straight_diagrams(2)
        assert len(straights) == 4
        basis = set(enumerate_basis(2))
        assert all(d in basis for d in straights)
        assert all(sum(propagating_index(d)) == 2 for d in straights)

    def test_straight_diagrams_come_in_encoding_order(self):
        for n in range(11):
            straights = monochrome_straight_diagrams(n)
            assert len(straights) == 2**n
            assert straights == sorted(straights, key=Diagram.encode)

    def test_front_ends_agree_on_every_small_shape(self):
        # every B_n up to 10 points, the empty one included
        for n in range(6):
            basis = enumerate_basis(n)
            assert basis_encodings(n) == [d.encode() for d in basis]

    def test_encodings_golden_at_seven(self):
        # sha256 of the n = 7 text recorded on the whole-boundary walk; it
        # is also the hash in the n = 7 cache header
        lines = basis_encodings(7)
        assert len(lines) == 613470
        assert hashlib.sha256("".join(lines).encode("ascii")).hexdigest() == (
            "2ef341b310ed5cb597881a028ad9032e46e84eb9b96bfb6dc5179ad9b9f62877"
        )

    def test_leaf_count_never_goes_through_the_edge_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an edge was walked")

        monkeypatch.setattr(basis, "_bra_views", refuse)
        with pytest.raises(AssertionError):
            basis_encodings(2)
        report = rank_identity(6)
        assert report.holds and report.basis_size == 56628

    def test_encodings_build_no_half_diagram(self, monkeypatch):
        # the text reads the walk's views; no bra is built or sorted
        want = [d.encode() for d in enumerate_basis(5)]

        def refuse(*args, **kwargs):
            raise AssertionError("a half diagram was built")

        monkeypatch.setattr(basis, "enumerate_bras", refuse)
        monkeypatch.setattr(HalfDiagram, "_raw", refuse)
        assert basis_encodings(5) == want

    @pytest.mark.parametrize(
        "front_end, size",
        [
            (enumerate_basis, len),
            pytest.param(rank_identity, lambda report: report.basis_size, id="rank_identity-basis_size"),
            (basis_encodings, len),
        ],
    )
    def test_front_ends_share_the_guards(self, front_end, size):
        with pytest.raises(ResourceLimitError):
            front_end(DEFAULT_MAX_N + 1)
        with pytest.raises(ResourceLimitError):
            front_end(3, max_n=2)
        with pytest.raises(ValueError):
            front_end(-1)
        assert size(front_end(1, max_n=1)) == 2

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_basis(DEFAULT_MAX_N + 1)
        with pytest.raises(ResourceLimitError):
            enumerate_bras(2 * DEFAULT_MAX_N + 1, 1, 0)
        # the guard is max_n, not the default: lowered it refuses, and
        # raised back it admits
        with pytest.raises(ResourceLimitError):
            enumerate_basis(3, max_n=2)
        assert len(enumerate_basis(3, max_n=3)) == 70

    def test_trusted_results_pass_full_validation(self):
        # enumeration and composition skip the validity rule; rebuilding
        # through the checking constructor must reproduce every result
        for n in range(0, 6):
            for d in enumerate_basis(n):
                assert Diagram(d.n_north, d.n_south, d.pairs) == d
        basis = enumerate_basis(3)
        for a in basis:
            for b in basis:
                r = compose(a, b)
                if r is not None:
                    d = r[2]
                    assert Diagram(d.n_north, d.n_south, d.pairs) == d


class TestDimensions:
    def test_frozen_walk_values(self):
        assert walk_count(2, 0, 0) == 2
        assert walk_count(3, 1, 0) == 5
        # three one-colour and six mixed-arc half diagrams, not five
        assert walk_count(4, 2, 0) == 9
        assert walk_count(5, 1, 0) == 35
        table6 = {(0, 0): 70, (2, 0): 84, (1, 1): 140, (4, 0): 20, (3, 1): 64, (2, 2): 90}
        for (i, j), expect in table6.items():
            assert walk_count(6, i, j) == expect
            assert walk_count(6, j, i) == expect

    def test_full_propagating_labels_are_binomial(self):
        for n in range(0, 9):
            for i in range(n + 1):
                from math import comb

                assert walk_count(n, i, n - i) == comb(n, i)

    def test_against_step_sequence_enumeration(self):
        for n in range(0, 6):
            for i in range(n + 1):
                for j in range(n + 1 - i):
                    assert walk_count(n, i, j) == brute_walk_count(n, i, j)

    def test_total_is_closed_form(self):
        for n in range(0, 61):
            assert walk_count(2 * n, 0, 0) == bubble_basis_count(n)

    def test_deep_walks_need_no_recursion(self):
        # the count is a product of factorials, not a recursion, so far
        # past a lowered recursion limit it still agrees with the closed
        # form and the squared dims
        probe = (
            "import sys\n"
            "from bubblealg.basis import standard_labels, walk_count\n"
            "from bubblealg.oracles import bubble_basis_count\n"
            "sys.setrecursionlimit(100)\n"
            "total = walk_count(400, 0, 0)\n"
            "squares = sum(walk_count(200, i, j) ** 2 for i, j in standard_labels(200))\n"
            "print(total == squares == bubble_basis_count(200))\n"
        )
        src = str(Path(bubblealg.__file__).resolve().parent.parent)
        run = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert (run.returncode, run.stdout) == (0, "True\n"), run.stderr[-500:]

    def test_strata_sizes_are_squared_dimensions(self):
        for n in range(1, 5):
            strata = stratify(enumerate_basis(n))
            for i, j in standard_labels(n):
                expect = walk_count(n, i, j) ** 2
                got = len(strata.get((i, j), []))
                assert got == expect

    def test_frozen_strata_n2(self):
        sizes = {k: len(v) for k, v in stratify(enumerate_basis(2)).items()}
        assert sizes == {(2, 0): 1, (1, 1): 4, (0, 2): 1, (0, 0): 4}

    def test_labels_cover_all_strata(self):
        for n in range(1, 5):
            strata = stratify(enumerate_basis(n))
            assert set(strata) == set(standard_labels(n))

    def test_rank_identity(self):
        # rank_identity reads |B_n| in closed form, so the enumerated side
        # is compared here
        for n in range(1, 7):
            r = rank_identity(n)
            assert r.holds
            assert len(enumerate_basis(n)) == r.dim_square_sum


class TestHalfDiagrams:
    def test_counts_match_walks(self):
        # up to n = 8, so every edge of basis_encodings(7) and (8) is counted
        for n in range(0, 9):
            for i, j in standard_labels(n):
                assert len(enumerate_bras(n, i, j)) == walk_count(n, i, j)

    def test_every_leaf_is_a_bra(self, monkeypatch):
        # the walk starts from the cuts, so it reaches no leaf it must drop;
        # the frame walk with the cuts after it reached 8 564 leaves at
        # (8, 6, 0) for its 35 bras
        walk, leaves = basis._walk_matchings, []

        def counting(run, stacks, leaf):
            def counted(slots):
                leaves.append(None)
                leaf(slots)

            walk(run, stacks, counted)

        monkeypatch.setattr(basis, "_walk_matchings", counting)

        def reached(*args) -> int:
            leaves.clear()
            enumerate_bras(*args)
            return len(leaves)

        for n in range(0, 9):
            for i, j in standard_labels(n):
                assert reached(n, i, j) == walk_count(n, i, j)

    def test_bra_guard_counts_both_halves(self):
        # a bra on n points pairs with a ket into a 2n-point diagram
        with pytest.raises(ResourceLimitError):
            enumerate_bras(DEFAULT_MAX_N + 1, 1, 0)

    def test_bra_guard_refuses_a_negative_size(self):
        # the B_n guard, so a negative frame is refused, not an empty module
        with pytest.raises(ValueError, match="negative size n=-1"):
            enumerate_bras(-1, 0, 0)

    def test_trusted_bras_pass_full_validation(self):
        # enumeration, the action and restriction build bras unchecked
        # through _raw; rebuilding through the checking constructors must
        # reproduce every one
        for n in range(0, 7):
            for i, j in standard_labels(n):
                for b in enumerate_bras(n, i, j):
                    assert HalfDiagram(b.n_north, b.n_south, b.pairs) == b
                    assert make_half(n, b.arcs, b.red_cuts, b.blue_cuts) == b
        for n in range(0, 6):
            basis = enumerate_basis(n)
            for i, j in standard_labels(n):
                for bra in enumerate_bras(n, i, j):
                    built = [r[2] for d in basis if (r := act_diagram(d, bra))]
                    if n:
                        built.append(restrict_bra(bra)[1])
                    for b in built:
                        assert HalfDiagram(b.n_north, b.n_south, b.pairs) == b

    def test_bras_match_brute_force_through_the_view(self):
        # a bra read as a diagram from its n frame points to its i + j cuts:
        # every southern point propagates, red cut k ends on point n + k and
        # blue cut k on point n + i + k
        for n in range(0, 6):
            for total in range(n % 2, n + 1, 2):
                brute = brute_force_bubble_encodings(n, total)
                for i in range(total + 1):
                    views = sorted(filter(None, (half_from_view(e, n, i) for e in brute)))
                    assert [b.encode() for b in enumerate_bras(n, i, total - i)] == views

    def test_frozen_bras_3_1_0(self):
        got = {b.encode() for b in enumerate_bras(3, 1, 0)}
        expect = {
            "H[3]{(1,2,r)}{r:3}{b:}",
            "H[3]{(2,3,r)}{r:1}{b:}",
            "H[3]{(1,2,b)}{r:3}{b:}",
            "H[3]{(2,3,b)}{r:1}{b:}",
            "H[3]{(1,3,b)}{r:2}{b:}",
        }
        assert got == expect

    def test_validation_rejects_cut_inside_same_colour_arc(self):
        with pytest.raises(ValueError):
            make_half(3, [(1, 3, RED)], red_cuts=(2,))
        # inside the other colour is allowed
        make_half(3, [(1, 3, BLUE)], red_cuts=(2,))

    @pytest.mark.parametrize(
        "n, arcs, message",
        [
            (4, ((3, 4, RED), (1, 2, BLUE)), "out of range, unordered or not sorted"),
            (2, ((1, 3, RED),), r"endpoint pair \(1,3\) out of range"),
            (2, ((2, 1, RED),), "out of range, unordered or not sorted"),
        ],
        ids=["unsorted", "past_n", "reversed"],
    )
    def test_validation_rejects_misplaced_arcs(self, n, arcs, message):
        with pytest.raises(ValueError, match=message):
            HalfDiagram(n, 0, arcs)

    @pytest.mark.parametrize(
        "n, pairs, message",
        [
            (1, ((1, 2, RED), (3, 4, RED)), r"pair \(3,4\) joins two cuts"),
            (2, ((1, 3, BLUE), (2, 4, RED)), r"cut \(1,3\) sits in a slot of the other colour"),
            (2, ((1, 4, RED), (2, 3, BLUE)), r"cut \(1,4\) sits in a slot of the other colour"),
        ],
        ids=["cut_to_cut", "blue_in_red_slot", "red_in_blue_slot"],
    )
    def test_validation_rejects_misplaced_cuts(self, n, pairs, message):
        # each is a valid diagram, so only the half diagram's own rule
        # refuses it
        Diagram(n, 2 * len(pairs) - n, pairs)
        with pytest.raises(ValueError, match=message):
            HalfDiagram(n, 2 * len(pairs) - n, pairs)

    def test_checked_bras_pass_the_diagram_hook(self, monkeypatch):
        # the tracer wraps Diagram.__post_init__ and Diagram.encode on the
        # class; a checked bra reaches the former, and writes its own text
        checked = []
        hook = Diagram.__post_init__
        monkeypatch.setattr(Diagram, "__post_init__", lambda d: checked.append(d) or hook(d))
        bra = make_half(3, [(1, 2, RED)], blue_cuts=(3,))
        assert checked == [bra]
        assert "encode" in vars(HalfDiagram) and str(bra) == "H[3]{(1,2,r)}{r:}{b:3}"

    @pytest.mark.parametrize("text", ["H[3]{(1,2,r)}{r:}{b:3}", "D[3,1]{(1,2,r);(3,4,b)}"])
    def test_decode_is_refused(self, text):
        # both texts of make_half(3, [(1, 2, RED)], blue_cuts=(3,)); the
        # decoder inherited from Diagram raised a misleading ValueError
        with pytest.raises(TypeError, match="never read back"):
            HalfDiagram.decode(text)
        assert Diagram.decode("D[3,1]{(1,2,r);(3,4,b)}").pairs == ((1, 2, RED), (3, 4, BLUE))

    def test_validation_rejects_interleaving(self):
        with pytest.raises(ValueError):
            make_half(4, [(1, 3, RED), (2, 4, RED)])
        make_half(4, [(1, 3, RED), (2, 4, BLUE)])

    def test_tuple_copies_are_checked_too(self):
        # a half diagram is a named tuple; its _make and _replace validate
        h = make_half(3, [(1, 2, RED)], blue_cuts=(3,))
        assert h._replace(pairs=((1, 2, RED), (3, 4, RED))) == make_half(3, [(1, 2, RED)], (3,))
        with pytest.raises(ValueError):
            # a red cut inside a red arc
            h._replace(pairs=((1, 3, RED), (2, 4, RED)))
        with pytest.raises(ValueError):
            # frame point 3 unused
            HalfDiagram._make((3, 0, ((1, 2, RED),)))
        # and under the half diagram's own rule
        with pytest.raises(ValueError, match="slot of the other colour"):
            h._replace(n_north=2, n_south=2, pairs=((1, 3, BLUE), (2, 4, RED)))
        with pytest.raises(ValueError, match="joins two cuts"):
            HalfDiagram._make((1, 3, ((1, 2, RED), (3, 4, RED))))

    def test_cut_join_round_trip(self):
        for n in range(1, 5):
            for d in enumerate_basis(n):
                bra, ket = cut_diagram(d)
                assert propagating_index(bra) == propagating_index(ket) == propagating_index(d)
                assert join_halves(bra, ket) == d

    def test_join_is_bijection(self):
        for n in range(1, 4):
            strata = stratify(enumerate_basis(n))
            for i, j in standard_labels(n):
                bras = enumerate_bras(n, i, j)
                built = set()
                for x in bras:
                    for y in bras:
                        d = join_halves(x, y)
                        assert propagating_index(d) == (i, j)
                        assert cut_diagram(d) == (x, y)
                        built.add(d)
                assert built == set(strata.get((i, j), []))

    def test_add_line_and_turn_back(self):
        b = make_half(3, [(1, 2, RED)], red_cuts=(3,))
        up = add_line(b, BLUE)
        assert up.encode() == "H[4]{(1,2,r)}{r:3}{b:4}"
        back = turn_back(b, RED)
        assert back.encode() == "H[4]{(1,2,r);(3,4,r)}{r:}{b:}"
        with pytest.raises(ValueError):
            turn_back(b, BLUE)

    def test_restriction_is_bijective(self):
        for n in range(1, 6):
            for i, j in standard_labels(n):
                buckets: dict[tuple[int, int], set[HalfDiagram]] = {}
                for bra in enumerate_bras(n, i, j):
                    label, smaller = restrict_bra(bra)
                    buckets.setdefault(label, set()).add(smaller)
                    # the label change names the inverse move: one cut of
                    # colour c fewer appends it, one more bends it back
                    c = RED if label[0] != i else BLUE
                    rebuilt = add_line(smaller, c) if sum(label) < i + j else turn_back(smaller, c)
                    assert rebuilt == bra
                for label, got in buckets.items():
                    expect = set(enumerate_bras(n - 1, *label))
                    assert got == expect
        with pytest.raises(ValueError):
            restrict_bra(make_half(0, []))

    def test_restriction_realises_walk_recursion(self):
        # walk_count alone, no bras: each end is reached in one step from
        # one of its four neighbours
        for n in range(1, 41):
            for i, j in standard_labels(n):
                neighbours = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
                total = sum(walk_count(n - 1, a, b) for a, b in neighbours if a >= 0 and b >= 0)
                assert walk_count(n, i, j) == total
