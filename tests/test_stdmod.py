"""Module action, bilinear form, determinants, restriction, root scans."""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    ROOT_TOLERANCE,
    act,
    blockwise_det,
    brute_walk_count,
    expanded_det,
    expanded_root_input,
    identity_rows,
    join_halves,
    kron,
    localisation_rank_reference,
    localisation_walk_rank,
    match_special_value,
    matmul,
    mirror,
    psi_product_reference,
    rep_matrix,
    split_by_colour,
    tl_halfdiagram_count,
)

from bubblealg import basis, stdmod
from bubblealg.basis import (
    DEFAULT_MAX_N,
    HalfDiagram,
    enumerate_basis,
    enumerate_bras,
    make_half,
    standard_labels,
    walk_count,
)
from bubblealg.diagram import (
    BLUE,
    RED,
    Diagram,
    compose,
    endpoint_arrays,
    glue,
    make_diagram,
    propagating_index,
)
from bubblealg.checks import tl_gram_poly
from bubblealg.exactpoly import (
    DB,
    DR,
    ONE,
    ZERO,
    Element,
    LaurentPoly,
    identity_element,
    poly_det,
    white_generator,
)
from bubblealg.oracles import tl_bras
from bubblealg.stdmod import (
    GramDetReport,
    GramRootScan,
    act_diagram,
    ballot,
    bra_inner,
    cyclic_span_report,
    gram_blocks,
    gram_det_report,
    gram_matrix,
    is_tensor,
    localisation_report,
    one_colour_det,
    psi,
    psi_coefficients,
    rb_word,
    restriction_report,
    scan_gram_roots,
)

ARC_B = make_half(2, [(1, 2, BLUE)])
ARC_R = make_half(2, [(1, 2, RED)])


def red_cupcap(n: int = 2) -> "make_diagram":
    pairs = [(1, 2, RED), (n + 1, n + 2, RED)]
    pairs += [(k, n + k, RED) for k in range(3, n + 1)]
    return make_diagram(n, n, pairs)


class TestAction:
    def test_red_cupcap_on_red_arc(self):
        assert act_diagram(red_cupcap(), ARC_R) == (1, 0, ARC_R)

    def test_red_cupcap_on_blue_arc_is_zero(self):
        assert act_diagram(red_cupcap(), ARC_B) is None

    def test_slot_to_slot_is_zero(self):
        two_cuts = make_half(2, [], red_cuts=(1, 2))
        assert act_diagram(red_cupcap(), two_cuts) is None

    def test_white_generator_action(self):
        u = white_generator(2, 1)
        assert act(u, ARC_R) == {ARC_R: DR, ARC_B: DR}
        assert act(u, ARC_B) == {ARC_R: DB, ARC_B: DB}

    def test_frozen_rep_matrix(self):
        # canonical basis order puts the blue arc first
        m = rep_matrix(white_generator(2, 1), 2, 0, 0)
        assert m == ((DB, DR), (DB, DR))

    def test_identity_acts_trivially(self):
        for i, j in standard_labels(2):
            dim = walk_count(2, i, j)
            assert rep_matrix(identity_element(2), 2, i, j) == identity_rows(dim)

    def test_action_preserves_label(self):
        for i, j in standard_labels(3):
            for bra in enumerate_bras(3, i, j):
                r = act_diagram(red_cupcap(3), bra)
                if r is not None:
                    assert propagating_index(r[2]) == (i, j)

    def test_rep_is_multiplicative_n2(self):
        basis = enumerate_basis(2)
        for i, j in standard_labels(2):
            bras = enumerate_bras(2, i, j)
            reps = {d: rep_matrix(d, 2, i, j, bras=bras) for d in basis}
            for a in basis:
                for b in basis:
                    prod = Element.from_diagram(a) * Element.from_diagram(b)
                    assert rep_matrix(prod, 2, i, j, bras=bras) == matmul(reps[a], reps[b])

    def test_rep_is_multiplicative_n3_sampled(self):
        rng = random.Random(414243)
        basis = enumerate_basis(3)
        bras = enumerate_bras(3, 1, 0)
        for _ in range(200):
            a, b = rng.choice(basis), rng.choice(basis)
            prod = Element.from_diagram(a) * Element.from_diagram(b)
            lhs = rep_matrix(prod, 3, 1, 0, bras=bras)
            rhs = matmul(rep_matrix(a, 3, 1, 0, bras=bras), rep_matrix(b, 3, 1, 0, bras=bras))
            assert lhs == rhs


    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: act_diagram(red_cupcap(3), ARC_R), "cannot act on a frame"),
            (lambda: bra_inner(ARC_R, make_half(3, [(1, 2, RED)], red_cuts=(3,))), "different sizes"),
            (lambda: localisation_report(1), "at least two strands"),
        ],
        ids=["act_diagram", "bra_inner", "localisation"],
    )
    def test_invalid_sizes_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestInnerForm:
    def test_frozen_two_point_gram(self):
        assert gram_matrix(2, 0, 0) == ((DB, ZERO), (ZERO, DR))

    def test_full_propagating_grams_are_identity(self):
        for n in range(1, 5):
            for i in range(n + 1):
                dim = walk_count(n, i, n - i)
                assert gram_matrix(n, i, n - i) == identity_rows(dim)

    def test_symmetry(self):
        for n, i, j in [(3, 1, 0), (4, 0, 0), (4, 1, 1)]:
            bras = enumerate_bras(n, i, j)
            for x in bras:
                for y in bras:
                    assert bra_inner(x, y) == bra_inner(y, x)

    def test_word_orthogonality(self):
        bras = enumerate_bras(3, 1, 0)
        for x in bras:
            for y in bras:
                if rb_word(x) != rb_word(y):
                    assert bra_inner(x, y).is_zero

    def test_values_are_monomials(self):
        for x in enumerate_bras(4, 0, 0):
            for y in enumerate_bras(4, 0, 0):
                v = bra_inner(x, y)
                assert v.is_zero or len(v.terms) == 1


# every label with n <= 6, the benchmark's labels with their mirrors, and
# the n = 8 labels whose words with one red count differ most in bra order
SHARING_LABELS = [(n, i, j) for n in range(1, 7) for i, j in standard_labels(n)] + [
    (n, i, j)
    for n, a, b in [(7, 1, 0), (7, 2, 1), (7, 4, 3), (8, 4, 0), (8, 6, 0)]
    for i, j in [(a, b), (b, a)]
] + [(8, 0, 0), (8, 1, 1), (8, 2, 0), (8, 2, 2)]


def unshared_blocks(labels) -> list[tuple[int, int, int, str]]:
    """(n, i, j, word) of each block of gram_blocks that differs from its
    bras glued pair by pair."""
    wrong = []
    for n, i, j in labels:
        bras, blocks = gram_blocks(n, i, j)
        for blk in blocks:
            members = [bras[k] for k in blk.indices]
            if blk.matrix != tuple(tuple(bra_inner(x, y) for y in members) for x in members):
                wrong.append((n, i, j, blk.word))
    return wrong


class TestBlocksAndDeterminants:
    def test_blocks_cover_basis(self):
        bras, blocks = gram_blocks(4, 0, 0)
        seen = sorted(k for blk in blocks for k in blk.indices)
        assert seen == list(range(len(bras)))

    def test_block_det_product_matches_direct_elimination(self):
        for n, i, j in [(2, 0, 0), (3, 1, 0), (4, 2, 0), (4, 0, 0), (4, 1, 1)]:
            gram_det_report(n, i, j)

    def test_frozen_determinants(self):
        assert expanded_det(gram_det_report(2, 0, 0)) == DR * DB
        expect = (DR * DR - 1) * DB**3
        assert expanded_det(gram_det_report(3, 1, 0)) == expect
        expect4 = (DR**3 - 2 * DR) * DB**6
        assert expanded_det(gram_det_report(4, 2, 0)) == expect4

    def test_block_matches_tensor_of_one_colour_grams(self):
        for n, i, j in [(3, 1, 0), (4, 0, 0), (4, 1, 1), (4, 2, 0)]:
            bras, blocks = gram_blocks(n, i, j)
            for blk in blocks:
                n_r = blk.word.count("r")
                n_b = blk.word.count("b")
                reds = tl_bras(n_r, i)
                blues = tl_bras(n_b, j)
                assert len(blk.indices) == len(reds) * len(blues)
                # order the block by the (red half, blue half) pair
                pos = {}
                for local, k in enumerate(blk.indices):
                    r_half, b_half = split_by_colour(bras[k])
                    pos[(reds.index(r_half), blues.index(b_half))] = local
                perm = [pos[(a, b)] for a in range(len(reds)) for b in range(len(blues))]
                expect = kron(tl_gram_poly(n_r, i, RED), tl_gram_poly(n_b, j, BLUE))
                for a in range(len(perm)):
                    for b in range(len(perm)):
                        assert blk.matrix[perm[a]][perm[b]] == expect[a][b]

    def test_block_det_depends_only_on_word_multiset(self):
        _, blocks = gram_blocks(4, 0, 0)
        by_multiset: dict[str, set] = {}
        for blk in blocks:
            by_multiset.setdefault("".join(sorted(blk.word)), set()).add(blk.det)
        for dets in by_multiset.values():
            assert len(dets) == 1

    def test_narrow_labels_reduce_to_single_colour_blocks(self):
        # one arc only: each block is a one-colour form two points wider
        n = 4
        for i, j in [(2, 0), (1, 1), (0, 2)]:
            bras, blocks = gram_blocks(n, i, j)
            for blk in blocks:
                n_r = blk.word.count("r")
                n_b = blk.word.count("b")
                if n_r == i + 2:
                    assert len(blk.indices) == tl_halfdiagram_count(i + 2, i)
                else:
                    assert n_b == j + 2
                    assert len(blk.indices) == tl_halfdiagram_count(j + 2, j)


class TestFactoredDeterminant:
    def test_det_matches_blockwise_product(self):
        for n in range(1, 7):
            for i, j in standard_labels(n):
                report = gram_det_report(n, i, j)
                assert expanded_det(report) == blockwise_det(report.blocks), (n, i, j)

    def test_one_colour_dets_match_the_oracle(self):
        # the closed form against elimination of the oracle's form, at
        # every size the default guard admits
        for points in range(DEFAULT_MAX_N + 1):
            for defects in range(points % 2, points + 1, 2):
                table, rows = one_colour_det(points, defects)
                for colour in (RED, BLUE):
                    oracle = tl_gram_poly(points, defects, colour)
                    det = poly_det(oracle).terms
                    assert all(exp[1 - colour] == 0 for exp in det)
                    want = {exp[colour]: c for exp, c in det.items()}
                    assert (psi_coefficients(table), rows) == (want, len(oracle))

    def test_ballot_count_is_the_oracle_count(self):
        for points in range(13):
            for defects in range(points % 2, points + 1, 2):
                assert ballot(points, defects) == tl_halfdiagram_count(points, defects), (points, defects)

    def test_psi_zeros_are_the_primitive_cosines(self):
        for k in range(1, 13):
            terms = psi(k).terms
            coeffs = [terms.get((e, 0), 0) for e in range(max(a for a, _ in terms) + 1)]
            assert coeffs[-1] == 1
            roots = sorted(np.roots([float(c) for c in reversed(coeffs)]).real)
            expect = sorted(2 * math.cos(math.pi * m / k) for m in range(1, k) if math.gcd(m, k) == 1)
            assert roots == pytest.approx(expect, abs=1e-9), k

    def test_factors_are_one_colour(self):
        # psi_k is monic with one simple zero per m < k prime to k, and for
        # k >= 3 none of them is 0; so each part is monic, of degree
        # sum A_k phi(k), and its lowest exponent is A_2, as psi_2 = d
        report = gram_det_report(6, 1, 1)
        phi = lambda k: sum(math.gcd(m, k) == 1 for m in range(1, k))
        for table, part in zip(report.factors, report.parts):
            assert table and all(k > 1 and a > 0 for k, a in table.items())
            degree = sum(a * phi(k) for k, a in table.items())
            assert (max(part), part[max(part)]) == (degree, 1)
            assert min(part) == table.get(2, 0)

    def test_packed_psi_products_match_the_ring(self, monkeypatch):
        # every table a report expands, for every label with n <= 8, and
        # two long ones, against LaurentPoly powers and products
        tables = [{2: 1000}, {3: 167, 4: 27, 5: 1}]
        real = stdmod.psi_coefficients

        def record(table):
            tables.append(dict(table))
            return real(table)

        monkeypatch.setattr(stdmod, "psi_coefficients", record)
        for n in range(1, 9):
            for i, j in standard_labels(n):
                gram_det_report(n, i, j).parts
        monkeypatch.undo()
        for table in {tuple(sorted(table.items())): table for table in tables}.values():
            assert psi_coefficients(table) == psi_product_reference(table), table
        # the width is the least that holds the bound: a byte less loses
        # the top digits of the long product
        short = {3: 167, 4: 27, 5: 1}
        width = stdmod.psi_width(short)
        monkeypatch.setattr(stdmod, "psi_width", lambda table: width - 1)
        assert psi_coefficients(short) != psi_product_reference(short)

    def test_mirrored_blocks_glue_every_pair(self):
        # gram_blocks glues one form per red count and shares it; gluing
        # every ordered pair of every block must give the same blocks
        assert unshared_blocks(SHARING_LABELS) == []

    def test_every_red_count_shares_one_form(self):
        for n, i, j in SHARING_LABELS:
            _, blocks = gram_blocks(n, i, j)
            counts = {blk.word.count("r") for blk in blocks}
            assert len({id(blk.matrix) for blk in blocks}) == len(counts), (n, i, j)

    def test_a_colour_blind_key_shares_unequal_blocks(self, monkeypatch):
        # the control: a key that forgets each pair's colour ties a red arc
        # with a blue one, so the sort keeps index order there and some
        # word's bras come out in another order than its form's rows
        real = stdmod.renumbered_pairs
        monkeypatch.setattr(
            stdmod, "renumbered_pairs", lambda bra: tuple((p, q) for p, q, _ in real(bra))
        )
        wrong = unshared_blocks(SHARING_LABELS)
        assert wrong and wrong[0] == (8, 0, 0, "rbbbbrrr")

    def test_a_key_that_keeps_frame_numbers_shares_unequal_blocks(self, monkeypatch):
        # the control: bras sorted by their raw pairs, frame points not
        # numbered within their colour, do not line up across words
        monkeypatch.setattr(stdmod, "renumbered_pairs", lambda bra: tuple(sorted(bra.pairs)))
        wrong = unshared_blocks(SHARING_LABELS)
        assert len(wrong) == 296 and wrong[0] == (6, 1, 1, "rbbbrr")

    def test_is_tensor(self):
        red, blue = {0: -1, 2: 1}, {1: 3}
        assert is_tensor((DR**2 - 1) * 3 * DB, red, blue)
        assert not is_tensor((DR**2 - 1) * 3 * DB + DR * DB, red, blue)
        assert not is_tensor((DR**2 - 2) * 3 * DB, red, blue)
        assert not is_tensor(DR**2 * 3 * DB, red, blue)
        assert is_tensor(LaurentPoly.zero(), {}, blue)

    @pytest.mark.parametrize("label", [(7, 1, 0), (7, 2, 1), (6, 0, 2), (8, 1, 1)])
    def test_each_distinct_matrix_is_eliminated_once(self, monkeypatch, label):
        # the blocks of one red count share their elimination; past the
        # cross-check's size the unblocked matrix is not eliminated
        seen = []

        def record(m):
            seen.append(m)
            return poly_det(m)

        monkeypatch.setattr(stdmod, "poly_det", record)
        report = gram_det_report(*label)
        counts = {blk.word.count("r") for blk in report.blocks}
        assert len(seen) == len(counts) < len(report.blocks)

    def test_block_that_is_not_a_tensor_product_is_rejected(self, monkeypatch):
        monkeypatch.setattr(stdmod, "one_colour_det", lambda points, defects: ({3: 1}, 1))
        with pytest.raises(ArithmeticError):
            gram_det_report(3, 1, 0)

    def test_cross_check_rejects_a_wrong_unblocked_determinant(self, monkeypatch):
        # up to CROSS_CHECK_MAX_SIZE the unblocked matrix is eliminated too,
        # and its determinant must be the product of the two parts
        real = stdmod.gram_matrix

        def scaled(n, i, j, bras=None):
            m = real(n, i, j, bras=bras)
            return (tuple(2 * e for e in m[0]), *m[1:])

        monkeypatch.setattr(stdmod, "gram_matrix", scaled)
        with pytest.raises(ArithmeticError, match="direct elimination"):
            gram_det_report(4, 0, 0)

    def test_roots_agree_with_the_expanded_route(self):
        # the scan reads each root off the psi_k table; the independent route
        # expands the determinant at each sample, takes its zero order and
        # hands the rest, square-free, to np.roots
        labels = [(n, i, j) for n in range(1, 7) for i, j in standard_labels(n)]
        labels += [(7, 1, 0), (7, 2, 1), (8, 4, 0), (6, 1, 1), (8, 6, 0), (7, 4, 3)]
        for report in (gram_det_report(n, i, j) for n, i, j in labels):
            n, (i, j) = report.n, report.label
            det = expanded_det(report)
            for var in (RED, BLUE):
                scan = scan_gram_roots(report, var=var)
                for other in map(Fraction, stdmod.ROOT_SAMPLES):
                    where = (n, i, j, var, other)
                    zero = min(exp[var] for exp in det.terms)
                    assert scan.zero_root_multiplicity == zero, where
                    coeffs = expanded_root_input(det, var, other)
                    expect = [0.0] if zero else []
                    if len(coeffs) > 1:
                        roots = np.roots([float(c) for c in reversed(coeffs)])
                        assert np.abs(roots.imag).max() <= 1e-9, where
                        expect += sorted(roots.real)
                    got = [value for value, _ in scan.roots]
                    assert len(got) == len(expect), where
                    assert got == pytest.approx(expect, abs=1e-9), where
                    assert [matched for _, matched in scan.roots] == [
                        match_special_value(z, 2 * n, ROOT_TOLERANCE) for z in expect
                    ], where

    def test_exact_names_agree_with_the_float_reference(self):
        # every primitive root 2 cos(pi m / k) with k <= 2n + 2, n <= 12: the
        # scan names it (m, k) exactly when k <= 2n, as the float matcher
        # does, and leaves the roots with k = 2n + 1 and 2n + 2 unnamed
        count = 0
        for n in range(1, 13):
            table = {k: 1 for k in range(2, 2 * n + 3)}
            scan = scan_gram_roots(GramDetReport(n, (0, 0), 1, (table, {}), (), False))
            for value, matched in scan.roots:
                assert matched == match_special_value(value, 2 * n, ROOT_TOLERANCE), (n, value)
            count += len(scan.roots)
            assert sum(matched is None for _, matched in scan.roots) > 0
        # 1 010 roots with k >= 3, and the root 0 at each n
        assert count == 1010 + 12

    def test_scan_reads_a_huge_exponent_off_the_table(self):
        # (dr^2 - 1) * db^1000: the scan reads the table and never expands
        # the blue part, whose value at db = 7/3 is near 1e368
        report = GramDetReport(2, (0, 0), 2, ({3: 1}, {2: 1000}), (), False)
        scan = scan_gram_roots(report, var=RED)
        assert scan.all_matched
        assert [matched for _, matched in scan.roots] == [(2, 3), (1, 3)]
        assert [value for value, _ in scan.roots] == pytest.approx([-1.0, 1.0])

    def test_streamed_det_text_is_the_expanded_text(self):
        # the text is written from the two parts in graded lex order; the
        # benchmark's labels have the longest determinants
        labels = [(n, i, j) for n in range(7) for i, j in standard_labels(n)]
        labels += [(7, 1, 0), (7, 0, 1), (7, 1, 2), (7, 2, 1), (8, 4, 0), (8, 0, 4)]
        for n, i, j in labels:
            report = gram_det_report(n, i, j)
            assert "".join(report.det_text()) == str(expanded_det(report)), (n, i, j)

    @pytest.mark.parametrize(
        "red, blue",
        [
            ({5: 1}, {0: 2}),
            ({9: 2, 3: -1}, {4: 1, 1: 3, -2: 5}),
            ({0: 1, 1: 2, 7: 3}, {2: -4, 6: 1}),
            ({-3: 2, 3: 1, 5: -1}, {0: 1, 10: 1, 12: 7}),
        ],
    )
    def test_det_text_with_gaps_in_the_parts(self, red, blue):
        # parts with no common step, or gaps on it, miss no sum and add none
        report = gram_det_report(2, 0, 0)
        report.__dict__["parts"] = (red, blue)
        assert "".join(report.det_text()) == str(expanded_det(report))

    @pytest.mark.parametrize("change", ["double", "drop"])
    def test_block_check_compares_every_term(self, monkeypatch, change):
        # a block determinant with one coefficient off, or one term missing,
        # is not the tensor product of its one-colour forms
        real = stdmod.poly_det

        def tampered(m):
            terms = real(m).terms
            if change == "double":
                terms[min(terms)] *= 2
            else:
                del terms[min(terms)]
            return LaurentPoly(terms)

        monkeypatch.setattr(stdmod, "poly_det", tampered)
        with pytest.raises(ArithmeticError):
            gram_det_report(7, 2, 1)


class TestRestrictionAndSpans:
    def test_restriction_bijective(self):
        for n in range(1, 6):
            for i, j in standard_labels(n):
                assert restriction_report(n, i, j).holds

    def test_a_lost_bra_is_reported(self, monkeypatch):
        restrict = stdmod.restrict_bra
        first: dict = {}
        lost = []

        def losing(bra):
            # one bra's image is lost: it lands on its label's first image
            label, smaller = restrict(bra)
            if label in first and not lost:
                lost.append(smaller)
                return label, first[label]
            first.setdefault(label, smaller)
            return label, smaller

        monkeypatch.setattr(stdmod, "restrict_bra", losing)
        report = restriction_report(4, 0, 0)
        assert lost and report.bijective is False
        assert sum(report.neighbour_sizes.values()) == walk_count(4, 0, 0) - 1

    def test_cyclic_span_full_rank(self):
        # every size check admits; the brute count walks 4^n step sequences,
        # so it stands beside the closed form up to n = 5
        for n in range(1, DEFAULT_MAX_N + 1):
            for i, j in standard_labels(n):
                rep = cyclic_span_report(n, i, j)
                assert rep.holds
                assert n > 5 or rep.rank == brute_walk_count(n, i, j)

    def test_cyclic_span_that_skips_the_last_pair_falls_short(self, monkeypatch):
        # a search that never acts at points n-1 and n cannot reach the
        # whole module for some label
        real = stdmod.act_diagram

        def blind(d, bra):
            n = d.n_north
            straight = {(n - 1, 2 * n - 1), (n, 2 * n)} <= {(p, q) for p, q, _ in d.pairs}
            return real(d, bra) if straight else None

        monkeypatch.setattr(stdmod, "act_diagram", blind)
        reports = [cyclic_span_report(4, i, j) for i, j in standard_labels(4)]
        assert not all(rep.holds for rep in reports)

    def test_cyclic_span_without_the_crossings_falls_short(self, monkeypatch):
        # the control: no strand can pass one of the other colour, so the
        # red and the blue line of (1, 1) never swap
        real = stdmod.local_generators

        def uncrossed(n, k):
            return [d for d in real(n, k) if sum(propagating_index(d)) < n]

        monkeypatch.setattr(stdmod, "local_generators", uncrossed)
        rep = cyclic_span_report(2, 1, 1)
        assert (rep.rank, rep.expected) == (1, 2)
        short = [sum(not cyclic_span_report(n, i, j).holds for i, j in standard_labels(n)) for n in (3, 4, 5)]
        assert short == [4, 7, 10]

    def test_localisation_small(self):
        assert localisation_report(2).rank == 1
        assert localisation_report(2).holds
        r3 = localisation_report(3)
        assert (r3.rank, r3.expected) == (2, 2)

    def test_localisation_five(self):
        rep = localisation_report(5)
        assert (rep.rank, rep.expected) == (70, 70)
        assert rep.expected == len(enumerate_basis(3))
        rep = localisation_report(6)
        assert (rep.rank, rep.expected) == (588, 588)
        # every size the package admits
        assert all(localisation_report(n).holds for n in range(2, DEFAULT_MAX_N + 1))

    def test_localisation_lists_no_basis(self, monkeypatch):
        # the report acts on bras: B_5 is never listed, as stdmod holds no
        # enumerate_basis and a call through the basis module is refused
        assert not hasattr(stdmod, "enumerate_basis")

        def refusing(n, *args, **kwargs):
            if n >= 3:
                raise AssertionError(f"B_{n} listed")
            return enumerate_basis(n, *args, **kwargs)

        monkeypatch.setattr(basis, "enumerate_basis", refusing)
        assert localisation_report(5).holds

    @pytest.mark.parametrize("n", range(2, 6))
    def test_localisation_rank_matches_the_gf_reference(self, n):
        assert localisation_report(n).rank == localisation_rank_reference(n, seed=20260822)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_localisation_rank_matches_the_walk(self, n):
        assert localisation_report(n).rank == localisation_walk_rank(n)

    def test_kept_lower_images_miss(self, monkeypatch):
        # act_diagram that keeps an image whose chain joins two cut slots,
        # a line bent back, counts images that are no bras two sizes down
        def keeping_lower(d, bra):
            nn = d.n_north
            top = endpoint_arrays(nn + d.n_south, d.pairs)
            r = glue(top, bra.endpoints, nn, bra.n_north, bra.n_south)
            return r and (r[0], r[1], HalfDiagram._raw(nn, bra.n_south, tuple(r[2])))

        monkeypatch.setattr(stdmod, "act_diagram", keeping_lower)
        reports = [localisation_report(n) for n in range(2, 8)]
        assert [rep.rank for rep in reports] == [3, 6, 40, 302, 2_850, 28_408]
        assert not any(rep.holds for rep in reports)


def localisation_caps(n: int) -> dict[tuple[int, ...], Diagram]:
    """The caps V of ``localisation_report``, n - 2 over n on south points
    1, 2, one per colouring, keyed by the southern word each one fits."""
    caps = {}
    for c, *word in itertools.product((RED, BLUE), repeat=n - 1):
        pairs = [(n - 1, n, c)] + [(k, n + k, w) for k, w in enumerate(word, 1)]
        caps[(c, c, *word)] = make_diagram(n - 2, n, pairs)
    return caps


def frame_word(bra) -> tuple[int, ...]:
    return tuple(bra.endpoints[1][1 : bra.n + 1])


def then(first, act):
    """act after first, adding their loops; None where either is zero."""
    if first is None:
        return None
    second = act(first[2])
    return second and (first[0] + second[0], first[1] + second[1], second[2])


def beside_cap(a, word: tuple[int, ...], under_cap: bool):
    """a in B_{n-2} on n strands, next to two straight ones in the colours
    of ``word`` there: 1_2 ⊗ a, or a ⊗ 1_2 when ``under_cap``."""
    n, m = len(word), a.n_north
    off, straight = (0, (n - 1, n)) if under_cap else (2, (1, 2))

    def moved(p: int) -> int:
        return p + off if p <= m else p - m + n + off

    pairs = [(moved(p), moved(q), c) for p, q, c in a.pairs]
    return make_diagram(n, n, pairs + [(s, n + s, word[s - 1]) for s in straight])


def module_map_failures(n: int, under_cap: bool) -> tuple[int, int]:
    """(failed, cases) of V·((1_2 ⊗ a)·x) = a·(V·x), loops included, over
    every a in B_{n-2} and every bra x of every label; a ⊗ 1_2 in place of
    1_2 ⊗ a when ``under_cap``."""
    caps = localisation_caps(n)

    def localise(x):
        cap = caps.get(frame_word(x))
        return cap and act_diagram(cap, x)

    small = enumerate_basis(n - 2)
    failed = cases = 0
    for i, j in standard_labels(n):
        for x in enumerate_bras(n, i, j):
            word, vx = frame_word(x), localise(x)
            for a in small:
                lhs = then(act_diagram(beside_cap(a, word, under_cap), x), localise)
                rhs = then(vx, lambda y: act_diagram(a, y))
                failed += lhs != rhs
                cases += 1
    return failed, cases


class TestLocalisationOnModules:
    """The caps of ``localisation_report`` as a map of cell modules, built
    here and acting through ``act_diagram``, never through the report."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_caps_send_each_cell_module_two_sizes_down(self, n):
        caps = localisation_caps(n)
        assert len(caps) == 2 ** (n - 1)
        for i, j in standard_labels(n):
            images = set()
            for x in enumerate_bras(n, i, j):
                fitting = caps.get(frame_word(x))
                # a cap whose south word is not the frame's clashes in
                # colour; trying every cap shows it up to n = 6, and the
                # one that fits stands for them all above
                tried = caps.values() if n <= 6 else [fitting] if fitting else []
                hits = [r for r in (act_diagram(cap, x) for cap in tried) if r]
                assert len(hits) <= 1
                if hits:
                    assert act_diagram(fitting, x) == hits[0]
                    images.add(hits[0][2])
            if i + j == n:
                assert images == set()
            else:
                assert images == set(enumerate_bras(n - 2, i, j))

    @pytest.mark.parametrize("n, cases", [(3, 36), (4, 600), (5, 14000)])
    def test_caps_are_a_module_map(self, n, cases):
        assert module_map_failures(n, under_cap=False) == (0, cases)

    @pytest.mark.parametrize("n, failed, cases", [(3, 4, 36), (4, 72, 600), (5, 964, 14000)])
    def test_a_under_the_cap_breaks_the_module_map(self, n, failed, cases):
        assert module_map_failures(n, under_cap=True) == (failed, cases)


class TestRootScan:
    def test_match_special_value(self):
        assert match_special_value(1.0, 6, 1e-8) == (1, 3)
        assert match_special_value(-2.0, 6, 1e-8) == (1, 1)
        assert match_special_value(2 * math.cos(math.pi / 5), 10, 1e-8) == (1, 5)
        assert match_special_value(2.5, 10, 1e-8) is None

    def test_tl_gram_poly_frozen(self):
        assert tl_gram_poly(3, 1, RED) == ((DR, ONE), (ONE, DR))
        assert tl_gram_poly(2, 0, BLUE) == ((DB,),)

    def test_scan_locates_cosine_roots(self):
        scan = scan_gram_roots(gram_det_report(3, 1, 0), var=RED)
        assert isinstance(scan, GramRootScan)
        assert scan.all_matched
        values = sorted(value for value, _ in scan.roots)
        assert values == pytest.approx([-1.0, 1.0])

    def test_scan_records_zero_roots(self):
        scan = scan_gram_roots(gram_det_report(3, 1, 0), var=BLUE)
        assert scan.all_matched
        assert scan.zero_root_multiplicity == 3
        assert scan.roots == ((0.0, (1, 2)),)

    def test_scan_with_multiplicities(self):
        # the (0, 0) form at four points has repeated psi_k factors; each
        # root is listed once, as the table lists each k once
        for var in (RED, BLUE):
            assert scan_gram_roots(gram_det_report(4, 0, 0), var=var).all_matched

    def test_all_matched_is_read_off_the_table(self):
        # psi_5 at n = 2: its roots are 2 cos(pi m / 5), past k <= 2n = 4
        report = GramDetReport(2, (0, 0), 1, ({5: 1}, {}), (), False)
        scan = scan_gram_roots(report, var=RED)
        assert not scan.all_matched
        assert [matched for _, matched in scan.roots] == [None] * 4
        # at k = 2n the same table is matched; the blue table is empty
        assert scan_gram_roots(GramDetReport(3, (0, 0), 1, ({5: 1, 6: 2}, {}), (), False)).all_matched
        assert scan_gram_roots(report, var=BLUE).all_matched

    def test_scan_finds_sqrt_two(self):
        scan = scan_gram_roots(gram_det_report(4, 2, 0), var=RED)
        assert scan.all_matched
        reals = sorted(value for value, _ in scan.roots)
        assert reals == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)])
        assert scan.zero_root_multiplicity == 1


class TestSplitByColour:
    def test_frozen_split(self):
        bra = make_half(3, [(1, 3, BLUE)], red_cuts=(2,))
        r_half, b_half = split_by_colour(bra)
        assert r_half == ((), (1,))
        assert b_half == (((1, 2),), ())


class TestCellularity:
    """B_n is cellular (Graham-Lehrer, Invent. Math. 123, 1996): a pair
    (x, y) of bras of one label glued frame to frame is a diagram C(x, y),
    and a diagram a acts on it through x alone, modulo diagrams with fewer
    through-lines.  So act_diagram is well defined on cells."""

    @staticmethod
    def _broken_products(n: int, ket=lambda bras, y: y) -> tuple[int, int]:
        """(products a.C(x, y) checked, products off the prediction), over
        every a in B_n and every pair of bras of each label.  The
        prediction keeps ``ket(bras, y)`` as the southern half."""
        cell = functools.cache(join_halves)
        basis = enumerate_basis(n)
        checked = broken = 0
        for i, j in standard_labels(n):
            bras = enumerate_bras(n, i, j)
            for a in basis:
                for x in bras:
                    acted = act_diagram(a, x)
                    for y in bras:
                        product = compose(a, cell(x, y))
                        if acted is None:
                            holds = product is None or sum(propagating_index(product[2])) < i + j
                        else:
                            lr, lb, ax = acted
                            holds = product == (lr, lb, cell(ax, ket(bras, y)))
                        checked += 1
                        broken += not holds
        return checked, broken

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_action_on_cells_is_the_action_on_bras(self, n):
        # the cells are a basis, so every product of B_n x B_n is checked
        assert self._broken_products(n) == (len(enumerate_basis(n)) ** 2, 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_wrong_southern_half_would_be_caught(self, n):
        _, broken = self._broken_products(n, ket=lambda bras, y: bras[0])
        assert broken > 0


class TestContravariance:
    """The form is contravariant for the top-bottom mirror d -> d*."""

    def test_mirror_reverses_products(self):
        basis = enumerate_basis(3)
        for a in basis:
            for b in basis:
                ab = compose(a, b)
                ba = compose(mirror(b), mirror(a))
                if ab is None:
                    assert ba is None
                else:
                    assert ba == (ab[0], ab[1], mirror(ab[2]))

    @staticmethod
    def _form(r, other, on_left: bool) -> LaurentPoly:
        # coefficient of <d.x, y> (on_left) or <x, d*.y> from an action result
        if r is None:
            return LaurentPoly.zero()
        lr, lb, half = r
        inner = bra_inner(half, other) if on_left else bra_inner(other, half)
        return LaurentPoly.monomial(lr, lb) * inner

    def test_action_is_adjoint_to_mirror(self):
        basis = enumerate_basis(3)
        nonzero = 0
        for i, j in standard_labels(3):
            bras = enumerate_bras(3, i, j)
            for d in basis:
                d_star = mirror(d)
                for x in bras:
                    dx = act_diagram(d, x)
                    for y in bras:
                        lhs = self._form(dx, y, True)
                        rhs = self._form(act_diagram(d_star, y), x, False)
                        assert lhs == rhs, (d.encode(), x.encode(), y.encode())
                        nonzero += not lhs.is_zero
        assert nonzero
