"""Module action, bilinear form, determinants, restriction, root scans."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    act,
    blockwise_det,
    brute_walk_count,
    kron,
    matmul,
    mirror,
    rep_matrix,
    expanded_root_input,
    split_by_colour,
)

from bubblealg import stdmod
from bubblealg.basis import (
    DEFAULT_MAX_N,
    enumerate_basis,
    enumerate_bras,
    make_half,
    standard_labels,
    walk_count,
)
from bubblealg.diagram import (
    BLUE,
    RED,
    Element,
    compose,
    identity_element,
    make_diagram,
    white_generator,
)
from bubblealg.exactpoly import DB, DR, ONE, LaurentPoly, PolyMatrix, poly_det
from bubblealg.oracles import tl_bras, tl_halfdiagram_count
from bubblealg.stdmod import (
    GramDetReport,
    GramRootScan,
    act_diagram,
    bra_inner,
    cyclic_span_report,
    gram_blocks,
    gram_det_report,
    gram_matrix,
    localisation_report,
    match_special_value,
    one_colour_det,
    psi,
    psi_product,
    rb_word,
    restriction_report,
    scan_gram_roots,
    tl_gram_poly,
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
        assert m == PolyMatrix([[DB, DR], [DB, DR]])

    def test_identity_acts_trivially(self):
        for i, j in standard_labels(2):
            dim = walk_count(2, i, j)
            assert rep_matrix(identity_element(2), 2, i, j) == PolyMatrix.identity(dim)

    def test_action_preserves_label(self):
        for i, j in standard_labels(3):
            for bra in enumerate_bras(3, i, j):
                r = act_diagram(red_cupcap(3), bra)
                if r is not None:
                    assert r[2].propagating == (i, j)

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


class TestInnerForm:
    def test_frozen_two_point_gram(self):
        assert gram_matrix(2, 0, 0) == PolyMatrix.diagonal([DB, DR])

    def test_full_propagating_grams_are_identity(self):
        for n in range(1, 5):
            for i in range(n + 1):
                dim = walk_count(n, i, n - i)
                assert gram_matrix(n, i, n - i) == PolyMatrix.identity(dim)

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


class TestBlocksAndDeterminants:
    def test_blocks_cover_basis(self):
        bras, blocks = gram_blocks(4, 0, 0)
        seen = sorted(k for blk in blocks for k in blk.indices)
        assert seen == list(range(len(bras)))

    def test_block_det_product_matches_direct_elimination(self):
        for n, i, j in [(2, 0, 0), (3, 1, 0), (4, 2, 0), (4, 0, 0), (4, 1, 1)]:
            gram_det_report(n, i, j)

    def test_frozen_determinants(self):
        assert gram_det_report(2, 0, 0).det == DR * DB
        expect = (DR * DR - 1) * DB**3
        assert gram_det_report(3, 1, 0).det == expect
        expect4 = (DR**3 - 2 * DR) * DB**6
        assert gram_det_report(4, 2, 0).det == expect4

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
                        assert blk.matrix[perm[a], perm[b]] == expect[a, b]

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
                assert report.det == blockwise_det(report.blocks), (n, i, j)

    def test_one_colour_dets_match_the_oracle(self):
        # the closed form against elimination of the oracle's form, at
        # every size the default guard admits
        for points in range(DEFAULT_MAX_N + 1):
            for defects in range(points % 2, points + 1, 2):
                table, rows = one_colour_det(points, defects)
                for colour in (RED, BLUE):
                    oracle = tl_gram_poly(points, defects, colour)
                    assert (psi_product(table, colour), rows) == (poly_det(oracle), oracle.rows)

    def test_psi_zeros_are_the_primitive_cosines(self):
        for k in range(1, 13):
            terms = psi(k, RED).terms
            coeffs = [terms.get((e, 0), 0) for e in range(max(a for a, _ in terms) + 1)]
            assert coeffs[-1] == 1
            roots = sorted(np.roots([float(c) for c in reversed(coeffs)]).real)
            expect = sorted(2 * math.cos(math.pi * m / k) for m in range(1, k) if math.gcd(m, k) == 1)
            assert roots == pytest.approx(expect, abs=1e-9), k
            assert psi(k, BLUE).terms == {(b, a): c for (a, b), c in psi(k, RED).terms.items()}

    def test_factors_are_one_colour(self):
        report = gram_det_report(6, 1, 1)
        for colour, table in enumerate(report.factors):
            assert table and all(k > 1 and a > 0 for k, a in table.items())
            assert all(exp[1 - colour] == 0 for exp in report.parts[colour].terms)

    @pytest.mark.parametrize("label", [(7, 1, 0), (7, 2, 1), (6, 0, 2)])
    def test_each_distinct_matrix_is_eliminated_once(self, monkeypatch, label):
        # equal blocks share their elimination
        seen = []

        def record(m):
            seen.append(m)
            return poly_det(m)

        monkeypatch.setattr(stdmod, "poly_det", record)
        stdmod.block_det.cache_clear()
        report = gram_det_report(*label)
        assert len(seen) == len(set(seen))
        assert len(seen) < len(report.blocks)

    def test_block_that_is_not_a_tensor_product_is_rejected(self, monkeypatch):
        monkeypatch.setattr(stdmod, "one_colour_det", lambda points, defects: ({3: 1}, 1))
        with pytest.raises(ArithmeticError):
            gram_det_report(3, 1, 0)

    def test_roots_agree_with_the_expanded_route(self):
        # the scan reads each root off the psi_k table; the independent route
        # expands the determinant at each sample, takes its zero order and
        # hands the rest, square-free, to np.roots
        labels = [(n, i, j) for n in range(1, 7) for i, j in standard_labels(n)]
        labels += [(7, 1, 0), (7, 2, 1), (8, 4, 0), (6, 1, 1), (8, 6, 0), (7, 4, 3)]
        for report in (gram_det_report(n, i, j) for n, i, j in labels):
            n, (i, j) = report.n, report.label
            for var in (RED, BLUE):
                scan = scan_gram_roots(report, var=var)
                assert [s.other_value for s in scan.samples] == list(stdmod.ROOT_SAMPLES)
                for sample in scan.samples:
                    where = (n, i, j, var, sample.other_value)
                    zero = min(exp[var] for exp in report.det.terms)
                    assert sample.zero_root_multiplicity == zero, where
                    coeffs = expanded_root_input(report.det, var, sample.other_value)
                    expect = [0.0] if zero else []
                    if len(coeffs) > 1:
                        roots = np.roots([float(c) for c in reversed(coeffs)])
                        assert np.abs(roots.imag).max() <= 1e-9, where
                        expect += sorted(roots.real)
                    got = [r.value for r in sample.roots]
                    assert len(got) == len(expect), where
                    assert got == pytest.approx(expect, abs=1e-9), where
                    assert [r.matched for r in sample.roots] == [
                        match_special_value(z, 2 * n, stdmod.ROOT_TOLERANCE) for z in expect
                    ], where

    def test_scan_reads_a_huge_exponent_off_the_table(self):
        # (dr^2 - 1) * db^1000: the scan reads the table and never expands
        # the blue part, whose value at db = 7/3 is near 1e368
        report = GramDetReport(2, (0, 0), 2, ({3: 1}, {2: 1000}), (), False)
        scan = scan_gram_roots(report, var=RED)
        assert scan.samples[0].other_value == Fraction(7, 3)
        assert scan.all_matched
        assert sorted(r.value.real for r in scan.samples[0].roots) == pytest.approx([-1.0, 1.0])

    def test_streamed_det_text_is_the_expanded_text(self):
        # the text is written from the two parts in graded lex order; the
        # benchmark's labels have the longest determinants
        labels = [(n, i, j) for n in range(7) for i, j in standard_labels(n)]
        labels += [(7, 1, 0), (7, 0, 1), (7, 1, 2), (7, 2, 1), (8, 4, 0), (8, 0, 4)]
        for n, i, j in labels:
            report = gram_det_report(n, i, j)
            assert "".join(report.det_text()) == str(report.det), (n, i, j)

    @pytest.mark.parametrize("change", ["double", "drop"])
    def test_block_check_compares_every_term(self, monkeypatch, change):
        # a block determinant with one coefficient off, or one term missing,
        # is not the tensor product of its one-colour forms
        real = stdmod.block_det

        def tampered(m):
            terms = real(m).terms
            if change == "double":
                terms[min(terms)] *= 2
            else:
                del terms[min(terms)]
            return LaurentPoly(terms)

        monkeypatch.setattr(stdmod, "block_det", tampered)
        with pytest.raises(ArithmeticError):
            gram_det_report(7, 2, 1)


class TestRestrictionAndSpans:
    def test_restriction_bijective(self):
        for n in range(1, 6):
            for i, j in standard_labels(n):
                assert restriction_report(n, i, j).holds

    def test_cyclic_span_full_rank(self):
        for n in range(1, 6):
            for i, j in standard_labels(n):
                rep = cyclic_span_report(n, i, j)
                assert rep.rank == rep.expected == brute_walk_count(n, i, j)

    def test_localisation_small(self):
        assert localisation_report(2).rank == 1
        assert localisation_report(2).holds
        r3 = localisation_report(3)
        assert (r3.rank, r3.expected) == (2, 2)

    def test_localisation_five(self):
        rep = localisation_report(5)
        assert (rep.rank, rep.expected) == (70, 70)
        assert rep.expected == len(enumerate_basis(3))

    def test_localisation_ranks_must_agree(self, monkeypatch):
        ranks = iter([10, 9])
        monkeypatch.setattr(stdmod, "rank_mod", lambda rows: next(ranks))
        with pytest.raises(ArithmeticError):
            localisation_report(4)


class TestRootScan:
    def test_match_special_value(self):
        assert match_special_value(1.0, 6, 1e-8) == (1, 3)
        assert match_special_value(-2.0, 6, 1e-8) == (1, 1)
        assert match_special_value(2 * math.cos(math.pi / 5), 10, 1e-8) == (1, 5)
        assert match_special_value(2.5, 10, 1e-8) is None

    def test_tl_gram_poly_frozen(self):
        assert tl_gram_poly(3, 1, RED) == PolyMatrix([[DR, ONE], [ONE, DR]])
        assert tl_gram_poly(2, 0, BLUE) == PolyMatrix([[DB]])

    def test_scan_locates_cosine_roots(self):
        scan = scan_gram_roots(gram_det_report(3, 1, 0), var=RED)
        assert isinstance(scan, GramRootScan)
        assert scan.all_matched
        values = sorted(r.value.real for r in scan.samples[0].roots)
        assert values == pytest.approx([-1.0, 1.0])

    def test_scan_records_zero_roots(self):
        scan = scan_gram_roots(gram_det_report(3, 1, 0), var=BLUE)
        assert scan.all_matched
        assert scan.samples[0].zero_root_multiplicity == 3

    def test_scan_with_multiplicities(self):
        # the (0, 0) form at four points has repeated factors; exact
        # square-free reduction keeps the numeric roots clean
        for var in (RED, BLUE):
            assert scan_gram_roots(gram_det_report(4, 0, 0), var=var).all_matched

    def test_all_matched_is_read_off_the_table(self):
        # psi_5 at n = 2: its roots are 2 cos(pi m / 5), past k <= 2n = 4
        report = GramDetReport(2, (0, 0), 1, ({5: 1}, {}), (), False)
        scan = scan_gram_roots(report, var=RED)
        assert not scan.all_matched
        assert [len(sample.roots) for sample in scan.samples] == [4, 4]
        assert all(r.matched is None for sample in scan.samples for r in sample.roots)
        # at k = 2n the same table is matched; the blue table is empty
        assert scan_gram_roots(GramDetReport(3, (0, 0), 1, ({5: 1, 6: 2}, {}), (), False)).all_matched
        assert scan_gram_roots(report, var=BLUE).all_matched

    def test_scan_finds_sqrt_two(self):
        scan = scan_gram_roots(gram_det_report(4, 2, 0), var=RED)
        assert scan.all_matched
        for sample in scan.samples:
            reals = sorted(r.value.real for r in sample.roots)
            assert reals == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)])
            assert sample.zero_root_multiplicity == 1


class TestSplitByColour:
    def test_frozen_split(self):
        bra = make_half(3, [(1, 3, BLUE)], red_cuts=(2,))
        r_half, b_half = split_by_colour(bra)
        assert r_half == ((), (1,))
        assert b_half == (((1, 2),), ())


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
