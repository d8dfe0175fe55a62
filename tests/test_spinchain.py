"""Four-state site representation: vectors, matrices, homomorphism."""

from __future__ import annotations

import cmath
import random

import numpy as np
import pytest

from bubblealg import spinchain
from bubblealg.basis import enumerate_basis
from bubblealg.diagram import BLUE, RED, make_diagram, straight_diagram
from bubblealg.exactpoly import Element, identity_element, white_generator
from bubblealg.spinchain import (
    NumericParams,
    arc_ket,
    b2_matrix,
    colour_block_indices,
    diagram_matrix,
    homomorphism_report,
    state_index,
    two_site_shape,
)
from bubblealg.yangbaxter import coefficient_group
from helpers import SITE_STATES, element_matrix, site_basis_order

GENERIC = NumericParams(q_r=(1.3 + 0.4j) ** 2, q_b=(0.8 - 0.9j) ** 2)


def cupcap(c_top: int, c_bot: int):
    return make_diagram(2, 2, [(1, 2, c_top), (3, 4, c_bot)])


def crossing(c_left: int, c_right: int):
    return make_diagram(2, 2, [(1, 4, c_left), (2, 3, c_right)])


class TestParams:
    def test_t_squared_is_q_exactly(self):
        p = NumericParams(q_r=2.0 + 1.0j, q_b=3.0)
        assert p.t_r * p.t_r == p.q_r
        assert p.t_b * p.t_b == p.q_b

    def test_t_is_the_principal_root(self):
        p = NumericParams(q_r=4.0, q_b=-9.0)
        assert (p.t_r, p.t_b) == (2.0, 3.0j)
        assert (p.q_r, p.q_b) == (4.0, -9.0)

    def test_repr_shows_the_stored_weights(self):
        # q is stored as t squared, as a complex number
        assert repr(NumericParams(q_r=4.0, q_b=-9.0)) == "NumericParams(q_r=(4+0j), q_b=(-9+0j))"

    def test_missing_parameter_rejected(self):
        with pytest.raises(TypeError):
            NumericParams(q_r=1.0)

    def test_non_finite_or_zero_parameter_rejected(self):
        for bad in (float("nan"), float("inf"), complex(1.0, float("nan")), 0.0):
            with pytest.raises(ValueError):
                NumericParams(q_r=bad, q_b=1.0)
            with pytest.raises(ValueError):
                NumericParams(q_r=1.0, q_b=bad)

    def test_delta_values(self):
        p = NumericParams(q_r=4.0, q_b=1.0)
        assert p.delta_r == pytest.approx(4.25)
        assert p.delta_b == pytest.approx(2.0)


class TestVectorsAndBlocks:
    def test_site_order(self):
        assert SITE_STATES == ("r+", "r-", "b+", "b-")
        order = site_basis_order(2)
        assert order[1] == ("r+", "r-")
        assert order[4] == ("r-", "r+")
        assert order[11] == ("b+", "b-")
        assert order[14] == ("b-", "b+")

    def test_red_arc_vector(self):
        v = arc_ket(RED, GENERIC)
        nz = {k: v[k] for k in range(16) if v[k] != 0}
        assert nz == {1: GENERIC.t_r, 4: 1 / GENERIC.t_r}

    def test_blue_arc_vector(self):
        v = arc_ket(BLUE, GENERIC)
        nz = {k: v[k] for k in range(16) if v[k] != 0}
        assert nz == {11: GENERIC.t_b, 14: 1 / GENERIC.t_b}

    def test_colour_blocks_partition(self):
        blocks = {
            (RED, RED): [0, 1, 4, 5],
            (RED, BLUE): [2, 3, 6, 7],
            (BLUE, RED): [8, 9, 12, 13],
            (BLUE, BLUE): [10, 11, 14, 15],
        }
        for word, expect in blocks.items():
            assert colour_block_indices(word) == expect

    def test_state_index_round_trip(self):
        order = site_basis_order(3)
        for states in [(0, 0, 0), (3, 2, 1), (1, 3, 0)]:
            labels = tuple(SITE_STATES[s] for s in states)
            assert order[state_index(states)] == labels


class TestTwoSiteMatrices:
    def test_straights_sum_to_identity(self):
        total = sum(
            b2_matrix(straight_diagram([c1, c2]), GENERIC)
            for c1 in (RED, BLUE)
            for c2 in (RED, BLUE)
        )
        assert np.array_equal(total, np.eye(16))

    def test_a_diagram_outside_b2_is_refused(self):
        with pytest.raises(ValueError, match="not a two-strand square"):
            two_site_shape(straight_diagram([RED, RED, RED]))
        # pairs (1,2) and (3,4) would read as a cup-cap, on three northern
        # points: the shape is checked before the pairs, in one place
        tall = make_diagram(3, 1, [(1, 2, RED), (3, 4, RED)])
        for refuse in (two_site_shape, coefficient_group, lambda d: b2_matrix(d, GENERIC)):
            with pytest.raises(ValueError, match="not a two-strand square"):
                refuse(tall)

    def test_identity_element_matrix(self):
        assert np.allclose(element_matrix(identity_element(2), GENERIC), np.eye(16))

    def test_crossing_pattern(self):
        m = b2_matrix(crossing(BLUE, RED), GENERIC)
        nz = {(r, c) for r in range(16) for c in range(16) if m[r, c] != 0}
        assert nz == {(8, 2), (9, 6), (12, 3), (13, 7)}
        assert all(m[r, c] == 1 for r, c in nz)

    def test_crossings_are_mutual_transposes(self):
        a = b2_matrix(crossing(RED, BLUE), GENERIC)
        b = b2_matrix(crossing(BLUE, RED), GENERIC)
        assert np.array_equal(a, b.T)

    def test_crossing_product_is_projector(self):
        a = b2_matrix(crossing(RED, BLUE), GENERIC)
        b = b2_matrix(crossing(BLUE, RED), GENERIC)
        assert np.array_equal(a @ b, b2_matrix(straight_diagram([RED, BLUE]), GENERIC))

    def test_one_colour_sub_block(self):
        p = NumericParams(q_r=4.0, q_b=1.0)
        m = diagram_matrix(cupcap(RED, RED), p)
        sub = m[np.ix_([1, 4], [1, 4])]
        assert np.allclose(sub, [[4.0, 1.0], [1.0, 0.25]])
        # nothing outside the one-colour block
        m[1, 1] = m[1, 4] = m[4, 1] = m[4, 4] = 0
        assert not m.any()

    def test_explicit_matches_generic_walker(self):
        for d in enumerate_basis(2):
            assert np.allclose(
                b2_matrix(d, GENERIC), diagram_matrix(d, GENERIC), atol=1e-14
            )

    def test_outer_product_shape(self):
        m = b2_matrix(cupcap(RED, BLUE), GENERIC)
        expect = np.outer(arc_ket(RED, GENERIC), arc_ket(BLUE, GENERIC))
        assert np.array_equal(m, expect)


class TestGenericMatrices:
    def test_single_strand(self):
        m = diagram_matrix(straight_diagram([RED]), GENERIC)
        assert np.array_equal(m, np.diag([1, 1, 0, 0]))

    def test_white_generator_is_cupcap_sum(self):
        total = sum(
            diagram_matrix(cupcap(c1, c2), GENERIC)
            for c1 in (RED, BLUE)
            for c2 in (RED, BLUE)
        )
        assert np.allclose(element_matrix(white_generator(2, 1), GENERIC), total)

    def test_loop_becomes_delta(self):
        u = Element.from_diagram(cupcap(RED, RED))
        sq = u * u
        lhs = element_matrix(sq, GENERIC)
        rhs = GENERIC.delta_r * diagram_matrix(cupcap(RED, RED), GENERIC)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestHomomorphism:
    def test_exhaustive_two_strands_generic(self):
        report = homomorphism_report(2, GENERIC)
        assert report.pairs_checked == 100
        assert report.max_residual < 1e-12

    def test_unit_circle_parameters(self):
        rng = random.Random(90210)
        for _ in range(3):
            params = NumericParams(
                q_r=cmath.exp(2j * rng.uniform(0.2, 3.0)),
                q_b=cmath.exp(2j * rng.uniform(0.2, 3.0)),
            )
            assert homomorphism_report(2, params).max_residual < 1e-12

    def test_three_strands_sampled(self):
        rng = random.Random(5150)
        basis = enumerate_basis(3)
        for _ in range(60):
            a, b = rng.choice(basis), rng.choice(basis)
            prod = Element.from_diagram(a) * Element.from_diagram(b)
            lhs = element_matrix(prod, GENERIC)
            rhs = diagram_matrix(a, GENERIC) @ diagram_matrix(b, GENERIC)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_nan_residual_is_reported(self, monkeypatch):
        # max() keeps its first argument against a NaN, so a NaN residual
        # must be carried through explicitly or the report reads as a pass
        calls = []

        def poisoned(d, params):
            calls.append(d)
            m = diagram_matrix(d, params)
            return m * np.nan if len(calls) == 2 else m

        monkeypatch.setattr(spinchain, "diagram_matrix", poisoned)
        report = homomorphism_report(2, GENERIC)
        assert report.pairs_checked == 100
        assert np.isnan(report.max_residual)

    def test_entry_outside_a_colour_block_is_reported(self, monkeypatch):
        # row and column (b-, b-) lie outside the red-red block, so only
        # pairs that compose to zero see the planted entry
        planted = straight_diagram([RED, RED])

        def planting(d, params):
            m = diagram_matrix(d, params)
            if d == planted:
                m[15, 15] = 0.5
            return m

        monkeypatch.setattr(spinchain, "diagram_matrix", planting)
        report = homomorphism_report(2, GENERIC)
        assert report.pairs_checked == 100
        assert report.max_residual >= 0.5
