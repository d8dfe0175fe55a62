"""Tests for the Baxterised R-matrices and transfer machinery."""

import math

import numpy as np
import pytest

from bubblealg.yangbaxter import (
    BUBBLE_GROUPS,
    TL_GROUPS,
    bubble_coefficients,
    bubble_params,
    rmatrix,
    rmatrix_bubble,
    rmatrix_tl,
    sample_lambda,
    tl_e_matrix,
    transfer_commutator,
    transfer_matrix,
    transfer_sweep,
    unitarity_residual,
    unitarity_sweep,
    validate_lambda,
    ybe_residual,
    ybe_residual_matrices,
    ybe_sweep,
)
from helpers import perturbed_ybe_residual


class TestLambdaValidation:
    def test_pole_rejected_tl(self):
        for lam in (0.0, math.pi, -math.pi, 2 * math.pi + 5e-7):
            with pytest.raises(ValueError):
                validate_lambda(lam, "tl")

    def test_pole_rejected_bubble(self):
        for lam in (0.0, math.pi / 3, 2 * math.pi / 3, math.pi / 3 + 9e-7):
            with pytest.raises(ValueError):
                validate_lambda(lam, "bubble")

    def test_near_but_not_too_near_passes(self):
        validate_lambda(1e-5, "tl")
        validate_lambda(math.pi / 3 + 1e-5, "bubble")

    def test_tl_poles_are_not_bubble_only_poles(self):
        # pi/3 is singular only for the two-colour family
        validate_lambda(math.pi / 3, "tl")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            validate_lambda(0.5, "brauer")
        with pytest.raises(ValueError):
            rmatrix("brauer", 0.5, 0.1)

    def test_site_dimensions(self):
        # one site of the transfer matrix: two states for tl, four for bubble
        assert transfer_matrix(0.7, 0.3, 1, "tl").shape == (2, 2)
        assert transfer_matrix(0.7, 0.3, 1, "bubble").shape == (4, 4)


class TestTlRmatrix:
    def test_u_zero_is_identity(self):
        assert np.allclose(rmatrix_tl(0.7, 0.0), np.eye(4), atol=1e-15)

    def test_u_lam_is_cupcap(self):
        lam = 0.9
        assert np.allclose(rmatrix_tl(lam, lam), tl_e_matrix(lam), atol=1e-15)

    def test_e_squared(self):
        lam = 0.8
        e = tl_e_matrix(lam)
        assert np.allclose(e @ e, 2 * math.cos(lam) * e, atol=1e-14)

    def test_pinned_point_residual(self):
        lam = math.pi / 5
        assert ybe_residual(lam, 0.3, 0.5, "tl") < 1e-12

    def test_unitarity_scalar(self):
        lam, u = 0.8, 0.37
        prod = rmatrix_tl(lam, u) @ rmatrix_tl(lam, -u)
        c = np.trace(prod) / 4
        expect = math.sin(lam - u) * math.sin(lam + u) / math.sin(lam) ** 2
        assert abs(c - expect) < 1e-13
        assert np.allclose(prod, expect * np.eye(4), atol=1e-13)


class TestBubbleRmatrix:
    def test_u_zero_is_identity(self):
        assert np.allclose(rmatrix_bubble(0.7, 0.0), np.eye(16), atol=1e-14)

    def test_same_straight_coefficient_vanishes_at_lam(self):
        lam = 0.6
        c = bubble_coefficients(lam, lam)
        assert abs(c["straight_same"]) < 1e-15

    def test_loop_weight_is_minus_two_cos_two_lam(self):
        lam = 0.83
        p = bubble_params(lam)
        assert abs(p.delta_r - (-2 * math.cos(2 * lam))) < 1e-13
        assert abs(p.delta_b - p.delta_r) < 1e-15

    def test_one_colour_block_in_tl_span(self):
        # restricted to two red sites the matrix is a TL Baxterisation:
        # straight_same times I plus cupcap_same times the red cup-cap
        lam, u = 0.8, 0.45
        r = rmatrix_bubble(lam, u)
        rr = r[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])]
        q = bubble_params(lam).q_r
        e = np.zeros((4, 4), dtype=complex)
        e[1, 1], e[1, 2], e[2, 1], e[2, 2] = q, 1.0, 1.0, 1.0 / q
        c = bubble_coefficients(lam, u)
        model = c["straight_same"] * np.eye(4) + c["cupcap_same"] * e
        assert np.max(np.abs(rr - model)) < 1e-14

    def test_kind_dispatch_shapes(self):
        assert rmatrix("tl", 0.7, 0.2).shape == (4, 4)
        assert rmatrix("bubble", 0.7, 0.2).shape == (16, 16)


class TestYangBaxter:
    def test_fixed_points_tl(self):
        for lam, u, v in [(0.7, 0.3, -0.5), (2.1, 1.2, 0.4)]:
            assert ybe_residual(lam, u, v, "tl") < 1e-12

    def test_fixed_points_bubble(self):
        for lam, u, v in [(0.7, 0.3, -0.5), (0.45, 1.2, 0.4), (2.6, -1.1, 0.9)]:
            assert ybe_residual(lam, u, v, "bubble") < 1e-10

    def test_sweep_tl(self):
        report = ybe_sweep("tl", count=20, seed=11)
        assert report.count == 20
        assert report.max_residual < 1e-12

    def test_sweep_bubble(self):
        report = ybe_sweep("bubble", count=20, seed=11)
        assert report.max_residual < 1e-10

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            ybe_sweep("tl", count=0)

    def test_sweep_deterministic(self):
        assert ybe_sweep("bubble", count=5, seed=3) == ybe_sweep(
            "bubble", count=5, seed=3
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ybe_residual_matrices(np.eye(4), np.eye(16), np.eye(4))

    def test_perturbation_trips_detector_tl(self):
        for group in TL_GROUPS:
            res = perturbed_ybe_residual(0.7, 0.3, -0.5, group, 1e-3, "tl")
            assert res > 1e-5

    def test_perturbation_trips_detector_bubble(self):
        for group in BUBBLE_GROUPS:
            res = perturbed_ybe_residual(0.7, 0.3, -0.5, group, 1e-3, "bubble")
            assert res > 1e-5

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            perturbed_ybe_residual(0.7, 0.3, -0.5, "twist", 1e-3, "bubble")

    def test_sampled_lambda_avoids_poles(self):
        import random

        rng = random.Random(5)
        for _ in range(50):
            lam = sample_lambda(rng, "bubble")
            assert min(
                abs(lam - k * math.pi / 3) for k in range(0, 4)
            ) >= 0.1 - 1e-12


class TestUnitarity:
    def test_u_zero(self):
        assert unitarity_residual(0.7, 0.0, "tl") < 1e-15
        assert unitarity_residual(0.7, 0.0, "bubble") < 1e-15

    def test_sweeps(self):
        assert unitarity_sweep("tl", count=10, seed=7).max_residual < 1e-12
        assert unitarity_sweep("bubble", count=10, seed=7).max_residual < 1e-10


class TestTransfer:
    def test_shapes(self):
        assert transfer_matrix(0.7, 0.3, 3, "tl").shape == (8, 8)
        assert transfer_matrix(0.7, 0.3, 2, "bubble").shape == (16, 16)

    def test_single_site_commutator_vanishes(self):
        assert transfer_commutator(0.7, 0.3, -0.9, 1, "tl") < 1e-14
        assert transfer_commutator(0.7, 0.3, -0.9, 1, "bubble") < 1e-14

    def test_commutators_tl(self):
        for n in (2, 3):
            assert transfer_commutator(0.7, 0.3, -0.4, n, "tl") < 1e-10

    def test_commutators_bubble(self):
        assert transfer_commutator(0.7, 0.3, -0.4, 2, "bubble") < 1e-9
        assert transfer_commutator(0.55, 1.1, 0.2, 3, "bubble") < 1e-9

    def test_transfer_sweeps(self):
        assert transfer_sweep(3, "tl", count=5, seed=2).max_residual < 1e-10
        assert transfer_sweep(2, "bubble", count=5, seed=2).max_residual < 1e-9

    def test_bad_site_count(self):
        with pytest.raises(ValueError):
            transfer_matrix(0.7, 0.3, 0, "tl")

    def test_identity_spectral_point(self):
        # at u = 0 the transfer matrix is the pure cyclic shift
        n, m = 3, 2
        t = transfer_matrix(0.7, 0.0, n, "tl")
        shift = np.zeros((m**n, m**n))
        for s in range(m**n):
            digits = [(s // m**k) % m for k in reversed(range(n))]
            rotated = digits[1:] + digits[:1]
            r = 0
            for dig in rotated:
                r = r * m + dig
            shift[r, s] = 1.0
        assert np.allclose(t, shift, atol=1e-14)
