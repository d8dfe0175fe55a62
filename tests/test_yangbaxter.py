"""Tests for the Baxterised R-matrices and transfer machinery."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bubblealg.basis import ResourceLimitError, enumerate_basis
from bubblealg.diagram import BLUE, RED, make_diagram
from bubblealg.numeric import DENSE_BUDGET, FAMILIES, bubble_coefficients, family, transfer_bytes
from bubblealg.spinchain import b2_matrix
from bubblealg.yangbaxter import (
    TRANSFER_TOLERANCE,
    _apply_transfer,
    _transfer_defect,
    bubble_params,
    coefficient_group,
    group_matrices,
    rmatrix,
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
        with pytest.raises(ValueError, match="unknown model kind"):
            family("xx")

    def test_site_dimensions(self):
        # one site of the transfer matrix: two states for tl, four for bubble
        assert transfer_matrix(0.7, 0.3, 1, "tl").shape == (2, 2)
        assert transfer_matrix(0.7, 0.3, 1, "bubble").shape == (4, 4)


class TestTlRmatrix:
    def test_u_zero_is_identity(self):
        assert np.allclose(rmatrix("tl", 0.7, 0.0), np.eye(4), atol=1e-15)

    def test_u_lam_is_cupcap(self):
        lam = 0.9
        assert np.allclose(rmatrix("tl", lam, lam), tl_e_matrix(lam), atol=1e-15)

    def test_e_squared(self):
        lam = 0.8
        e = tl_e_matrix(lam)
        assert np.allclose(e @ e, 2 * math.cos(lam) * e, atol=1e-14)

    def test_pinned_point_residual(self):
        lam = math.pi / 5
        assert ybe_residual(lam, 0.3, 0.5, "tl") < 1e-12

    def test_unitarity_scalar(self):
        lam, u = 0.8, 0.37
        prod = rmatrix("tl", lam, u) @ rmatrix("tl", lam, -u)
        c = np.trace(prod) / 4
        expect = math.sin(lam - u) * math.sin(lam + u) / math.sin(lam) ** 2
        assert abs(c - expect) < 1e-13
        assert np.allclose(prod, expect * np.eye(4), atol=1e-13)


class TestBubbleRmatrix:
    def test_u_zero_is_identity(self):
        assert np.allclose(rmatrix("bubble", 0.7, 0.0), np.eye(16), atol=1e-14)

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
        r = rmatrix("bubble", lam, u)
        rr = r[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])]
        q = bubble_params(lam).q_r
        e = np.zeros((4, 4), dtype=complex)
        e[1, 1], e[1, 2], e[2, 1], e[2, 2] = q, 1.0, 1.0, 1.0 / q
        c = bubble_coefficients(lam, u)
        model = c["straight_same"] * np.eye(4) + c["cupcap_same"] * e
        assert np.max(np.abs(rr - model)) < 1e-14

    def test_b2_falls_two_per_group(self):
        counts = Counter(coefficient_group(d) for d in enumerate_basis(2))
        assert counts == {group: 2 for group in FAMILIES["bubble"].groups}

    def test_group_matrices_sum_the_listed_diagrams(self):
        lam = 0.7
        listed = {
            "straight_same": [[(1, 3, RED), (2, 4, RED)], [(1, 3, BLUE), (2, 4, BLUE)]],
            "straight_mixed": [[(1, 3, RED), (2, 4, BLUE)], [(1, 3, BLUE), (2, 4, RED)]],
            "cupcap_same": [[(1, 2, RED), (3, 4, RED)], [(1, 2, BLUE), (3, 4, BLUE)]],
            "cupcap_mixed": [[(1, 2, RED), (3, 4, BLUE)], [(1, 2, BLUE), (3, 4, RED)]],
            "crossing": [[(1, 4, RED), (2, 3, BLUE)], [(1, 4, BLUE), (2, 3, RED)]],
        }
        mats = group_matrices("bubble", lam)
        assert set(mats) == set(listed)
        for group, diagrams in listed.items():
            want = sum(b2_matrix(make_diagram(2, 2, pairs), bubble_params(lam)) for pairs in diagrams)
            assert np.array_equal(mats[group], want), group

    def test_group_matrices_are_shared_and_read_only(self):
        mats = group_matrices("bubble", 0.7)
        assert group_matrices("bubble", 0.7) is mats
        with pytest.raises(ValueError):
            mats["crossing"][0, 0] = 1.0

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
        for group in FAMILIES["tl"].groups:
            res = perturbed_ybe_residual(0.7, 0.3, -0.5, group, 1e-3, "tl")
            assert res > 1e-5

    def test_perturbation_trips_detector_bubble(self):
        for group in FAMILIES["bubble"].groups:
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


def loop_transfer(r: np.ndarray, n: int) -> np.ndarray:
    """Dense T = Tr_a(W_{n-1} ... W_0) with W = P R, built entry by entry.

    Each W_j acts on the auxiliary space (most significant) and site j,
    whose state is digit j of the chain index, as in ``transfer_matrix``.
    """
    m = math.isqrt(r.shape[0])
    w = r.reshape(m, m, m * m).transpose(1, 0, 2).reshape(m * m, m * m)
    dim = m**n
    prod = np.eye(m * dim, dtype=complex)
    for j in range(n):
        op = np.zeros((m * dim, m * dim), dtype=complex)
        for a in range(m):
            for s in range(dim):
                d = (s // m**j) % m
                for b in range(m):
                    for o in range(m):
                        t = s + (o - d) * m**j
                        op[b * dim + t, a * dim + s] += w[b * m + o, a * m + d]
        prod = op @ prod
    return np.trace(prod.reshape(m, dim, m, dim), axis1=0, axis2=2)


def gaussian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


class TestTransfer:
    def test_shapes(self):
        assert transfer_matrix(0.7, 0.3, 3, "tl").shape == (8, 8)
        assert transfer_matrix(0.7, 0.3, 2, "bubble").shape == (16, 16)

    def test_sizes_out_of_range_are_refused(self):
        with pytest.raises(ValueError, match="at least one site"):
            transfer_commutator(0.7, 0.3, -0.9, 0, "tl", np.random.default_rng(1))
        # 2^13 x 2^13 complex entries are 1 GiB, over the dense budget
        assert 16 * 4**13 > DENSE_BUDGET >= 16 * 4**12
        with pytest.raises(ResourceLimitError, match="transfer matrix on 13 sites"):
            transfer_matrix(0.7, 0.3, 13, "tl")
        with pytest.raises(ResourceLimitError):
            transfer_matrix(0.7, 0.3, 7, "bubble")

    def test_refusal_comes_before_any_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an array was allocated")

        for name in ("empty", "zeros", "eye"):
            monkeypatch.setattr(np, name, refuse)
        for kind, n in (("tl", 13), ("tl", 17), ("bubble", 7)):
            with pytest.raises(ResourceLimitError):
                transfer_matrix(0.7, 0.3, n, kind)

    def test_single_site_commutator_vanishes(self):
        rng = np.random.default_rng(1)
        assert transfer_commutator(0.7, 0.3, -0.9, 1, "tl", rng) < 1e-14
        assert transfer_commutator(0.7, 0.3, -0.9, 1, "bubble", rng) < 1e-14

    def test_commutators_tl(self):
        rng = np.random.default_rng(2)
        for n in (2, 3):
            assert transfer_commutator(0.7, 0.3, -0.4, n, "tl", rng) < 1e-10

    def test_commutators_bubble(self):
        rng = np.random.default_rng(3)
        assert transfer_commutator(0.7, 0.3, -0.4, 2, "bubble", rng) < 1e-9
        assert transfer_commutator(0.55, 1.1, 0.2, 3, "bubble", rng) < 1e-9

    def test_transfer_sweeps(self):
        assert transfer_sweep(3, "tl", count=5, seed=2).max_residual < 1e-10
        assert transfer_sweep(2, "bubble", count=5, seed=2).max_residual < 1e-9

    @pytest.mark.parametrize("seed", [1, 2])
    def test_five_site_bubble_sweep_passes_the_relative_gate(self, seed):
        # the absolute gate failed here near the pole at lambda = 0
        report = transfer_sweep(5, "bubble", 20, seed)
        assert report.max_residual < TRANSFER_TOLERANCE

    def test_sweep_depends_only_on_its_seed(self):
        assert transfer_sweep(3, "bubble", 4, 9) == transfer_sweep(3, "bubble", 4, 9)
        assert transfer_sweep(3, "bubble", 4, 9) != transfer_sweep(3, "bubble", 4, 10)

    @pytest.mark.parametrize(
        "kind, n",
        [("tl", n) for n in range(1, 7)] + [("bubble", n) for n in range(1, 5)],
    )
    def test_matrix_free_product_equals_the_dense_one(self, kind, n):
        # against the loop oracle: transfer_matrix is built from the kernel
        lam, u = (0.7, 0.3) if kind == "tl" else (0.45, -1.2)
        x = gaussian((2 if kind == "tl" else 4) ** n, n)
        r = rmatrix(kind, lam, u)
        want = loop_transfer(r, n) @ x
        got = _apply_transfer(r, x, n)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_loop_oracle_agrees_with_transfer_matrix(self):
        for kind, n in (("tl", 3), ("bubble", 2)):
            want = transfer_matrix(0.7, 0.3, n, kind)
            assert np.max(np.abs(loop_transfer(rmatrix(kind, 0.7, 0.3), n) - want)) < 1e-13

    def test_matrix_free_product_of_a_random_r(self):
        # a random R has no symmetry that could hide a wrong index order
        rng = np.random.default_rng(4)
        for m in (2, 3, 4):
            r = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
            for n in (1, 2, 3):
                x = gaussian(m**n, n)
                want = loop_transfer(r, n) @ x
                got = _apply_transfer(r, x, n)
                assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("group", FAMILIES["bubble"].groups)
    def test_perturbed_bubble_group_trips_the_detector(self, group):
        lam, u, v = 0.73, 0.41, -0.29
        shift = 1e-6 * group_matrices("bubble", lam)[group]
        r_u, r_v = rmatrix("bubble", lam, u), rmatrix("bubble", lam, v)
        x = gaussian(4**4, 5)
        assert _transfer_defect(r_u, r_v, 4, x) < 1e-13
        assert _transfer_defect(r_u + shift, r_v + shift, 4, x) > 1e-7

    def test_perturbed_tl_r_trips_the_detector(self):
        lam, u, v = 0.73, 0.41, -0.29
        r_u, r_v = rmatrix("tl", lam, u), rmatrix("tl", lam, v)
        x = gaussian(2**6, 6)
        # eps * E stays in span{I, E}, where every R(u) gives commuting T
        e = tl_e_matrix(lam)
        assert _transfer_defect(r_u + 1e-6 * e, r_v + 1e-6 * e, 6, x) < 1e-13
        # weight only the all-up vertex: outside that span
        up = np.zeros((4, 4), dtype=complex)
        up[0, 0] = 1.0
        assert _transfer_defect(r_u + 1e-6 * up, r_v + 1e-6 * up, 6, x) > 1e-7

    def test_nan_defect_is_not_hidden(self):
        r = rmatrix("tl", 0.7, 0.3)
        x = gaussian(8, 1)
        x[3] = np.nan
        assert math.isnan(_transfer_defect(r, r, 3, x))

    @pytest.mark.parametrize("kind, n", [("tl", 12), ("tl", 14), ("bubble", 5), ("bubble", 7)])
    def test_transfer_bytes_is_the_measured_peak(self, kind, n):
        rng = np.random.default_rng(1)
        transfer_commutator(0.7, 0.3, -0.4, n, kind, rng)
        tracemalloc.start()
        try:
            transfer_commutator(0.7, 0.3, -0.4, n, kind, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= transfer_bytes(n, kind) < 1.1 * peak

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
