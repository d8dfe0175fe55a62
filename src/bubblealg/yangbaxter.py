"""Baxterised R-matrices, Yang-Baxter checks, and transfer matrices.

Each family is a ``numeric.Family`` record in ``numeric.FAMILIES``, which
holds its site dimension, pole spacing, coefficient groups, coefficients
and YBE gate; this module gives the groups their matrices.  Two families
are covered:

* the one-colour six-vertex solution on spin-1/2 sites, where
  ``R(u) = sin(lam - u)/sin(lam) * I + sin(u)/sin(lam) * E`` with ``E`` the
  4x4 nearest-neighbour cup-cap matrix at q = exp(i*lam);
* the two-colour solution on four-state sites, a ten-term combination of
  the n=2 diagram matrices with both colour parameters tied to
  q = -exp(2i*lam), loop weight -2*cos(2*lam).

All spectral parameters are real.  The coefficient functions have poles
where sin(lam) (one colour) or sin(lam)*sin(3*lam) (two colours)
vanishes, so lambda values within 1e-6 of those zeros are rejected.

Commutation of transfer matrices is checked without forming them: T(u)
is applied to a random vector one site at a time.  ``transfer_matrix``
builds the dense matrix from the same kernel, a column at a time.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .basis import enumerate_basis
from .diagram import Diagram
from .numeric import NumericParams, dense_request, family
from .spinchain import b2_matrix, two_site_shape

LAMBDA_EXCLUSION = 1e-6
# relative gate: the entries of T grow with n and blow up near the poles,
# so the commutator is measured against the size of the products
TRANSFER_TOLERANCE = 1e-9


def validate_lambda(lam: float, kind: str = "bubble") -> None:
    """Reject lambda too close to a pole of the coefficient functions.

    Poles sit at integer multiples of pi (one colour) or pi/3 (two
    colours); "too close" means within LAMBDA_EXCLUSION.  A lambda that
    is not finite is rejected too.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    step = family(kind).pole_step
    nearest = round(lam / step) * step
    if abs(lam - nearest) < LAMBDA_EXCLUSION:
        raise ValueError(
            f"lambda={lam} is within {LAMBDA_EXCLUSION} of the pole at {nearest}"
        )


def tl_e_matrix(lam: float) -> np.ndarray:
    """4x4 cup-cap generator on two spin-1/2 sites, q = exp(i*lam)."""
    validate_lambda(lam, "tl")
    q = cmath.exp(1j * lam)
    e = np.zeros((4, 4), dtype=complex)
    e[1, 1] = q
    e[1, 2] = 1.0
    e[2, 1] = 1.0
    e[2, 2] = 1.0 / q
    return e


def bubble_params(lam: float) -> NumericParams:
    """Both colour parameters pinned to q = -exp(2i*lam).

    The loop weight this induces, q + 1/q = -2*cos(2*lam), is the unique
    value for which the ten-term combination below closes under the
    Yang-Baxter identity: the loop-free constraint equations hold for any
    weight, and each loop-bearing one solves to exactly this function of
    lam.  The derivation is not kept in the package; what checks the
    claim today is numerical, in this representation only: the float
    ``ybe_sweep`` at this weight, and the perturbation detector of
    acceptance criterion 08, which sees the residual leave zero when any
    one coefficient group moves.  The identity is not yet checked
    exactly in the algebra.
    """
    validate_lambda(lam, "bubble")
    q = -cmath.exp(2j * lam)
    return NumericParams(q_r=q, q_b=q)


def coefficient_group(d: Diagram) -> str:
    """Group of a B_2 diagram in R(u): its shape and whether its colours agree."""
    shape, c1, c2 = two_site_shape(d)
    # a crossing always joins two colours
    return shape if shape == "crossing" else f"{shape}_{'same' if c1 == c2 else 'mixed'}"


@lru_cache(maxsize=8)
def group_matrices(kind: str, lam: float) -> Mapping[str, np.ndarray]:
    """Read-only matrix of each coefficient group of R(u), shared by every u.

    One colour: I and E.  Two colours: the sum of the group's B_2 diagrams.
    """
    groups = family(kind).groups
    if kind == "tl":
        mats = {"straight": np.eye(4, dtype=complex), "cupcap": tl_e_matrix(lam)}
    else:
        params = bubble_params(lam)
        mats = {g: np.zeros((16, 16), dtype=complex) for g in groups}
        for d in enumerate_basis(2):
            mats[coefficient_group(d)] += b2_matrix(d, params)
    for m in mats.values():
        m.flags.writeable = False
    return MappingProxyType(mats)


def rmatrix(kind: str, lam: float, u: float) -> np.ndarray:
    """R(u) of either family: its coefficients times its group matrices."""
    spec = family(kind)
    # the group matrices reject a lambda at a pole of the coefficients
    mats = group_matrices(kind, lam)
    coefficients = spec.coefficients(lam, u)
    return sum(coefficients[g] * mats[g] for g in spec.groups)


def ybe_residual_matrices(
    r_u: np.ndarray, r_uv: np.ndarray, r_v: np.ndarray
) -> float:
    """Max-entry defect of the braided Yang-Baxter identity on three sites.

    Compares (R(u) x I)(I x R(u+v))(R(v) x I) with
    (I x R(v))(R(u+v) x I)(I x R(u)); all three inputs act on a pair of
    m-state sites.
    """
    m2 = r_u.shape[0]
    m = math.isqrt(m2)
    if m * m != m2 or r_u.shape != r_uv.shape or r_u.shape != r_v.shape:
        raise ValueError("R-matrices must share a square two-site shape")
    eye = np.eye(m, dtype=complex)
    left = np.kron(r_u, eye) @ np.kron(eye, r_uv) @ np.kron(r_v, eye)
    right = np.kron(eye, r_v) @ np.kron(r_uv, eye) @ np.kron(eye, r_u)
    return float(np.max(np.abs(left - right)))


def ybe_residual(lam: float, u: float, v: float, kind: str = "bubble") -> float:
    """Yang-Baxter defect of the standard R-matrices at (lam, u, v)."""
    return ybe_residual_matrices(
        rmatrix(kind, lam, u), rmatrix(kind, lam, u + v), rmatrix(kind, lam, v)
    )


def unitarity_residual(lam: float, u: float, kind: str = "bubble") -> float:
    """Distance of R(u)R(-u) from the nearest scalar multiple of I.

    The scalar is fitted by least squares, which for this distance is the
    normalised trace of the product.
    """
    r = rmatrix(kind, lam, u) @ rmatrix(kind, lam, -u)
    dim = r.shape[0]
    scale = np.trace(r) / dim
    return float(np.max(np.abs(r - scale * np.eye(dim, dtype=complex))))


def transfer_matrix(lam: float, u: float, n: int, kind: str = "bubble") -> np.ndarray:
    """Row-to-row transfer matrix on n sites with periodic boundary.

    Column k is ``_apply_transfer`` of e_k.  A matrix over the dense
    budget is refused before it is allocated.  No command calls this.
    """
    m = family(kind).site_dim
    if n < 1:
        raise ValueError("need at least one site")
    dim = m**n
    with dense_request(16 * dim**2, 16 * dim**2, f"a {kind} transfer matrix on {n} sites"):
        t = np.empty((dim, dim), dtype=complex)
    r = rmatrix(kind, lam, u)
    e = np.zeros(dim, dtype=complex)
    for k in range(dim):
        e[k] = 1.0
        t[:, k] = _apply_transfer(r, e, n)
        e[k] = 0.0
    return t


def _apply_transfer(r: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """T x for the n-site transfer matrix built from the two-site R-matrix ``r``.

    T traces the auxiliary space out of the product of P * R factors, one
    per site, and is never formed: the state carries the open auxiliary
    pair (a0, a) beside the n site indices, so m^2 * m^n entries, and each
    site is one (m^2 x m^2) matmul on it.  The trace over a0 = a closes the
    chain at the end.  Site 0 is the least significant digit of the state
    index; each processed site moves to the front, so the last one ends
    most significant and no reordering is left.
    """
    m = math.isqrt(r.shape[0])
    # site[(d, a), (o, b)]: state d and auxiliary a in, state o and auxiliary b out
    site = r.reshape(m, m, m, m).transpose(3, 2, 0, 1).reshape(m * m, m * m)
    k = x.size // m
    # the first site opens the pair with a0 = a, so x needs no a0 axis yet
    state = x.reshape(k, m) @ site.reshape(m, -1)  # [rest, a0, o, b]
    moved = state.reshape(k, m, m, m).transpose(1, 2, 0, 3)
    buffer = np.empty((m, m, k, m), dtype=complex)
    for _ in range(n - 1):
        # [a0, o, rest, b]: the next site d is the last digit of rest, beside b
        np.copyto(buffer, moved)
        np.matmul(buffer.reshape(m * k, m * m), site, out=state.reshape(m * k, m * m))
        moved = state.reshape(m, k, m, m).transpose(0, 2, 1, 3)
    return np.trace(moved, axis1=0, axis2=3).reshape(-1)


def _transfer_defect(r_u: np.ndarray, r_v: np.ndarray, n: int, x: np.ndarray) -> float:
    """Relative defect ||T_u T_v x - T_v T_u x|| / max(||T_u T_v x||, ||T_v T_u x||), max norm."""
    uv = _apply_transfer(r_u, _apply_transfer(r_v, x, n), n)
    vu = _apply_transfer(r_v, _apply_transfer(r_u, x, n), n)
    # a NaN in either product makes diff NaN, which fails the gate
    diff = float(np.max(np.abs(uv - vu)))
    scale = float(max(np.max(np.abs(uv)), np.max(np.abs(vu))))
    # two zero products commute
    return diff / scale if scale else diff


def transfer_commutator(
    lam: float, u: float, v: float, n: int, kind: str, rng: np.random.Generator
) -> float:
    """Relative commutator defect of T(u) and T(v) on n sites, on one vector.

    The vector is complex Gaussian, drawn from ``rng``; T is applied one
    site at a time and never formed.
    """
    m = family(kind).site_dim
    if n < 1:
        raise ValueError("need at least one site")
    dim = m**n
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return _transfer_defect(rmatrix(kind, lam, u), rmatrix(kind, lam, v), n, x)


class SpectralPoint(NamedTuple):
    """One sampled (lambda, u, v) triple."""

    lam: float
    u: float
    v: float


class SweepReport(NamedTuple):
    """Worst residual over a batch of sampled spectral points."""

    kind: str
    quantity: str
    count: int
    max_residual: float
    worst: SpectralPoint
    points: tuple[tuple[SpectralPoint, float], ...] = ()

    @property
    def residuals(self) -> list[float]:
        return [res for _, res in self.points]


LAMBDA_MARGIN = 0.1


def sample_lambda(rng: random.Random, kind: str = "bubble") -> float:
    """Draw lambda from (0, pi) at least LAMBDA_MARGIN from every pole."""
    step = family(kind).pole_step
    while True:
        lam = rng.uniform(LAMBDA_MARGIN, math.pi - LAMBDA_MARGIN)
        if abs(lam - round(lam / step) * step) >= LAMBDA_MARGIN:
            return lam


def _sweep(
    kind: str, count: int, seed: int, lam: float | None, quantity: str,
    residual: Callable[[SpectralPoint], float], draw_v: bool = True,
) -> SweepReport:
    """Maximise ``residual(point)`` over ``count`` seeded spectral points.

    Each point draws lambda (unless a fixed ``lam`` pins it), then u, then
    v, or sets v = -u when not ``draw_v``.  The residuals below name their
    function at call time, so a replaced module attribute is the one used.
    """
    if count < 1:
        raise ValueError(f"a sweep needs at least one point, not {count}")
    rng = random.Random(seed)
    if lam is not None:
        validate_lambda(lam, kind)
    points = []
    for _ in range(count):
        cur = sample_lambda(rng, kind) if lam is None else lam
        u = rng.uniform(-1.5, 1.5)
        point = SpectralPoint(cur, u, rng.uniform(-1.5, 1.5) if draw_v else -u)
        points.append((point, residual(point)))
    # the first largest residual, or the first NaN, which no gate passes
    worst, worst_res = points[int(np.argmax([res for _, res in points]))]
    return SweepReport(kind, quantity, count, worst_res, worst, tuple(points))


def ybe_sweep(
    kind: str = "bubble", count: int = 20, seed: int = 20260822, lam: float | None = None
) -> SweepReport:
    """Yang-Baxter residual maximised over seeded random spectral points."""
    return _sweep(kind, count, seed, lam, "ybe", lambda p: ybe_residual(p.lam, p.u, p.v, kind))


def unitarity_sweep(
    kind: str = "bubble", count: int = 20, seed: int = 20260822, lam: float | None = None
) -> SweepReport:
    """Unitarity residual at (lambda, u, -u) maximised over seeded random points."""
    return _sweep(
        kind, count, seed, lam, "unitarity",
        lambda p: unitarity_residual(p.lam, p.u, kind), draw_v=False,
    )


def transfer_sweep(
    n: int, kind: str = "bubble", count: int = 10, seed: int = 20260822, lam: float | None = None
) -> SweepReport:
    """Transfer-matrix commutator maximised over seeded random points.

    Each point draws its own vector from a numpy generator seeded with
    ``seed``, so the report depends on the seed alone.
    """
    vectors = np.random.default_rng(seed)
    return _sweep(
        kind, count, seed, lam, f"transfer_commutator_n{n}",
        lambda p: transfer_commutator(p.lam, p.u, p.v, n, kind, vectors),
    )
