"""What the numeric commands know before numpy loads: the colour
parameters, each family's site dimension, the bytes a transfer check
holds, and the size the check suite runs at.

This module holds only those sizes and records.  The dense budget, the
refusal of a request over it and the choice of BLAS threads live in
``cli`` (``DENSE_BUDGET``, ``_check_dense``, ``_largest_state``,
``ONE_BLAS_THREAD_BELOW``, ``_blas_threads``), which sizes every ``rep``,
``ybe`` and ``check`` request with the counts here before ``spinchain``,
``yangbaxter`` or ``checks`` import numpy; those modules take the same
names from here.  Nothing in this module needs more than ``cmath``.
"""

from __future__ import annotations

import cmath

from .basis import DEFAULT_MAX_N, ResourceLimitError
from .diagram import RED

# states per chain site: a spin for tl, a colour and a spin for bubble
SITE_DIM = {"tl": 2, "bubble": 4}


def site_dim(kind: str) -> int:
    if kind not in SITE_DIM:
        raise ValueError(f"unknown model kind {kind!r}; expected 'tl' or 'bubble'")
    return SITE_DIM[kind]


# Peak of transfer_commutator as tracemalloc measures it: _apply_transfer
# holds two states of m^(n+2) complex entries, and the comparison of the
# two products holds five m^n vectors; building the R-matrices stays
# under the fixed part
TRANSFER_STATES_HELD = 2
TRANSFER_VECTORS_HELD = 5
TRANSFER_FIXED_BYTES = 64 * 2**10


def transfer_bytes(n: int, kind: str = "bubble") -> int:
    """Peak bytes ``yangbaxter.transfer_commutator`` allocates on n sites."""
    m = site_dim(kind)
    if n < 1:
        raise ValueError("need at least one site")
    states = TRANSFER_STATES_HELD * m * m + TRANSFER_VECTORS_HELD
    return 16 * m**n * states + TRANSFER_FIXED_BYTES


def check_size(n: int, quick: bool) -> int:
    """The size the check suite runs at: ``n``, which ``quick`` trims to 3.
    Under 2 is a ValueError, and past DEFAULT_MAX_N a ResourceLimitError."""
    if n < 2:
        raise ValueError("check size must be at least 2")
    if quick:
        n = min(n, 3)
    if n > DEFAULT_MAX_N:
        raise ResourceLimitError(f"check size {n} exceeds the limit of {DEFAULT_MAX_N}")
    return n


def _resolve(q: complex, name: str) -> tuple[complex, complex]:
    t = cmath.sqrt(q)
    # store the square of t so t*t == q holds exactly from here on; the
    # square can overflow although q did not, and 1/q does for a tiny q
    stored = t * t
    if stored == 0:
        raise ValueError(f"q_{name} must be invertible")
    if not (cmath.isfinite(stored) and cmath.isfinite(stored + 1 / stored)):
        raise ValueError(f"q_{name} and its loop weight q + 1/q must be finite, got {q}")
    return stored, t


class NumericParams:
    """Numeric weights per colour; q_c is stored as t_c squared exactly."""

    __slots__ = ("q_r", "q_b", "t_r", "t_b")

    def __init__(self, q_r: complex, q_b: complex) -> None:
        self.q_r, self.t_r = _resolve(q_r, "r")
        self.q_b, self.t_b = _resolve(q_b, "b")

    @property
    def delta_r(self) -> complex:
        return self.q_r + 1 / self.q_r

    @property
    def delta_b(self) -> complex:
        return self.q_b + 1 / self.q_b

    def t(self, c: int) -> complex:
        return self.t_r if c == RED else self.t_b

    def __repr__(self) -> str:
        return f"NumericParams(q_r={self.q_r!r}, q_b={self.q_b!r})"
