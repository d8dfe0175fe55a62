"""What the numeric commands know before numpy loads, and the admission
of a request: the colour parameters, each Yang-Baxter family as one
``Family`` record (``family`` is the one place an unknown name is
refused), the bytes ``rep`` and a transfer check hold, the size the
check suite runs at, the dense budget that refuses a request and the
BLAS threads numpy loads with.

``cli`` sizes every ``rep``, ``ybe`` and ``check`` request here and
imports ``spinchain``, ``yangbaxter`` or ``checks``, and with them
numpy, inside ``dense_request``; those modules take the same names from
here.  Nothing in this module imports numpy.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

from .basis import DEFAULT_MAX_N, ResourceLimitError, walk_count
from .diagram import RED

# Bytes of dense complex arrays, and the text made from them, that one
# request may hold at once.  It admits rep --n 3 (62 MB with --matrices),
# ybe --transfer 9 for bubble (155 MB) and 21 for tl (436 MB), and refuses
# rep --n 4 (617 MB of matrices alone), bubble --transfer 10 (621 MB) and
# tl --transfer 22 (872 MB).
DENSE_BUDGET = 512 * 2**20

# OpenBLAS, which numpy loads, starts a pool of one worker thread per core.
# Products on dense states under this many bytes run about as fast on one
# thread as on a pool of two, for 35-45% less CPU.  Above it the pool
# costs 1.6-1.9 times the CPU and is no faster up to 6.6 MiB (tl
# --transfer 15); it is about 5% faster at 9.3 MiB (bubble --transfer 7)
# and 13-20% faster from 13 MiB (tl --transfer 16) up.
# Measured on the largest state a request's products work on (the
# ``largest`` of dense_request): every rep, ybe with no chain or one up to
# bubble --transfer 5 or tl --transfer 13, and check up to size 5 fall
# under it.  The paired measurements are in CHANGES.md.
ONE_BLAS_THREAD_BELOW = 2 * 2**20

# a user who sets any of these chooses the BLAS threads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def dense_request(held: int, largest: int, what: str) -> Iterator[None]:
    """Admit a request that holds ``held`` bytes of dense arrays, and whose
    largest product works on a state of ``largest`` bytes, then import
    numpy in this block.

    A request over DENSE_BUDGET is refused before anything is built.
    Under ONE_BLAS_THREAD_BELOW numpy loads with one BLAS thread: OpenBLAS
    reads its thread count once, as numpy loads, so the setting lives only
    for the block and ``os.environ`` is as before afterwards.  Nothing is
    set once numpy is loaded or when the user set any of BLAS_THREAD_VARS.
    """
    if held > DENSE_BUDGET:
        raise ResourceLimitError(
            f"{what} would hold {held:.3g} bytes of dense arrays, over the budget of {DENSE_BUDGET}"
        )
    if (
        largest >= ONE_BLAS_THREAD_BELOW
        or "numpy" in sys.modules
        or any(var in os.environ for var in BLAS_THREAD_VARS)
    ):
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


def tl_coefficients(lam: float, u: float) -> dict[str, float]:
    """Coefficients of I and E in the one-colour R(u)."""
    s = math.sin(lam)
    return {
        "straight": math.sin(lam - u) / s,
        "cupcap": math.sin(u) / s,
    }


def bubble_coefficients(lam: float, u: float) -> dict[str, float]:
    """Coefficients of the five diagram groups in the two-colour R(u)."""
    s1 = math.sin(lam)
    s3 = math.sin(3.0 * lam)
    return {
        "straight_same": math.sin(lam - u) * math.sin(3.0 * lam - u) / (s1 * s3),
        "straight_mixed": math.sin(3.0 * lam - u) / s3,
        "cupcap_same": -math.sin(u) * math.sin(2.0 * lam - u) / (s1 * s3),
        "cupcap_mixed": math.sin(u) / s3,
        "crossing": math.sin(u) * math.sin(3.0 * lam - u) / (s1 * s3),
    }


class Family(NamedTuple):
    """States per chain site, the spacing in lambda of the coefficients'
    poles, the groups in the order R(u) sums them, the coefficients at
    (lambda, u), and the absolute gate on the largest YBE (and unitarity)
    residual entry."""

    site_dim: int
    pole_step: float
    groups: tuple[str, ...]
    coefficients: Callable[[float, float], dict[str, float]]
    ybe_tolerance: float


# a spin per site for tl, a colour and a spin for bubble; the check suite
# draws its random points family by family in this order
FAMILIES = {
    "tl": Family(2, math.pi, ("straight", "cupcap"), tl_coefficients, 1e-12),
    "bubble": Family(
        4, math.pi / 3.0,
        ("straight_same", "straight_mixed", "cupcap_same", "cupcap_mixed", "crossing"),
        bubble_coefficients, 1e-10,
    ),
}


def family(kind: str) -> Family:
    """The family named ``kind``; an unknown name is a ValueError."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown model kind {kind!r}; expected {' or '.join(map(repr, FAMILIES))}")
    return FAMILIES[kind]


# rep --matrices writes each entry as "re,im;", two float reprs of at most
# 24 characters, and holds that text up to four times: the strings, the
# JSON document, the line and its encoding
MATRIX_TEXT_BYTES = 4 * 50


def matrix_bytes(n: int) -> int:
    """Bytes of one 4^n x 4^n complex matrix of the spin chain on n sites."""
    return 16 * 16**n


def rep_bytes(n: int, text: bool) -> int:
    """Bytes ``rep`` holds on n strands: one matrix per basis diagram, and
    with ``text`` the ``--matrices`` text made from them."""
    per_entry = 16 + (MATRIX_TEXT_BYTES if text else 0)
    return walk_count(2 * n, 0, 0) * 16**n * per_entry


# Peak of transfer_commutator as tracemalloc measures it: _apply_transfer
# holds two states of m^(n+2) complex entries, and the comparison of the
# two products holds five m^n vectors; building the R-matrices stays
# under the fixed part
TRANSFER_STATES_HELD = 2
TRANSFER_VECTORS_HELD = 5
TRANSFER_FIXED_BYTES = 64 * 2**10


def transfer_bytes(n: int, kind: str = "bubble") -> int:
    """Peak bytes ``yangbaxter.transfer_commutator`` allocates on n sites."""
    m = family(kind).site_dim
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
