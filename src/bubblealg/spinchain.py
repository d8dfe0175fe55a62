"""Spin-chain representation: each strand site carries four states.

A site holds a colour and a spin, ordered (r+, r-, b+, b-); a chain of
n sites lives in a 4^n dimensional space with the first site most
significant in the index.  A diagram with n_north outputs and n_south
inputs becomes a 4^n_north by 4^n_south matrix:

* a propagating line preserves colour and spin between its two sites;
* an arc forces its two sites to its colour with opposite spins and
  weighs t_c on (+,-) read left to right, 1/t_c on (-,+);
* entries multiply over the pairs of the diagram.

``diagram_matrix`` writes each term's states into one list indexed by
endpoint, north then south, as the diagram numbers its points.
``homomorphism_report(n, params)`` lists B_n itself and checks every
ordered pair of its diagrams against the product of their matrices.

Closed loops removed during composition contribute delta_c = q_c + 1/q_c
with q_c = t_c^2, which is exactly how the matrices turn composition
into matrix product.  Parameters are given as q_c, and t_c is its
principal square root: the sign of the root never affects the
representation, since arcs always pair t against 1/t.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .basis import enumerate_basis
from .diagram import Diagram, products
from .numeric import NumericParams

def state_index(states: Sequence[int]) -> int:
    idx = 0
    for s in states:
        idx = 4 * idx + s
    return idx


def _arc_weights(c: int, params: NumericParams) -> list[tuple[int, int, complex]]:
    # (left state, right state, weight) for an arc of colour c
    t = params.t(c)
    plus, minus = 2 * c, 2 * c + 1
    return [(plus, minus, t), (minus, plus, 1 / t)]


def arc_ket(c: int, params: NumericParams) -> np.ndarray:
    """Two-site vector of an arc of colour c: the column a northern arc
    creates, and the row a southern arc closes with."""
    v = np.zeros(16, dtype=complex)
    for s1, s2, w in _arc_weights(c, params):
        v[4 * s1 + s2] = w
    return v


def colour_block_indices(word: tuple[int, ...]) -> list[int]:
    """Indices whose sites carry the given colours, any spins."""
    ranges = [(2 * c, 2 * c + 1) for c in word]
    return [state_index(states) for states in product(*[(a, b) for a, b in ranges])]


def diagram_matrix(d: Diagram, params: NumericParams) -> np.ndarray:
    """Dense matrix of a diagram, 4^n_north rows by 4^n_south columns; each
    pair offers (p, q, state at p, state at q, weight) per choice."""
    nn = d.n_north
    pair_opts = []
    for p, q, c in d.pairs:
        if p <= nn < q:
            opts = [(2 * c + s, 2 * c + s, 1.0 + 0.0j) for s in (0, 1)]
        else:
            opts = _arc_weights(c, params)
        pair_opts.append([(p, q, s1, s2, w) for s1, s2, w in opts])
    m = np.zeros((4**nn, 4**d.n_south), dtype=complex)
    # every combination writes every endpoint, so one list serves them all
    state = [0] * (nn + d.n_south + 1)
    for combo in product(*pair_opts):
        weight = 1.0 + 0.0j
        for p, q, s1, s2, w in combo:
            weight *= w
            state[p] = s1
            state[q] = s2
        m[state_index(state[1 : nn + 1]), state_index(state[nn + 1 :])] += weight
    return m


# ---------------------------------------------------------------------------
# explicit two-site matrices, from which R(u) is built


def two_site_shape(d: Diagram) -> tuple[str, int, int]:
    """("straight" | "crossing" | "cupcap", c1, c2) of a B_2 diagram; c1 is
    the colour of the pair at point 1."""
    if (d.n_north, d.n_south) != (2, 2):
        raise ValueError("not a two-strand square diagram")
    shape = tuple(sorted((p, q) for p, q, _ in d.pairs))
    colour = {(p, q): c for p, q, c in d.pairs}
    if shape == ((1, 3), (2, 4)):
        return "straight", colour[(1, 3)], colour[(2, 4)]
    if shape == ((1, 4), (2, 3)):
        return "crossing", colour[(1, 4)], colour[(2, 3)]
    if shape == ((1, 2), (3, 4)):
        return "cupcap", colour[(1, 2)], colour[(3, 4)]
    raise ValueError("not a two-strand square diagram")


def b2_matrix(d: Diagram, params: NumericParams) -> np.ndarray:
    """Hand-written 16x16 matrices for the ten two-strand diagrams.

    straight (c1, c2): identity on the block whose sites carry those
    colours; crossing with northern colours (cL, cR): the site swap
    from the (cR, cL) block onto the (cL, cR) block; cup over cap:
    outer product of the arc vectors.
    """
    kind, c1, c2 = two_site_shape(d)
    m = np.zeros((16, 16), dtype=complex)
    if kind == "straight":
        for k in colour_block_indices((c1, c2)):
            m[k, k] = 1
    elif kind == "crossing":
        for s_left in (0, 1):
            for s_right in (0, 1):
                row = 4 * (2 * c1 + s_left) + (2 * c2 + s_right)
                col = 4 * (2 * c2 + s_right) + (2 * c1 + s_left)
                m[row, col] = 1
    else:
        m = np.outer(arc_ket(c1, params), arc_ket(c2, params))
    return m


# ---------------------------------------------------------------------------
# homomorphism validation


class HomomorphismReport(NamedTuple):
    n: int
    pairs_checked: int
    max_residual: float


def homomorphism_report(n: int, params: NumericParams) -> HomomorphismReport:
    """Compare the matrix of every composed pair with the matrix product.

    Every ordered pair of diagrams of B_n, which it lists itself, is
    tested; the report carries the worst absolute entry difference, NaN
    if any difference is NaN.  The non-zero ``products`` are compared
    entry by entry, each weighed by ``delta_r**loops_r *
    delta_b**loops_b``; every product lands in B_n and takes its matrix
    from the table of B_n's.  The product of two matrices is exactly zero
    when the colour words mismatch, once each vanishes outside its (north
    word x south word) block; so each matrix's largest entry outside its
    block covers the zero pairs.  A loop weight so large or small that a
    product overflows float64 raises ValueError, as float64 cannot show
    the homomorphism there.
    """
    basis = enumerate_basis(n)
    mats = {d: diagram_matrix(d, params) for d in basis}
    residuals = []
    for d, m in mats.items():
        rows, cols = map(colour_block_indices, d.words)
        outside = m.copy()
        outside[np.ix_(rows, cols)] = 0
        residuals.append(np.abs(outside).max())
    delta_r, delta_b = params.delta_r, params.delta_b
    try:
        with np.errstate(over="raise", invalid="raise"):
            for a, b, lr, lb, d in products(basis, basis):
                diff = delta_r**lr * delta_b**lb * mats[d] - mats[a] @ mats[b]
                residuals.append(np.abs(diff).max())
    except FloatingPointError as exc:
        raise ValueError(
            f"the matrix products at n={n} overflow float64 at these loop weights ({exc}), "
            "so the check cannot show the homomorphism"
        ) from exc
    return HomomorphismReport(n, len(basis) ** 2, float(np.max(residuals, initial=0.0)))
