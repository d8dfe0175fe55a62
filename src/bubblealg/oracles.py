"""Independent reference computations used to validate the main engine.

Everything here is deliberately written against different algorithms
than the corresponding engine code: counts come from closed formulas,
and one-colour half diagrams and their pairing from a plain recursion
and union-find contraction.  Tests compare engine output against these
routes; the command line check subcommand reuses them.  The brute-force
enumeration of coloured diagrams and one-colour composition, which only
the tests call, live in ``tests/helpers.py``.
"""

from __future__ import annotations

from math import comb

# ---------------------------------------------------------------------------
# counting formulas


def catalan(n: int) -> int:
    if n < 0:
        return 0
    return comb(2 * n, n) // (n + 1)


def bubble_basis_count(n: int) -> int:
    """Closed form for the number of two-colour diagrams on n + n points."""
    return sum(comb(2 * n, 2 * k) * catalan(k) * catalan(n - k) for k in range(n + 1))


def tl_halfdiagram_count(n: int, defects: int) -> int:
    """Ballot count of one-colour half diagrams with the given defect number."""
    if defects < 0 or defects > n or (n - defects) % 2:
        return 0
    m = (n - defects) // 2
    return comb(n, m) - (comb(n, m - 1) if m >= 1 else 0)


# ---------------------------------------------------------------------------
# one-colour half diagrams and their bilinear form


def tl_bras(n: int, defects: int) -> list[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
    """One-colour half diagrams on n points as (arcs, defect positions).

    A defect may not sit inside an arc, so it is only allowed while no
    arc is open.
    """
    results: list[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]] = []

    def rec(pos: int, stack: list[int], arcs: list[tuple[int, int]], defs: list[int]) -> None:
        if pos > n:
            if not stack and len(defs) == defects:
                results.append((tuple(sorted(arcs)), tuple(defs)))
            return
        remaining = n - pos + 1
        if len(stack) + len(defs) > n:
            return
        # close the innermost open arc
        if stack:
            top = stack.pop()
            arcs.append((top, pos))
            rec(pos + 1, stack, arcs, defs)
            arcs.pop()
            stack.append(top)
        # place a defect; forbidden under an open arc
        if not stack and len(defs) < defects:
            defs.append(pos)
            rec(pos + 1, stack, arcs, defs)
            defs.pop()
        # open a new arc if it can still be closed
        if remaining - 1 >= len(stack) + 1:
            stack.append(pos)
            rec(pos + 1, stack, arcs, defs)
            stack.pop()

    rec(1, [], [], [])
    return sorted(results)


def tl_inner_exponent(
    x: tuple[tuple[tuple[int, int], ...], tuple[int, ...]],
    y: tuple[tuple[tuple[int, int], ...], tuple[int, ...]],
) -> int | None:
    """Loop exponent of the bilinear pairing of two half diagrams, None if zero.

    The two halves are glued point by point.  The pairing vanishes
    whenever a chain joins two defects of the same half; otherwise the
    value is the loop parameter raised to the number of closed cycles.
    """
    arcs_x, defs_x = x
    arcs_y, defs_y = y
    n = 2 * len(arcs_x) + len(defs_x)
    # nodes 1..n are x points, n+1..2n are y points
    parent = list(range(2 * n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for p, q in arcs_x:
        union(p, q)
    for p, q in arcs_y:
        union(n + p, n + q)
    for p in range(1, n + 1):
        union(p, n + p)
    comp_defects: dict[int, list[int]] = {}
    for p in defs_x:
        comp_defects.setdefault(find(p), []).append(0)
    for p in defs_y:
        comp_defects.setdefault(find(n + p), []).append(1)
    for members in comp_defects.values():
        if sorted(members) != [0, 1]:
            return None
    loop_roots = set()
    for p in range(1, n + 1):
        r = find(p)
        if r not in comp_defects:
            loop_roots.add(r)
    return len(loop_roots)


def tl_gram_exponents(n: int, defects: int) -> list[list[int | None]]:
    """Pairing matrix of the one-colour half diagrams; entries are loop
    exponents, None for zero."""
    bras = tl_bras(n, defects)
    return [[tl_inner_exponent(x, y) for y in bras] for x in bras]
