"""Checks on the output of one ``bubble`` request.

Counts are checked against closed forms computed here, independently of
the program: |B_n| = C_n * C_{n+1} (Catalan numbers) and the quadrant
walk count for each module dimension.  Exact fields (diagram lists, Gram
entries, determinants) must match sha256 digests recorded in
``expected.json``.  Float outputs are checked through the exit code and
the ``passed`` / ``all_matched`` flags, which must agree with it.

A request is ``ok``, ``failed`` (the program itself reported a failure:
non-zero exit with a consistent, well-formed output) or ``wrong`` (an
output check failed: a silently wrong answer).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

OK, FAILED, WRONG = "ok", "failed", "wrong"


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def basis_size(n: int) -> int:
    """Number of two-colour diagrams on n + n points."""
    return catalan(n) * catalan(n + 1)


def walk_count(n: int, i: int, j: int) -> int:
    """Axis-step quadrant walks of length n from (0,0) to (i,j), closed form."""
    if i < 0 or j < 0 or i + j > n or (n - i - j) % 2:
        return 0
    a = (n - i - j) // 2
    num = (i + 1) * (j + 1) * math.factorial(n) * math.factorial(n + 2)
    den = (
        math.factorial(a)
        * math.factorial(a + i + 1)
        * math.factorial(a + j + 1)
        * math.factorial(a + i + j + 2)
    )
    return num // den


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def exact_fields(args: tuple[str, ...], payload: dict) -> dict[str, str]:
    """Digests of the fields of a payload that must not change by one byte."""
    if args[0] in ("basis", "dims"):
        return {field: digest(value) for field, value in payload.items()}
    if args[0] == "gram":
        return {field: digest(value) for field, value in payload.items() if field != "roots"}
    return {}


def load_expected() -> dict[str, dict[str, str]]:
    return json.loads(EXPECTED_PATH.read_text())


def _flag(args: tuple[str, ...], name: str) -> str | None:
    return args[args.index(name) + 1] if name in args else None


def _structure(args: tuple[str, ...], rc: int, payload: dict) -> list[str]:
    """Closed-form and consistency checks; returns the problems found."""
    cmd = args[0]
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    if cmd == "dims":
        n = int(_flag(args, "--n"))
        size = basis_size(n)
        expect(payload["basis_size"] == size, f"basis_size {payload['basis_size']} != {size}")
        expect(payload["dim_square_sum"] == size, "dim_square_sum differs from |B_n|")
        expect(payload["walk_total"] == size, "walk_total differs from |B_n|")
        expect(payload["rank_identity"] is True and rc == 0, "rank identity not reported")
        for row in payload["labels"]:
            dim = walk_count(n, row["i"], row["j"])
            expect(row["dim"] == dim and row["count"] == dim * dim, f"label {row} != walk count {dim}")
    elif cmd == "basis":
        n = int(_flag(args, "--n"))
        size = basis_size(n)
        expect(payload["total"] == size, f"total {payload['total']} != {size}")
        expect(sum(s["count"] for s in payload["strata"]) == size, "strata do not sum to |B_n|")
        for s in payload["strata"]:
            expect(s["dim"] == walk_count(n, s["i"], s["j"]), f"stratum {s} != walk count")
        if "--diagrams" in args:
            expect(len(payload["diagrams"]) == size, "diagram list has the wrong length")
        expect(rc == 0, f"exit code {rc}")
    elif cmd == "gram":
        n, i, j = (int(_flag(args, f)) for f in ("--n", "--i", "--j"))
        dim = walk_count(n, i, j)
        expect(payload["size"] == dim == len(payload["basis"]), f"size {payload['size']} != walk count {dim}")
        expect(len(payload["entries"]) == dim, "Gram matrix has the wrong size")
        if "--det" in args:
            expect(payload["det_cross_checked"] == (dim <= 36), "Bareiss cross-check not run as promised")
        if "--roots" in args:
            roots = payload["roots"]
            expect(roots["var"] == _flag(args, "--roots"), "roots scanned in the wrong colour")
            expect(roots["all_matched"] == (rc == 0), "exit code disagrees with all_matched")
        else:
            expect(rc == 0, f"exit code {rc}")
    elif cmd == "rep":
        n = int(_flag(args, "--n"))
        size = basis_size(n)
        expect(payload["basis_size"] == size, "basis_size differs from |B_n|")
        expect(payload["matrix_dim"] == 4**n, "matrix_dim is not 4^n")
        check = payload["check"]
        expect(check["pairs_checked"] == size * size, "not every ordered pair was checked")
        expect(check["passed"] == (rc == 0), "exit code disagrees with passed")
    elif cmd == "ybe":
        sweep = int(_flag(args, "--sweep"))
        expect(payload["family"] == _flag(args, "--family"), "wrong family")
        expect(payload["ybe"]["count"] == sweep, "ybe sweep count")
        sections = [payload["ybe"]]
        if "--transfer" in args:
            transfer = payload["transfer"]
            expect(transfer["n"] == int(_flag(args, "--transfer")), "transfer size")
            expect(transfer["count"] == sweep, "transfer sweep count")
            sections.append(transfer)
        expect(payload["passed"] == all(s["passed"] for s in sections), "passed disagrees with sections")
        expect(payload["passed"] == (rc == 0), "exit code disagrees with passed")
    else:
        problems.append(f"no check for subcommand {cmd!r}")
    return problems


def check(args: tuple[str, ...], rc: int, stdout: bytes, expected: dict) -> tuple[str, list[str]]:
    """Status of one request and the problems found in its output."""
    if rc != 0 and not stdout:
        return FAILED, [f"exit code {rc} with no output"]
    try:
        payload = json.loads(stdout)
        problems = _structure(args, rc, payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return WRONG, [f"unreadable output (exit {rc}): {exc!r}"]
    got = exact_fields(args, payload)
    want = expected.get(" ".join(args), {}) if got else {}
    if got and not want:
        problems.append("no expected digests recorded for this request")
    for field in sorted(set(want) | set(got)):
        if want.get(field) != got.get(field):
            problems.append(f"field {field!r} differs from its recorded digest")
    if problems:
        return WRONG, problems
    return (OK, []) if rc == 0 else (FAILED, [f"exit code {rc}"])
