"""The exit-code contract over the request grammar, as one table.

Each row is one command line at the edge of one of its options, with the
exit code it gives: 0 success, 1 property failure, 2 usage or input
error, 3 resource bound exceeded.  Every row runs in-process through
``cli.main``, and must return its code without an exception escaping,
write its payload to stdout exactly when it is not refused (exits 2 and
3 write nothing there), and say why on stderr when it is.

The edges are ``--n`` at -1, 0, 1, the n <= 8 cap and one past it, and
100 for every command that takes it; ``--max-n`` at -5 and 100; the
colour parameters as NaN, inf, 0, 1e308, 1e-300 or malformed; ``--tol``
as NaN, -1, inf and 0; ``--sweep`` at 0, -3 and 1; ``--lambda`` as NaN,
inf and 0; ``--transfer`` at -2, 0, 1 and the dense budget's refusals; a
23-digit and a negative ``--seed``; unknown choices and missing
arguments.  The dense budget's own edge is met by setting the budget to
a request's own bytes, which admits it, and to one byte fewer, which
refuses it.  ``check --n 7`` and ``--n 8`` are too slow for this table:
``tests/test_cli.py`` pins size 7's details and CI runs size 8.

Two rows pin today's values where they look odd:
- a negative ``--max-n`` is a resource refusal, exit 3, whose message
  doubles the negative bound ("limit of -10");
- argparse reads ``--qb -1j`` as a second option, so the request is a
  usage error unless it is written ``--qb=-1j``.
"""

from __future__ import annotations

import shlex
from typing import NamedTuple

import pytest

from bubblealg import numeric
from bubblealg.cli import ENV_CACHE_DIR, main

LIMIT = "boundary points exceed the limit of 16"
REP = "rep --n 1 --qr 2 --qb 3"
REP_HELD = numeric.rep_bytes(1, False)
YBE_CHAIN = "ybe --family bubble --sweep 2 --transfer 2"
YBE_HELD = numeric.transfer_bytes(2, "bubble")
CHECK_HELD = max(numeric.transfer_bytes(2, kind) for kind in numeric.FAMILIES)


class Request(NamedTuple):
    argv: str
    code: int
    # a pattern stderr must contain, and the dense budget the request runs
    # under, when not the package's own
    stderr: str | None = None
    budget: int | None = None


REQUESTS = [
    # basis
    Request("basis --n -1", 2, "negative size n=-1"),
    Request("basis --n 0", 0),
    Request("basis --n 1", 0),
    Request("basis --n 7", 0),
    Request("basis --n 8", 0),
    Request("basis --n 9", 3, LIMIT),
    Request("basis --n 100", 3, LIMIT),
    Request("basis --n 9 --max-n 9", 0),
    Request("basis --n 100 --max-n 100", 0),
    Request("basis --n 3 --max-n -5", 3, "6 boundary points exceed the limit of -10"),
    Request("basis --n 0 --max-n -5", 3, "limit of -10"),
    Request("basis --n -1 --diagrams", 2, "negative size"),
    Request("basis --n 0 --diagrams", 0),
    Request("basis --n 1 --diagrams", 0),
    Request("basis --n 9 --diagrams", 3, LIMIT),
    Request("basis --n x", 2, "invalid int value"),
    Request("basis", 2, "required: --n"),
    # dims
    Request("dims --n -1", 2, "negative size"),
    Request("dims --n 0", 0),
    Request("dims --n 1", 0),
    Request("dims --n 7", 0),
    Request("dims --n 8", 0),
    Request("dims --n 9", 3, LIMIT),
    Request("dims --n 100", 3, LIMIT),
    Request("dims --n 100 --max-n 100", 0),
    Request("dims --n 3 --max-n -5", 3, "limit of -10"),
    Request("dims --n 2 --format csv", 0),
    Request("dims --n 2 --format xml", 2, "invalid choice"),
    # gram
    Request("gram --n -1 --i 0 --j 0", 2, "negative size"),
    Request("gram --n 0 --i 0 --j 0", 0),
    Request("gram --n 0 --i 0 --j 0 --det --blocks --roots r", 0),
    Request("gram --n 1 --i 1 --j 0", 0),
    Request("gram --n 1 --i 0 --j 0", 2, "carries no module"),
    Request("gram --n 7 --i 7 --j 0 --det", 0),
    Request("gram --n 8 --i 8 --j 0 --det --blocks --roots b", 0),
    Request("gram --n 8 --i 0 --j 8 --det", 0),
    Request("gram --n 9 --i 9 --j 0", 3, LIMIT),
    Request("gram --n 100 --i 0 --j 0", 3, LIMIT),
    Request("gram --n 2 --i -1 --j 0", 2, "carries no module"),
    Request("gram --n 2 --i 3 --j 0", 2, "carries no module"),
    Request("gram --n 3 --i 1 --j 0 --max-n -5", 3, "limit of -10"),
    Request("gram --n 2 --i 0 --j 0 --roots x", 2, "invalid choice"),
    Request("gram --n 2 --i 0", 2, "required: --j"),
    # rep: sizes
    Request("rep --n -1 --qr 2 --qb 3", 2, "negative size"),
    Request("rep --n 0 --qr 2 --qb 3", 0),
    Request(REP, 0),
    Request("rep --n 7 --qr 2 --qb 3", 0),
    Request("rep --n 8 --qr 2 --qb 3", 0),
    Request("rep --n 9 --qr 2 --qb 3", 3, LIMIT),
    Request("rep --n 100 --qr 2 --qb 3", 3, LIMIT),
    Request("rep --n 3 --qr 2 --qb 3 --max-n -5", 3, "limit of -10"),
    Request("rep --n 0 --qr 2 --qb 3 --check", 0),
    Request(f"{REP} --check", 0),
    Request(f"{REP} --check --matrices", 0),
    Request("rep --n 9 --qr 2 --qb 3 --check", 3, LIMIT),
    # rep: the dense budget
    Request("rep --n 4 --qr 2 --qb 3 --check", 3, "over the budget of 536870912"),
    Request("rep --n 4 --qr 2 --qb 3 --matrices", 3, "over the budget"),
    Request("rep --n 8 --qr 2 --qb 3 --check", 3, "over the budget"),
    Request(f"{REP} --check", 0, None, REP_HELD),
    Request(f"{REP} --check", 3, f"over the budget of {REP_HELD - 1}", REP_HELD - 1),
    # rep: parameters and tolerance
    Request("rep --n 1 --qr nan --qb 3", 2, "must be finite"),
    Request("rep --n 1 --qr inf --qb 3", 2, "must be finite"),
    Request("rep --n 1 --qr 0 --qb 3", 2, "must be invertible"),
    Request("rep --n 1 --qr 1e308 --qb 3", 0),
    Request("rep --n 1 --qr 1e308 --qb 3 --check", 0),
    Request("rep --n 1 --qr 1e-300 --qb 3", 0),
    Request("rep --n 1 --qr 2+ --qb 3", 2, "could not parse"),
    Request("rep --n 1 --qr 2 --qb -1j", 2, "--qb: expected one argument"),
    Request("rep --n 1 --qr 2 --qb=-1j", 0),
    Request(f"{REP} --check --tol nan", 2, "--tol must be finite"),
    Request(f"{REP} --check --tol -1", 2, "--tol must be finite"),
    Request(f"{REP} --check --tol inf", 2, "--tol must be finite"),
    Request(f"{REP} --check --tol 0", 1),
    # ybe
    Request("ybe --family tl", 0),
    Request("ybe --family bubble", 0),
    Request("ybe --family tl --format csv", 0),
    Request("ybe --family green", 2, "invalid choice"),
    Request("ybe --family bubble --sweep 1", 0),
    Request("ybe --family bubble --sweep 0", 2, "positive count"),
    Request("ybe --family bubble --sweep -3", 2, "positive count"),
    Request("ybe --family bubble --lambda nan", 2, "lambda must be finite"),
    Request("ybe --family bubble --lambda inf", 2, "lambda must be finite"),
    Request("ybe --family bubble --lambda 0", 2, "of the pole at 0.0"),
    Request("ybe --family tl --lambda 0", 2, "of the pole at 0.0"),
    Request("ybe --family bubble --transfer -2", 2, "at least one site"),
    Request("ybe --family bubble --transfer 0", 2, "at least one site"),
    Request("ybe --family bubble --transfer 1", 0),
    Request("ybe --family bubble --transfer 10", 3, "over the budget"),
    Request("ybe --family tl --transfer 22", 3, "over the budget"),
    Request(YBE_CHAIN, 0, None, YBE_HELD),
    Request(YBE_CHAIN, 3, f"over the budget of {YBE_HELD - 1}", YBE_HELD - 1),
    Request("ybe --family bubble --seed 12345678901234567890123", 0),
    Request("ybe --family bubble --seed -1", 2, "must be non-negative"),
    # check
    Request("check --n -1", 2, "at least 2"),
    Request("check --n 0", 2, "at least 2"),
    Request("check --n 1", 2, "at least 2"),
    Request("check --n 2", 0),
    Request("check --n 9", 3, "check size 9 exceeds the limit of 8"),
    Request("check --n 100", 3, "exceeds the limit of 8"),
    Request("check --quick --n 1", 2, "at least 2"),
    Request("check --quick --n 8", 0),
    Request("check --quick --n 9", 0),
    Request("check --n 2 --seed 12345678901234567890123", 0),
    Request("check --seed -1", 2, "must be non-negative"),
    Request("check --n 2", 0, None, CHECK_HELD),
    Request("check --n 2", 3, f"over the budget of {CHECK_HELD - 1}", CHECK_HELD - 1),
]


def request_id(req: Request) -> str:
    return req.argv if req.budget is None else f"{req.argv} @budget={req.budget}"


@pytest.mark.parametrize("req", REQUESTS, ids=map(request_id, REQUESTS))
def test_exit_code_contract(req, capsys, monkeypatch):
    # a basis request finds no cache directory, so it reads and writes no file
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    if req.budget is not None:
        monkeypatch.setattr(numeric, "DENSE_BUDGET", req.budget)
    code = main(shlex.split(req.argv))
    out, err = capsys.readouterr()
    assert code == req.code
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == "" and err
    else:
        assert out
    if req.stderr is not None:
        assert req.stderr in err
