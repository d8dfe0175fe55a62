"""Command line front end: validated config, dispatch, JSON/CSV emitters.

Exit codes: 0 success, 1 property failure, 2 usage or input error,
3 resource bound exceeded.  For a fixed command line and seed the JSON
output is byte identical between runs.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterable, Iterator

from .basis import (
    DEFAULT_MAX_N,
    ResourceLimitError,
    _check_size,
    enumerate_basis,
    enumerate_bras,
    rank_identity,
    standard_labels,
    walk_count,
)
from .diagram import BLUE, RED

if TYPE_CHECKING:
    from .yangbaxter import SweepReport

# cache, checks, spinchain, stdmod and yangbaxter, and the stdlib's csv and
# statistics, are imported where they are used, so a request loads only
# its own modules: numpy comes in only for rep, ybe and check, the commands
# that compute with float arrays, and cache only for a basis request that
# names a cache directory or lists the diagrams

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DEFAULT_SEED = 20260822

# Bytes of dense complex arrays, and the text made from them, that one
# request may hold at once.  It admits rep --n 3 (62 MB with --matrices),
# ybe --transfer 9 for bubble (155 MB) and 21 for tl (436 MB), and refuses
# rep --n 4 (617 MB of matrices alone), bubble --transfer 10 (621 MB) and
# tl --transfer 22 (872 MB).
DENSE_BUDGET = 512 * 2**20

# rep --matrices writes each entry as "re,im;", two float reprs of at most
# 24 characters, and holds that text up to four times: the strings, the
# JSON document, the line and its encoding
MATRIX_TEXT_BYTES = 4 * 50


# The JSON writer hands stdout text about this many characters at a time
WRITE_SIZE = 2**20

# strings of an all-string list are escaped and joined this many at a time
STRING_RUN = 4096


class StringPieces:
    """One JSON string handed over as an iterable of pieces, so text too
    long to hold, such as an expanded determinant, is escaped and written
    a piece at a time."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[str]) -> None:
        self.pieces = pieces


def _escaped(pieces: Iterable[str]) -> Iterator[str]:
    # escaping is per code point, so each piece goes out in slices
    for piece in pieces:
        for start in range(0, len(piece), WRITE_SIZE):
            yield encode_basestring_ascii(piece[start : start + WRITE_SIZE])[1:-1]


def _json_chunks(value, pad: str) -> Iterator[str]:
    """Text of ``json.dumps(value, sort_keys=True, indent=2)`` in pieces;
    ``pad`` is the indentation of the line ``value`` starts on.  Object
    keys must be strings, and a ``StringPieces`` is written as the string
    its pieces join to."""
    if isinstance(value, str):
        if len(value) <= WRITE_SIZE:
            yield encode_basestring_ascii(value)
            return
        yield '"'
        yield from _escaped((value,))
        yield '"'
    elif value is None or isinstance(value, (bool, int, float)):
        yield json.dumps(value)
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(value[key], inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = pad + "  "
        sep = ",\n" + inner
        yield "[\n" + inner
        if all(map(isinstance, value, repeat(str))):
            for start in range(0, len(value), STRING_RUN):
                run = value[start : start + STRING_RUN]
                yield (sep if start else "") + sep.join(map(encode_basestring_ascii, run))
        else:
            for k, x in enumerate(value):
                if k:
                    yield sep
                yield from _json_chunks(x, inner)
        yield "\n" + pad + "]"
    elif isinstance(value, StringPieces):
        yield '"'
        yield from _escaped(value.pieces)
        yield '"'
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(payload: dict) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline,
    byte for byte, without ever holding the whole text."""
    buf: list[str] = []
    held = 0
    for chunk in _json_chunks(payload, ""):
        buf.append(chunk)
        held += len(chunk)
        if held >= WRITE_SIZE:
            sys.stdout.write("".join(buf))
            buf.clear()
            held = 0
    buf.append("\n")
    sys.stdout.write("".join(buf))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _json_float(x: float | None) -> float | None:
    """``x``, or None (JSON null) where it is NaN or infinite, which JSON cannot hold."""
    return x if x is None or math.isfinite(x) else None


def _check_dense(need: float, what: str) -> None:
    """Refuse, before anything is built, a request over the dense budget."""
    if need > DENSE_BUDGET:
        raise ResourceLimitError(
            f"{what} would hold {need:.3g} bytes of dense arrays, over the budget of {DENSE_BUDGET}"
        )


# ---------------------------------------------------------------------------
# subcommands


def _label_rows(n: int) -> list[dict]:
    """Each standard label's module dimension and its square, the number of
    basis diagrams through that label."""
    rows = []
    for i, j in standard_labels(n):
        dim = walk_count(n, i, j)
        rows.append({"i": i, "j": j, "dim": dim, "count": dim * dim})
    return rows


def cmd_basis(args: argparse.Namespace) -> int:
    # with no cache and no listing only the count is needed, in closed form;
    # the walk's checks still refuse a negative or oversized n.  The cache
    # module, which resolves the directory itself, loads only when one is
    # named, here or in the environment, or the listing is asked for
    named = args.cache_dir is not None or os.environ.get("BUBBLE_CACHE_DIR")
    if not named and not args.diagrams:
        _check_size(args.n, args.max_n)
        lines, total = None, walk_count(2 * args.n, 0, 0)
    else:
        from .cache import CacheError, cached_basis

        try:
            lines = cached_basis(args.n, cache_dir=args.cache_dir, max_n=args.max_n)
        except CacheError as exc:
            print(f"cache error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        total = len(lines)
    payload = {"n": args.n, "total": total, "strata": _label_rows(args.n)}
    if args.diagrams:
        payload["diagrams"] = lines
    _emit_json(payload)
    return EXIT_OK


def cmd_dims(args: argparse.Namespace) -> int:
    report = rank_identity(args.n, max_n=args.max_n)
    rows = _label_rows(args.n)
    if args.format == "csv":
        _emit_csv(
            ["i", "j", "dim", "count"],
            [[r["i"], r["j"], r["dim"], r["count"]] for r in rows],
        )
    else:
        _emit_json(
            {
                "n": args.n,
                "labels": rows,
                "basis_size": report.basis_size,
                "dim_square_sum": report.dim_square_sum,
                "walk_total": report.walk_total,
                "rank_identity": report.holds,
            }
        )
    return EXIT_OK if report.holds else EXIT_PROPERTY


def cmd_gram(args: argparse.Namespace) -> int:
    from .stdmod import gram_blocks, gram_det_report, scan_gram_roots

    n, i, j = args.n, args.i, args.j
    bras = enumerate_bras(n, i, j, max_n=args.max_n)
    if not bras:
        raise ValueError(f"label ({i},{j}) carries no module at n={n}")
    report = None
    if args.det or args.roots is not None:
        # one report serves --det, --blocks and --roots
        report = gram_det_report(n, i, j, bras=bras)
    blocks = report.blocks if report else gram_blocks(n, i, j, bras=bras)[1]
    # the form vanishes between different colour words
    entries = [["0"] * len(bras) for _ in bras]
    for blk in blocks:
        for r, row in zip(blk.indices, blk.matrix.entries):
            for c, e in zip(blk.indices, row):
                entries[r][c] = str(e)
    payload: dict = {
        "n": n,
        "i": i,
        "j": j,
        "size": len(bras),
        "basis": [b.encode() for b in bras],
        "entries": entries,
    }
    status = EXIT_OK
    if args.det:
        # written from the two factored parts; the product is never expanded
        payload["det"] = StringPieces(report.det_text())
        payload["det_cross_checked"] = report.cross_checked
    if args.blocks:
        payload["blocks"] = [
            {
                "word": blk.word,
                "indices": list(blk.indices),
                "size": len(blk.indices),
                "det": str(blk.det),
            }
            for blk in blocks
        ]
    if args.roots is not None:
        var = RED if args.roots == "r" else BLUE
        scan = scan_gram_roots(report, var=var)
        payload["roots"] = {
            "var": args.roots,
            # the determinant is a product of psi_k, never zero, and no psi_k
            # vanishes at a sample above 2, so both keys always read false
            "det_is_zero": False,
            "all_matched": scan.all_matched,
            "samples": [
                {
                    "other_value": str(sample.other_value),
                    "degenerate": False,
                    "zero_root_multiplicity": sample.zero_root_multiplicity,
                    "roots": [
                        {
                            "value": _complex_pair(record.value),
                            "matched": list(record.matched) if record.matched else None,
                        }
                        for record in sample.roots
                    ],
                }
                for sample in scan.samples
            ],
        }
        if not scan.all_matched:
            status = EXIT_PROPERTY
    _emit_json(payload)
    return status


def _format_complex_matrix(mat) -> str:
    # tolist gives Python complex numbers, whose parts repr as plain floats;
    # numpy 2 scalars would repr as np.float64(...)
    return ";".join(f"{z.real!r},{z.imag!r}" for z in mat.reshape(-1).tolist())


def cmd_rep(args: argparse.Namespace) -> int:
    from .spinchain import NumericParams, diagram_matrix, homomorphism_report

    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
    try:
        q_r, q_b = complex(args.qr), complex(args.qb)
    except ValueError as exc:
        raise ValueError(f"could not parse a colour parameter: {exc}") from exc
    params = NumericParams(q_r=q_r, q_b=q_b)
    if args.check or args.matrices:
        # one 4^n x 4^n complex matrix per basis diagram, and its text
        entries = walk_count(2 * args.n, 0, 0) * 16**args.n
        per_entry = 16 + (MATRIX_TEXT_BYTES if args.matrices else 0)
        _check_dense(entries * per_entry, f"rep --n {args.n}")
    # the size is in closed form; only the check and the listing need B_n
    _check_size(args.n, args.max_n)
    basis = enumerate_basis(args.n, max_n=args.max_n) if args.check or args.matrices else None
    payload: dict = {
        "n": args.n,
        "qr": _complex_pair(q_r),
        "qb": _complex_pair(q_b),
        "delta_r": _complex_pair(params.delta_r),
        "delta_b": _complex_pair(params.delta_b),
        "site_dim": 4,
        "matrix_dim": 4**args.n,
        "basis_size": walk_count(2 * args.n, 0, 0),
    }
    status = EXIT_OK
    if args.check:
        report = homomorphism_report(args.n, params, basis=basis)
        passed = report.max_residual < args.tol
        payload["check"] = {
            "pairs_checked": report.pairs_checked,
            "max_residual": _json_float(report.max_residual),
            "tolerance": args.tol,
            "passed": passed,
        }
        if not passed:
            status = EXIT_PROPERTY
    if args.matrices:
        payload["matrices"] = {
            d.encode(): _format_complex_matrix(diagram_matrix(d, params)) for d in basis
        }
    _emit_json(payload)
    return status


def _sweep_payload(report: SweepReport, tolerance: float) -> dict:
    import statistics

    residuals = report.residuals
    return {
        "quantity": report.quantity,
        "count": report.count,
        "max_residual": _json_float(report.max_residual),
        "median_residual": _json_float(statistics.median(residuals) if residuals else None),
        "tolerance": tolerance,
        "passed": report.max_residual < tolerance,
        "points": [
            {"lambda": p.lam, "u": p.u, "v": p.v, "residual": _json_float(res)}
            for p, res in report.points
        ],
    }


def cmd_ybe(args: argparse.Namespace) -> int:
    from .yangbaxter import (
        TRANSFER_TOLERANCE,
        YBE_TOLERANCE,
        transfer_bytes,
        transfer_sweep,
        ybe_sweep,
    )

    if args.sweep < 1:
        raise ValueError("--sweep must be a positive count")
    if args.transfer is not None:
        _check_dense(transfer_bytes(args.transfer, args.family), f"ybe --transfer {args.transfer}")
    ybe = ybe_sweep(args.family, count=args.sweep, seed=args.seed, lam=args.lam)
    sections = {"ybe": _sweep_payload(ybe, YBE_TOLERANCE[args.family])}
    if args.transfer is not None:
        trans = transfer_sweep(
            args.transfer, args.family, count=args.sweep, seed=args.seed, lam=args.lam
        )
        sections["transfer"] = _sweep_payload(trans, TRANSFER_TOLERANCE)
        sections["transfer"]["n"] = args.transfer
    passed = all(section["passed"] for section in sections.values())
    if args.format == "csv":
        rows = []
        for name, section in sorted(sections.items()):
            for idx, point in enumerate(section["points"]):
                rows.append(
                    [name, idx, point["lambda"], point["u"], point["v"], point["residual"]]
                )
        _emit_csv(["quantity", "index", "lambda", "u", "v", "residual"], rows)
    else:
        payload = {
            "family": args.family,
            "seed": args.seed,
            "lambda": args.lam,
            "passed": passed,
        }
        payload.update(sections)
        _emit_json(payload)
    return EXIT_OK if passed else EXIT_PROPERTY


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import all_passed, run_checks

    results = run_checks(size=args.n, seed=args.seed, quick=args.quick)
    payload = {
        "size": args.n,
        "seed": args.seed,
        "quick": args.quick,
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "all_passed": all_passed(results),
    }
    _emit_json(payload)
    return EXIT_OK if all_passed(results) else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubble",
        description="Exact engine for the two-colour diagram algebra: "
        "bases, Gram forms, the spin-chain representation, and spectral checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )

    p = new("basis", "enumerate the diagram basis and its strata")
    p.add_argument("--n", type=int, required=True, help="number of strands")
    p.add_argument("--diagrams", action="store_true", help="include canonical encodings")
    p.add_argument(
        "--cache-dir",
        default=None,
        help="basis cache directory (default: $BUBBLE_CACHE_DIR if set, else no cache)",
    )
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="resource bound on n")
    p.set_defaults(func=cmd_basis)

    p = new("dims", "module dimensions and the rank identity")
    p.add_argument("--n", type=int, required=True, help="number of strands")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="resource bound on n")
    p.set_defaults(func=cmd_dims)

    p = new("gram", "Gram matrix of one standard module")
    p.add_argument("--n", type=int, required=True, help="number of strands")
    p.add_argument("--i", type=int, required=True, help="red propagating count")
    p.add_argument("--j", type=int, required=True, help="blue propagating count")
    p.add_argument("--det", action="store_true", help="include the determinant")
    p.add_argument("--blocks", action="store_true", help="include the word-block report")
    p.add_argument(
        "--roots",
        choices=("r", "b"),
        default=None,
        help="scan determinant roots in this colour's loop weight",
    )
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="resource bound on n")
    p.set_defaults(func=cmd_gram)

    p = new("rep", "spin-chain representation at numeric parameters")
    p.add_argument("--n", type=int, required=True, help="number of strands / chain sites")
    p.add_argument("--qr", required=True, help="red parameter, python complex syntax")
    p.add_argument("--qb", required=True, help="blue parameter, python complex syntax")
    p.add_argument("--check", action="store_true", help="verify products against matrices")
    p.add_argument("--matrices", action="store_true", help="include matrices as re,im;... text")
    p.add_argument("--tol", type=float, default=1e-9, help="residual tolerance for --check")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="resource bound on n")
    p.set_defaults(func=cmd_rep)

    p = new("ybe", "Yang-Baxter and transfer-matrix residual sweeps")
    p.add_argument("--family", choices=("tl", "bubble"), required=True, help="solution family")
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="fixed spectral parameter (default: sampled per point)",
    )
    p.add_argument("--sweep", type=int, default=20, help="number of sampled points")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
    p.add_argument(
        "--transfer",
        type=int,
        default=None,
        metavar="N",
        help="also sweep the N-site transfer-matrix commutator",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    p.set_defaults(func=cmd_ybe)

    p = new("check", "run the cross-module property suite")
    p.add_argument("--n", type=int, default=4, help="size bound for the suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
    p.add_argument("--quick", action="store_true", help="trim sizes and sweep counts")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ArithmeticError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
