"""Command line front end: validated config, dispatch, JSON/CSV emitters.

Exit codes: 0 success, 1 property failure, 2 usage or input error,
3 resource bound exceeded.  For a fixed command line and seed the JSON
output is byte identical between runs.
"""

from __future__ import annotations

import argparse
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
    basis_encodings,
    enumerate_basis,
    enumerate_bras,
    rank_identity,
    standard_labels,
    walk_count,
)
from .diagram import BLUE, RED

if TYPE_CHECKING:
    from .yangbaxter import SweepReport

# cache, checks, numeric, spinchain, stdmod and yangbaxter, and the
# stdlib's csv, are imported where they are used, so a request loads only
# its own modules: numpy comes in only for rep --check or --matrices, ybe
# and check, the requests that compute with float arrays, and only inside
# numeric.dense_request, once the request has stated its sizes and been
# admitted; cache only for a basis request that names a cache directory,
# and gzip and hashlib only once that request reads or writes a file.
# basis and diagram import nothing from the ring, so exactpoly loads only
# for gram and check, through stdmod and checks.  The package's records
# are named tuples and its samples text, so no request loads dataclasses
# (and with it inspect) or fractions; only numpy brings inspect in

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DEFAULT_SEED = 20260822

# names the basis cache directory when --cache-dir is not given
ENV_CACHE_DIR = "BUBBLE_CACHE_DIR"

# strings of an all-string list are escaped and joined this many at a time
STRING_RUN = 4096


class StringPieces:
    """One JSON string handed over as an iterable of pieces, so text too
    long to hold, such as an expanded determinant, is escaped and written
    a piece at a time."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[str]) -> None:
        self.pieces = pieces


def _plain(text: str) -> bool:
    """True if JSON writes ``text`` as it is, between its quotes."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _json_chunks(value, pad: str) -> Iterator[str]:
    """Text of ``json.dumps(value, sort_keys=True, indent=2)`` in pieces;
    ``pad`` is the indentation of the line ``value`` starts on.  Object
    keys must be strings, and a ``StringPieces`` is written as the string
    its pieces join to."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
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
            quoted_sep = '"' + sep + '"'
            for start in range(0, len(value), STRING_RUN):
                run = value[start : start + STRING_RUN]
                lead = sep if start else ""
                if _plain("".join(run)):
                    yield lead + '"' + quoted_sep.join(run) + '"'
                else:
                    yield lead + sep.join(map(encode_basestring_ascii, run))
        else:
            for k, x in enumerate(value):
                if k:
                    yield sep
                yield from _json_chunks(x, inner)
        yield "\n" + pad + "]"
    elif isinstance(value, StringPieces):
        yield '"'
        for piece in value.pieces:
            yield piece if _plain(piece) else encode_basestring_ascii(piece)[1:-1]
        yield '"'
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(payload: dict) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline,
    byte for byte, a chunk at a time, without ever holding the whole text;
    stdout's own buffer batches the chunks into writes."""
    sys.stdout.writelines(_json_chunks(payload, ""))
    sys.stdout.write("\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _json_float(x: float) -> float | None:
    """``x``, or None (JSON null) where it is NaN or infinite, which JSON cannot hold."""
    return x if math.isfinite(x) else None


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
    # A negative or oversized n is refused before any file is looked for.
    # The total is walk_count(2n, 0, 0) in closed form, so only a listing
    # reads B_n from a cache; a count or a listing that names one fills a
    # missing file, and a count leaves one that is there unopened.  The
    # cache module loads only when a directory is named, here or in the
    # environment; an empty name counts as none
    _check_size(args.n, args.max_n)
    named = args.cache_dir or os.environ.get(ENV_CACHE_DIR)
    if named:
        from .cache import CacheError, cache_path, load_basis, save_basis

        path = cache_path(named, args.n)
        try:
            if not path.exists():
                lines = save_basis(path, args.n, basis_encodings(args.n, max_n=args.max_n))
            elif args.diagrams:
                lines = load_basis(path, args.n, args.max_n)
        except CacheError as exc:
            print(f"cache error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    elif args.diagrams:
        lines = basis_encodings(args.n, max_n=args.max_n)
    payload = {"n": args.n, "total": walk_count(2 * args.n, 0, 0), "strata": _label_rows(args.n)}
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
    from .stdmod import ROOT_SAMPLES, gram_blocks, gram_det_report, scan_gram_roots

    n, i, j = args.n, args.i, args.j
    bras = enumerate_bras(n, i, j, max_n=args.max_n)
    if not bras:
        raise ValueError(f"label ({i},{j}) carries no module at n={n}")
    report = None
    if args.det or args.roots is not None:
        # one report serves --det, --blocks and --roots
        report = gram_det_report(n, i, j, bras=bras)
    blocks = report.blocks if report else gram_blocks(n, i, j, bras=bras)[1]
    # the form vanishes between different colour words, and each block is
    # symmetric, so each unordered pair is written once and mirrored
    entries = [["0"] * len(bras) for _ in bras]
    for blk in blocks:
        idx = blk.indices
        for k, (r, row) in enumerate(zip(idx, blk.matrix.entries)):
            for c, e in zip(idx[k:], row[k:]):
                entries[r][c] = entries[c][r] = str(e)
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
        roots = [
            {"value": _complex_pair(value), "matched": list(matched) if matched else None}
            for value, matched in scan.roots
        ]
        payload["roots"] = {
            "var": args.roots,
            # the determinant is a product of psi_k, never zero, and no psi_k
            # vanishes at a sample above 2, so both keys always read false
            "det_is_zero": False,
            "all_matched": scan.all_matched,
            "samples": [
                {
                    "other_value": other,
                    "degenerate": False,
                    "zero_root_multiplicity": scan.zero_root_multiplicity,
                    "roots": roots,
                }
                for other in ROOT_SAMPLES
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
    from .numeric import SITE_DIM, NumericParams, dense_request, matrix_bytes, rep_bytes

    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
    try:
        q_r, q_b = complex(args.qr), complex(args.qb)
    except ValueError as exc:
        raise ValueError(f"could not parse a colour parameter: {exc}") from exc
    params = NumericParams(q_r=q_r, q_b=q_b)
    # the size guard first: the budget's count multiplies factorials of
    # up to 2n + 2, which grow with n
    _check_size(args.n, args.max_n)
    # the size is in closed form; only the check and the listing need B_n,
    # their matrices and numpy
    dense = args.check or args.matrices
    if dense:
        held = rep_bytes(args.n, args.matrices)
        with dense_request(held, matrix_bytes(args.n), f"rep --n {args.n}"):
            from .spinchain import diagram_matrix, homomorphism_report
    basis = enumerate_basis(args.n, max_n=args.max_n) if dense else None
    payload: dict = {
        "n": args.n,
        "qr": _complex_pair(q_r),
        "qb": _complex_pair(q_b),
        "delta_r": _complex_pair(params.delta_r),
        "delta_b": _complex_pair(params.delta_b),
        "site_dim": SITE_DIM["bubble"],
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


def _median(values) -> float:
    """statistics.median's value, without importing statistics (which
    loads fractions and decimal); a sweep has at least one point."""
    s = sorted(values)
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def _sweep_payload(report: SweepReport, tolerance: float) -> dict:
    residuals = report.residuals
    return {
        "quantity": report.quantity,
        "count": report.count,
        "max_residual": _json_float(report.max_residual),
        "median_residual": _json_float(_median(residuals)),
        "tolerance": tolerance,
        "passed": report.max_residual < tolerance,
        "points": [
            {"lambda": p.lam, "u": p.u, "v": p.v, "residual": _json_float(res)}
            for p, res in report.points
        ],
    }


def cmd_ybe(args: argparse.Namespace) -> int:
    if args.sweep < 1:
        raise ValueError("--sweep must be a positive count")
    from .numeric import dense_request, transfer_bytes

    # with no chain the largest product is one of three-site matrices
    chain = 0 if args.transfer is None else transfer_bytes(args.transfer, args.family)
    with dense_request(chain, chain, f"ybe --transfer {args.transfer}"):
        from .yangbaxter import TRANSFER_TOLERANCE, YBE_TOLERANCE, transfer_sweep, ybe_sweep

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
    from .numeric import check_size, dense_request, transfer_bytes

    # the suite runs the transfer chains of both families up to its size,
    # and refuses a size out of bounds here; bubble's chain is the larger
    chain = transfer_bytes(check_size(args.n, args.quick), "bubble")
    with dense_request(chain, chain, f"check --n {args.n}"):
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
        help="basis cache directory, read only for --diagrams; a count fills a"
        " missing file (default: $BUBBLE_CACHE_DIR if set, else no cache)",
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
