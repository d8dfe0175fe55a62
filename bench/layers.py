"""Per-layer bench of the engine; stdlib plus the package's own numpy.

    python3 bench/layers.py --out BENCH.json
    python3 bench/layers.py --out BENCH.json --runs 10 --against ../other --against .

Each registered layer times one call of one engine function on a fixed
input.  Every run is a fresh interpreter, so imports, ``lru_cache``s and
cached properties start cold: the layer's set-up builds its input
untimed, then the call alone is timed with ``time.perf_counter``.  One
more fresh run per layer takes the call's ``tracemalloc`` peak.  The
package is imported from the ``src`` directory of the tree timed; this
file and its layer list are the same for every tree.  Children run
without bytecode files, and with one OpenBLAS thread unless the caller
set ``OPENBLAS_NUM_THREADS``.  That is how a ``bubble`` request of these
sizes runs, except ``transfer_commutator``: its 7-site bubble chain
(9.8 MB) is over ``numeric.ONE_BLAS_THREAD_BELOW``, so in a request it
runs on OpenBLAS's pool.

Without ``--against`` the bench times the tree it sits in, ``--runs``
times per layer, and records each layer's median, quartiles
(``statistics.quantiles``, exclusive method), ``tracemalloc`` peak and
input size.  Each ``--against TREE`` adds a paired comparison: per
layer, ``--runs`` pairs of one run in this tree and one in TREE,
alternating which runs first, reported as the ratio of the medians
(this tree over TREE) and the pairs each side won; ties count for
neither.  ``--against .`` pairs the tree with itself: the noise floor.

The JSON written to ``--out`` holds the host, the Python and numpy
versions, each tree's git HEAD and whether its ``src`` differs from it,
and every record.  Nothing here is collected by pytest; a tier-1 test
only checks that every registered layer's target resolves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 300


class Layer(NamedTuple):
    """``target`` is the timed function as ``module:qualified.name`` in
    ``bubblealg``; ``setup`` builds the input untimed and returns the call."""

    target: str
    size: str
    setup: Callable[[], Callable[[], object]]


# ---------------------------------------------------------------------------
# the layers; each set-up imports from the package only once it is called


def _ring_pair(power: int):
    from bubblealg.exactpoly import DB, DR, ONE

    return (DR + DB + ONE) ** power, (DR - DB + 2 * ONE) ** power


def _mul():
    a, b = _ring_pair(24)
    return lambda: a * b


def _divexact():
    from bubblealg.exactpoly import divexact

    a, b = _ring_pair(20)
    ab = a * b
    return lambda: divexact(ab, b)


def _poly_det():
    from bubblealg.exactpoly import poly_det
    from bubblealg.stdmod import gram_blocks

    _, blocks = gram_blocks(8, 2, 0)
    # a plain tuple, so no shared determinant is read instead
    m = tuple(map(tuple, max((blk.matrix for blk in blocks), key=len)))
    return lambda: poly_det(m)


def _poly_det_wide():
    import random

    from bubblealg.exactpoly import LaurentPoly, poly_det

    # the case the packed elimination is slow on: multi-term entries with
    # wide coefficients
    rng = random.Random(45)

    def entry():
        return LaurentPoly(
            {
                (rng.randint(-3, 3), rng.randint(-3, 3)): rng.getrandbits(200) * rng.choice((1, -1))
                for _ in range(rng.randint(1, 3))
            }
        )

    m = tuple(tuple(entry() for _ in range(4)) for _ in range(4))
    return lambda: poly_det(m)


def _element_mul():
    from bubblealg.exactpoly import DB, DR, identity_element, white_generator

    # 1 + sum of (dr^i + db) U_i at n = 6: 384 terms, 1 280 in its square
    x = identity_element(6)
    for i in range(1, 6):
        x = x + white_generator(6, i).scale(DR**i + DB)
    return lambda: x * x


def _compose():
    import random

    from bubblealg.basis import enumerate_basis
    from bubblealg.diagram import compose

    basis = enumerate_basis(5)
    rng = random.Random(5)
    pairs = [(rng.choice(basis), rng.choice(basis)) for _ in range(20000)]
    return lambda: [compose(a, b) for a, b in pairs]


def _products():
    from bubblealg.basis import enumerate_basis
    from bubblealg.diagram import products

    basis = enumerate_basis(4)
    return lambda: list(products(basis, basis))


def _enumerate_basis():
    from bubblealg.basis import enumerate_basis

    return lambda: enumerate_basis(6)


def _basis_encodings():
    from bubblealg.basis import basis_encodings

    return lambda: basis_encodings(6)


def _act_diagram():
    from bubblealg.basis import enumerate_basis, enumerate_bras, standard_labels
    from bubblealg.stdmod import act_diagram

    basis = enumerate_basis(4)
    bras = [b for i, j in standard_labels(4) for b in enumerate_bras(4, i, j)]
    return lambda: [act_diagram(d, b) for d in basis for b in bras]


def _bra_inner():
    from bubblealg.basis import enumerate_bras
    from bubblealg.stdmod import bra_inner

    bras = enumerate_bras(7, 1, 0)
    return lambda: [bra_inner(x, y) for x in bras for y in bras]


def _gram_blocks():
    from bubblealg.basis import enumerate_bras
    from bubblealg.stdmod import gram_blocks

    bras = enumerate_bras(8, 1, 1)
    return lambda: gram_blocks(8, 1, 1, bras=bras)


def _gram_det_report():
    from bubblealg.basis import enumerate_bras
    from bubblealg.stdmod import gram_det_report

    bras = enumerate_bras(8, 1, 1)
    return lambda: gram_det_report(8, 1, 1, bras=bras)


def _det_text():
    from bubblealg.stdmod import gram_det_report, psi, quantum_number

    report = gram_det_report(7, 1, 0)
    # the report filled them; the text expands the parts from a cold start
    psi.cache_clear()
    quantum_number.cache_clear()
    return lambda: "".join(report.det_text())


def _scan_gram_roots():
    from bubblealg.stdmod import GramDetReport, scan_gram_roots

    # a Gram table has k <= n + 1, too few roots to time; this one lists
    # the root 0 and the 27 396 primitive cosines with 3 <= k <= 300
    table = {k: 1 for k in range(2, 301)}
    report = GramDetReport(150, (0, 0), 1, (table, {}), (), False)
    return lambda: scan_gram_roots(report)


def _localisation_report():
    from bubblealg.stdmod import localisation_report

    return lambda: localisation_report(5)


def _diagram_matrix():
    from bubblealg.basis import enumerate_basis
    from bubblealg.numeric import NumericParams
    from bubblealg.spinchain import diagram_matrix

    basis = enumerate_basis(4)
    params = NumericParams(2 + 0.5j, 1.5 - 0.25j)

    def call():
        # each matrix is dropped once built: holding all 588 would peak at
        # 588 MiB, over the numeric.DENSE_BUDGET a request may use
        for d in basis:
            diagram_matrix(d, params)

    return call


def _homomorphism_report():
    from bubblealg.numeric import NumericParams
    from bubblealg.spinchain import homomorphism_report

    params = NumericParams(2 + 0.5j, 1.5 - 0.25j)
    return lambda: homomorphism_report(3, params)


def _transfer_matrix():
    from bubblealg.yangbaxter import transfer_matrix

    return lambda: transfer_matrix(0.45, -1.2, 4, "bubble")


def _transfer_commutator():
    import numpy as np

    from bubblealg.yangbaxter import transfer_commutator

    rng = np.random.default_rng(1)
    return lambda: transfer_commutator(0.45, -1.2, 0.3, 7, "bubble", rng)


LAYERS = {
    # ring
    "mul": Layer("exactpoly:LaurentPoly.__mul__", "two 325-term polynomials", _mul),
    "divexact": Layer("exactpoly:divexact", "degree 40 by degree 20", _divexact),
    "poly_det": Layer("exactpoly:poly_det", "largest block of G_8(2,0)", _poly_det),
    "poly_det_wide": Layer(
        "exactpoly:poly_det", "4 x 4, 1-3 terms, 200-bit coefficients", _poly_det_wide
    ),
    "element_mul": Layer(
        "exactpoly:Element.__mul__", "square of 1 + sum (dr^i + db) U_i, n=6", _element_mul
    ),
    # diagrams
    "compose": Layer("diagram:compose", "20 000 random pairs of B_5", _compose),
    "products": Layer("diagram:products", "B_4 x B_4", _products),
    "enumerate_basis": Layer("basis:enumerate_basis", "B_6", _enumerate_basis),
    "basis_encodings": Layer("basis:basis_encodings", "B_6", _basis_encodings),
    # modules
    "act_diagram": Layer("stdmod:act_diagram", "B_4 on every bra of every label at n=4", _act_diagram),
    "bra_inner": Layer("stdmod:bra_inner", "every pair of bras of (7,1,0)", _bra_inner),
    "gram_blocks": Layer("stdmod:gram_blocks", "(8,1,1), fresh bras", _gram_blocks),
    "gram_det_report": Layer("stdmod:gram_det_report", "(8,1,1), fresh bras", _gram_det_report),
    "det_text": Layer("stdmod:GramDetReport.det_text", "(7,1,0)", _det_text),
    "scan_gram_roots": Layer("stdmod:scan_gram_roots", "psi_2 to psi_300, n=150", _scan_gram_roots),
    "localisation_report": Layer("stdmod:localisation_report", "n=5", _localisation_report),
    # numerics
    "diagram_matrix": Layer(
        "spinchain:diagram_matrix",
        "every diagram of B_4, one matrix held at a time",
        _diagram_matrix,
    ),
    "homomorphism_report": Layer("spinchain:homomorphism_report", "n=3", _homomorphism_report),
    "transfer_matrix": Layer("yangbaxter:transfer_matrix", "bubble, 4 sites", _transfer_matrix),
    "transfer_commutator": Layer(
        "yangbaxter:transfer_commutator", "bubble, 7 sites", _transfer_commutator
    ),
}


# ---------------------------------------------------------------------------
# one run, in a child interpreter


def _child(name: str, src: str, peak: bool) -> None:
    sys.path.insert(0, src)
    call = LAYERS[name].setup()
    if peak:
        import tracemalloc

        tracemalloc.start()
        call()
        print(json.dumps({"peak_bytes": tracemalloc.get_traced_memory()[1]}))
    else:
        start = time.perf_counter()
        call()
        print(json.dumps({"seconds": time.perf_counter() - start}))


def run_once(name: str, tree: Path, peak: bool = False) -> float:
    """One fresh-interpreter run of layer ``name`` on ``tree``'s package."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", name, "--src", str(tree / "src")]
    if peak:
        argv.append("--peak")
    done = subprocess.run(
        argv, env=env, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S
    )
    (value,) = json.loads(done.stdout.splitlines()[-1]).values()
    return value


# ---------------------------------------------------------------------------
# records


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples_s": samples}


def tree_info(tree: Path) -> dict:
    """The tree's git HEAD, or None outside a checkout, and whether its
    ``src`` differs from that HEAD."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", str(tree), *args], capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        return done.stdout.strip()

    head = git("rev-parse", "HEAD")
    dirty = None if head is None else bool(git("status", "--porcelain", "--", "src"))
    return {"head": head, "src_differs_from_head": dirty}


def measure(runs: int) -> dict:
    records = {}
    for name, layer in LAYERS.items():
        record = {"target": layer.target, "size": layer.size}
        record.update(summary([run_once(name, ROOT) for _ in range(runs)]))
        record["peak_bytes"] = run_once(name, ROOT, peak=True)
        records[name] = record
        print(f"{name}: {record['median_s'] * 1e3:.2f} ms", file=sys.stderr)
    return records


def paired(runs: int, other: Path) -> dict:
    """``runs`` alternating pairs per layer: this tree against ``other``."""
    records = {}
    for name in LAYERS:
        this, that = [], []
        for k in range(runs):
            if k % 2:
                that.append(run_once(name, other))
                this.append(run_once(name, ROOT))
            else:
                this.append(run_once(name, ROOT))
                that.append(run_once(name, other))
        record = {"this": summary(this), "against": summary(that)}
        record["ratio"] = record["this"]["median_s"] / record["against"]["median_s"]
        record["this_won"] = sum(a < b for a, b in zip(this, that))
        record["against_won"] = sum(b < a for a, b in zip(this, that))
        records[name] = record
        print(
            f"{name}: ratio {record['ratio']:.3f}, won {record['this_won']}"
            f" to {record['against_won']}",
            file=sys.stderr,
        )
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Per-layer bench of the bubblealg engine.")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--runs", type=int, default=7, help="timed runs, or pairs, per layer")
    parser.add_argument(
        "--against", type=Path, action="append", default=[], metavar="TREE",
        help="another checkout to pair with this one; may repeat",
    )
    parser.add_argument("--child", choices=sorted(LAYERS), help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--peak", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child, args.src, args.peak)
        return 0
    if args.out is None:
        parser.error("--out is required")
    if args.runs < 2:
        parser.error("--runs must be at least 2, for quartiles")
    for tree in args.against:
        if not (tree / "src" / "bubblealg").is_dir():
            parser.error(f"{tree} has no src/bubblealg")
    import numpy

    report = {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "tree": tree_info(ROOT),
        "runs": args.runs,
        "layers": measure(args.runs),
        "pairs": [
            {"against": tree_info(tree.resolve()), "layers": paired(args.runs, tree.resolve())}
            for tree in args.against
        ],
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
