"""In-process replay of one workload's requests, traced or not.

    python3 perfbench/replay.py --workload gram --seed 1 --traced 1 --work DIR

Runs the set-up requests and then the timed requests once, each through
``bubblealg.cli.main`` with stdout captured, in this one fresh
interpreter.  Prints one JSON object: the summed time inside ``main``,
and per request its exit code, check status and a digest of its stdout.
With ``--traced 1`` every layer is wrapped (see ``tracer``), the spans
are written to ``DIR/spans.tsv.gz`` and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import tracer
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent


def replay(plan: workloads.Plan, work: Path, traced: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from bubblealg import cli

    rec = tracer.Recorder()
    restore = tracer.instrument(rec) if traced else None
    expected = verify.load_expected()
    cache_dir = work / "cache" if plan.uses_cache else None
    elapsed = 0.0
    results = []
    try:
        for k, req in enumerate(plan.setup + plan.requests):
            rec.request_id = k
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(req.argv(cache_dir))
            except Exception:  # a crash is a failed request, not the end of the replay
                rc = -1
                err.write(traceback.format_exc())
            elapsed += time.perf_counter() - start
            stdout = out.getvalue().encode("utf-8")
            status, problems = verify.check(req.args, rc, stdout, expected)
            results.append(
                {
                    "request": req.key,
                    "phase": "setup" if k < len(plan.setup) else "timed",
                    "rc": rc,
                    "status": status,
                    "problems": problems + ([err.getvalue()[-2000:]] if status != verify.OK and err.getvalue() else []),
                    "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
                    "stdout_bytes": len(stdout),
                }
            )
    finally:
        if restore is not None:
            restore()
    report: dict = {"elapsed_s": elapsed, "requests": results}
    if traced:
        rec.counters["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in results)
        rec.counters["cli.exit_nonzero"] = sum(r["rc"] != 0 for r in results)
        report["metrics"] = rec.metrics()
        report["spans"] = len(rec.start)
        rec.write(work / "spans.tsv.gz")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True, help="fresh directory for cache files and spans")
    args = parser.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    report = replay(workloads.plan(args.workload, args.seed), args.work, bool(args.traced))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
