"""Record the digests of every exact output the workloads can request.

Run from the repository root at a commit whose outputs are known good:

    python3 perfbench/record_expected.py

Each request runs as a ``bubble`` process; its counts must pass the
closed-form checks in ``verify`` before anything is written to
``perfbench/expected.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent


def exact_requests() -> list[workloads.Request]:
    seen: dict[str, workloads.Request] = {}
    for name in workloads.WORKLOADS:
        p = workloads.plan(name, 0)
        for req in p.setup + p.requests:
            seen.setdefault(req.key, workloads.Request(req.args))
    for req in workloads.all_gram_requests():
        seen.setdefault(req.key, req)
    return [r for r in seen.values() if r.args[0] in ("basis", "dims", "gram")]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BUBBLE_CACHE_DIR", None)
    expected = {}
    for req in exact_requests():
        proc = subprocess.run(
            [sys.executable, "-m", "bubblealg.cli", *req.args],
            cwd=ROOT, env=env, capture_output=True, check=False,
        )
        payload = json.loads(proc.stdout)
        # checked against the closed forms only: there is nothing to compare digests with yet
        status, problems = verify.check(req.args, proc.returncode, proc.stdout, {req.key: verify.exact_fields(req.args, payload)})
        if status != verify.OK:
            print(f"refusing to record {req.key!r}: {status} {problems}", file=sys.stderr)
            return 1
        expected[req.key] = verify.exact_fields(req.args, payload)
        print(f"recorded {req.key}", file=sys.stderr)
    verify.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
