"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 17 [--workloads gram,cache] [--out FILE]

For each workload and end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  Traced runs
(``--trace-seeds``) add the per-layer medians.  With ``--out`` the
summary, every run's result and the environment are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, summary, result = proc.stdout.strip().splitlines()
    return json.loads(summary), json.loads(result)


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs, e.g. 1,2")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    report: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, traced, env = [], [], None
        for seed in seeds(args.seeds):
            summary, result = run(workload, seed, args.seconds, 0)
            env = summary["environment"]
            runs.append({"seed": seed, "error_rate": summary["error_rate"], **result})
            line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], result["failed"], line, file=sys.stderr, flush=True)
        for seed in seeds(args.trace_seeds):
            summary, result = run(workload, seed, args.seconds, 1)
            traced.append({"seed": seed, **result})
            print(workload, "traced", seed, result["correct"], result["failed"], file=sys.stderr, flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            print(f"  {workload:10s} {name:16s} median {metrics[name]['median']:.4f}"
                  f"  spread {metrics[name]['spread']:.4f}", file=sys.stderr, flush=True)
        entry = {
            "environment": {k: v for k, v in env.items() if k not in ("seed", "requests")},
            "correct": all(r["correct"] for r in runs + traced),
            "failed_per_run": [r["failed"] for r in runs],
            "metrics": metrics,
            "runs": runs,
        }
        if traced:
            entry["per_layer_median"] = {
                name: statistics.median(t["metrics"][name]["value"] for t in traced)
                for name in traced[0]["metrics"]
            }
            entry["traced_runs"] = traced
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
