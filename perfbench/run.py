"""Benchmark of the ``bubble`` command line; stdlib only.

    python3 perfbench/run.py --workload gram --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` one client
sends the workload's request list in a closed loop, one request at a
time, each as a fresh ``python -m bubblealg.cli`` process with
``PYTHONPATH=src`` (interpreter start, numpy/scipy import and first-call
warm-up are what a ``bubble`` user pays).  The run makes a fixed number
of whole passes over the list, about ``--seconds`` long on the reference
machine (``workloads.passes``), so what is attempted, and what fails,
does not depend on the host's speed.  Set-up (a fresh interpreter importing
``bubblealg.cli``, plus the cache-filling requests for ``cache``) runs
three times before the timed passes and its median is reported.

With ``--trace 1`` the same requests are replayed in-process twice, in
two fresh interpreters: untraced, then with every layer wrapped (see
``tracer``).  The per-layer metrics come from the traced replay;
``trace.overhead_s`` is the difference of the two replays' times.

Every output is checked (see ``verify``).  The last stdout line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it carries the environment, the error rate and the sample count;
the full record, with the expanded request list and every sample, is
written under ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 100.0
REPLAY_TIMEOUT_S = 80.0
E2E_UNITS = {
    "wall_s": "s",
    "latency_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Sample:
    request: str
    phase: str
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout_bytes: int
    status: str = verify.OK
    problems: tuple[str, ...] = ()


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BUBBLE_CACHE_DIR", None)
    return env


def run_process(argv: list[str], work: Path, stdout_name: str) -> tuple[int, float, float, int]:
    """Run one child to completion: (exit code, wall s, user+sys s, max RSS KB).

    Stdout goes to ``work/stdout_name``; rusage comes from ``wait4`` on
    this child alone.
    """
    with open(work / stdout_name, "wb") as out, open(work / "stderr", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def run_requests(
    reqs: tuple[workloads.Request, ...], phase: str, work: Path, cache_dir: Path | None, expected: dict
) -> list[Sample]:
    """Send requests back to back, then check every output."""
    samples, names = [], []
    for k, req in enumerate(reqs):
        names.append(f"stdout{k}")
        argv = [sys.executable, "-m", "bubblealg.cli", *req.argv(cache_dir)]
        rc, wall, cpu, rss = run_process(argv, work, names[-1])
        samples.append(Sample(req.key, phase, rc, wall, cpu, rss, 0))
    for req, sample, name in zip(reqs, samples, names):
        stdout = (work / name).read_bytes()
        sample.stdout_bytes = len(stdout)
        sample.status, problems = verify.check(req.args, sample.rc, stdout, expected)
        sample.problems = tuple(problems)
    return samples


def cache_state(cache_dir: Path) -> dict[str, tuple[int, int, int]]:
    return {p.name: (p.stat().st_ino, p.stat().st_size, p.stat().st_mtime_ns) for p in sorted(cache_dir.iterdir())}


def measure(plan: workloads.Plan, seconds: int, work: Path, expected: dict) -> tuple[dict, list[Sample], dict]:
    """End-to-end metrics, every sample, and per-pass figures for the record."""
    samples: list[Sample] = []
    setups = []
    cache_dir = None
    for k in range(SETUP_REPEATS):
        rc, wall, _, _ = run_process([sys.executable, "-c", "import bubblealg.cli"], work, "probe")
        if rc != 0:
            raise RuntimeError(f"importing bubblealg.cli failed with exit code {rc}")
        if plan.uses_cache:
            cache_dir = work / f"cache{k}"
            cache_dir.mkdir()
        filled = run_requests(plan.setup, "setup", work, cache_dir, expected)
        samples += filled
        setups.append(wall + sum(s.wall_s for s in filled))

    before = cache_state(cache_dir) if cache_dir else None
    passes: list[list[Sample]] = []
    pass_walls: list[float] = []
    for _ in range(workloads.passes(plan.workload, seconds)):
        pass_start = time.perf_counter()
        done = run_requests(plan.requests, "timed", work, cache_dir, expected)
        pass_walls.append(time.perf_counter() - pass_start)
        if cache_dir and cache_state(cache_dir) != before:
            for s in done:
                s.status, s.problems = verify.WRONG, s.problems + ("cache files changed: not every request was a hit",)
        passes.append(done)
        samples += done
    timed = [s for p in passes for s in p]
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "latency_p50_s": statistics.median(s.wall_s for s in timed),
        "cpu_s": statistics.median(sum(s.cpu_s for s in p) for p in passes),
        "peak_rss_mb": max(s.maxrss_kb for s in timed) / 1024,
        "setup_s": statistics.median(setups),
    }
    record = {"latency_samples": len(timed), "pass_walls_s": pass_walls}
    return metrics, samples, record


def replay(plan: workloads.Plan, traced: bool, work: Path) -> dict:
    argv = [
        sys.executable, str(BENCH / "replay.py"), "--workload", plan.workload,
        "--seed", str(plan.seed), "--traced", str(int(traced)), "--work", str(work),
    ]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=REPLAY_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"replay failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout)


def commit_of(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from the files; None without one."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(plan: workloads.Plan, work: Path) -> dict:
    rc, _, _, _ = run_process([sys.executable, str(BENCH / "probe.py")], work, "env")
    if rc != 0:
        raise RuntimeError(f"environment probe failed with exit code {rc}")
    env = json.loads((work / "env").read_text())
    env.update(
        commit=commit_of(ROOT),
        source_sha256=source_digest(ROOT),
        seed=plan.seed,
        workload=plan.workload,
        setup_requests=[r.key for r in plan.setup],
        requests=[" ".join(r.argv(Path("CACHE_DIR"))) if r.cached else r.key for r in plan.requests],
    )
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the bubble command line.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="nominal length of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bubblealg" / "cli.py").is_file():
        print(f"no bubblealg sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    plan = workloads.plan(args.workload, args.seed)
    expected = verify.load_expected()
    run_name = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = WORK / f"{run_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    try:
        env = environment(plan, work)
        if args.trace:
            plain = replay(plan, False, work / "plain")
            traced = replay(plan, True, work / "traced")
            mismatched = [
                a["request"]
                for a, b in zip(plain["requests"], traced["requests"])
                if a["stdout_sha256"] != b["stdout_sha256"]
            ]
            samples = traced["requests"]
            metrics = dict(traced["metrics"], **{"trace.overhead_s": traced["elapsed_s"] - plain["elapsed_s"]})
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
            statuses = [r["status"] for r in plain["requests"] + samples]
            record = {"plain": plain, "traced": traced, "stdout_mismatch": mismatched}
            correct = verify.WRONG not in statuses and not mismatched
            shutil.copyfile(work / "traced" / "spans.tsv.gz", WORK / "results" / f"{run_name}.spans.tsv.gz")
        else:
            metrics, sample_list, record = measure(plan, args.seconds, work, expected)
            samples = record["samples"] = [asdict(s) for s in sample_list]
            units = E2E_UNITS
            correct = all(s["status"] != verify.WRONG for s in samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(samples)
    failed = sum(s["status"] != verify.OK for s in samples)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    summary = {
        "environment": env,
        "error_rate": failed / attempted,
        "latency_samples": record.get("latency_samples"),
        "failures": [(s["request"], s["status"], list(s["problems"])) for s in samples if s["status"] != verify.OK],
    }
    (WORK / "results" / f"{run_name}.json").write_text(json.dumps(dict(summary, result=result, **record), indent=1))
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
