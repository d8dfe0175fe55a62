"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on synthetic nested spans, the closed
forms the output checks rely on, that a tampered output is caught, that
BENCHMARK.json lists the metrics the tracer reports, that the load of a
run does not depend on the seed or the host's speed, and that a traced
replay prints byte for byte what an untraced one prints, on one short
request per workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracer
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    from bubblealg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue().encode("utf-8")


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("a", 0.0, 10.0, -1),
            ("b", 1.0, 4.0, 0),
            ("c", 2.0, 3.0, 1),
            ("b", 5.0, 9.0, 0),
            ("b", 6.0, 8.5, 3),  # recursion: a span inside one of its own name
            ("a", 11.0, 12.0, -1),
        ]
        totals = tracer.layer_totals(spans)
        self.assertEqual(totals["a"], (2, (10.0 - 3.0 - 4.0) + 1.0))
        self.assertEqual(totals["b"], (3, (3.0 - 1.0) + (4.0 - 2.5) + 2.5))
        self.assertEqual(totals["c"], (1, 1.0))
        # self times partition the root spans' time
        self.assertAlmostEqual(sum(s for _, s in totals.values()), 10.0 + 1.0)

    def test_recorder_nesting(self):
        rec = tracer.Recorder()
        inner = rec.wrap("inner", lambda x: x + 1)
        outer = rec.wrap("outer", lambda x: inner(inner(x)))
        self.assertEqual(outer(1), 3)
        self.assertEqual([(name, parent) for name, _, _, parent in rec.spans()], [("outer", -1), ("inner", 0), ("inner", 0)])
        totals = tracer.layer_totals(rec.spans())
        self.assertEqual(totals["inner"][0], 2)
        root = next(rec.spans())
        self.assertAlmostEqual(sum(s for _, s in totals.values()), root[2] - root[1])

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], tracer.PER_LAYER
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class Checks(unittest.TestCase):
    def test_closed_forms_match_a_walk_recursion(self):
        counts = {(0, 0): 1}
        for n in range(1, 13):
            step = {}
            for (i, j), c in counts.items():
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    if i + di >= 0 and j + dj >= 0:
                        step[i + di, j + dj] = step.get((i + di, j + dj), 0) + c
            counts = step
            for i in range(n + 2):
                for j in range(n + 2):
                    self.assertEqual(verify.walk_count(n, i, j), counts.get((i, j), 0), (n, i, j))
            if n % 2 == 0:
                self.assertEqual(verify.basis_size(n // 2), counts[0, 0])
        self.assertEqual((verify.basis_size(5), verify.basis_size(6)), (5544, 56628))

    def test_tampered_output_is_wrong(self):
        args = ("basis", "--n", "5", "--diagrams")
        rc, stdout = run_cli(list(args))
        expected = verify.load_expected()
        self.assertEqual(verify.check(args, rc, stdout, expected), (verify.OK, []))
        payload = json.loads(stdout)
        payload["diagrams"][0], payload["diagrams"][1] = payload["diagrams"][1], payload["diagrams"][0]
        status, problems = verify.check(args, rc, json.dumps(payload).encode(), expected)
        self.assertEqual(status, verify.WRONG)
        self.assertIn("field 'diagrams' differs from its recorded digest", problems)
        status, _ = verify.check(args, 2, b"", expected)
        self.assertEqual(status, verify.FAILED)


class Plans(unittest.TestCase):
    def test_load_is_fixed_per_workload(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                plans = [workloads.plan(name, seed) for seed in range(1, 6)]
                self.assertEqual(len({tuple(sorted(r.key.split(" --seed")[0] for r in p.requests)) for p in plans}), 1)
                self.assertEqual(plans[0], workloads.plan(name, 1))
                self.assertEqual(workloads.passes(name, 20), workloads.passes(name, 20.0))
                self.assertGreaterEqual(workloads.passes(name, 1), 1)

    def test_gram_sends_both_mirrored_labels(self):
        requests = workloads.plan("gram", 3).requests
        self.assertEqual(set(requests), set(workloads.all_gram_requests()))
        self.assertEqual(len(requests), 12)  # (6,1,1) is its own mirror and is sent twice


class TracedReplay(unittest.TestCase):
    def test_traced_stdout_is_byte_identical(self):
        for name, req in workloads.SHORT.items():
            (BENCH / "_work").mkdir(exist_ok=True)
            with self.subTest(workload=name), tempfile.TemporaryDirectory(dir=BENCH / "_work") as tmp:
                plain = run_cli(req.argv(Path(tmp) / "plain"))
                rec = tracer.Recorder()
                restore = tracer.instrument(rec)
                try:
                    traced = run_cli(req.argv(Path(tmp) / "traced"))
                finally:
                    restore()
                self.assertEqual(traced, plain)
                self.assertGreater(len(rec.start), 0)
                self.assertEqual([s[0] for s in rec.spans()].count("cli.main"), 1)
                self.assertIsNone(getattr(sys.modules["bubblealg.cli"].main, "__wrapped__", None))


if __name__ == "__main__":
    unittest.main()
