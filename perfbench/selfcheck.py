"""Self-test of the benchmark harness (not of the program).

    python3 perfbench/selfcheck.py

Checks that every metric of BENCHMARK.json is printed with its name and
unit, that a verdict planted wrong (or an exception raised by the program)
is counted as a failure on each workload, that the congruence guard refuses
an oversized input or a quadratic scan without enumerating it, that the
worst-case scan bound holds whatever order the below-sets come in, that
the time metrics keep only whole passes and blocks, and that the traced
run stops when a layer function is missing.  Takes about a minute: it runs
short benchmark passes, one of them a cold selftest pair.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)
import workloads as wl  # noqa: E402
from semirings import completion, series  # noqa: E402
from semirings.series import Polynomial  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, traced: int, seconds: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", str(seconds), "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={traced} exited "
                             f"{proc.returncode}: {proc.stdout[-800:]} {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, workload: str, traced: int, seconds: int = 2) -> None:
        lines, result = bench(workload, traced, seconds)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if traced else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            printed = [ln.split() for ln in lines[:-1]]
            self.assertIn(m["unit"], [p[-1] for p in printed if p and p[0] == m["name"]],
                          f"{m['name']} not printed with its unit")

    def test_cli_mix(self):
        self.check("cli-mix", 0)
        self.check("cli-mix", 1, seconds=8)  # long enough to reach every layer

    def test_congruence(self):
        self.check("congruence", 0)
        self.check("congruence", 1)

    def test_selftest_cold(self):
        self.check("selftest-cold", 0)


class PlantedVerdicts(unittest.TestCase):
    def test_cli_wrong_exit_code_is_a_failure(self):
        tally = worker.Tally()
        tally.add(0, *worker.cli_op(wl.CliOp(("check", "boolean"), 1, "check")))
        tally.add(0, *worker.cli_op(wl.CliOp(("check", "boolean"), 0, "check")))
        self.assertEqual((len(tally.samples), len(tally.failures)), (2, 1))

    def test_cli_exception_is_an_outcome(self):
        elapsed, problem, _ = worker.cli_op(wl.CliOp(("gallery", "nope"), 0, "gallery"))
        self.assertIn("traceback", problem)

    def test_congruence_wrong_sim_is_a_failure(self):
        ops, _ = wl.congruence_inputs(3, blocks=1)
        op = ops[1]
        self.assertIsNone(worker.congruence_op(op)[1])
        op.expect_sim = not op.expect_sim
        self.assertIsNotNone(worker.congruence_op(op)[1])

    def test_congruence_exception_is_a_failure(self):
        def faulty(*args):
            raise completion.InternalConsistencyError("planted")

        ops, _ = wl.congruence_inputs(3, blocks=1)
        saved, worker.sim_verdict = worker.sim_verdict, faulty
        try:
            tally = worker.Tally()
            tally.add(0, *worker.congruence_op(ops[1]))
        finally:
            worker.sim_verdict = saved
        self.assertEqual(len(tally.failures), 1)
        self.assertIn("InternalConsistencyError", tally.failures[0])

    def test_selftest_report_with_a_fail_line_is_a_failure(self):
        good = "\n".join(["selftest seed=1"]
                         + [f"PASS criterion-{k} x: y" for k in range(1, 10)]
                         + ["result PASS 9/9"])
        self.assertIsNone(wl.check_selftest(0, good))
        self.assertIsNotNone(wl.check_selftest(0, good.replace("PASS criterion-4", "FAIL criterion-4")))
        self.assertIsNotNone(wl.check_selftest(1, good))


class Guard(unittest.TestCase):
    def setUp(self):
        self.ops, _ = wl.congruence_inputs(3, blocks=1)

    def assert_refused_without_enumerating(self, op) -> None:
        calls = []

        def spy(*args):
            calls.append(args)
            raise AssertionError("enumerated")

        saved = (series.enumerate_below, completion.enumerate_below,
                 completion.enumerate_below_series)
        series.enumerate_below = completion.enumerate_below = spy
        completion.enumerate_below_series = spy
        try:
            with self.assertRaises(wl.GuardError):
                worker.congruence_op(op)
        finally:
            (series.enumerate_below, completion.enumerate_below,
             completion.enumerate_below_series) = saved
        self.assertEqual(calls, [])

    def test_oversized_input_is_refused_before_enumeration(self):
        op = self.ops[1]
        op.p = Polynomial({(0,): 10**6, (1,): 10**6})
        self.assert_refused_without_enumerating(op)

    def test_quadratic_scan_is_refused_before_enumeration(self):
        # 1e5 polynomials per side, within the size bound.  Nearly all of
        # p's evaluate to the top element, and half of q's to zero, so in
        # the worst order each of p's scans 5e4 of q's before one dominates
        op = self.ops[1]
        top = max(range(op.s.n), key=lambda v: sum(op.order.leq(u, v) for u in range(op.s.n)))
        op.p = Polynomial({(top,): 99_999})
        op.q = Polynomial({(op.s.zero,): 49_999, (top,): 1})
        self.assertGreater(wl.scan_bound(op), wl.SCAN_BOUND)
        self.assert_refused_without_enumerating(op)

    def test_scan_bound_holds_in_any_enumeration_order(self):
        class Counting:
            def __init__(self, order):
                self.order, self.n = order, 0

            def leq(self, a, b):
                self.n += 1
                return self.order.leq(a, b)

        saved = (completion.enumerate_below, completion.enumerate_below_series)
        small = [op for op in self.ops if max(op.sizes) <= 2000]
        self.assertTrue(any(op.kind == "series" for op in small))
        try:
            for flip in (False, True):
                completion.enumerate_below = (
                    lambda p, f=saved[0], flip=flip: f(p)[::-1] if flip else f(p))
                completion.enumerate_below_series = (
                    lambda r, c, f=saved[1], flip=flip: f(r, c)[::-1] if flip else f(r, c))
                for op in small:
                    counting = Counting(op.order)
                    completion.sim_verdict(op.p, op.q, op.s, counting, wl.CAP)
                    # the polynomial halves also compare phi(p) with phi(q) once
                    self.assertLessEqual(counting.n, wl.scan_bound(op) + 2, op)
        finally:
            completion.enumerate_below, completion.enumerate_below_series = saved


class WholeGroups(unittest.TestCase):
    def test_time_metrics_keep_whole_passes_and_blocks(self):
        block = len(wl.LADDER)
        self.assertEqual(worker.whole_groups("cli-mix", 400, {"calls_per_pass": 153}), 306)
        self.assertEqual(worker.whole_groups("congruence", 2 * block + 7, {}), 2 * block + 1)
        self.assertEqual(worker.whole_groups("selftest-cold", 3, {}), 3)
        # a run past the end of the list repeats whole blocks, not the first pair
        ops = list(range(1 + block))
        ran = []

        def spy(op):
            ran.append(op)
            return 0.0, None, {}

        saved, worker.congruence_op = worker.congruence_op, spy
        try:
            worker.run_ops("congruence", ops, None, 1 + 3 * block)
        finally:
            worker.congruence_op = saved
        self.assertEqual(ran, ops + ops[1:] * 2)
        # short of one whole group, every operation counts
        self.assertEqual(worker.whole_groups("cli-mix", 100, {"calls_per_pass": 153}), 100)


class Tracer(unittest.TestCase):
    def test_missing_layer_function_stops_the_traced_run(self):
        saved = spans.LAYERS
        spans.LAYERS = {"core.missing": ("semirings.core", ("no_such_function",)), **saved}
        try:
            with self.assertRaises(spans.MissingLayerFunction):
                spans.install(spans.Recorder())  # raises before wrapping anything
        finally:
            spans.LAYERS = saved


if __name__ == "__main__":
    unittest.main()
