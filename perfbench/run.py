#!/usr/bin/env python3
"""Benchmark of the semirings toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of selftest-cold, cli-mix, congruence, or `all` to run the
three in turn.  Run it from the root of a source checkout: it needs
src/semirings and BENCHMARK.json, and it installs and builds nothing.

With --trace 0 it times the workload with tracing off and prints every
end-to-end metric of BENCHMARK.json; with --trace 1 it makes an untraced and
a traced pass over the same operations and prints every per-layer metric,
including the tracing overhead.  A human-readable summary comes first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Every operation's verdict is checked, and a
wrong verdict counts as failed.

Set-up time is measured in fresh processes: a few that only set up, plus
the measuring process itself, from before the spawn until the worker's
set-up stamp.  All load comes from one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("selftest-cold", "cli-mix", "congruence")
SETUP_PROBES = 4          # set-up only processes; the measuring one is a fifth
TIME_LIMIT_S = 170       # a run must end within 180 s

# layers that must record calls in the traced run of each workload
EXPECTED_LAYERS = {
    "selftest-cold": ("core.enumerate", "core.order_search", "core.laws",
                      "cardinal.sigma", "cardinal.subsums",
                      "cardinal.characteristic", "cardinal.axiom_battery",
                      "cardinal.dcomplete", "series.enumerate_below",
                      "completion.completion", "gallery.construct"),
    "cli-mix": ("core.laws", "cardinal.sigma", "cardinal.subsums",
                "cardinal.axiom_battery", "cardinal.dcomplete",
                "series.enumerate_below", "completion.lesssim",
                "completion.completion", "gallery.construct"),
    "congruence": ("core.laws", "series.enumerate_below", "completion.lesssim"),
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run a worker process in its own session, so that a timeout also
    stops the selftest processes it started; returns its result and the
    monotonic time taken just before it was started."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"worker {args[:2]} ran past the time limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker {args[:2]} exited {proc.returncode}")
    return json.loads(lines[-1]), started


def percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    def probe() -> float:
        res, t0 = spawn(["setup", workload, str(seed)], deadline)
        return res["setup_done"] - t0

    # half the set-up probes before the measuring process and half after,
    # so a slow stretch of the machine does not catch all of them
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    res, t0 = spawn(["measure", workload, str(seed), str(seconds)], deadline)
    setups.append(res["setup_done"] - t0)
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    samples = res["samples_s"]
    if not samples:
        raise HarnessError("no operation completed")
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_gmean_ms": statistics.geometric_mean(samples) * 1e3,
        "latency_p90_ms": percentile(samples, 90) * 1e3,
        "ops_per_s": len(samples) / res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    n, attempted = len(samples), res["attempted"]
    above = sum(s * 1e3 > metrics["latency_p90_ms"] for s in samples)
    notes = [f"setup_s: median of {len(setups)} fresh processes",
             f"time metrics: the first {res['ops_kept']} of {res['ops_done']} operations "
             f"(whole passes or blocks): {n} latency samples, {above} above p90",
             f"latency_p50_ms: {statistics.median(samples) * 1e3:.6g} ms (not gated, see README)",
             f"error_rate: {res['failed'] / attempted:.6g} "
             f"({res['failed']} of {attempted} failed)"]
    for kind, walls in sorted(res["walls"].items()):
        notes.append(f"selftest_{kind}_s: {statistics.median(walls):.6g} s "
                     f"(median of {len(walls)} cold processes)")
    if res["defect_ops"]:
        notes.append(f"known bad-input defects: {res['defects']} of "
                     f"{res['defect_ops']} operations answered wrongly "
                     f"(counted apart from failed), e.g. {res['defect_examples'][:3]}")
    notes.append(f"inputs: {json.dumps(res['sizes'], sort_keys=True)}")
    return metrics, {"attempted": attempted, "failed": res["failed"],
                     "failures": res["failures"], "notes": notes}


def trace(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    res, _ = spawn(["trace", workload, str(seed), str(seconds)], deadline)
    layers = res["layers"]
    failures = list(res["failures"])
    missing = [name for name in EXPECTED_LAYERS[workload]
               if layers[f"{name}.calls"] == 0]
    if workload == "selftest-cold":
        missing += [f"suite.criterion-{k}" for k in range(1, 9)
                    if layers[f"suite.criterion-{k}.span_s"] == 0]
    failures += [f"layer {name} recorded no calls" for name in missing]
    notes = [f"operations per pass: {layers['trace.operations']}",
             f"tracing overhead: {layers['trace.overhead_s']:.6g} s "
             f"(traced {layers['trace.traced_wall_s']:.6g} s - untraced "
             f"{layers['trace.untraced_wall_s']:.6g} s)",
             f"spans written to .perfbench_work/spans-{workload}*.json"]
    return layers, {"attempted": res["attempted"], "failed": len(failures),
                    "failures": failures, "notes": notes}


def run_one(spec: dict, workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    values, info = (trace if traced else measure)(workload, seed, seconds, deadline)
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise HarnessError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(f"== {workload} seed={seed} seconds={seconds} trace={int(traced)} "
          f"(closed loop, one client)")
    for name, m in metrics.items():
        print(f"  {name:46s} {m['value']:>14.6g} {m['unit']}")
    for note in info["notes"]:
        print(f"  {note}")
    for failure in info["failures"][:5]:
        print(f"  FAILED {failure}")
    return {"correct": info["failed"] == 0, "attempted": info["attempted"],
            "failed": info["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "semirings" / "__init__.py").is_file():
        print(f"error: no src/semirings under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(spec, w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}/{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
