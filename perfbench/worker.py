"""One benchmark process: set up a workload, then measure or trace it.

    worker.py setup   WORKLOAD SEED              set up, report when done
    worker.py measure WORKLOAD SEED SECONDS      closed loop, tracing off
    worker.py trace   WORKLOAD SEED SECONDS      untraced pass, then the same
                                                 operations traced
    worker.py traced-cli SPANS -- ARGV...        cli.main(ARGV) with spans
                                                 written to SPANS

The result is one JSON object on the last line of standard output.  Set-up
ends at the `setup_done` stamp (time.monotonic, which every process on the
machine shares), so the parent can time set-up from before it spawned us.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from semirings.completion import sim_verdict  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def setup(workload: str, seed: int, workdir: Path):
    if workload == "selftest-cold":
        seeds = wl.selftest_inputs(seed)
        return seeds, {"suite_seeds": len(seeds)}
    if workload == "cli-mix":
        return wl.cli_inputs(seed, workdir)
    if workload == "congruence":
        return wl.congruence_inputs(seed)
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one operation of each workload: returns (latency s, failure or None,
# detail dict)

def selftest_span_files() -> list[Path]:
    return [WORK / f"spans-selftest-cold-{kind}.json" for kind, _ in wl.SELFTEST_KINDS]


def selftest_pair(suite_seed: int, traced: bool = False):
    """Both cold processes, one after the other, optionally traced."""
    walls, failure = {}, None
    for (kind, extra), spans_file in zip(wl.SELFTEST_KINDS, selftest_span_files()):
        argv = ["selftest", "--seed", str(suite_seed), *extra]
        if not traced:
            cmd = [sys.executable, "-m", "semirings.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "worker.py"), "traced-cli",
                   str(spans_file), "--", *argv]
        code, out, wall = wl.run_child(cmd, child_env())
        walls[kind] = wall
        problem = wl.check_selftest(code, out)
        if problem and failure is None:
            failure = f"selftest --seed {suite_seed} {' '.join(extra)}: {problem}"
    return sum(walls.values()), failure, walls


def cli_op(op: wl.CliOp):
    start = time.perf_counter()
    code, out = wl.run_cli(op.argv)
    elapsed = time.perf_counter() - start
    problem = wl.check_cli(op, code, out)
    if problem:
        argv = " ".join(op.argv).replace(f"{ROOT}{os.sep}", "")
        problem = f"{argv}: {problem}"
    return elapsed, problem, {"command": op.command, "defect": op.defect}


def congruence_op(op: wl.CongOp):
    wl.guard(op)  # before the clock starts; a refusal stops the run
    start = time.perf_counter()
    try:
        verdict = sim_verdict(op.p, op.q, op.s, op.order, wl.CAP)
    except Exception as e:  # the program's own cross-checks may raise
        elapsed = time.perf_counter() - start
        problem = f"raised {type(e).__name__}: {e}"
    else:
        elapsed = time.perf_counter() - start
        problem = wl.check_congruence(op, verdict)
    if problem:
        problem = f"{op.name} {op.kind} {op.p!r} ~ {op.q!r}: {problem}"
    return elapsed, problem, {}


# ---------------------------------------------------------------------------

CLI_COMMANDS = ("check", "order", "complete", "dcomplete", "finitary",
                "congruence", "gallery")


class Tally:
    """Samples and verdicts of one pass over the operations."""

    def __init__(self):
        self.samples: list[float] = []
        self.sample_ops: list[int] = []    # index of each sample's operation
        self.ends: list[float] = []        # run time at the end of each operation
        self.failures: list[str] = []
        self.defects: list[str] = []
        self.defect_ops = 0
        self.by_command: dict[str, list[float]] = {}
        self.walls: dict[str, list[float]] = {}
        self.wall_s = 0.0

    def add(self, i: int, elapsed: float, problem, detail: dict) -> None:
        if detail.get("defect"):
            # a known mishandled bad input: counted on its own, see README
            self.defect_ops += 1
            if problem:
                self.defects.append(problem)
            return
        self.samples.append(elapsed)
        self.sample_ops.append(i)
        if problem:
            self.failures.append(problem)
        if "command" in detail:
            self.by_command.setdefault(detail["command"], []).append(elapsed)
        for kind in ("default", "b60"):
            if kind in detail:
                self.walls.setdefault(kind, []).append(detail[kind])


# operations at the head of a workload's list that run once: the largest
# congruence pair; a run that gets through the list starts again after them
HEAD = {"congruence": 1}
# workloads whose operations are long (a selftest pair takes about 15 s): a
# run starts none that would end past its time, judged by the longest so far
FIT = {"selftest-cold"}


def run_ops(workload: str, ops, seconds: float | None, count: int | None,
            traced_children: bool = False, rec: spans.Recorder | None = None):
    """Closed loop, one client: the next operation starts when the last one
    returns.  Stops after `seconds` or after `count` operations."""
    tally = Tally()
    head = HEAD.get(workload, 0)
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if seconds is not None:
            left = seconds - (time.perf_counter() - start)
            if left <= 0 or (workload in FIT and tally.samples and max(tally.samples) > left):
                break
        op = ops[i if i < len(ops) else head + (i - head) % (len(ops) - head)]
        close = spans.root_span(rec, f"op.{workload}") if rec else None
        try:
            if workload == "selftest-cold":
                elapsed, problem, walls = selftest_pair(op, traced_children)
                detail = walls
            elif workload == "cli-mix":
                elapsed, problem, detail = cli_op(op)
            else:
                elapsed, problem, detail = congruence_op(op)
        finally:
            if close:
                close()
        tally.add(i, elapsed, problem, detail)
        tally.ends.append(time.perf_counter() - start)
        i += 1
    tally.wall_s = time.perf_counter() - start
    return tally, i


def whole_groups(workload: str, done: int, sizes: dict) -> int:
    """How many leading operations of a run make whole groups: passes of
    `cli-mix`, blocks of the `congruence` ladder after its first pair, and
    single `selftest-cold` pairs.  Every group holds the same mix of work,
    so the time metrics over whole groups weigh the same work in every run,
    whatever a partial last group happened to hold.  With not one whole
    group, every operation counts."""
    if workload == "cli-mix":
        size = sizes["calls_per_pass"]
    elif workload == "congruence":
        size = len(wl.LADDER)
    else:
        return done
    head = HEAD.get(workload, 0)
    if done < head + size:
        return done
    return head + (done - head) // size * size


def cmd_measure(workload, seconds, ops, sizes, setup_done):
    gc.collect()
    tally, done = run_ops(workload, ops, seconds, None)
    kept = whole_groups(workload, done, sizes)
    samples = [x for x, i in zip(tally.samples, tally.sample_ops) if i < kept]
    return {"samples_s": samples, "wall_s": tally.ends[kept - 1],
            "ops_done": done, "ops_kept": kept,
            "attempted": len(tally.samples), "failed": len(tally.failures),
            "failures": tally.failures[:5], "defect_ops": tally.defect_ops,
            "defects": len(tally.defects), "defect_examples": tally.defects[:3],
            "walls": tally.walls,
            "setup_done": setup_done, "sizes": sizes,
            "peak_rss_mb": peak_rss_mb(children=workload == "selftest-cold")}


def cmd_trace(workload, seconds, ops):
    """Untraced pass for half the time, then the same operations traced.
    The difference of the two walls is the tracing overhead."""
    gc.collect()
    cold = workload == "selftest-cold"
    # one traced selftest pair is already the size of a whole run
    plain, n = run_ops(workload, ops, None if cold else seconds / 2, 1 if cold else None)
    rec = None if cold else spans.Recorder()
    if rec:
        spans.install(rec)
    gc.collect()
    traced, _ = run_ops(workload, ops, None, n, cold, rec)
    if rec:
        dumps = [rec.dump()]
        spans.write_dump(WORK / f"spans-{workload}.json", dumps[0])
    else:
        dumps = [json.loads(path.read_text()) for path in selftest_span_files()]
    layers = spans.aggregate(dumps)
    layers["trace.untraced_wall_s"] = plain.wall_s
    layers["trace.traced_wall_s"] = traced.wall_s
    layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
    layers["trace.operations"] = n
    for command in CLI_COMMANDS:
        lat = plain.by_command.get(command)
        layers[f"cli.{command}.latency_p50_ms"] = statistics.median(lat) * 1e3 if lat else 0.0
    layers["cli.known_defects"] = len(plain.defects)
    return {"layers": layers, "attempted": len(plain.samples) + len(traced.samples),
            "failed": len(plain.failures) + len(traced.failures),
            "failures": (plain.failures + traced.failures)[:5]}


def cmd_traced_cli(spans_path: str, argv: list[str]) -> int:
    from semirings import cli
    rec = spans.Recorder()
    spans.install(rec)
    close = spans.root_span(rec, f"op.cli.{argv[0] if argv else ''}")
    try:
        code = cli.main(argv)
    finally:
        close()
        spans.write_dump(spans_path, rec.dump())
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "traced-cli":
        sep = argv.index("--")
        return cmd_traced_cli(argv[1], argv[sep + 1:])
    workload, seed = argv[1], int(argv[2])
    seconds = float(argv[3]) if len(argv) > 3 else 0.0
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)  # also creates WORK
    try:
        ops, sizes = setup(workload, seed, workdir)
        setup_done = time.monotonic()
        if mode == "setup":
            out = {"setup_done": setup_done}
        elif mode == "measure":
            out = cmd_measure(workload, seconds, ops, sizes, setup_done)
        elif mode == "trace":
            out = cmd_trace(workload, seconds, ops)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
