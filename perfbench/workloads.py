"""Seeded inputs, operations and verdict checks for the benchmark workloads.

Every generator takes the seed as an argument and hands the program only
argv lists, files and objects it builds itself.  Each operation carries the
verdict the generator expects, worked out by a route independent of the
code path being timed: orderability of a generated table from the order
search rather than the absorption criterion, gallery verdicts from the
paper's classification, JSONL verdicts from the closed-form Sigma rules of
the gallery members, and congruence verdicts from the evaluation map phi.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import subprocess
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from semirings import cli
from semirings.core import (FiniteSemiring, enumerate_semirings, is_orderable,
                            search_compatible_order)
from semirings.gallery import NINF_INF, gallery_semiring, ninf, powerset_semiring
from semirings.series import Polynomial, TruncatedSeries, count_below


class GuardError(ValueError):
    """A congruence input is larger than the stated enumeration or scan bound."""


# ---------------------------------------------------------------------------
# selftest-cold: one fresh `semirings selftest` process at the default
# battery, then one at --battery 60; the pair is one operation

SELFTEST_KINDS = (("default", ()), ("b60", ("--battery", "60")))
SELFTEST_TIMEOUT_S = 80


def selftest_inputs(seed: int, pairs: int = 16) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 10**6) for _ in range(pairs)]


def check_selftest(code: int, stdout: str) -> str | None:
    """None when the report is a full pass, else what is wrong."""
    lines = stdout.splitlines()
    if code != 0:
        return f"exit {code}"
    crit = [ln for ln in lines if " criterion-" in ln]
    marks = sorted(int(ln.split("criterion-")[1].split()[0]) for ln in crit)
    if marks != list(range(1, 10)):
        return f"criterion lines {marks}"
    bad = [ln for ln in crit if not ln.startswith("PASS ")]
    if bad:
        return bad[0]
    if not lines or lines[-1] != "result PASS 9/9":
        return f"last line {lines[-1] if lines else ''!r}"
    return None


def run_child(argv: list[str], env: dict) -> tuple[int, str, float]:
    """Run one child process to completion; returns (exit, stdout, wall s)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=SELFTEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # killed and reaped by subprocess.run
        return -1, "", time.perf_counter() - start
    return proc.returncode, proc.stdout, time.perf_counter() - start


# ---------------------------------------------------------------------------
# small tables built by the harness

def _table(n, f):
    return tuple(tuple(f(i, j) for j in range(n)) for i in range(n))


BOOL = FiniteSemiring(("0", "1"), 0, 1, ((0, 1), (1, 1)), ((0, 0), (0, 1)))
Z2 = FiniteSemiring(("0", "1"), 0, 1, ((0, 1), (1, 0)), ((0, 0), (0, 1)))


def _product(a: FiniteSemiring, b: FiniteSemiring) -> FiniteSemiring:
    """Direct product; pairs (x, y) are encoded as x * b.n + y."""
    n = a.n * b.n

    def op(ta, tb):
        return _table(n, lambda i, j: ta[i // b.n][j // b.n] * b.n + tb[i % b.n][j % b.n])

    return FiniteSemiring(tuple(str(i) for i in range(n)),
                          a.zero * b.n + b.zero, a.one * b.n + b.one,
                          op(a.add, b.add), op(a.mul, b.mul))


def _saturating(cap: int) -> FiniteSemiring:
    n = cap + 1
    return FiniteSemiring(tuple(map(str, range(n))), 0, 1,
                          _table(n, lambda i, j: min(i + j, cap)),
                          _table(n, lambda i, j: min(i * j, cap)))


def _max_chain(n: int) -> FiniteSemiring:
    return FiniteSemiring(tuple(map(str, range(n))), 0, 1,
                          _table(n, max),
                          _table(n, lambda i, j: 0 if 0 in (i, j) else max(i, j)))


TABLE_SIZES = (2, 3, 4)


def base_tables() -> dict[tuple[int, bool], list[FiniteSemiring]]:
    """Semirings of sizes 2-4 keyed by (size, orderable), orderability
    decided by the exhaustive order search (not by the absorption criterion
    the CLI uses).  Every key has at least one member."""
    pool: dict[tuple[int, bool], list[FiniteSemiring]] = {}
    for s in (BOOL, Z2, *enumerate_semirings(3), _product(BOOL, BOOL),
              _product(BOOL, Z2), _product(Z2, Z2), _saturating(3), _max_chain(4)):
        ordered = search_compatible_order(s).status == "found"
        pool.setdefault((s.n, ordered), []).append(s)
    return pool


def _relabel(rng, s: FiniteSemiring) -> FiniteSemiring:
    """Random permutation of the carrier indices and fresh labels."""
    perm = list(range(s.n))
    rng.shuffle(perm)
    inv = [0] * s.n
    for old, new in enumerate(perm):
        inv[new] = old
    labels = tuple(f"e{v}" for v in rng.sample(range(1000), s.n))

    def op(t):
        return _table(s.n, lambda i, j: perm[t[inv[i]][inv[j]]])

    return FiniteSemiring(labels, perm[s.zero], perm[s.one], op(s.add), op(s.mul))


def _break_law(rng, s: FiniteSemiring) -> dict:
    """Tables that violate one semiring law by construction."""
    add = [list(r) for r in s.add]
    mul = [list(r) for r in s.mul]
    others = [x for x in range(s.n) if x != s.zero]
    x = rng.choice(others)
    how = rng.randrange(3 if s.n > 2 else 2)
    if how == 0:      # 0 + x != x
        y = rng.choice([v for v in range(s.n) if v != x])
        add[s.zero][x] = add[x][s.zero] = y
    elif how == 1:    # 0 * x != 0
        mul[s.zero][x] = rng.choice(others)
    else:             # a + b != b + a
        a = rng.choice(others)
        b = rng.choice([v for v in range(s.n) if v not in (a, s.zero)])
        add[a][b] = next(v for v in range(s.n) if v != add[b][a])
    return {"elements": list(s.elements), "zero": s.zero, "one": s.one,
            "add": add, "mul": mul}


def _natural_order_pairs(s: FiniteSemiring) -> list[list[int]]:
    return [[a, b] for a in range(s.n) for b in range(s.n)
            if a != b and any(s.add[a][x] == b for x in range(s.n))]


@dataclass
class Table:
    path: str
    labels: tuple


def make_table(rng, pool, kind: str, size: int, path: Path) -> Table:
    """A relabelled table of the given size: orderable, non-orderable, or
    a non-semiring made by breaking one law of either."""
    if kind == "non-semiring":
        s = _relabel(rng, rng.choice(pool[size, True] + pool[size, False]))
        doc = _break_law(rng, s)
    else:
        want = kind == "orderable"
        s = _relabel(rng, rng.choice(pool[size, want]))
        doc = {"elements": list(s.elements), "zero": s.zero, "one": s.one,
               "add": [list(r) for r in s.add], "mul": [list(r) for r in s.mul]}
        if want and rng.random() < 0.5:
            doc["order"] = _natural_order_pairs(s)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return Table(str(path), tuple(s.elements))


# ---------------------------------------------------------------------------
# cli-mix: in-process cli.main(argv) calls with expected exit codes

@dataclass(frozen=True)
class CliOp:
    argv: tuple
    expected: int
    command: str
    defect: bool = False   # a bad input the program is known to mishandle


def run_cli(argv) -> tuple[object, str]:
    """cli.main under captured streams; SystemExit and exceptions become
    outcomes rather than ending the run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a traceback is a recorded outcome, not a crash
            code = f"traceback {type(e).__name__}"
    return code, out.getvalue()


def check_cli(op: CliOp, code, stdout: str) -> str | None:
    if code != op.expected:
        return f"exit {code}, expected {op.expected}"
    if code in (0, 1) and "--format" in op.argv and "json" in op.argv:
        try:
            json.loads(stdout)
        except ValueError:
            return "--format json output is not JSON"
    return None


# the gallery members of the mix, with verdicts from the paper's classification
FINITE_GALLERY = ("boolean", "powerset:2", "powerset:3", "powerset:4",
                  "lang:1:2", "lang:2:2", "three-valued", "four-valued")
SIGMA_GALLERY = {  # name -> (dcomplete exit, finitary exit)
    "nat-infinity": (0, 0), "omega-minus": (0, 1), "three-valued": (1, 1),
    "four-valued": (0, 1), "boolean": (0, 0), "powerset:2": (0, 0),
    "powerset:3": (0, 0), "powerset:4": (0, 0), "lang:1:2": (0, 0),
    "lang:2:2": (0, 0),
}
HEAVY = "lang:2:2"  # 128 elements: over half of a pass's time

TABLE_KINDS = ("orderable", "non-orderable", "non-semiring")


def cli_combinations() -> list[tuple[str, str, object]]:
    """Every (command, input kind, input) the mix covers; a pass makes one
    call of each.  The mix is synthetic: this rule gives every combination
    the same weight, and nothing ties the weights to real usage."""
    def tables(kinds):
        return [(kind, n) for kind in kinds for n in TABLE_SIZES]

    out = []
    for command in ("check", "order", "congruence"):
        out += [(command, "gallery", m) for m in FINITE_GALLERY]
        out += [(command, "table", t) for t in tables(TABLE_KINDS)]
    out += [("complete", "gallery", m) for m in FINITE_GALLERY]
    out += [("complete", "table", t) for t in tables(TABLE_KINDS[:2])]
    for command in ("dcomplete", "finitary"):
        out += [(command, "gallery", m) for m in SIGMA_GALLERY]
        out += [(command, "table", t) for t in tables(TABLE_KINDS[:2])]
        out += [(command, "jsonl", m) for m in SIGMA_GALLERY]
        out += [(command, "jsonl", t) for t in tables(TABLE_KINDS[:1])]
    out += [("gallery", "list", None)]
    out += [("gallery", "gallery", m) for m in SIGMA_GALLERY]
    return out


CLI_PASSES = 6
JSONL_LINES = 60


def _cardinal(rng, infinite: bool) -> str:
    if infinite:
        return rng.choice(("aleph0", "uncountable"))
    return f"fin:{rng.randint(1, 6)}"


class JsonlFactory:
    """Distinct-by-construction family and sequence files for one carrier,
    with the verdict each file should get."""

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.files = 0
        self.lines = 0
        self.distinct = 0
        self._pools: dict[str, list[str]] = {}
        self._omega_files = 0

    def _write(self, lines: list[str]) -> str:
        path = self.workdir / f"lines{self.files}.jsonl"
        self.files += 1
        self.lines += len(lines)
        self.distinct += len(set(lines))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def _labels(self, name: str, table: Table | None, k: int) -> list[str]:
        rng = self.rng
        if name in ("nat-infinity", "omega-minus"):
            return [str(v) for v in rng.sample(range(10**6), k)]
        if table is not None:
            pool = table.labels
        else:
            if name not in self._pools:
                self._pools[name] = gallery_labels(name)
            pool = self._pools[name]
        return rng.sample(pool, min(k, len(pool)))

    def families(self, name: str, table: Table | None = None) -> tuple[str, int]:
        rng = self.rng
        lines, fails = [], False
        # omega-minus files alternate: all finite multiplicities (finitary),
        # or some natural taken infinitely often (no sup)
        self._omega_files += name == "omega-minus"
        failing_file = self._omega_files % 2 == 0
        for _ in range(JSONL_LINES):
            keys = self._labels(name, table, rng.randint(1, 3))
            # one infinite multiplicity at most keeps the subsum sets small
            inf_key = rng.choice(keys) if rng.random() < 0.4 else None
            if name == "omega-minus" and not failing_file:
                inf_key = None
            fam = {k: _cardinal(rng, k == inf_key) for k in keys}
            if name == "nat-infinity" and rng.random() < 0.1:
                fam["inf"] = _cardinal(rng, False)
            fails = fails or _family_fails(name, fam)
            lines.append(json.dumps({"family": fam}, sort_keys=True))
        return self._write(lines), 1 if fails else 0

    def sequences(self, name: str, table: Table | None = None) -> tuple[str, int]:
        rng = self.rng
        lines, fails = [], False
        for _ in range(JSONL_LINES):
            prefix = self._labels(name, table, rng.randint(0, 3))
            cycle = self._labels(name, table, rng.randint(1, 3))
            if name in ("nat-infinity", "omega-minus") and rng.random() < 0.5:
                cycle = ["0"] * len(cycle)  # conclusive: partial sums settle
            if name == "omega-minus" and rng.random() < 0.3:
                prefix = [f"inf-{rng.randint(1, 60)}"] + prefix
            fails = fails or _sequence_fails(name, prefix, cycle)
            lines.append(json.dumps({"prefix": prefix, "cycle": cycle}))
        return self._write(lines), 1 if fails else 0


_CHAIN = {"0": 0, "finite": 1, "countable": 2, "uncountable": 3, "infinite": 2}


def _family_fails(name: str, fam: dict) -> bool:
    """Closed-form finitary verdict of one family (Sigma against the sup of
    the finite subsums) on the members that are not finitary."""
    infinite = [k for k, c in fam.items() if not c.startswith("fin:")]
    if name == "omega-minus":   # naturals only: 1, 2, 3, ... has no sup
        return any(k != "0" for k in infinite)
    if name == "four-valued":   # uncountably many nonzero terms escalate
        top = max(_CHAIN[k] for k in fam)
        return top < 3 and any(k != "0" and fam[k] == "uncountable" for k in fam)
    if name == "three-valued":  # infinitely many "finite" terms escalate
        top = max(_CHAIN[k] for k in fam)
        return top == 1 and any(k != "0" for k in infinite)
    return False


def _sequence_fails(name: str, prefix, cycle) -> bool:
    """Closed-form d-completeness verdict of one sequence; only the
    three-valued chain can fail (its partial sums stay at "finite" while
    Sigma escalates)."""
    if name != "three-valued":
        return False
    terms = [_CHAIN[x] for x in (*prefix, *cycle)]
    return max(terms) == 1 and "finite" in cycle


def gallery_labels(name: str) -> tuple:
    member = gallery_semiring(name)
    return (member if isinstance(member, FiniteSemiring) else member.base).elements


def _small_poly_text(rng, labels) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        word = ".".join(rng.choice(labels) for _ in range(rng.randint(0, 2)))
        terms.append(f"{rng.randint(1, 3)}*[{word}]")
    return " + ".join(terms)


class Deck:
    """Seeded draws that take every option equally often: each option once
    per round, in a fresh shuffled order."""

    def __init__(self, rng):
        self.rng = rng
        self._left: dict = {}

    def draw(self, key, options):
        left = self._left.get(key)
        if not left:
            left = list(options)
            self.rng.shuffle(left)
            self._left[key] = left
        return left.pop()


def cli_inputs(seed: int, workdir: Path) -> tuple[list[CliOp], dict]:
    """CLI_PASSES passes, more than a run uses.  A pass makes one call per
    entry of `cli_combinations` and one per bad input, so every pass holds
    the same work for every seed; the seed changes the generated tables,
    files and polynomials, the formats and the order."""
    rng = random.Random(seed)
    pool = base_tables()
    jsonl = JsonlFactory(rng, workdir)
    deck = Deck(rng)
    tables = 0

    def table(kind, size):
        nonlocal tables
        tables += 1
        return make_table(rng, pool, kind, size, workdir / f"table{tables}.json")

    bad = _malformed_files(workdir)
    combos = cli_combinations()
    ops: list[CliOp] = []
    for _ in range(CLI_PASSES):
        heavy, light = [], []
        for combo in combos:
            # each combination alternates --format human / json over two passes
            fmt = ("--format", deck.draw(("format", combo), ("human", "json")),
                   "--seed", str(rng.randrange(1, 1000)))
            op = _cli_op(rng, *combo, fmt, table, jsonl)
            (heavy if HEAVY in op.argv else light).append(op)
        light += [CliOp(tuple(argv), expected, "malformed", defect=kind == "defect")
                  for kind in ("clean", "defect") for argv, expected in bad[kind]]
        # the lang:2:2 calls go at evenly spaced places at a random phase and
        # the rest in random order, so any stretch of a run sees the pass's mix
        rng.shuffle(heavy)
        phase = rng.random()
        keyed = [((j + phase) / len(heavy), op) for j, op in enumerate(heavy)]
        keyed += [(rng.random(), op) for op in light]
        keyed.sort(key=lambda k: k[0])
        ops.extend(op for _, op in keyed)
    sizes = {"calls_per_pass": len(ops) // CLI_PASSES, "tables": tables,
             "jsonl_files": jsonl.files, "jsonl_lines": jsonl.lines,
             "jsonl_distinct_share": jsonl.distinct / max(1, jsonl.lines)}
    return ops, sizes


def _cli_op(rng, command, kind, what, fmt, table, jsonl) -> CliOp:
    """One call with the exit code the generator expects."""
    if command == "gallery":
        return CliOp(("gallery", *([what] if what else []), *fmt), 0, command)
    if kind == "gallery":
        expected = SIGMA_GALLERY[what][command == "finitary"] if command in (
            "dcomplete", "finitary") else 0
        if command == "congruence":
            labels = gallery_labels(what)
            return CliOp(("congruence", what, _small_poly_text(rng, labels),
                          _small_poly_text(rng, labels), *fmt), 0, command)
        return CliOp((command, what, *fmt), expected, command)
    if kind == "jsonl":
        # a gallery member, or the completion of an orderable table
        t = table(*what) if isinstance(what, tuple) else None
        make = jsonl.sequences if command == "dcomplete" else jsonl.families
        path, expected = make(None if t else what, t)
        return CliOp((command, t.path if t else what, path, *fmt), expected, command)
    t = table(*what)
    orderable, semiring = what[0] == "orderable", what[0] != "non-semiring"
    if command == "check":
        expected = 0 if semiring else 1
    elif command in ("order", "complete"):
        expected = 0 if orderable else 1
    elif command == "congruence":
        expected = 0 if orderable else 1 if semiring else 2
        return CliOp(("congruence", t.path, _small_poly_text(rng, t.labels),
                      _small_poly_text(rng, t.labels), *fmt), expected, command)
    else:  # dcomplete, finitary: a non-orderable table has no completion
        expected = 0 if orderable else 2
    return CliOp((command, t.path, *fmt), expected, command)


def _malformed_files(workdir: Path) -> dict:
    """Bad requests, each with the exit code the CLI promises.  "clean" ones
    already get it, with a one-line message.  "defect" ones are known to get
    a traceback or the wrong exit instead; they are counted apart from the
    failures (see README).  Input that makes `enumerate_below` materialise
    billions of polynomials is left out: it would exhaust the machine."""
    def put(name, text):
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    bool_doc = {"elements": ["0", "1"], "zero": 0, "one": 1,
                "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]]}
    broken = put("broken.json", "{not json")
    out_of_range = put("range.json", json.dumps({**bool_doc, "add": [[0, 9], [1, 1]]}))
    no_mul = put("nomul.json", json.dumps({k: v for k, v in bool_doc.items() if k != "mul"}))
    not_semiring = put("notsemiring.json", json.dumps({**bool_doc, "add": [[0, 1], [0, 1]]}))
    xor = put("xor.json", json.dumps({**bool_doc, "add": [[0, 1], [1, 0]]}))
    not_jsonl = put("notjson.jsonl", '{"family": {"1": "fin:2"}}\nnot json\n')
    huge = put("huge.jsonl", '{"family": {"1": "fin:99999999"}}\n')
    zero_true = put("zerotrue.json", json.dumps({**bool_doc, "zero": True}))
    clean = [
        (["check", str(workdir / "missing.json")], 2),
        (["check", broken], 2),
        (["check", out_of_range], 2),
        (["order", no_mul], 2),
        (["check"], 2),
        (["nope"], 2),
        (["check", broken, "--format", "xml"], 2),
        (["congruence", "boolean", "2*[q]", "1*[1]"], 2),
        (["congruence", not_semiring, "1*[]", "1*[]"], 2),
        (["finitary", "nat-infinity", not_jsonl], 2),
        (["finitary", xor], 2),
        (["dcomplete", "nat"], 2),
        (["complete", "nat-infinity"], 2),
    ]
    defect = [
        (["gallery", "nope"], 2),
        (["gallery", "powerset:x"], 2),
        (["gallery", "lang:3:3"], 2),
        (["finitary", "nat-infinity", huge], 2),
        (["check", zero_true], 2),
        (["gallery", "nat"], 0),
    ]
    return {"clean": clean, "defect": defect}


# ---------------------------------------------------------------------------
# congruence: sim_verdict over polynomial and series pairs

CONGRUENCE_BOUND = 200_000   # guard: polynomials enumerated per side, at most
SCAN_BOUND = 1_000_000       # guard: worst-case order comparisons per pair
SCAN_FACTOR = 4              # generated pairs: worst-case comparisons per polynomial
CAP = 3
LADDER = tuple(round(100 * 100 ** (i / 19)) for i in range(20))  # 1e2 .. 1e4
SLOT_KINDS = ("holds", "holds", "fails", "fails", "series")


def phi(s: FiniteSemiring, coeffs: dict) -> int:
    """The evaluation map, written out independently of the program."""
    acc = s.zero
    for word, c in coeffs.items():
        val = s.one
        for letter in word:
            val = s.mul[val][letter]
        for _ in range(c):
            acc = s.add[acc][val]
    return acc


def below_count(x) -> int:
    """Polynomials the brute force enumerates for one side at the cap."""
    if isinstance(x, Polynomial):
        return count_below(x)
    return math.prod((CAP if c.rank else min(c.n, CAP)) + 1 for c in x.coeffs.values())


def _capped(x, k: int) -> dict:
    if isinstance(x, Polynomial):
        return dict(x.coeffs)
    return {w: (k if c.rank else min(c.n, k)) for w, c in x.coeffs.items()}


def phi_counts(s: FiniteSemiring, coeffs: dict) -> Counter:
    """How many polynomials coefficientwise below `coeffs` evaluate to each
    element, counted without enumerating them (phi is additive, so the
    counts fold one word at a time)."""
    counts = Counter({s.zero: 1})
    for word, c in coeffs.items():
        val = phi(s, {word: 1})
        multiples = Counter({s.zero: 1})   # j * val for j = 0..c, by value
        m = s.zero
        for _ in range(c):
            m = s.add[m][val]
            multiples[m] += 1
        nxt: Counter = Counter()
        for acc, k in counts.items():
            for m, j in multiples.items():
                nxt[s.add[acc][m]] += k * j
        counts = nxt
    return counts


def _half_scan(order, below_x: Counter, below_y: Counter) -> int:
    """Most order comparisons one brute-force half can make, over every
    order of enumeration: each polynomial below x scans the values below y
    until one dominates it, so it costs one more than the number of values
    that do not; the first undominated one scans all of them and ends the
    half."""
    total_y = sum(below_y.values())
    cost, fails = 0, False
    for v, k in below_x.items():
        misses = sum(n for u, n in below_y.items() if not order.leq(v, u))
        if misses == total_y:
            fails = True
        else:
            cost += k * (misses + 1)
    return cost + (total_y if fails else 0)


def scan_bound(op) -> int:
    """Worst-case order comparisons of sim_verdict on the pair, whatever
    order the below-sets are enumerated in: both halves, and both caps
    when a side is a series."""
    both_poly = isinstance(op.p, Polynomial) and isinstance(op.q, Polynomial)
    total = 0
    for k in (CAP,) if both_poly else (CAP - 1, CAP):
        bp, bq = phi_counts(op.s, _capped(op.p, k)), phi_counts(op.s, _capped(op.q, k))
        total += _half_scan(op.order, bp, bq) + _half_scan(op.order, bq, bp)
    return total


def guard(op) -> None:
    """Refuse a pair whose below-sets or worst-case scan exceed the bounds,
    before anything is enumerated."""
    for x in (op.p, op.q):
        n = below_count(x)
        if n > CONGRUENCE_BOUND:
            raise GuardError(f"{n} polynomials below one side, bound {CONGRUENCE_BOUND}")
    n = scan_bound(op)
    if n > SCAN_BOUND:
        raise GuardError(f"up to {n} order comparisons, bound {SCAN_BOUND}")


@dataclass
class CongOp:
    name: str
    s: FiniteSemiring
    order: object
    p: object
    q: object
    kind: str
    sizes: tuple
    expect_fwd: object = None
    expect_bwd: object = None
    expect_sim: bool = False
    expect_inconclusive: bool = False


def _expect(op: CongOp) -> None:
    """Expected halves: phi of the (capped) sides, compared in the order.
    Series sides are read at cap-1 and cap; disagreement is inconclusive."""
    s, o = op.s, op.order

    def half(x, y):
        lo = o.leq(phi(s, _capped(x, CAP - 1)), phi(s, _capped(y, CAP - 1)))
        hi = o.leq(phi(s, _capped(x, CAP)), phi(s, _capped(y, CAP)))
        return hi if lo == hi else None

    op.expect_fwd, op.expect_bwd = half(op.p, op.q), half(op.q, op.p)
    op.expect_sim = bool(op.expect_fwd) and bool(op.expect_bwd)
    op.expect_inconclusive = op.expect_fwd is None or op.expect_bwd is None


def check_congruence(op: CongOp, v) -> str | None:
    if (v.lesssim_forward, v.lesssim_backward) != (op.expect_fwd, op.expect_bwd):
        return (f"halves {v.lesssim_forward}/{v.lesssim_backward}, expected "
                f"{op.expect_fwd}/{op.expect_bwd}")
    if v.sim != op.expect_sim or v.inconclusive != op.expect_inconclusive:
        return f"sim {v.sim}, expected {op.expect_sim}"
    return None


def _words(n: int) -> list[tuple]:
    return [()] + [(a,) for a in range(n)] + [(a, b) for a in range(n) for b in range(n)]


def _coeffs_for(rng, target: int, k: int) -> list[int]:
    """k positive coefficients with prod(c + 1) within 3% of the target."""
    root = target ** (1 / k)
    for _ in range(1000):
        cs = [max(1, round(root * rng.uniform(0.5, 2.0)) - 1) for _ in range(k - 1)]
        rest = target / math.prod(c + 1 for c in cs)
        if rest >= 2:
            cs.append(round(rest) - 1)
            if abs(math.prod(c + 1 for c in cs) / target - 1) <= 0.03:
                rng.shuffle(cs)
                return cs
    raise RuntimeError(f"no coefficients for {target} below")


def _three_words(rng, n: int) -> list[tuple]:
    """Three distinct words of lengths 1, 2 and 2, so every enumerated
    polynomial costs about the same to evaluate."""
    pairs = rng.sample([(a, b) for a in range(n) for b in range(n)], 2)
    return [(rng.randrange(n),), *pairs]


@functools.lru_cache(maxsize=None)
def _series_shapes(words: int, target: int) -> list[tuple[int, int, int]]:
    """(a, b, c) with a + b + c <= words whose 4**a * 3**b * 2**c is within
    5% (in log) of the best approximation of the target."""
    shapes = [(a, b, c) for a in range(words + 1) for b in range(words + 1 - a)
              for c in range(words + 1 - a - b) if a + b + c]
    err = {sh: abs(math.log(4 ** sh[0] * 3 ** sh[1] * 2 ** sh[2] / target)) for sh in shapes}
    best = min(err.values())
    return [sh for sh in shapes if err[sh] <= best + 0.05]


def _series(rng, n: int, target: int) -> TruncatedSeries:
    """Infinite and finite coefficients whose capped below-set (a word with
    coefficient c allows 0..min(c, cap), inf allows 0..cap) has about the
    target's size: factors 4, 3 and 2 per word."""
    words = _words(n)
    a, b, c = rng.choice(_series_shapes(len(words), target))
    fours = [NINF_INF if rng.random() < 0.6 else ninf(rng.randint(CAP, CAP + 2))
             for _ in range(a)]
    values = fours + [ninf(2)] * b + [ninf(1)] * c
    return TruncatedSeries(2, dict(zip(rng.sample(words, len(values)), values)))


def congruence_semirings() -> list[tuple[str, FiniteSemiring, object]]:
    """The ordered semirings of sizes 2-3 and powerset:2, with their
    natural orders (size 1 is left out: every pair there is congruent)."""
    out = []
    for n in (2, 3):
        for i, s in enumerate(enumerate_semirings(n)):
            ok, order = is_orderable(s)
            if ok:
                out.append((f"n{n}#{i}", s, order))
    ps = powerset_semiring("ab")
    out.append(("powerset:2", ps.base, ps.order))
    return out


def _linear(op: CongOp) -> bool:
    """The worst-case scan is at most SCAN_FACTOR comparisons per
    polynomial enumerated, in any enumeration order."""
    caps = 1 if op.kind != "series" else 2
    return scan_bound(op) <= SCAN_FACTOR * caps * sum(op.sizes)


def _congruence_op(rng, deck, semirings, kind: str, target: int) -> CongOp:
    for _ in range(20 * len(semirings)):
        cp, cq = _coeffs_for(rng, target, 3), _coeffs_for(rng, target, 3)
        name, s, o = deck.draw(kind, semirings)
        for _ in range(2000):
            p = Polynomial(dict(zip(_three_words(rng, s.n), cp)))
            if kind == "series":
                q = _series(rng, s.n, target)
            else:
                q = Polynomial(dict(zip(_three_words(rng, s.n), cq)))
            vp, vq = phi(s, p.coeffs), phi(s, _capped(q, CAP))
            if kind == "holds" and vp != vq:
                continue
            # fails: the forward half fails and the backward half holds
            if kind == "fails" and (o.leq(vp, vq) or not o.leq(vq, vp)):
                continue
            op = CongOp(name, s, o, p, q, kind, (below_count(p), below_count(q)))
            if not _linear(op):
                continue
            _expect(op)
            return op
    raise RuntimeError(f"no {kind} pair found near {target}")


def congruence_inputs(seed: int, blocks: int = 20) -> tuple[list[CongOp], dict]:
    """One pair at 1e5 below one side first (it sets the memory peak), then
    blocks of 20 pairs on the fixed size ladder, shuffled within a block."""
    rng = random.Random(seed)
    semirings = congruence_semirings()
    name, s, o = semirings[-1]
    cq = _coeffs_for(rng, 10_000, 3)
    for _ in range(20_000):
        p = Polynomial(dict(zip(rng.sample(_words(s.n), 5), [9] * 5)))
        q = Polynomial(dict(zip(_three_words(rng, s.n), cq)))
        first = CongOp(name, s, o, p, q, "holds-max", (below_count(p), below_count(q)))
        if phi(s, q.coeffs) == phi(s, p.coeffs) and _linear(first):
            break
    else:
        raise RuntimeError("no congruent partner for the largest pair")
    _expect(first)
    ops = [first]
    deck = Deck(rng)
    for _ in range(blocks):
        block = [_congruence_op(rng, deck, semirings, SLOT_KINDS[i % len(SLOT_KINDS)], t)
                 for i, t in enumerate(LADDER)]
        rng.shuffle(block)
        ops.extend(block)
    sides = [x for op in ops for x in op.sizes]
    sizes = {"semirings": len(semirings), "pairs": len(ops),
             "below_min": min(sides), "below_max": max(sides),
             "series_share": sum(op.kind == "series" for op in ops) / len(ops)}
    return ops, sizes
