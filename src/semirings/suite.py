"""The acceptance suite: nine reproducible criteria covering the semiring
laws, the orderability equivalences, the infinite-sum axioms, the example
classification matrix, the finitary-completion facts, the adjunction caveat
and the negative result.  Everything is exact; there are no tolerances.

The suite is deterministic per seed, so a rerun must produce a byte-identical
report (that is itself the last criterion)."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import gallery
from .cardinal import (ALEPH0, UNCOUNTABLE, OmegaSequence,
                       characteristic_cardinality, family_battery,
                       is_d_complete, is_finitary, omega_sequence_battery)
from .cardinal import check_sigma_axioms as sigma_axiom_battery
from .completion import (NotOrderableError, collapse_holds,
                         completion_of_finite, no_universal_complete_demo)
from .core import (OpTable, absorption_witness, check_semiring_axioms,
                   enumerate_semirings, is_orderable, is_zero_sum_free,
                   search_compatible_order, semiring_law_violations)
from .gallery import adjoin_infinity, boolean


@dataclass(frozen=True)
class SuiteConfig:
    """The seed and the family battery, which the --battery flag sets; the
    other battery sizes are derived from it here."""

    seed: int = 1
    families: int = 500

    @property
    def sequences(self) -> int:
        return max(40, 2 * self.families // 5)

    @property
    def triples(self) -> int:
        return max(40, 3 * self.families // 5)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    slug: str
    passed: bool
    detail: str


class _Pass:
    """What one suite pass shares: one list of the Sigma members, the
    (table, adjunction) pairs of the zero-sum-free size-3 tables, which
    criteria 5 and 7 both use, and the classifications, keyed by member
    object and cfg (not by name: the adjunctions are all named adjoin-inf:3)."""

    def __init__(self):
        self.members = [
            gallery.nat_infinity(),
            gallery.powerset_semiring("abc"),
            gallery.language_semiring("a", 2),
            gallery.three_valued(),
            gallery.four_valued(),
            gallery.omega_plus_reverse(),
            adjoin_infinity(boolean()),
        ]
        self.classify = functools.cache(_classify)

    @functools.cached_property
    def adjunctions(self):
        return [(s, adjoin_infinity(s)) for s in enumerate_semirings(3)
                if is_zero_sum_free(s)[0]]


def _size3_semirings():
    return [s for n in (1, 2, 3) for s in enumerate_semirings(n)]


# --- criterion 1 -----------------------------------------------------------

def criterion_semiring_laws(cfg: SuiteConfig, ctx=None) -> CriterionResult:
    bad = []
    counts = {1: 0, 2: 0, 3: 0}
    for s in _size3_semirings():
        counts[s.n] += 1
        if not check_semiring_axioms(s).passed:
            bad.append(f"enumerated n={s.n}")
    for member in (ctx or _Pass()).members:
        if member.is_finite:
            if not check_semiring_axioms(member.base).passed:
                bad.append(member.name)
        elif semiring_law_violations(member.sample(8), OpTable(member.plus),
                                     OpTable(member.times), member.zero, member.one):
            bad.append(member.name)
    detail = (f"enumerated {counts[1]}+{counts[2]}+{counts[3]} tables of size 1..3 "
              f"and 7 gallery members" + (f"; failures: {bad}" if bad else ""))
    return CriterionResult(1, "semiring-laws", not bad, detail)


# --- criterion 2 -----------------------------------------------------------

def criterion_orderability(cfg: SuiteConfig, ctx=None) -> CriterionResult:
    disagreements = []
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for n in counts:
        for s in enumerate_semirings(n):
            counts[n] += 1
            ok, _ = is_orderable(s)
            found = search_compatible_order(s)
            if found.status == "inconclusive" or ok != (found.status == "found"):
                disagreements.append(f"n={n} tables={s.add}/{s.mul}")
    detail = (f"agreement on all {'+'.join(map(str, counts.values()))} semiring "
              f"tables of size 1..4"
              + (f"; disagreements: {disagreements}" if disagreements else ""))
    return CriterionResult(2, "orderability-equivalence", not disagreements,
                           detail)


# --- criterion 3 -----------------------------------------------------------

def criterion_sigma_axioms(cfg: SuiteConfig, ctx=None) -> CriterionResult:
    failures = []
    for member in (ctx or _Pass()).members:
        rep = sigma_axiom_battery(member, cfg.seed, cfg.families)
        if not rep.passed:
            failures.append(f"{member.name}: {rep.law_names()}")
    detail = (f"five-axiom battery, {cfg.families} families each, on 7 members"
              + (f"; failures: {failures}" if failures else ""))
    return CriterionResult(3, "sigma-axioms", not failures, detail)


# --- criterion 4 -----------------------------------------------------------

def _classify(member, cfg: SuiteConfig):
    d_ok, d_wit = is_d_complete(
        member, omega_sequence_battery(member, cfg.seed, cfg.sequences))
    if member.has_order:
        f_ok, f_wit = is_finitary(member, family_battery(member, cfg.seed,
                                                         cfg.families))
    else:
        f_ok, f_wit = None, None
    lam = characteristic_cardinality(member)
    return d_ok, d_wit, f_ok, f_wit, lam


# (member, d-complete, finitary, lambda1), None where nothing is asserted:
# the paper's examples of d-complete and finitary, of not d-complete, and of
# d-complete but not finitary with lambda1 uncountable and aleph0
_MATRIX = (
    ("nat-infinity", True, True, None),
    ("powerset:3", True, True, None),
    ("lang:1:2", True, True, None),
    ("three-valued", False, None, None),
    ("four-valued", True, False, UNCOUNTABLE),
    ("omega-minus", True, False, ALEPH0),
)


def criterion_classification(cfg: SuiteConfig, ctx=None) -> CriterionResult:
    ctx = ctx or _Pass()
    problems = []
    members = {m.name: m for m in ctx.members}
    for name, *want in _MATRIX:
        m = members[name]
        d_ok, d_wit, f_ok, f_wit, lam = ctx.classify(m, cfg)
        for cell, w, got in zip(("d-complete", "finitary", "lambda1"), want,
                                (d_ok, f_ok, lam.lambda1)):
            if w is not None and got != w:
                problems.append(f"{name} {cell} is {got!r}, expected {w!r}")
        if name == "three-valued" and not d_ok and (
                d_wit.sequence != OmegaSequence((), (m.base.index_of("finite"),))):
            problems.append(f"three-valued witness is {d_wit.sequence}, expected "
                            f"the constant 'finite' sequence")
        if name == "omega-minus" and not f_ok and f_wit.reason != "sup-missing":
            problems.append(f"omega-minus witness should be a missing sup, got "
                            f"{f_wit.reason}")
    detail = ("classification matrix for the six example semirings"
              + (f"; problems: {problems}" if problems else ""))
    return CriterionResult(4, "classification-matrix", not problems, detail)


# --- criterion 5 -----------------------------------------------------------

def criterion_fact_implications(cfg: SuiteConfig, ctx=None) -> CriterionResult:
    ctx = ctx or _Pass()
    members = ctx.members + [t for _, t in ctx.adjunctions]
    counterexamples = []
    for m in members:
        d_ok, _, f_ok, _, lam = ctx.classify(m, cfg)
        if m.is_finite:
            orderable = is_orderable(m.base)[0]
        else:
            orderable = absorption_witness(m.sample(7), OpTable(m.plus)) is None
        if f_ok and not d_ok:
            counterexamples.append(f"{m.name}: finitary but not d-complete")
        if f_ok and lam.lambda1 > ALEPH0:
            counterexamples.append(f"{m.name}: finitary but lambda1 uncountable")
        if d_ok and not orderable:
            counterexamples.append(f"{m.name}: d-complete but not orderable")
        if m.is_finite and d_ok and lam.lambda1 <= ALEPH0 and not f_ok:
            counterexamples.append(
                f"{m.name}: finite, d-complete, small characteristic, not finitary")
    detail = (f"four implications over {len(members)} members (gallery plus "
              f"{len(ctx.adjunctions) + 1} infinity adjunctions)"
              + (f"; counterexamples: {counterexamples}" if counterexamples else ""))
    return CriterionResult(5, "fact-implications", not counterexamples, detail)


# --- criterion 6 -----------------------------------------------------------

def criterion_main_theorem(cfg: SuiteConfig, ctx=None) -> CriterionResult:
    problems = []
    ordered = 0
    for s in _size3_semirings():
        # decided exactly from the completion's singleton Sigma table, whose
        # finitary check is also the unique-sigma check (a finitary Sigma is
        # the sup of the finite subsums); no sampled battery runs
        try:
            result = completion_of_finite(s)
        except NotOrderableError:
            continue
        ordered += 1
        if not result.finitary_report.passed:
            problems.append(f"completion certificate failed on n={s.n} "
                            f"{result.finitary_report.law_names()}")
            continue
        holds, size = collapse_holds(s, result.semiring.order)
        if not holds:
            problems.append(f"congruence collapse failed on n={s.n} "
                            f"({size} signatures)")
    detail = (f"completion + unique-sigma + exhaustive congruence collapse on "
              f"{ordered} ordered semirings of size <= 3"
              + (f"; problems: {problems[:3]}" if problems else ""))
    return CriterionResult(6, "main-theorem-desk", not problems, detail)


# --- criterion 7 -----------------------------------------------------------

def criterion_adjunction_caveat(cfg: SuiteConfig, ctx=None) -> CriterionResult:
    problems = []
    runs = [(s, t, sigma_axiom_battery(t, cfg.seed, max(60, cfg.families // 8)))
            for s, t in (ctx or _Pass()).adjunctions]
    with_divisors = [(t, rep) for s, t, rep in runs
                     if any(s.mul[x][a] == s.zero for x in range(s.n)
                            for a in range(s.n) if s.zero not in (x, a))]
    witness = next(((t, law, w) for t, rep in with_divisors
                    for law, w in rep.violations
                    if law.startswith("sigma-distributivity")), None)
    if witness is None:
        problems.append("no infinite-distributivity violation found")
    else:
        t, law, (x, f, product_of_sum, _) = witness
        total = t.sigma(f)
        replay = t.times(x, total) if law.endswith("left") else t.times(total, x)
        if replay != product_of_sum:
            problems.append("witness replay did not reproduce the inequality")
    clean = 0
    for _, _, rep in runs:
        bad = [name for name in rep.law_names()
               if not name.startswith("sigma-distributivity")]
        if bad:
            problems.append(f"adjunction broke a non-distributivity axiom: {bad}")
        else:
            clean += 1
    detail = (f"violation found over {len(with_divisors)} zero-divisor tables; "
              f"other four axiom groups clean on {clean} adjunctions"
              + (f"; problems: {problems}" if problems else ""))
    return CriterionResult(7, "adjunction-caveat", not problems, detail)


# --- criterion 8 -----------------------------------------------------------

def criterion_negative_result(cfg: SuiteConfig, ctx=None) -> CriterionResult:
    record = no_universal_complete_demo()
    problems = []
    if record.lambda1_nat_infinity != ALEPH0:
        problems.append(f"lambda1 of nat-infinity is {record.lambda1_nat_infinity!r}")
    if record.lambda1_four_valued != UNCOUNTABLE:
        problems.append(f"lambda1 of four-valued is {record.lambda1_four_valued!r}")
    if not record.identified_in_nat_infinity():
        problems.append("nat-infinity should identify the two sums of ones")
    if not record.separated_in_four_valued():
        problems.append("four-valued should separate the two sums of ones")
    detail = (f"lambda1: aleph0 vs uncountable; sums of ones: "
              f"{record.four_sigma_aleph0!r} != {record.four_sigma_uncountable!r} "
              f"in the cardinal chain, both inf over the naturals"
              + (f"; problems: {problems}" if problems else ""))
    return CriterionResult(8, "no-universal-completion", not problems, detail)


# --- assembly --------------------------------------------------------------

_CRITERIA = (
    criterion_semiring_laws,
    criterion_orderability,
    criterion_sigma_axioms,
    criterion_classification,
    criterion_fact_implications,
    criterion_main_theorem,
    criterion_adjunction_caveat,
    criterion_negative_result,
)


def run_criteria(cfg: SuiteConfig):
    ctx = _Pass()
    return [fn(cfg, ctx) for fn in _CRITERIA]


def format_report(results, cfg: SuiteConfig) -> str:
    lines = [f"selftest seed={cfg.seed} families={cfg.families} "
             f"sequences={cfg.sequences} triples={cfg.triples}"]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark} criterion-{r.index} {r.slug}: {r.detail}")
    return "\n".join(lines)


def run_selftest(cfg: SuiteConfig) -> tuple[int, str]:
    """Run the suite twice, each pass with its own _Pass; the determinism
    criterion compares the two reports byte for byte."""
    results = run_criteria(cfg)
    first = format_report(results, cfg)
    second = format_report(run_criteria(cfg), cfg)
    stable = first == second
    passes = sum(1 for r in results if r.passed) + (1 if stable else 0)
    mark = "PASS" if stable else "FAIL"
    c9 = (f"{mark} criterion-9 determinism: "
          + ("repeated run is byte-identical" if stable
             else "reports differ between runs"))
    total = all(r.passed for r in results) and stable
    body = f"{first}\n{c9}\nresult {'PASS' if total else 'FAIL'} {passes}/9"
    return (0 if total else 1), body
