"""Acceptance suite: one test per criterion, each printing its pass line.

All checks are exact (integer and order-theoretic equalities); there are no
numeric tolerances anywhere.  Battery sizes are the pinned defaults: 500
families, 200 sequences, 300 triples, seed 1; criterion 2 checks every
semiring table of size 1..4.
"""

from semirings.suite import (SuiteConfig, criterion_adjunction_caveat,
                             criterion_classification,
                             criterion_fact_implications,
                             criterion_main_theorem, criterion_negative_result,
                             criterion_orderability, criterion_semiring_laws,
                             criterion_sigma_axioms, run_selftest)

CFG = SuiteConfig(seed=1, families=500)

_cache = {}


def run(fn):
    if fn not in _cache:
        _cache[fn] = fn(CFG)
    result = _cache[fn]
    mark = "PASS" if result.passed else "FAIL"
    print(f"{mark} criterion-{result.index} {result.slug}: {result.detail}")
    return result


def test_criterion_1_semiring_laws():
    assert run(criterion_semiring_laws).passed


def test_criterion_2_orderability_equivalence():
    result = run(criterion_orderability)
    assert result.passed
    assert "all 1+2+6+77 semiring tables" in result.detail


def test_criterion_3_sigma_axiom_battery():
    result = run(criterion_sigma_axioms)
    assert result.passed
    assert "500 families" in result.detail


def test_criterion_4_classification_matrix():
    assert run(criterion_classification).passed


def test_criterion_5_fact_implications():
    assert run(criterion_fact_implications).passed


def test_criterion_6_main_theorem_desk_instance():
    assert run(criterion_main_theorem).passed


def test_criterion_7_adjunction_caveat():
    assert run(criterion_adjunction_caveat).passed


def test_criterion_8_negative_result_demo():
    assert run(criterion_negative_result).passed


def test_criterion_9_selftest_determinism():
    code, body = run_selftest(SuiteConfig(seed=2, families=150))
    line = [ln for ln in body.splitlines() if "criterion-9" in ln][0]
    print(line)
    assert code == 0, body
    assert line.startswith("PASS")
