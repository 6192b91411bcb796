"""One suite pass shares its members and its classifications; a rerun
shares nothing with the pass before it."""

from collections import Counter

from semirings import suite
from semirings.suite import (SuiteConfig, criterion_classification,
                             criterion_fact_implications, run_criteria,
                             run_selftest)

# the number of classifications does not depend on the battery sizes
CFG = SuiteConfig(seed=2, families=60)


def _spy_classify(monkeypatch):
    seen = []
    real = suite._classify

    def spy(member, cfg):
        seen.append(member)
        return real(member, cfg)

    monkeypatch.setattr(suite, "_classify", spy)
    return seen


def test_one_pass_classifies_each_member_once(monkeypatch):
    seen = _spy_classify(monkeypatch)
    results = run_criteria(CFG)
    assert all(r.passed for r in results)
    # criterion 4 classifies six members, criterion 5 reuses them and adds
    # adjoin-inf:2 and five adjoin-inf:3; without the pass it was 6 + 12
    assert len(seen) == 12
    assert len({id(m) for m in seen}) == 12
    names = Counter(m.name for m in seen)
    assert names["adjoin-inf:3"] == 5
    assert names["adjoin-inf:2"] == 1


def test_selftest_rerun_recomputes(monkeypatch):
    seen = _spy_classify(monkeypatch)
    code, _ = run_selftest(CFG)
    assert code == 0
    assert len(seen) == 24
    first, second = seen[:12], seen[12:]
    assert not {id(m) for m in first} & {id(m) for m in second}


def test_criteria_without_a_pass_match_the_pass():
    results = run_criteria(CFG)
    assert criterion_classification(CFG) == results[3]
    assert criterion_fact_implications(CFG) == results[4]


def test_a_failed_collapse_counts_its_signatures(monkeypatch):
    monkeypatch.setattr(suite, "collapse_holds", lambda s, o: (False, 4))
    result = suite.criterion_main_theorem(CFG)
    assert not result.passed
    assert "congruence collapse failed on n=3 (4 signatures)" in result.detail
