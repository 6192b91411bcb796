import contextlib
import io
import itertools
from pathlib import Path

import pytest

from semirings import cli
from semirings.cardinal import (ALEPH0, CardinalFamily, FIN1,
                                UNCOUNTABLE, check_sigma_axioms, fin, nfold)
from semirings.core import (OpTable, absorption_witness, check_semiring_axioms,
                            enumerate_semirings, is_orderable, is_zero_sum_free,
                            semiring_law_violations)
from semirings.gallery import (NINF_INF, OMEGA_INF, ZeroSumError,
                               adjoin_infinity, boolean, four_valued,
                               gallery_names, gallery_semiring,
                               language_semiring, nat,
                               nat_desk, nat_infinity, ninf, omega_add,
                               omega_fin, omega_inf_minus, omega_mul,
                               omega_plus_reverse, powerset_semiring,
                               three_valued, xor_semiring)

GOLDEN = Path(__file__).parent / "golden"


def test_finite_gallery_members_are_semirings():
    for member in (three_valued(), four_valued(), powerset_semiring("abc"),
                   language_semiring("a", 2), adjoin_infinity(boolean())):
        assert check_semiring_axioms(member.base).passed


def test_symbolic_members_pass_sampled_laws():
    for member, k in ((nat_infinity(), 8), (omega_plus_reverse(), 9), (nat(), 6)):
        plus, times = OpTable(member.plus), OpTable(member.times)
        assert semiring_law_violations(member.sample(k), plus, times,
                                       member.zero, member.one) == []
        assert absorption_witness(member.sample(7), plus) is None


def test_nat_infinity_sigma_rules():
    c = nat_infinity()
    assert c.sigma(CardinalFamily({ninf(2): fin(3)})) == ninf(6)
    assert c.sigma(CardinalFamily({ninf(1): ALEPH0})) == NINF_INF
    assert c.sigma(CardinalFamily({NINF_INF: FIN1})) == NINF_INF
    assert c.sigma(CardinalFamily({ninf(0): UNCOUNTABLE})) == ninf(0)


def test_powerset_tables_and_sigma():
    c = powerset_semiring("ab")
    a = c.base.index_of("{a}")
    b = c.base.index_of("{b}")
    ab = c.base.index_of("{a,b}")
    assert c.plus(a, b) == ab
    assert c.times(ab, a) == a
    assert c.zero == c.base.index_of("{}")
    assert c.one == ab
    assert c.sigma(CardinalFamily({a: FIN1, b: FIN1})) == ab
    assert c.leq(a, ab) and not c.leq(ab, a)


def test_language_concatenation_and_truncation():
    c = language_semiring("a", 2)
    la = c.base.index_of("{a}")
    laa = c.base.index_of("{aa}")
    assert c.times(la, la) == laa
    # one more letter overflows the bound and lands in the discarded ideal
    assert c.times(laa, la) == c.zero
    assert c.times(la, laa) == c.zero


def test_empty_alphabet_language_is_eps_whatever_maxlen():
    # the word loop stops at the first length without words
    big, small = language_semiring("", 3 * 10**6), language_semiring("", 0)
    assert big.base == small.base and big.order == small.order
    assert big.base.elements == ("{}", "{eps}")
    assert big.sigma(CardinalFamily({big.one: ALEPH0})) == small.one


def test_language_associativity_brute_force():
    c = language_semiring("a", 2)
    n = c.base.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert c.times(c.times(x, y), z) == c.times(x, c.times(y, z))


def test_language_semiring_ordered_by_inclusion():
    from semirings.core import check_ordered_semiring
    c = language_semiring("a", 2)
    assert check_ordered_semiring(c.base, c.order).passed
    for x in range(c.base.n):
        for y in range(c.base.n):
            assert c.order.leq(x, y) == (x | y == y)


def test_three_valued_tables():
    c = three_valued()
    finite = c.base.index_of("finite")
    infinite = c.base.index_of("infinite")
    assert c.plus(finite, finite) == finite
    assert c.plus(finite, infinite) == infinite
    assert c.times(0, infinite) == 0
    assert c.sigma(CardinalFamily({finite: ALEPH0})) == infinite


def test_four_valued_sigma_respects_discrete_convergence():
    c = four_valued()
    finite = c.base.index_of("finite")
    countable = c.base.index_of("countable")
    uncountable = c.base.index_of("uncountable")
    # countably many "finite" stay "finite": their partial sums never move
    assert c.sigma(CardinalFamily({finite: ALEPH0})) == finite
    assert c.sigma(CardinalFamily({finite: UNCOUNTABLE})) == uncountable
    assert c.sigma(CardinalFamily({countable: ALEPH0})) == countable
    assert c.sigma(CardinalFamily({uncountable: FIN1})) == uncountable


def test_omega_minus_addition_rules():
    # n + (inf - k) = inf when n >= k
    assert omega_add(omega_fin(3), omega_inf_minus(2)) == OMEGA_INF
    assert omega_add(omega_fin(2), omega_inf_minus(2)) == OMEGA_INF
    # and inf - (k - n) otherwise
    assert omega_add(omega_fin(1), omega_inf_minus(3)) == omega_inf_minus(2)
    assert omega_add(omega_inf_minus(1), omega_inf_minus(5)) == OMEGA_INF
    assert omega_add(omega_fin(2), omega_fin(3)) == omega_fin(5)
    assert omega_add(OMEGA_INF, omega_fin(0)) == OMEGA_INF


def test_omega_minus_multiplication_rules():
    assert omega_mul(omega_fin(0), OMEGA_INF) == omega_fin(0)
    assert omega_mul(omega_fin(1), omega_inf_minus(3)) == omega_inf_minus(3)
    assert omega_mul(omega_fin(2), omega_inf_minus(3)) == OMEGA_INF
    assert omega_mul(omega_fin(2), omega_fin(3)) == omega_fin(6)


def test_omega_minus_chain_order():
    assert omega_fin(10 ** 6) < omega_inf_minus(10 ** 6)
    assert omega_inf_minus(3) < omega_inf_minus(2) < OMEGA_INF


def test_omega_minus_sigma():
    c = omega_plus_reverse()
    assert c.sigma(CardinalFamily({omega_fin(2): fin(3)})) == omega_fin(6)
    assert c.sigma(CardinalFamily({omega_fin(1): ALEPH0})) == OMEGA_INF
    assert c.sigma(CardinalFamily({omega_fin(0): ALEPH0})) == omega_fin(0)
    assert c.sigma(CardinalFamily({omega_inf_minus(2): fin(2)})) == OMEGA_INF


def test_adjoin_infinity_boolean_is_three_element_chain():
    c = adjoin_infinity(boolean())
    assert c.base.n == 3
    inf = 2
    assert c.plus(1, inf) == inf and c.plus(inf, inf) == inf
    assert c.times(0, inf) == 0 and c.times(inf, 0) == 0
    assert c.times(1, inf) == inf
    rep = check_sigma_axioms(c, seed=8, families=250)
    assert rep.passed


def test_adjoin_infinity_embeds_finite_part():
    s = nat_desk(2)
    c = adjoin_infinity(s)
    for a in range(s.n):
        for b in range(s.n):
            assert c.plus(a, b) == s.plus(a, b)
            assert c.times(a, b) == s.times(a, b)
    a = 1
    assert c.sigma(CardinalFamily({a: ALEPH0})) == s.n  # the new top


def test_adjoin_infinity_refuses_zero_sums():
    with pytest.raises(ZeroSumError):
        adjoin_infinity(xor_semiring())


def test_adjoin_infinity_sigma_reads_multiples_off_the_orbit():
    # some orbits 0, v, 2v, ... cycle with a period above one, so k * v is
    # read off the cycle; every answer matches the doubling fold
    periods = set()
    for s in (s for n in (1, 2, 3, 4) for s in enumerate_semirings(n)):
        if not is_zero_sum_free(s)[0]:
            continue
        c = adjoin_infinity(s)
        for v in range(c.base.n):
            orbit = [c.zero]
            while (nxt := c.plus(orbit[-1], v)) not in orbit:
                orbit.append(nxt)
            periods.add(len(orbit) - orbit.index(nxt))
            for k in [*range(9), 10 ** 9, 10 ** 9 + 1, 10 ** 9 + 2]:
                assert c.sigma(CardinalFamily({v: fin(k)})) == nfold(
                    c.plus, c.zero, v, k), (s.add, v, k)
    assert max(periods) > 1


def test_huge_finite_multiplicities_sum_at_once():
    big = fin(10 ** 9)
    c = omega_plus_reverse()
    assert c.sigma(CardinalFamily({omega_fin(3): big})) == omega_fin(3 * 10 ** 9)
    assert c.sigma(CardinalFamily({omega_inf_minus(2): big})) == OMEGA_INF
    assert c.sigma(CardinalFamily({omega_inf_minus(2): FIN1,
                                   omega_fin(1): big})) == OMEGA_INF
    assert c.sigma(CardinalFamily({omega_inf_minus(5): FIN1,
                                   omega_fin(0): big})) == omega_inf_minus(5)
    d = adjoin_infinity(nat_desk(3))
    assert d.sigma(CardinalFamily({1: big})) == 3
    assert d.sigma(CardinalFamily({0: big})) == 0


def _has_zero_divisors(s):
    return any(s.mul[x][a] == s.zero for x in range(s.n) for a in range(s.n)
               if s.zero not in (x, a))


@pytest.mark.parametrize("n", [3, 4])
def test_battery_flags_distributivity_iff_zero_divisors(n):
    # one random family: the verdict rests on the exhaustive singleton block
    pool = [s for s in enumerate_semirings(n) if is_zero_sum_free(s)[0]]
    assert any(map(_has_zero_divisors, pool))
    assert not all(map(_has_zero_divisors, pool))
    for s in pool:
        t = adjoin_infinity(s)
        for seed in (0, 1, 2):
            rep = check_sigma_axioms(t, seed=seed, families=1)
            assert rep.passed != _has_zero_divisors(s), (s.add, s.mul, seed)
            for law, (x, f, lhs, rhs) in rep.violations:
                assert law in ("sigma-distributivity-left",
                               "sigma-distributivity-right")
                times = t.times if law.endswith("left") else (
                    lambda a, b: t.times(b, a))
                assert times(x, t.sigma(f)) == lhs
                assert t.sigma(f.map_keys(lambda v: times(x, v))) == rhs
                assert lhs != rhs


def test_registry_names_resolve():
    for name in ("boolean", "nat", "nat-infinity", "three-valued",
                 "four-valued", "omega-minus", "powerset:2", "lang:1:2"):
        gallery_semiring(name)
    with pytest.raises(KeyError):
        gallery_semiring("unknown")
    with pytest.raises(ValueError):
        gallery_semiring("lang:3:4")


def test_nat_has_no_sigma():
    c = nat()
    assert not c.has_sigma
    with pytest.raises(ValueError):
        c.sigma(CardinalFamily({ninf(1): FIN1}))


def test_gallery_names_are_frozen():
    assert gallery_names() == ["boolean", "nat", "nat-infinity", "three-valued",
                               "four-valued", "omega-minus", "powerset:<n>",
                               "lang:<k>:<L>"]


def concatenation_product(alphabet, maxlen):
    """The language product cell by cell: a table of word concatenations,
    then for each pair of languages the union over all pairs of words."""
    words = [()]
    for length in range(1, maxlen + 1):
        words.extend(itertools.product(range(len(alphabet)), repeat=length))
    w_index = {w: i for i, w in enumerate(words)}
    concat = [[1 << w_index[u + v] if len(u + v) <= maxlen else 0 for v in words]
              for u in words]

    def cell(x, y):
        mask = 0
        for i in range(len(words)):
            if x >> i & 1:
                for j in range(len(words)):
                    if y >> j & 1:
                        mask |= concat[i][j]
        return mask

    n = 1 << len(words)
    return tuple(tuple(cell(x, y) for y in range(n)) for x in range(n))


@pytest.mark.parametrize("k,maxlen", [(1, m) for m in range(7)]
                         + [(2, m) for m in range(3)] + [(3, m) for m in range(2)])
def test_language_product_matches_concatenation(k, maxlen):
    alphabet = "abc"[:k]
    assert language_semiring(alphabet, maxlen).base.mul == \
        concatenation_product(alphabet, maxlen)


GOLDEN_MEMBERS = (["boolean", "nat", "nat-infinity", "three-valued", "four-valued",
                   "omega-minus"]
                  + [f"powerset:{k}" for k in range(5)]
                  + [f"lang:1:{m}" for m in range(4)] + [f"lang:2:{m}" for m in range(3)]
                  + [f"lang:3:{m}" for m in range(2)])


def gallery_transcript() -> str:
    """`gallery --format json` for the listing and for each golden member:
    one header line per run, then its stdout and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for args in [[]] + [[name] for name in GOLDEN_MEMBERS]:
            print(" ".join(["$ gallery", *args, "--format json"]))
            print(f"exit {cli.main(['gallery', *args, '--format', 'json'])}")
    return out.getvalue()


def test_gallery_members_match_golden():
    want = (GOLDEN / "gallery_members.txt").read_text(encoding="utf-8")
    assert gallery_transcript() == want


def test_finite_members_carry_their_natural_order():
    # the loaders pass no order on for a gallery member: is_orderable
    # returns the same one
    names = (["three-valued", "four-valued"] + [f"powerset:{k}" for k in range(5)]
             + [f"lang:1:{m}" for m in range(7)] + [f"lang:2:{m}" for m in range(3)]
             + [f"lang:3:{m}" for m in range(2)])
    for name in names:
        member = gallery_semiring(name)
        assert member.base.n <= 128
        orderable, natural = is_orderable(member.base)
        assert orderable and member.order.rel == natural.rel, name
