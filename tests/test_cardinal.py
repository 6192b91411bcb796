import itertools

import pytest
from hypothesis import given, settings, strategies as st

from semirings.cardinal import (ALEPH0, CardinalFamily, FIN0, FIN1,
                                MissingOrderError, OmegaSequence,
                                SigmaSemiring, UNCOUNTABLE, card_add, card_mul,
                                characteristic_cardinality, check_sigma_axioms,
                                eventually_constant_sum, family_battery,
                                family_sup, fin, finite_subsums, is_d_complete,
                                is_finitary, nfold, omega_sequence_battery,
                                parse_cardinal, sup_in_order)
from semirings.completion import completion_of_finite
from semirings.core import PartialOrder
from semirings.gallery import (NINF_INF, adjoin_infinity, boolean, four_valued,
                               nat_infinity, ninf, omega_fin,
                               omega_plus_reverse, powerset_semiring,
                               three_valued)

cardinals = st.one_of(
    st.integers(min_value=0, max_value=20).map(fin),
    st.just(ALEPH0),
    st.just(UNCOUNTABLE),
)


def test_card_arith_examples():
    assert card_add(fin(2), fin(3)) == fin(5)
    assert card_add(fin(7), ALEPH0) == ALEPH0
    assert card_mul(ALEPH0, UNCOUNTABLE) == UNCOUNTABLE
    assert card_mul(FIN0, UNCOUNTABLE) == FIN0
    assert card_mul(fin(3), ALEPH0) == ALEPH0


@given(cardinals, cardinals)
@settings(max_examples=60, deadline=None)
def test_card_add_commutes(x, y):
    assert card_add(x, y) == card_add(y, x)


@given(cardinals, cardinals, cardinals)
@settings(max_examples=60, deadline=None)
def test_card_ops_associative(x, y, z):
    assert card_add(card_add(x, y), z) == card_add(x, card_add(y, z))
    assert card_mul(card_mul(x, y), z) == card_mul(x, card_mul(y, z))


def test_cardinal_order_and_labels():
    assert fin(3) < fin(4) < ALEPH0 < UNCOUNTABLE
    for c in (fin(0), fin(9), ALEPH0, UNCOUNTABLE):
        assert parse_cardinal(c.label()) == c


def test_family_drops_zero_multiplicities():
    f = CardinalFamily({1: FIN0, 2: fin(2)})
    assert f.keys() == [2]
    assert f.get(1) == FIN0


def test_family_is_canonical_under_insertion_order_and_merging():
    entries = [(ninf(3), fin(1)), (NINF_INF, ALEPH0), (ninf(3), fin(2)),
               (ninf(0), UNCOUNTABLE), (ninf(1), FIN0)]
    merged = CardinalFamily({ninf(0): UNCOUNTABLE, ninf(3): fin(3), NINF_INF: ALEPH0})
    for order in itertools.permutations(entries):
        f = CardinalFamily(order)
        assert f == merged and hash(f) == hash(merged)
        assert f.items() == merged.items()
        assert list(f.items()) == [(ninf(0), UNCOUNTABLE), (ninf(3), fin(3)),
                                   (NINF_INF, ALEPH0)]
    assert merged.keys() == [ninf(0), ninf(3), NINF_INF]


@given(st.lists(st.integers(min_value=0, max_value=4), max_size=9),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_from_sequence_invariant_under_permutation(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert CardinalFamily.from_sequence(values) == CardinalFamily.from_sequence(shuffled)


def test_omega_sequence_family():
    seq = OmegaSequence((5, 5, 3), (2, 7))
    f = seq.family()
    assert f.get(5) == fin(2)
    assert f.get(3) == FIN1
    assert f.get(2) == ALEPH0 and f.get(7) == ALEPH0
    assert seq.term(0) == 5 and seq.term(3) == 2 and seq.term(4) == 7 and seq.term(5) == 2


def test_nfold_matches_repeated_addition():
    s = nat_infinity()
    for k in range(0, 9):
        acc = s.zero
        for _ in range(k):
            acc = s.plus(acc, ninf(3))
        assert nfold(s.plus, s.zero, ninf(3), k) == acc


# -- sigma -------------------------------------------------------------------

def test_sigma_examples_nat_infinity():
    c = nat_infinity()
    assert c.sigma(CardinalFamily({ninf(1): fin(3)})) == ninf(3)
    assert c.sigma(CardinalFamily({ninf(1): ALEPH0})) == NINF_INF
    assert c.sigma(CardinalFamily({ninf(2): fin(3)})) == ninf(6)


def test_sigma_four_valued_uncountable():
    c = four_valued()
    unc = c.base.index_of("uncountable")
    assert c.sigma(CardinalFamily({c.one: UNCOUNTABLE})) == unc


def test_sigma_key_outside_carrier():
    c = nat_infinity()
    with pytest.raises(Exception):
        c.sigma(CardinalFamily({"nope": FIN1}))


def test_sigma_empty_and_singleton():
    for c in (nat_infinity(), three_valued(), four_valued(), powerset_semiring("ab")):
        assert c.sigma(CardinalFamily()) == c.zero
        for v in c.sample(5):
            assert c.sigma(CardinalFamily({v: FIN1})) == v


# -- finite subsums: brute-force oracle --------------------------------------

def brute_subsums(c, f, cap=6):
    """Enumerate every pick vector g <= f directly and fold it."""
    keys = [v for v, _ in f.items()]
    limits = [m.n if m.is_finite else cap for _, m in f.items()]
    out = set()
    for picks in itertools.product(*(range(l + 1) for l in limits)):
        acc = c.zero
        for v, k in zip(keys, picks):
            for _ in range(k):
                acc = c.plus(acc, v)
        out.add(acc)
    return out


def test_subsums_match_brute_force_on_finite_carriers():
    members = [four_valued(), three_valued(), powerset_semiring("ab"),
               adjoin_infinity(boolean())]
    fams = [
        CardinalFamily({1: fin(3)}),
        CardinalFamily({1: FIN1, 2: fin(2)}),
        CardinalFamily({2: fin(4)}),
    ]
    for c in members:
        for f in fams:
            got = finite_subsums(c, f)
            assert not got.unbounded_fin
            assert got.values == frozenset(brute_subsums(c, f))


def test_subsums_with_infinite_multiplicity_match_saturated_brute_force():
    c = four_valued()
    f = CardinalFamily({c.one: UNCOUNTABLE})
    got = finite_subsums(c, f)
    # closure over the 4-element add table: only 0 and "finite" are reachable
    assert got.values == frozenset({0, 1})
    assert got.values == frozenset(brute_subsums(c, f))


def test_subsums_boolean():
    comp = completion_of_finite(boolean()).semiring
    assert finite_subsums(comp, CardinalFamily({1: FIN1})).values == frozenset({0, 1})


def test_subsums_unbounded_flag_on_naturals():
    c = nat_infinity()
    ss = finite_subsums(c, CardinalFamily({ninf(1): ALEPH0}))
    assert ss.unbounded_fin
    for k in range(10):
        assert ninf(k) in ss.values


# -- suprema ------------------------------------------------------------------

def test_sup_chain():
    chain = PartialOrder(tuple(tuple(i <= j for j in range(3)) for i in range(3)))
    assert sup_in_order(chain, {0, 1, 2}).status == "exists"
    assert sup_in_order(chain, {0, 1, 2}).value == 2


def test_sup_antichain_without_bound():
    antichain = PartialOrder(tuple(tuple(i == j for j in range(2)) for i in range(2)))
    assert sup_in_order(antichain, {0, 1}).status == "no-upper-bound"


def test_sup_upper_bounds_without_least():
    # 0,1 below both 2 and 3, which are incomparable
    rel = [[i == j for j in range(4)] for i in range(4)]
    for lo in (0, 1):
        for hi in (2, 3):
            rel[lo][hi] = True
    o = PartialOrder(tuple(tuple(r) for r in rel))
    assert sup_in_order(o, {0, 1}).status == "no-least"


def test_symbolic_sup_of_growing_chain():
    c = nat_infinity()
    ss = finite_subsums(c, CardinalFamily({ninf(1): ALEPH0}))
    assert family_sup(c, ss).value == NINF_INF
    o = omega_plus_reverse()
    ss = finite_subsums(o, CardinalFamily({omega_fin(1): ALEPH0}))
    assert family_sup(o, ss).status == "no-least"


# -- d-completeness -----------------------------------------------------------

def test_constant_after_prefix_sequence():
    c = nat_infinity()
    seq = OmegaSequence((ninf(5),), (ninf(0),))
    assert eventually_constant_sum(c, seq) == ninf(5)
    ok, _ = is_d_complete(c, [seq])
    assert ok


def test_growing_sequence_has_no_constant():
    c = nat_infinity()
    assert eventually_constant_sum(c, OmegaSequence((), (ninf(1),))) is None


def test_three_valued_not_d_complete():
    c = three_valued()
    finite = c.base.index_of("finite")
    ok, witness = is_d_complete(c, [OmegaSequence((), (finite,))])
    assert not ok
    assert witness.constant == finite
    assert witness.sigma_value == c.base.index_of("infinite")


def test_four_valued_d_complete_battery():
    c = four_valued()
    ok, witness = is_d_complete(c, omega_sequence_battery(c, seed=5, count=150))
    assert ok, witness


# -- finitary ------------------------------------------------------------------

def test_powerset_finitary():
    c = powerset_semiring("abc")
    ok, _ = is_finitary(c, family_battery(c, seed=2, count=120))
    assert ok


def test_four_valued_not_finitary_with_expected_witness():
    c = four_valued()
    ok, witness = is_finitary(c, [CardinalFamily({c.one: UNCOUNTABLE})])
    assert not ok
    assert witness.reason == "sup-differs"
    assert witness.sup_value == c.base.index_of("finite")
    assert witness.sigma_value == c.base.index_of("uncountable")


def test_omega_minus_not_finitary_sup_missing():
    c = omega_plus_reverse()
    ok, witness = is_finitary(c, [CardinalFamily({omega_fin(1): ALEPH0})])
    assert not ok
    assert witness.reason == "sup-missing"


def test_finitary_needs_order():
    from semirings.cardinal import SigmaSemiring
    b = boolean()
    c = SigmaSemiring.from_finite(
        "unordered", b,
        lambda f: 1 if any(v != 0 for v, _ in f.items()) else 0, None)
    with pytest.raises(MissingOrderError):
        is_finitary(c, [CardinalFamily()])


# -- the axiom battery ---------------------------------------------------------

def test_sigma_axioms_nat_infinity_thousand_families():
    rep = check_sigma_axioms(nat_infinity(), seed=11, families=1000)
    assert rep.passed


def test_sigma_axioms_powerset():
    rep = check_sigma_axioms(powerset_semiring("abc"), seed=3, families=300)
    assert rep.passed


def test_sigma_axioms_three_valued_complete():
    rep = check_sigma_axioms(three_valued(), seed=3, families=300)
    assert rep.passed


def test_sigma_axioms_keep_first_witness_per_law():
    # a deliberately wrong Sigma: any infinite multiplicity sums to the top
    base = powerset_semiring("ab")

    def sigma(f):
        mask = 0
        for v, m in f.items():
            if not m.is_finite:
                return 3
            mask |= v
        return mask

    wrong = SigmaSemiring.from_finite("wrong", base.base, sigma, base.order)
    rep = check_sigma_axioms(wrong, seed=5, families=80)
    family = CardinalFamily({1: fin(4), 3: ALEPH0})
    assert rep.violations == (
        ("sigma-distributivity-left", (1, family, 1, 3)),
        ("sigma-distributivity-right", (1, family, 1, 3)),
        ("sigma-zero", (ALEPH0, 3)),
    )


def test_battery_config_validation():
    for families in (0, -1):
        with pytest.raises(ValueError):
            check_sigma_axioms(nat_infinity(), seed=0, families=families)


# -- characteristic cardinality --------------------------------------------------

def test_characteristic_nat_infinity():
    lam = characteristic_cardinality(nat_infinity())
    assert lam.lambda1 == ALEPH0
    assert lam.lambdaS == ALEPH0


def test_characteristic_four_valued():
    lam = characteristic_cardinality(four_valued())
    assert lam.lambda1 == UNCOUNTABLE


def test_characteristic_boolean_completion():
    comp = completion_of_finite(boolean()).semiring
    lam = characteristic_cardinality(comp)
    assert lam.lambda1 == FIN1
    assert not lam.caveat


def test_characteristic_omega_minus():
    lam = characteristic_cardinality(omega_plus_reverse())
    assert lam.lambda1 == ALEPH0


# -- JSON interfaces ------------------------------------------------------------

def test_family_json_roundtrip():
    from semirings.cardinal import family_from_json, family_to_json
    c = four_valued()
    f = CardinalFamily({c.base.index_of("finite"): fin(3),
                        c.base.index_of("countable"): ALEPH0})
    text = family_to_json(c, f)
    assert text == '{"family": {"countable": "aleph0", "finite": "fin:3"}}'
    assert family_from_json(c, text) == f
    ninf_c = nat_infinity()
    f2 = family_from_json(ninf_c, '{"family": {"2": "fin:3", "inf": "fin:1"}}')
    assert f2.get(ninf(2)) == fin(3)


def test_family_json_errors():
    from semirings.cardinal import family_from_json
    from semirings.core import StructureError
    c = four_valued()
    for bad in ("{oops", "[]", '{"family": {"finite": "lots"}}',
                '{"family": {"nope": "fin:1"}}'):
        with pytest.raises(StructureError):
            family_from_json(c, bad)


def test_omega_sequence_json():
    from semirings.cardinal import omega_sequence_from_json
    c = three_valued()
    seq = omega_sequence_from_json(
        c, '{"prefix": ["0"], "cycle": ["finite", "infinite"]}')
    assert seq.prefix == (0,)
    assert seq.cycle == (c.base.index_of("finite"), c.base.index_of("infinite"))
