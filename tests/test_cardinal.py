import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from semirings.cardinal import (ALEPH0, Cardinal, CardinalFamily, FIN0, FIN1,
                                CharacteristicCardinality, MissingOrderError,
                                OmegaSequence, SigmaSemiring, SupResult,
                                UNCOUNTABLE, _multiples,
                                card_add, card_mul, card_sum,
                                characteristic_cardinality, check_sigma_axioms,
                                eventually_constant_sum, family_battery,
                                family_sup, fin, finite_subsums, is_d_complete,
                                is_finitary, nfold, omega_sequence_battery,
                                parse_cardinal, sup_in_order)
from semirings.completion import completion_of_finite, completion_semiring
from semirings.core import (FiniteSemiring, InternalConsistencyError, PartialOrder,
                            all_partial_orders,
                            enumerate_semirings, is_orderable, is_zero_sum_free)
from semirings.gallery import (NINF_INF, OMEGA_INF, adjoin_infinity, boolean,
                               four_valued, gallery_semiring, language_semiring, nat_desk,
                               nat_infinity, ninf, omega_fin, omega_inf_minus,
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


def _family_items_oracle(mult):
    """The family constructor before the fin:0 test and the sort key were
    made cheaper."""
    items = mult.items() if hasattr(mult, "items") else mult
    d = {}
    for v, c in items:
        if not isinstance(c, Cardinal):
            raise TypeError(f"multiplicity must be a Cardinal, got {c!r}")
        if c == FIN0:
            continue
        d[v] = card_add(d[v], c) if v in d else c
    return tuple(sorted(d.items(), key=lambda kv: kv[0]))


def test_family_constructor_matches_the_oracle():
    rng = random.Random(6)
    # Cardinal(0) is a fresh fin:0, not the FIN0 singleton
    mults = [Cardinal(0), Cardinal(0, 0), fin(0), fin(1), fin(2), fin(3),
             Cardinal(1), ALEPH0, Cardinal(2), UNCOUNTABLE]
    for _ in range(2000):
        pairs = [(rng.randrange(5), rng.choice(mults))
                 for _ in range(rng.randrange(8))]
        assert CardinalFamily(pairs).items() == _family_items_oracle(pairs)
        assert CardinalFamily(dict(pairs)).items() == _family_items_oracle(dict(pairs))
    for bad in (2, "fin:1"):
        with pytest.raises(TypeError):
            CardinalFamily([(0, FIN1), (1, bad)])
        with pytest.raises(TypeError):
            _family_items_oracle([(0, FIN1), (1, bad)])


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


def test_subsums_refuse_symbolic_carriers():
    for c, v in ((nat_infinity(), ninf(1)), (omega_plus_reverse(), omega_fin(2))):
        for m in (fin(3), ALEPH0):
            with pytest.raises(ValueError, match="finite carriers only"):
                finite_subsums(c, CardinalFamily({v: m}))


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


def _sup_scan(o, xs):
    """sup_in_order as it was written before the up-set masks: list the
    upper bounds, then scan them for one below all the others.  Kept as
    the oracle for the mask version."""
    xs = list(xs)
    ubs = [u for u in range(o.n) if all(o.leq(x, u) for x in xs)]
    if not ubs:
        return SupResult("no-upper-bound")
    for u in ubs:
        if all(o.leq(u, w) for w in ubs):
            return SupResult("exists", u)
    return SupResult("no-least")


def test_sup_matches_the_list_scan_on_every_subset_of_small_posets():
    cases = 0
    for n in range(1, 5):
        for o in all_partial_orders(n):
            for mask in range(1 << n):
                xs = {x for x in range(n) if mask >> x & 1}
                assert sup_in_order(o, xs) == _sup_scan(o, xs), (o, xs)
                cases += 1
    assert cases == 3670


def test_sup_matches_the_list_scan_on_lang_2_2():
    o = gallery_semiring("lang:2:2").order
    assert o.up_masks[0] == (1 << o.n) - 1  # the empty word is least
    rng = random.Random(17)
    for _ in range(400):
        xs = rng.sample(range(o.n), rng.randrange(0, 7))
        assert sup_in_order(o, xs) == _sup_scan(o, xs), xs


def test_symbolic_sup_of_growing_chain():
    c = nat_infinity()
    assert family_sup(c, CardinalFamily({ninf(1): ALEPH0})).value == NINF_INF
    assert family_sup(c, CardinalFamily({ninf(2): fin(3), ninf(0): ALEPH0})).value == ninf(6)
    o = omega_plus_reverse()
    assert family_sup(o, CardinalFamily({omega_fin(1): ALEPH0})).status == "no-least"
    f = CardinalFamily({omega_fin(1): ALEPH0, omega_inf_minus(3): FIN1})
    assert family_sup(o, f) == SupResult("exists", OMEGA_INF)
    f = CardinalFamily({omega_fin(1): fin(2), omega_inf_minus(3): FIN1})
    assert family_sup(o, f) == SupResult("exists", omega_inf_minus(1))


def test_an_undeclared_unbounded_orbit_is_an_internal_error():
    c = nat_infinity()
    c.multiples_unbounded = lambda v: False  # a lie: 1, 2, 3, ... never repeat
    plus, steps = c.plus, []

    def counting_plus(a, b):
        steps.append((a, b))
        return plus(a, b)

    c.plus = counting_plus
    with pytest.raises(InternalConsistencyError, match="was not declared"):
        family_sup(c, CardinalFamily({ninf(1): ALEPH0}))
    assert len(steps) == c.carrier_bound + 1


def test_symbolic_multiples_that_do_not_climb_are_an_internal_error():
    # the reversed order puts 2 below 1, so the doubling chain steps down
    c = nat_infinity()
    c._leq = lambda a, b: b <= a
    with pytest.raises(InternalConsistencyError, match="do not climb"):
        family_sup(c, CardinalFamily({ninf(1): fin(5)}))


_NINF_KEYS = st.one_of(st.integers(0, 10**6).map(ninf), st.just(NINF_INF))
_OMEGA_KEYS = st.one_of(st.integers(0, 10**6).map(omega_fin),
                        st.integers(1, 10**6).map(omega_inf_minus), st.just(OMEGA_INF))
_HUGE_MULTS = st.integers(1, 10**12).map(fin)


@pytest.mark.parametrize("make, keys", [(nat_infinity, _NINF_KEYS),
                                        (omega_plus_reverse, _OMEGA_KEYS)],
                         ids=["nat-infinity", "omega-minus"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_huge_finite_multiplicities_have_sup_equal_to_sigma(make, keys, data):
    mult = data.draw(st.dictionaries(keys, _HUGE_MULTS, max_size=4))
    c, f = make(), CardinalFamily(mult)
    assert family_sup(c, f) == SupResult("exists", c.sigma(f))
    if c.name == "nat-infinity":
        expected = (NINF_INF if any(v.rank for v in mult)
                    else ninf(sum(v.n * m.n for v, m in mult.items())))
        assert c.sigma(f) == expected


_WINDOW = 24
_DOMINATES_ALL_FIN = {"nat-infinity": lambda v: v.rank == 1,
                      "omega-minus": lambda v: v.rank >= 1}


def _windowed_multiples(c, v, m):
    """({k*v : k <= m}, unbounded): a multiple set that grows forever is cut
    to its first _WINDOW + 1 members and marked unbounded."""
    unbounded = not m.is_finite and c.multiples_unbounded(v)
    limit = m.n if m.is_finite else (_WINDOW if unbounded else 1000)
    vals, cur = {c.zero}, c.zero
    for _ in range(limit):
        cur = c.plus(cur, v)
        if cur in vals:
            return vals, False
        vals.add(cur)
    return vals, unbounded


def windowed_family_sup(c, f):
    """The symbolic sup rule that crossed windowed multiple sets, kept as the
    oracle for family_sup: the cross sum adds fin_chain_plus(b) for every b
    met by an unbounded side, and the sup is read back through a per-carrier
    test for "dominates every finite element"."""
    vals, unb = {c.zero}, False
    for v, m in f.items():
        mv, mu = _windowed_multiples(c, v, m)
        new = {c.plus(a, b) for a in vals for b in mv}
        side_unb = unb and mu
        for flag, other in ((unb, mv), (mu, vals)):
            if flag:
                for b in other:
                    e = c.fin_chain_plus(b)
                    if e is None:
                        side_unb = True
                    else:
                        new.add(e)
        vals, unb = new, side_unb
    mx = max(vals)
    assert all(c.leq(v, mx) for v in vals)
    if not unb or _DOMINATES_ALL_FIN[c.name](mx):
        return SupResult("exists", mx)
    if c.fin_chain_sup is None:
        return SupResult("no-least")
    return SupResult("exists", c.fin_chain_sup)


_SUP_MULTS = [fin(k) for k in range(5)] + [ALEPH0, UNCOUNTABLE]


@pytest.mark.parametrize("make", [nat_infinity, omega_plus_reverse])
def test_family_sup_matches_the_windowed_oracle(make):
    c = make()
    sample = c.sample(8)
    fams = family_battery(c, 1, 500)
    for k in (1, 2):
        for keys in itertools.combinations(sample, k):
            for mults in itertools.product(_SUP_MULTS, repeat=k):
                fams.append(CardinalFamily(zip(keys, mults)))
    rng = random.Random(7)
    for _ in range(600):
        keys = rng.sample(sample, 3)
        fams.append(CardinalFamily({v: rng.choice(_SUP_MULTS) for v in keys}))
    for f in fams:
        assert family_sup(c, f) == windowed_family_sup(c, f), f


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


def test_constant_sum_walks_a_long_cycle_without_copying_it():
    # the horizon is 34 cycles on a symbolic carrier; a copy of them would
    # hold 68,000 references (544 kB) before the first addition
    seq = OmegaSequence((), (ninf(1),) * 2_000)
    tracemalloc.start()
    try:
        assert eventually_constant_sum(nat_infinity(), seq) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def _constant_sum_full_horizon(c, seq):
    """eventually_constant_sum as it was written before the early stop:
    every partial sum up to the horizon, then the constant tail.  Kept as
    the oracle for the early-stopping walk."""
    cyc = len(seq.cycle)
    horizon = len(seq.prefix) + (c.carrier_bound + 2) * cyc
    terms = itertools.chain(seq.prefix, itertools.cycle(seq.cycle))
    partials = []
    acc = c.zero
    for a in itertools.islice(terms, horizon):
        acc = c.plus(acc, a)
        partials.append(acc)
    tail = partials[-1]
    run = 0
    for p in reversed(partials):
        if p != tail:
            break
        run += 1
    return tail if run >= cyc + 1 else None


def _identity_zero_tables(n):
    """Every addition table on {0..n-1} with 0 as its identity; the walk
    reads nothing else, so the other laws need not hold."""
    for cells in itertools.product(range(n), repeat=(n - 1) ** 2):
        rest = iter(cells)
        yield [list(range(n))] + [[i] + [next(rest) for _ in range(1, n)]
                                  for i in range(1, n)]


def test_constant_sum_matches_the_full_horizon_on_every_small_table():
    seen = Counter()
    for n in (1, 2, 3):
        elems = range(n)
        cycles = [cyc for k in (1, 2, 3, 4) for cyc in itertools.product(elems, repeat=k)]
        prefixes = [()] + [(v,) for v in elems]
        for add in _identity_zero_tables(n):
            base = FiniteSemiring.from_tables([str(i) for i in elems], 0, 0, add, add)
            c = SigmaSemiring.from_finite("t", base, sigma_fn=None)
            for prefix in prefixes:
                for cyc in cycles:
                    seq = OmegaSequence(prefix, cyc)
                    want = _constant_sum_full_horizon(c, seq)
                    assert eventually_constant_sum(c, seq) == want, (add, seq)
                    seen[want is None] += 1
    assert seen[True] and seen[False]


SIGMA_GALLERY = ("boolean", "nat-infinity", "three-valued", "four-valued", "omega-minus",
                 "powerset:2", "powerset:3", "powerset:4", "lang:1:2", "lang:2:2")


@pytest.mark.parametrize("name", SIGMA_GALLERY)
def test_constant_sum_matches_the_full_horizon_on_the_gallery(name):
    c = gallery_semiring(name)
    if isinstance(c, FiniteSemiring):  # as the CLI reads it: its completion
        c = completion_semiring(c)
    sample = c.sample(10)
    rng = random.Random(name)
    seen = Counter()
    for _ in range(150):
        seq = OmegaSequence(tuple(rng.choices(sample, k=rng.randrange(4))),
                            tuple(rng.choices(sample, k=rng.randrange(1, 5))))
        want = _constant_sum_full_horizon(c, seq)
        assert eventually_constant_sum(c, seq) == want, seq
        seen[want is None] += 1
    assert seen[False]


def test_constant_sum_horizon_is_carrier_bound_plus_two_cycles():
    # inf-k + 1 + 1 + ... reaches inf after k steps and needs one more to
    # show it constant: k + 1 additions fit in 34 cycles of length one
    c = omega_plus_reverse()
    for k, want in ((33, OMEGA_INF), (34, None)):
        seq = OmegaSequence((omega_inf_minus(k),), (omega_fin(1),))
        assert eventually_constant_sum(c, seq) == want
        assert _constant_sum_full_horizon(c, seq) == want


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
    # ordered, but symbolic without the chain hooks the sup rule reads
    n = nat_infinity()
    chainless = SigmaSemiring("chainless", zero=n.zero, one=n.one, plus=n.plus,
                              times=n.times, sigma_fn=n.sigma, leq=n.leq,
                              sample=n.sample, contains=n.contains)
    with pytest.raises(MissingOrderError, match="chainless declares no chain structure"):
        is_finitary(chainless, family_battery(chainless, 0, 20))


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


def test_battery_sums_each_distinct_family_once(monkeypatch):
    calls = Counter()
    real = SigmaSemiring.sigma

    def spy(self, f):
        calls[f] += 1
        return real(self, f)

    monkeypatch.setattr(SigmaSemiring, "sigma", spy)
    for c in (nat_infinity(), powerset_semiring("ab"), adjoin_infinity(boolean())):
        calls.clear()
        assert check_sigma_axioms(c, seed=4, families=120).passed
        assert calls and set(calls.values()) == {1}


def test_battery_still_cross_checks_the_fold():
    # Sigma disagrees with the finite fold on the pair family {1, 1} only
    s = boolean()
    _, o = is_orderable(s)
    pair = CardinalFamily({s.one: fin(2)})

    def planted(f):
        return s.one if s.one in f.keys() and f != pair else s.zero

    c = SigmaSemiring.from_finite("planted", s, planted, o)
    with pytest.raises(InternalConsistencyError, match="disagrees with the finite fold"):
        check_sigma_axioms(c, seed=0, families=10)


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


def test_characteristic_omega_minus():
    lam = characteristic_cardinality(omega_plus_reverse())
    assert lam.lambda1 == ALEPH0


def test_characteristic_lambda1_past_three_steps():
    # on {0..k} saturating at k, Sigma of k, k + 1 and aleph0 ones is k, and
    # the family {1: k} needs all k of its copies
    for k in range(4, 8):
        c = completion_semiring(nat_desk(k))
        assert characteristic_cardinality(c) == CharacteristicCardinality(fin(k), fin(k))


def _characteristic_oracle(c):
    """The scan as it was written over Cardinal values: every subfamily of
    every family over one or two sample keys, sized with card_sum.  Kept as
    the oracle for the scan on ladder positions."""
    ladder = [fin(k) for k in range(4)] + [ALEPH0, UNCOUNTABLE]
    ones = [c.sigma(CardinalFamily({c.one: k})) for k in ladder]
    i = len(ones) - 1
    while i > 0 and ones[i - 1] == ones[-1]:
        i -= 1
    lambda1 = ladder[i]

    def subfamilies(mults):
        per_key = []
        for m in mults:
            opts = [fin(j) for j in range(min(m.n, 3) + 1 if m.is_finite else 4)]
            opts += [k for k in (ALEPH0, UNCOUNTABLE) if k <= m]
            per_key.append(opts)
        return itertools.product(*per_key)

    def sigma(support, mults):
        return c.sigma(CardinalFamily(zip(support, mults)))

    sample = c.sample(6)
    supports = [(v,) for v in sample]
    supports += [(u, v) for i, u in enumerate(sample) for v in sample[i + 1:]]
    worst = FIN0
    for support in supports:
        for mults in itertools.product(ladder[1:], repeat=len(support)):
            target = sigma(support, mults)
            best = min(card_sum(sub) for sub in subfamilies(mults)
                       if sigma(support, sub) == target)
            worst = max(worst, best)
    return CharacteristicCardinality(lambda1, worst)


def _small_tables():
    return [s for n in (1, 2, 3) for s in enumerate_semirings(n)]


def _oracle_carriers():
    gallery = [nat_infinity(), powerset_semiring("abc"), language_semiring("a", 2),
               three_valued(), four_valued(), omega_plus_reverse(),
               adjoin_infinity(boolean())]
    adjoined = [adjoin_infinity(s) for s in _small_tables() if is_zero_sum_free(s)[0]]
    completed = [completion_semiring(s) for s in _small_tables() if is_orderable(s)[0]]
    assert (len(gallery), len(adjoined), len(completed)) == (7, 7, 6)
    return gallery + adjoined + completed


def test_characteristic_scan_matches_the_cardinal_oracle():
    for c in _oracle_carriers():
        assert characteristic_cardinality(c) == _characteristic_oracle(c), c.name


def test_characteristic_scan_matches_the_oracle_on_tables_of_size_four():
    # with the test above, every completion and infinity adjunction of the
    # tables of size <= 4; the oracle's fixed ladder stops at fin:3, which
    # is exact while every orbit of multiples reaches its last new value
    # within three steps
    tables = list(enumerate_semirings(4))
    carriers = ([completion_semiring(s) for s in tables if is_orderable(s)[0]]
                + [adjoin_infinity(s) for s in tables if is_zero_sum_free(s)[0]])
    assert len(carriers) == 124
    for c in carriers:
        assert max(len(_multiples(c, v, ALEPH0)) - 2
                   for v in (c.one, *c.sample(6))) <= 3, c.name
        assert characteristic_cardinality(c) == _characteristic_oracle(c), c.name


def _capped_pairs():
    """Pairs over {0..3} with coordinatewise saturating addition, sampled
    at (1, 0) and (0, 1): Sigma of three copies of each is (3, 3), which no
    smaller subfamily reaches, and every infinite family sums like three
    copies.  So the worst case is the finite size 6."""
    def plus(x, y):
        return (min(x[0] + y[0], 3), min(x[1] + y[1], 3))

    def sigma(f):
        acc = (0, 0)
        for v, m in f.items():
            k = m.n if m.is_finite else 3
            acc = plus(acc, (min(v[0] * k, 3), min(v[1] * k, 3)))
        return acc

    return SigmaSemiring(
        "capped-pairs", zero=(0, 0), one=(1, 1), plus=plus,
        times=lambda x, y: (min(x[0] * y[0], 3), min(x[1] * y[1], 3)),
        sigma_fn=sigma, sample=lambda k: [(1, 0), (0, 1)],
        contains=lambda v: v in {(i, j) for i in range(4) for j in range(4)})


def test_characteristic_worst_case_of_finite_size_six():
    c = _capped_pairs()
    lam = characteristic_cardinality(c)
    assert lam == CharacteristicCardinality(fin(3), fin(6))
    assert lam == _characteristic_oracle(c)


def test_characteristic_planted_sigma_breaks_the_lambda_bound():
    # infinitely many zeros summing to one: the family {0: aleph0} needs
    # all of its aleph0 copies, above max(lambda1, carrier size) = fin:2
    s = boolean()
    _, o = is_orderable(s)

    def planted(f):
        return s.one if f.keys() and (s.one in f.keys() or not f.all_finite()) else s.zero

    c = SigmaSemiring.from_finite("planted", s, planted, o)
    with pytest.raises(InternalConsistencyError, match="lambdaS bound violated"):
        characteristic_cardinality(c)


# -- JSON interfaces ------------------------------------------------------------

def test_family_json_roundtrip():
    from semirings.cardinal import family_from_json
    c = four_valued()
    f = CardinalFamily({c.base.index_of("finite"): fin(3),
                        c.base.index_of("countable"): ALEPH0})
    text = '{"family": {"countable": "aleph0", "finite": "fin:3"}}'
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
