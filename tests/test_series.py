import random

import pytest
from hypothesis import given, settings, strategies as st

from semirings.completion import lesssim
from semirings.core import enumerate_semirings, is_orderable
from semirings.gallery import (NINF_INF, NINF_ZERO, boolean, gallery_semiring,
                               ninf, ninf_add, three_valued, xor_semiring)
from semirings.series import (POLY_ONE, POLY_ZERO, Polynomial, TruncatedSeries,
                              count_below, embed_e, enumerate_below,
                              enumerate_below_series, evaluate_phi, phi_each,
                              poly_from_text, poly_to_text)


def pointwise_leq(x, y) -> bool:
    """The oracle for the natural order on polynomials and series:
    coefficientwise comparison, which coincides with it (some t with
    x + t = y) because coefficients live in an ordered chain."""
    if isinstance(x, Polynomial) and isinstance(y, TruncatedSeries):
        return all(ninf(c) <= y.get(w) for w, c in x.coeffs.items())
    if isinstance(x, (Polynomial, TruncatedSeries)) and type(x) is type(y):
        return all(c <= y.get(w) for w, c in x.coeffs.items())
    raise TypeError(f"cannot compare {type(x).__name__} with {type(y).__name__}")


def random_poly(rng, n, max_support=3, max_len=3, max_coeff=3):
    coeffs = {}
    for _ in range(rng.randrange(max_support + 1)):
        w = tuple(rng.randrange(n) for _ in range(rng.randrange(max_len + 1)))
        coeffs[w] = rng.randrange(1, max_coeff + 1)
    return Polynomial(coeffs)


# -- the free monoid of words -----------------------------------------------

@given(st.lists(st.integers(0, 3), max_size=5),
       st.lists(st.integers(0, 3), max_size=5),
       st.lists(st.integers(0, 3), max_size=5))
@settings(max_examples=40, deadline=None)
def test_word_concatenation_is_a_free_monoid(u, v, w):
    u, v, w = tuple(u), tuple(v), tuple(w)
    assert (u + v) + w == u + (v + w)
    assert u + () == () + u == u


# -- embedding and evaluation --------------------------------------------------

def test_embedding_of_zero_is_not_the_zero_polynomial():
    s = boolean()
    e0 = embed_e(s.zero)
    assert e0 != POLY_ZERO
    assert e0.get((s.zero,)) == 1


def test_embedding_injective_and_retracted_by_phi():
    s = three_valued().base
    seen = set()
    for a in range(s.n):
        p = embed_e(a)
        assert p not in seen
        seen.add(p)
        assert evaluate_phi(p, s) == a


def test_phi_of_zero_polynomial():
    assert evaluate_phi(POLY_ZERO, boolean()) == boolean().zero


def test_phi_direct_fold_second_evaluation_order():
    s = three_valued().base
    p = Polynomial({(1,): 2, (2, 1): 1})
    # oracle: fold the same monomials in the reverse support order
    expected = s.zero
    for w in reversed(p.support()):
        word_val = s.one
        for letter in w:
            word_val = s.times(word_val, letter)
        for _ in range(p.get(w)):
            expected = s.plus(expected, word_val)
    assert evaluate_phi(p, s) == expected
    assert expected == s.plus(s.plus(1, 1), s.times(2, 1))


def test_phi_is_a_homomorphism_on_seeded_pairs():
    s = three_valued().base
    rng = random.Random(9)
    for _ in range(120):
        p, q = random_poly(rng, s.n), random_poly(rng, s.n)
        assert evaluate_phi(p + q, s) == s.plus(evaluate_phi(p, s),
                                                evaluate_phi(q, s))
        assert evaluate_phi(p * q, s) == s.times(evaluate_phi(p, s),
                                                 evaluate_phi(q, s))


def test_phi_of_product_of_embeddings():
    s = three_valued().base
    for a in range(s.n):
        for b in range(s.n):
            assert evaluate_phi(embed_e(a) * embed_e(b), s) == s.times(a, b)


def test_phi_rejects_foreign_letters():
    with pytest.raises(ValueError):
        evaluate_phi(Polynomial({(7,): 1}), boolean())


def test_phi_monotone_under_coefficientwise_order():
    s = three_valued().base
    ok, order = is_orderable(s)
    assert ok
    rng = random.Random(13)
    for _ in range(150):
        p = random_poly(rng, s.n)
        t = random_poly(rng, s.n)
        q = p + t
        assert pointwise_leq(p, q)
        assert order.leq(evaluate_phi(p, s), evaluate_phi(q, s))


# -- polynomial ring laws --------------------------------------------------------

def test_unit_polynomial_is_identity():
    rng = random.Random(3)
    for _ in range(40):
        p = random_poly(rng, 3)
        assert p * POLY_ONE == p
        assert POLY_ONE * p == p
        assert p + POLY_ZERO == p


def test_distribution_over_support():
    p = Polynomial({(0,): 1, (1,): 1})
    q = Polynomial({(2,): 1})
    assert p * q == Polynomial({(0, 2): 1, (1, 2): 1})


def cauchy_coefficient_by_factorizations(p: Polynomial, q: Polynomial, w) -> int:
    """Direct sum over all factorizations w = uv; independent of the
    accumulation in the product implementation."""
    return sum(p.get(w[:i]) * q.get(w[i:]) for i in range(len(w) + 1))


def test_cauchy_product_matches_factorization_oracle():
    rng = random.Random(17)
    for _ in range(200):
        p, q = random_poly(rng, 3), random_poly(rng, 3)
        prod = p * q
        words = set(prod.coeffs)
        for u in p.coeffs:
            for v in q.coeffs:
                words.add(u + v)
        for w in words:
            assert prod.get(w) == cauchy_coefficient_by_factorizations(p, q, w)


def test_poly_associativity_on_seeded_triples():
    rng = random.Random(23)
    for _ in range(200):
        p = random_poly(rng, 3, max_support=4, max_len=3)
        q = random_poly(rng, 3, max_support=4, max_len=3)
        r = random_poly(rng, 3, max_support=4, max_len=3)
        assert (p * q) * r == p * (q * r)
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r


@given(st.lists(st.tuples(st.lists(st.integers(0, 2), max_size=2),
                          st.integers(1, 3)), max_size=3),
       st.lists(st.tuples(st.lists(st.integers(0, 2), max_size=2),
                          st.integers(1, 3)), max_size=3))
@settings(max_examples=60, deadline=None)
def test_poly_addition_commutes(items1, items2):
    p = Polynomial({tuple(w): c for w, c in items1})
    q = Polynomial({tuple(w): c for w, c in items2})
    assert p + q == q + p


# -- coefficientwise order --------------------------------------------------------

def test_enumerate_below_series_refuses_a_negative_cap():
    r = TruncatedSeries(1, {(1,): NINF_INF})
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        enumerate_below_series(r, -1)
    # cap 0 still gives the zero polynomial
    assert enumerate_below_series(r, 0) == [POLY_ZERO]


def test_enumerate_below_counts():
    p = Polynomial({(0,): 2})
    below = enumerate_below(p)
    assert len(below) == count_below(p) == 3
    assert POLY_ZERO in below and p in below
    q = Polynomial({(0,): 1, (1,): 1})
    assert len(enumerate_below(q)) == 4


def test_pointwise_leq_agrees_with_additive_solvability():
    rng = random.Random(31)
    for _ in range(500):
        p, q = random_poly(rng, 2), random_poly(rng, 2)
        # oracle: solve p + t = q coefficientwise over the naturals
        solvable = all(q.get(w) - p.get(w) >= 0 for w in p.coeffs)
        if solvable:
            t = Polynomial({w: q.get(w) - p.get(w)
                            for w in set(p.coeffs) | set(q.coeffs)
                            if q.get(w) - p.get(w) > 0})
            assert p + t == q
        assert pointwise_leq(p, q) == solvable


# -- truncated series --------------------------------------------------------------

def test_enumerate_below_series_caps_infinity():
    r = TruncatedSeries(1, {(): NINF_INF, (0,): ninf(1)})
    below = enumerate_below_series(r, cap=2)
    assert len(below) == 3 * 2
    assert all(p.get(()) <= 2 for p in below)


def random_series(rng, maxlen=2, alphabet=2):
    coeffs = {}
    for _ in range(rng.randrange(4)):
        w = tuple(rng.randrange(alphabet) for _ in range(rng.randrange(maxlen + 1)))
        coeffs[w] = rng.choice([ninf(0), ninf(1), ninf(2), ninf(3), NINF_INF])
    return TruncatedSeries(maxlen, coeffs)


def ninf_leq_by_definition(a, b) -> bool:
    # every natural lies below infinity, and infinity only below itself
    return b.rank == 1 or (a.rank == 0 and a.n <= b.n)


def test_pointwise_leq_on_series_is_coefficientwise():
    rng = random.Random(53)
    outcomes = set()
    for _ in range(400):
        x, y = random_series(rng), random_series(rng)
        p = random_poly(rng, 2, max_len=2)
        if rng.random() < 0.5:
            # raise y above x and p on every word either mentions
            words = set(x.coeffs) | set(p.coeffs)
            y = TruncatedSeries(2, {w: ninf_add(ninf_add(x.get(w), ninf(p.get(w))),
                                                y.get(w))
                                    for w in words | set(y.coeffs)})
        words = set(x.coeffs) | set(y.coeffs) | set(p.coeffs)
        series_leq = all(ninf_leq_by_definition(x.get(w), y.get(w)) for w in words)
        poly_leq = all(ninf_leq_by_definition(ninf(p.get(w)), y.get(w)) for w in words)
        assert pointwise_leq(x, y) == series_leq
        assert pointwise_leq(p, y) == poly_leq
        outcomes.add((series_leq, poly_leq))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_truncated_series_constructor():
    with pytest.raises(ValueError, match="maxlen must be nonnegative"):
        TruncatedSeries(-1)
    with pytest.raises(ValueError, match="exceeds maxlen 1"):
        TruncatedSeries(1, {(0, 1): ninf(1)})
    with pytest.raises(TypeError, match="must be an NInfElement"):
        TruncatedSeries(1, {(0,): 2})
    r = TruncatedSeries(2, [((0,), NINF_ZERO), ([1], ninf(2)), ((1,), ninf(3)),
                            ((), ninf(1)), ((), NINF_INF)])
    assert r.maxlen == 2
    assert r.coeffs == {(1,): ninf(5), (): NINF_INF}
    assert r.get((0,)) == NINF_ZERO
    assert repr(r) == "Series(maxlen=2; inf*[] + 5*[1])"


def test_enumeration_order_is_lexicographic_over_the_shortlex_support():
    # the order the congruence check scans in; its first failing polynomial
    # is the reported witness
    p = Polynomial({(1,): 2, (): 1, (0, 1): 1})
    assert [repr(x) for x in enumerate_below(p)] == [
        "Poly(0)", "Poly(1*[0, 1])", "Poly(1*[1])", "Poly(1*[1] + 1*[0, 1])",
        "Poly(2*[1])", "Poly(2*[1] + 1*[0, 1])", "Poly(1*[])",
        "Poly(1*[] + 1*[0, 1])", "Poly(1*[] + 1*[1])",
        "Poly(1*[] + 1*[1] + 1*[0, 1])", "Poly(1*[] + 2*[1])",
        "Poly(1*[] + 2*[1] + 1*[0, 1])"]
    r = TruncatedSeries(2, {(1,): NINF_INF, (): ninf(1), (0,): ninf(5)})
    assert [repr(x) for x in enumerate_below_series(r, 2)] == [
        "Poly(0)", "Poly(1*[1])", "Poly(2*[1])", "Poly(1*[0])",
        "Poly(1*[0] + 1*[1])", "Poly(1*[0] + 2*[1])", "Poly(2*[0])",
        "Poly(2*[0] + 1*[1])", "Poly(2*[0] + 2*[1])", "Poly(1*[])",
        "Poly(1*[] + 1*[1])", "Poly(1*[] + 2*[1])", "Poly(1*[] + 1*[0])",
        "Poly(1*[] + 1*[0] + 1*[1])", "Poly(1*[] + 1*[0] + 2*[1])",
        "Poly(1*[] + 2*[0])", "Poly(1*[] + 2*[0] + 1*[1])",
        "Poly(1*[] + 2*[0] + 2*[1])"]


def test_lesssim_witness_is_the_first_failing_polynomial():
    s = three_valued().base
    _, o = is_orderable(s)
    one_finite = Polynomial({(1,): 1})
    half = lesssim(Polynomial({(1,): 2, (): 1, (2, 1): 1}), one_finite, s, o)
    assert half.holds is False and half.witness == Polynomial({(2, 1): 1})
    r = TruncatedSeries(1, {(): ninf(1), (1,): NINF_INF, (2,): ninf(1)})
    half = lesssim(r, one_finite, s, o, cap=3)
    assert half.holds is False and half.witness == Polynomial({(2,): 1})


# -- the below-set kernel: per-call term table and unvalidated polynomials ---------

def _kernel_tables():
    """Every orderable table of size <= 3, powerset:2 and lang:1:2."""
    tables = [s for n in (1, 2, 3) for s in enumerate_semirings(n) if is_orderable(s)[0]]
    return tables + [gallery_semiring(name).base for name in ("powerset:2", "lang:1:2")]


def _kernel_sides(rng, s):
    """The below-lists of random polynomial sides (support <= 3, words of
    length <= 2, coefficients <= 3) and of random series sides at caps 2
    and 3, and the polynomial sides themselves."""
    polys = [random_poly(rng, s.n, max_len=2) for _ in range(4)]
    series = [random_series(rng, alphabet=s.n) for _ in range(2)]
    lists = [enumerate_below(p) for p in polys]
    lists += [enumerate_below_series(r, cap) for r in series for cap in (2, 3)]
    return lists, polys


def test_phi_each_matches_evaluate_phi_on_random_sides():
    rng = random.Random(24)
    tables = _kernel_tables()
    assert len(tables) == 8
    for s in tables:
        lists, polys = _kernel_sides(rng, s)
        for xs in lists + [polys]:
            assert list(phi_each(xs, s)) == [evaluate_phi(x, s) for x in xs], s


def test_enumerated_polynomials_are_canonical():
    rng = random.Random(25)
    for s in _kernel_tables():
        for xs in _kernel_sides(rng, s)[0]:
            for x in xs:
                y = Polynomial(x.coeffs)
                assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
                assert 0 not in x.coeffs.values()


def test_phi_each_refuses_a_foreign_letter_as_evaluate_phi_does():
    s = boolean()
    bad = Polynomial({(0,): 1, (0, 5): 2})
    with pytest.raises(ValueError) as want:
        evaluate_phi(bad, s)
    with pytest.raises(ValueError) as got:
        list(phi_each([POLY_ONE, bad], s))
    assert str(got.value) == str(want.value) == "letter 5 is not in the carrier"


def test_phi_each_term_table_is_per_call():
    # the same terms on two tables of size 2: on boolean 1 + 1 = 1, on xor
    # 1 + 1 = 0, so a table kept across calls and keyed by the term alone
    # would give the later calls the first table's values
    polys = enumerate_below(Polynomial({(1,): 2, (1, 1): 1}))
    own = {s.add: [evaluate_phi(x, s) for x in polys] for s in (boolean(), xor_semiring())}
    assert len({tuple(v) for v in own.values()}) == 2
    for s in (boolean(), xor_semiring(), boolean()):
        assert list(phi_each(polys, s)) == own[s.add]


# -- text form ------------------------------------------------------------------------

def test_poly_text_roundtrip():
    s = three_valued().base
    p = Polynomial({(1,): 2, (2, 1): 1, (): 3})
    text = poly_to_text(p, s)
    assert text == "3*[] + 2*[finite] + 1*[infinite.finite]"
    assert poly_from_text(text, s) == p


def test_poly_text_parse_errors():
    s = boolean()
    with pytest.raises(ValueError):
        poly_from_text("2*[missing]", s)
    with pytest.raises(ValueError):
        poly_from_text("nonsense", s)
    with pytest.raises(ValueError):
        poly_from_text("inf*[1]", s)

