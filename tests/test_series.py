import random

import pytest
from hypothesis import given, settings, strategies as st

from semirings.completion import completion_of_finite, lesssim
from semirings.core import is_orderable
from semirings.gallery import (NINF_INF, boolean, nat_infinity, ninf,
                               three_valued)
from semirings.series import (POLY_ONE, POLY_ZERO, Polynomial, TruncatedSeries,
                              cauchy_coefficient_by_factorizations,
                              count_below, embed_e, enumerate_below,
                              enumerate_below_series, evaluate_phi,
                              pointwise_leq, poly_from_text, poly_to_text,
                              series_from_text, series_to_text,
                              series_d_complete_check, series_semiring)


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
    assert not e0.is_zero()
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

def test_series_additive_identity():
    r = TruncatedSeries(2, {(0,): ninf(2), (): NINF_INF})
    assert r + TruncatedSeries(2) == r


def test_series_infinite_epsilon_squares_to_itself():
    r = TruncatedSeries(2, {(): NINF_INF})
    assert (r * r).get(()) == NINF_INF


def test_series_maxlen_mismatch():
    with pytest.raises(ValueError):
        TruncatedSeries(2) + TruncatedSeries(3)


def test_polynomial_embeds_into_series_compatibly():
    rng = random.Random(41)
    for _ in range(120):
        p = random_poly(rng, 2, max_len=2)
        q = random_poly(rng, 2, max_len=1)
        rp = TruncatedSeries.from_polynomial(p, 4)
        rq = TruncatedSeries.from_polynomial(q, 4)
        assert rp + rq == TruncatedSeries.from_polynomial(p + q, 4)
        assert rp * rq == TruncatedSeries.from_polynomial(p * q, 4)
        for w, c in p.coeffs.items():
            assert rp.get(w) == ninf(c)


def test_truncation_soundness():
    rng = random.Random(43)
    for _ in range(120):
        p = random_poly(rng, 2, max_len=2)
        q = random_poly(rng, 2, max_len=2)
        r2 = (TruncatedSeries.from_polynomial(p, 2)
              * TruncatedSeries.from_polynomial(q, 2))
        r3 = (TruncatedSeries.from_polynomial(p, 3)
              * TruncatedSeries.from_polynomial(q, 3))
        assert r3.truncate(2) == r2
        s2 = (TruncatedSeries.from_polynomial(p, 2)
              + TruncatedSeries.from_polynomial(q, 2))
        s3 = (TruncatedSeries.from_polynomial(p, 3)
              + TruncatedSeries.from_polynomial(q, 3))
        assert s3.truncate(2) == s2


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


def test_truncated_series_is_the_nat_infinity_series_semiring():
    # TruncatedSeries(L, ...) is series_semiring(nat_infinity(), k, L) with
    # the element written as a dict rather than a sorted tuple of pairs
    sr = series_semiring(nat_infinity(), 2, 2)

    def element(r):
        return tuple(sorted(r.coeffs.items()))

    rng = random.Random(53)
    for _ in range(300):
        x, y = random_series(rng), random_series(rng)
        if rng.random() < 0.5:
            y = x + y
        assert element(x + y) == sr.plus(element(x), element(y))
        assert element(x * y) == sr.times(element(x), element(y))
        assert pointwise_leq(x, y) == sr.leq(element(x), element(y))


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


# -- series d-completeness over various coefficient semirings -------------------------

def test_series_d_complete_over_nat_infinity():
    assert series_d_complete_check(nat_infinity(), 1, 2, seed=5, count=50).passed


def test_series_d_complete_over_boolean_completion():
    comp = completion_of_finite(boolean()).semiring
    assert series_d_complete_check(comp, 1, 2, seed=5, count=50).passed


def test_series_d_complete_fails_over_three_valued_with_lifted_witness():
    rep = series_d_complete_check(three_valued(), 1, 2, seed=5, count=50)
    assert not rep.passed
    law, (seq, constant, sigma_value) = rep.violations[0]
    assert law == "series-d-complete"
    finite = three_valued().base.index_of("finite")
    infinite = three_valued().base.index_of("infinite")
    # the base witness sits on the empty-word coefficient
    assert constant == (((), finite),)
    assert sigma_value == (((), infinite),)


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


def test_series_text_roundtrip():
    s = boolean()
    r = TruncatedSeries(2, {(): NINF_INF, (1, 0): ninf(3)})
    text = series_to_text(r, s)
    assert text == "maxlen=2; inf*[] + 3*[1.0]"
    assert series_from_text(text, s) == r
