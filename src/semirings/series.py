"""Polynomials and truncated power series over the free monoid of a finite
semiring's carrier: the raw objects of the completion construction.

Words are tuples of carrier indices.  Polynomials carry exact natural-number
coefficients with finite support; truncated series carry coefficients in the
naturals-with-infinity and identify all words longer than the bound with a
discarded ideal (consistent: a product is overlong iff every extension is).
Both, and the series over an arbitrary Sigma-semiring at the end, share one
coefficientwise sum and one length-truncated Cauchy product.
"""

from __future__ import annotations

import itertools
import math
import operator
import re

from .core import CheckReport, FiniteSemiring
from .cardinal import CardinalFamily, OmegaSequence, SigmaSemiring, nfold
from .gallery import (NINF_INF, NINF_ZERO, NInfElement, ninf, ninf_add,
                      ninf_mul)

Word = tuple


def word_key(w: Word):
    return (len(w), w)


def word_sum(x: dict, y: dict, add) -> dict:
    """Coefficientwise sum of two word -> coefficient maps."""
    d = dict(x)
    for w, c in y.items():
        d[w] = add(d[w], c) if w in d else c
    return d


def cauchy_product(x: dict, y: dict, add, mul, maxlen=None) -> dict:
    """Cauchy product of two word -> coefficient maps: the coefficient of w
    sums mul(x(u), y(v)) over w = uv.  Words longer than maxlen are dropped
    (None: no bound)."""
    d = {}
    for u, cu in x.items():
        for v, cv in y.items():
            w = u + v
            if maxlen is None or len(w) <= maxlen:
                c = mul(cu, cv)
                d[w] = add(d[w], c) if w in d else c
    return d


class _WordMap:
    """A finitely supported word -> coefficient map with no zero entries.

    Each subclass fixes the coefficients (`_zero`, `_add`, `_mul`) and the
    length bound `maxlen` (None: unbounded), and validates in its
    constructor; the arithmetic, equality and hashing are shared."""

    __slots__ = ("coeffs",)

    def get(self, w: Word):
        return self.coeffs.get(w, self._zero)

    def support(self):
        return sorted(self.coeffs, key=word_key)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _result(self, other, coeffs):
        """The map of this kind with the given coefficients, computed from
        this map and `other`, which must share the length bound."""
        if self.maxlen != other.maxlen:
            raise ValueError("series have different maxlen")
        if self.maxlen is None:
            return type(self)(coeffs)
        return type(self)(self.maxlen, coeffs)

    def __add__(self, other):
        return self._result(other, word_sum(self.coeffs, other.coeffs, self._add))

    def __mul__(self, other):
        return self._result(other, cauchy_product(self.coeffs, other.coeffs, self._add,
                                                  self._mul, self.maxlen))

    def __eq__(self, other):
        return (type(other) is type(self) and self.maxlen == other.maxlen
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))


def _terms(x: _WordMap, word_text) -> str:
    """The terms 'c*<word_text(w)>' of x in shortlex word order, joined by
    ' + '; empty for the zero map."""
    return " + ".join(f"{x.coeffs[w]!r}*{word_text(w)}" for w in x.support())


class Polynomial(_WordMap):
    """Finitely supported word -> positive-integer coefficient map."""

    __slots__ = ()
    _zero = 0
    _add = staticmethod(operator.add)
    _mul = staticmethod(operator.mul)
    maxlen = None

    def __init__(self, coeffs=()):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        d = {}
        for w, c in items:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"coefficient of {w!r} must be a natural, got {c!r}")
            if c:
                d[tuple(w)] = d.get(tuple(w), 0) + c
        self.coeffs = d

    def __repr__(self):
        return f"Poly({_terms(self, list) or 0})"


POLY_ZERO = Polynomial()
POLY_ONE = Polynomial({(): 1})


def embed_e(a: int) -> Polynomial:
    """The set-level (not homomorphic) embedding of a carrier element as the
    one-letter word with coefficient one."""
    return Polynomial({(a,): 1})


def evaluate_phi(p: Polynomial, s: FiniteSemiring) -> int:
    """The evaluation homomorphism back into the carrier: multiply out each
    word, repeat it coefficient-many times, add everything up."""
    acc = s.zero
    for w in p.support():
        val = s.one
        for letter in w:
            if not 0 <= letter < s.n:
                raise ValueError(f"letter {letter!r} is not in the carrier")
            val = s.times(val, letter)
        acc = s.plus(acc, nfold(s.plus, s.zero, val, p.get(w)))
    return acc


def cauchy_coefficient_by_factorizations(p: Polynomial, q: Polynomial, w: Word) -> int:
    """Direct sum over all factorizations w = uv; independent of the
    accumulation in the product implementation."""
    return sum(p.get(w[:i]) * q.get(w[i:]) for i in range(len(w) + 1))


class TruncatedSeries(_WordMap):
    """Length-truncated power series with naturals-with-infinity coefficients."""

    __slots__ = ("maxlen",)
    _zero = NINF_ZERO
    _add = staticmethod(ninf_add)
    _mul = staticmethod(ninf_mul)

    def __init__(self, maxlen: int, coeffs=()):
        if maxlen < 0:
            raise ValueError("maxlen must be nonnegative")
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        d = {}
        for w, c in items:
            w = tuple(w)
            if len(w) > maxlen:
                raise ValueError(f"word {w!r} exceeds maxlen {maxlen}")
            if not isinstance(c, NInfElement):
                raise TypeError(f"coefficient of {w!r} must be an NInfElement")
            if c != NINF_ZERO:
                d[w] = ninf_add(d[w], c) if w in d else c
        self.maxlen = maxlen
        self.coeffs = d

    @classmethod
    def from_polynomial(cls, p: Polynomial, maxlen: int) -> "TruncatedSeries":
        return cls(maxlen, {w: ninf(c) for w, c in p.coeffs.items()})

    def truncate(self, maxlen: int) -> "TruncatedSeries":
        return TruncatedSeries(maxlen, {w: c for w, c in self.coeffs.items()
                                        if len(w) <= maxlen})

    def __repr__(self):
        return f"Series(maxlen={self.maxlen}; {_terms(self, list) or 0})"


def pointwise_leq(x, y) -> bool:
    """Coefficientwise comparison; this coincides with the natural order
    (some t with x + t = y) because coefficients live in an ordered chain."""
    if isinstance(x, Polynomial) and isinstance(y, TruncatedSeries):
        return all(ninf(c) <= y.get(w) for w, c in x.coeffs.items())
    if isinstance(x, _WordMap) and type(x) is type(y):
        return all(c <= y.get(w) for w, c in x.coeffs.items())
    raise TypeError(f"cannot compare {type(x).__name__} with {type(y).__name__}")


def _polys_below(bounds: dict) -> list:
    """Every polynomial whose coefficient on each word w is at most
    bounds[w] (and zero off those words), in lexicographic order of the
    coefficient vector over the shortlex-sorted words."""
    support = sorted(bounds, key=word_key)
    return [Polynomial({w: c for w, c in zip(support, combo) if c})
            for combo in itertools.product(*(range(bounds[w] + 1) for w in support))]


def enumerate_below(p: Polynomial):
    """Every polynomial coefficientwise below p, in lexicographic order of
    the coefficient vector over the shortlex-sorted support.  There are
    exactly count_below(p) of them."""
    return _polys_below(p.coeffs)


def count_below(p: Polynomial) -> int:
    return math.prod(c + 1 for c in p.coeffs.values())


def enumerate_below_series(r: TruncatedSeries, cap: int):
    """Polynomials coefficientwise below a series, with infinite coefficients
    capped at the given finite value."""
    return _polys_below({w: cap if c.rank else min(c.n, cap)
                         for w, c in r.coeffs.items()})


# ---------------------------------------------------------------------------
# text forms: 2*[a] + 1*[b.c] + 3*[] for polynomials; series add inf*
# coefficients and a maxlen=<L>; header

_TERM_RE = re.compile(r"^\s*(?:(inf|\d+)\s*\*\s*)?\[([^\]]*)\]\s*$")


def _text(x: _WordMap, s: FiniteSemiring) -> str:
    return _terms(x, lambda w: f"[{'.'.join(s.label(i) for i in w)}]") or "0*[]"


def _parse_terms(text: str, s: FiniteSemiring, kind: str, coefficient) -> list:
    """(word, coefficient) per '+'-separated term; `coefficient` reads the
    coefficient text ('inf', digits, or None when it is left out)."""
    terms = []
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"cannot parse {kind} term {chunk.strip()!r}")
        coeff, body = m.groups()
        c = coefficient(coeff)
        body = body.strip()
        w = tuple(s.index_of(part.strip()) for part in body.split(".")) if body else ()
        terms.append((w, c))
    return terms


def _natural(coeff):
    if coeff == "inf":
        raise ValueError("polynomials cannot carry an inf coefficient")
    return 1 if coeff is None else int(coeff)


def poly_to_text(p: Polynomial, s: FiniteSemiring) -> str:
    return _text(p, s)


def poly_from_text(text: str, s: FiniteSemiring) -> Polynomial:
    return Polynomial(_parse_terms(text, s, "polynomial", _natural))


def series_to_text(r: TruncatedSeries, s: FiniteSemiring) -> str:
    return f"maxlen={r.maxlen}; {_text(r, s)}"


def series_from_text(text: str, s: FiniteSemiring) -> TruncatedSeries:
    head, _, rest = text.partition(";")
    head = head.strip()
    if not head.startswith("maxlen="):
        raise ValueError("series text must start with 'maxlen=<L>;'")
    maxlen = int(head[len("maxlen="):])
    return TruncatedSeries(maxlen, _parse_terms(
        rest, s, "series", lambda t: NINF_INF if t == "inf" else ninf(_natural(t))))


# ---------------------------------------------------------------------------
# series over an arbitrary Sigma-semiring of coefficients (d-completeness lift)

def series_semiring(coeff: SigmaSemiring, alphabet_size: int, maxlen: int) -> SigmaSemiring:
    """Truncated power series with coefficients in an arbitrary semiring with
    infinite sums; Sigma is computed coefficientwise (the only choice
    compatible with pointwise addition).  An element is the sorted tuple of
    its (word, nonzero coefficient) pairs."""
    words = [()]
    for length in range(1, maxlen + 1):
        words.extend(itertools.product(range(alphabet_size), repeat=length))

    def canonical(d: dict) -> tuple:
        return tuple(sorted((w, c) for w, c in d.items() if c != coeff.zero))

    zero = ()
    one = canonical({(): coeff.one})

    def plus(x, y):
        return canonical(word_sum(dict(x), dict(y), coeff.plus))

    def times(x, y):
        return canonical(cauchy_product(dict(x), dict(y), coeff.plus, coeff.times,
                                        maxlen))

    def sigma(f: CardinalFamily):
        support = sorted({w for r, _ in f.items() for w, _ in r}, key=word_key)
        out = []
        for w in support:
            coeff_fam = CardinalFamily((dict(r).get(w, coeff.zero), mult)
                                       for r, mult in f.items())
            out.append((w, coeff.sigma(coeff_fam)))
        return canonical(dict(out))

    def sample(k):
        elems = coeff.sample(3)
        nonzero = [e for e in elems if e != coeff.zero] or elems
        singles = [canonical({w: e}) for w in words[:3] for e in nonzero]
        pairs = [plus(singles[i], singles[(i + 1) % len(singles)])
                 for i in range(min(3, len(singles)))]
        return ([zero, one] + singles + pairs)[:max(2, k)]

    def contains(v):
        return (isinstance(v, tuple)
                and all(isinstance(it, tuple) and len(it) == 2
                        and len(it[0]) <= maxlen and coeff.contains(it[1])
                        for it in v))

    def leq(x, y):
        # coefficientwise; keys absent from x compare as zero, the least element
        dy = dict(y)
        return all(coeff.leq(c, dy.get(w, coeff.zero)) for w, c in x)

    return SigmaSemiring(
        f"series({coeff.name},k={alphabet_size},L={maxlen})",
        zero=zero,
        one=one,
        plus=plus,
        times=times,
        sigma_fn=sigma,
        leq=(leq if coeff.has_order else None),
        sample=sample,
        contains=contains,
        label=repr,
        carrier_bound=16,
    )


def series_d_complete_check(coeff: SigmaSemiring, alphabet_size: int,
                            maxlen: int, seed: int = 0, count: int = 60) -> CheckReport:
    """Run the discrete-convergence battery on series with the given
    coefficients; base-carrier sequences are lifted onto the empty-word
    coefficient so a base failure reproduces verbatim."""
    from .cardinal import is_d_complete, omega_sequence_battery

    sr = series_semiring(coeff, alphabet_size, maxlen)
    seqs = list(omega_sequence_battery(sr, seed, count))

    def lift(v):
        return (((), v),) if v != coeff.zero else ()

    for base_seq in omega_sequence_battery(coeff, seed, count // 2):
        seqs.append(OmegaSequence(tuple(lift(v) for v in base_seq.prefix),
                                  tuple(lift(v) for v in base_seq.cycle)))
    ok, witness = is_d_complete(sr, seqs)
    if ok:
        return CheckReport.build([])
    return CheckReport.build([("series-d-complete", (witness.sequence,
                                                     witness.constant,
                                                     witness.sigma_value))])
