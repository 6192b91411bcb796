"""Polynomials and truncated power series over the free monoid of a finite
semiring's carrier: the raw objects of the completion construction.

Words are tuples of carrier indices.  Polynomials carry exact natural-number
coefficients with finite support and are the one arithmetic type: a
coefficientwise sum and the Cauchy product.  Truncated series carry
coefficients in the naturals-with-infinity on words up to a length bound;
they only bound the polynomials below them from above.
"""

from __future__ import annotations

import itertools
import math
import re

from .core import FiniteSemiring
from .cardinal import nfold
from .gallery import NINF_ZERO, NInfElement, ninf_add

Word = tuple


def word_key(w: Word):
    return (len(w), w)


def _terms(coeffs: dict, word_text) -> str:
    """The terms 'c*<word_text(w)>' in shortlex word order, joined by
    ' + '; empty for no terms."""
    return " + ".join(f"{coeffs[w]!r}*{word_text(w)}"
                      for w in sorted(coeffs, key=word_key))


class Polynomial:
    """Finitely supported word -> positive-integer coefficient map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        d = {}
        for w, c in items:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"coefficient of {w!r} must be a natural, got {c!r}")
            if c:
                d[tuple(w)] = d.get(tuple(w), 0) + c
        self.coeffs = d

    @classmethod
    def _canonical(cls, coeffs: dict) -> "Polynomial":
        """The polynomial of a dict from tuple words to positive int
        coefficients, taken as it is, without validation."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    def get(self, w: Word) -> int:
        return self.coeffs.get(w, 0)

    def support(self):
        return sorted(self.coeffs, key=word_key)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        d = dict(self.coeffs)
        for w, c in other.coeffs.items():
            d[w] = d.get(w, 0) + c
        return Polynomial(d)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The Cauchy product: the coefficient of w sums p(u) * q(v) over
        w = uv."""
        d = {}
        for u, cu in self.coeffs.items():
            for v, cv in other.coeffs.items():
                w = u + v
                d[w] = d.get(w, 0) + cu * cv
        return Polynomial(d)

    def __eq__(self, other):
        return type(other) is Polynomial and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"Poly({_terms(self.coeffs, list) or 0})"


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


def phi_each(polys, s: FiniteSemiring):
    """evaluate_phi of each polynomial in turn.  Each term c*w is evaluated
    once per call, as the one-term polynomial, and a polynomial's terms are
    added in its own order, which is shortlex for enumerated ones."""
    terms = {}
    add = s.add
    for p in polys:
        acc = s.zero
        for term in p.coeffs.items():
            val = terms.get(term)
            if val is None:
                val = terms[term] = evaluate_phi(Polynomial((term,)), s)
            acc = add[acc][val]
        yield acc


class TruncatedSeries:
    """Length-truncated power series with naturals-with-infinity coefficients,
    read only as an upper bound on the polynomials below it."""

    __slots__ = ("maxlen", "coeffs")

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

    def get(self, w: Word) -> NInfElement:
        return self.coeffs.get(w, NINF_ZERO)

    def __repr__(self):
        return f"Series(maxlen={self.maxlen}; {_terms(self.coeffs, list) or 0})"


def _polys_below(bounds: dict) -> list:
    """Every polynomial whose coefficient on each word w is at most
    bounds[w] (and zero off those words), in lexicographic order of the
    coefficient vector over the shortlex-sorted words."""
    terms = [[None] + [(w, c) for c in range(1, bounds[w] + 1)]
             for w in sorted(bounds, key=word_key)]
    return [Polynomial._canonical(dict(filter(None, combo)))
            for combo in itertools.product(*terms)]


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
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap!r}")
    return _polys_below({w: cap if c.rank else min(c.n, cap)
                         for w, c in r.coeffs.items()})


# ---------------------------------------------------------------------------
# text form: 2*[a] + 1*[b.c] + 3*[]

_TERM_RE = re.compile(r"^\s*(?:(inf|\d+)\s*\*\s*)?\[([^\]]*)\]\s*$")


def poly_to_text(p: Polynomial, s: FiniteSemiring) -> str:
    return _terms(p.coeffs, lambda w: f"[{'.'.join(s.label(i) for i in w)}]") or "0*[]"


def poly_from_text(text: str, s: FiniteSemiring) -> Polynomial:
    terms = []
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"cannot parse polynomial term {chunk.strip()!r}")
        coeff, body = m.groups()
        if coeff == "inf":
            raise ValueError("polynomials cannot carry an inf coefficient")
        body = body.strip()
        w = tuple(s.index_of(part.strip()) for part in body.split(".")) if body else ()
        terms.append((w, 1 if coeff is None else int(coeff)))
    return Polynomial(terms)
