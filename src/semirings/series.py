"""Polynomials and truncated power series over the free monoid of a finite
semiring's carrier: the raw objects of the completion construction.

Words are tuples of carrier indices.  Polynomials carry exact natural-number
coefficients with finite support; truncated series carry coefficients in the
naturals-with-infinity and identify all words longer than the bound with a
discarded ideal (consistent: a product is overlong iff every extension is).
"""

from __future__ import annotations

import itertools
import re

from .core import CheckReport, FiniteSemiring
from .cardinal import (CardinalFamily, OmegaSequence, SigmaSemiring, card_add,
                       FIN0, nfold)
from .gallery import NINF_INF, NInfElement, ninf, ninf_add, ninf_mul

Word = tuple


def word_key(w: Word):
    return (len(w), w)


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

    def get(self, w: Word) -> int:
        return self.coeffs.get(w, 0)

    def support(self):
        return sorted(self.coeffs, key=word_key)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Polynomial") -> "Polynomial":
        d = dict(self.coeffs)
        for w, c in other.coeffs.items():
            d[w] = d.get(w, 0) + c
        return Polynomial(d)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        d = {}
        for u, cu in self.coeffs.items():
            for v, cv in other.coeffs.items():
                w = u + v
                d[w] = d.get(w, 0) + cu * cv
        return Polynomial(d)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*{list(w)}" for w, c in sorted(self.coeffs.items(),
                                                     key=lambda kv: word_key(kv[0]))]
        return "Poly(" + " + ".join(terms) + ")"


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


def enumerate_below(p: Polynomial):
    """Every polynomial coefficientwise below p, in lexicographic order of
    the coefficient vector over the shortlex-sorted support.  There are
    exactly prod(p(w) + 1) of them."""
    support = p.support()
    ranges = [range(p.get(w) + 1) for w in support]
    out = []
    for combo in itertools.product(*ranges):
        out.append(Polynomial({w: c for w, c in zip(support, combo) if c}))
    return out


def count_below(p: Polynomial) -> int:
    total = 1
    for w in p.support():
        total *= p.get(w) + 1
    return total


class TruncatedSeries:
    """Length-truncated power series with naturals-with-infinity coefficients."""

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
            if c != ninf(0):
                d[w] = ninf_add(d[w], c) if w in d else c
        self.maxlen = maxlen
        self.coeffs = d

    @classmethod
    def from_polynomial(cls, p: Polynomial, maxlen: int) -> "TruncatedSeries":
        return cls(maxlen, {w: ninf(c) for w, c in p.coeffs.items()})

    def get(self, w: Word) -> NInfElement:
        return self.coeffs.get(w, ninf(0))

    def support(self):
        return sorted(self.coeffs, key=word_key)

    def _check_compatible(self, other):
        if self.maxlen != other.maxlen:
            raise ValueError("series have different maxlen")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        d = dict(self.coeffs)
        for w, c in other.coeffs.items():
            d[w] = ninf_add(d[w], c) if w in d else c
        return TruncatedSeries(self.maxlen, d)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        d = {}
        for u, cu in self.coeffs.items():
            for v, cv in other.coeffs.items():
                w = u + v
                if len(w) <= self.maxlen:
                    prod = ninf_mul(cu, cv)
                    d[w] = ninf_add(d[w], prod) if w in d else prod
        return TruncatedSeries(self.maxlen, d)

    def truncate(self, maxlen: int) -> "TruncatedSeries":
        return TruncatedSeries(maxlen, {w: c for w, c in self.coeffs.items()
                                        if len(w) <= maxlen})

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and self.maxlen == other.maxlen
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.maxlen, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return f"Series(maxlen={self.maxlen}; 0)"
        terms = [f"{c!r}*{list(w)}" for w, c in sorted(self.coeffs.items(),
                                                       key=lambda kv: word_key(kv[0]))]
        return f"Series(maxlen={self.maxlen}; " + " + ".join(terms) + ")"


def series_zero(maxlen: int) -> TruncatedSeries:
    return TruncatedSeries(maxlen)


def pointwise_leq(x, y) -> bool:
    """Coefficientwise comparison; this coincides with the natural order
    (some t with x + t = y) because coefficients live in an ordered chain."""
    if isinstance(x, Polynomial) and isinstance(y, Polynomial):
        return all(c <= y.get(w) for w, c in x.coeffs.items())
    if isinstance(x, Polynomial) and isinstance(y, TruncatedSeries):
        return all(ninf(c) <= y.get(w) for w, c in x.coeffs.items())
    if isinstance(x, TruncatedSeries) and isinstance(y, TruncatedSeries):
        return all(c <= y.get(w) for w, c in x.coeffs.items())
    raise TypeError(f"cannot compare {type(x).__name__} with {type(y).__name__}")


def enumerate_below_series(r: TruncatedSeries, cap: int):
    """Polynomials coefficientwise below a series, with infinite coefficients
    capped at the given finite value."""
    support = r.support()
    ranges = []
    for w in support:
        c = r.get(w)
        ranges.append(range((cap if c.rank else min(c.n, cap)) + 1))
    out = []
    for combo in itertools.product(*ranges):
        out.append(Polynomial({w: c for w, c in zip(support, combo) if c}))
    return out


# ---------------------------------------------------------------------------
# CLI text form: 2*[a] + 1*[b.c] + 3*[]

_TERM_RE = re.compile(r"^\s*(?:(inf|\d+)\s*\*\s*)?\[([^\]]*)\]\s*$")


def poly_to_text(p: Polynomial, s: FiniteSemiring) -> str:
    if p.is_zero():
        return "0*[]"
    terms = []
    for w in p.support():
        letters = ".".join(s.label(i) for i in w)
        terms.append(f"{p.get(w)}*[{letters}]")
    return " + ".join(terms)


def _parse_word(body: str, s: FiniteSemiring) -> Word:
    body = body.strip()
    if not body:
        return ()
    return tuple(s.index_of(part.strip()) for part in body.split("."))


def poly_from_text(text: str, s: FiniteSemiring) -> Polynomial:
    coeffs = {}
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"cannot parse polynomial term {chunk.strip()!r}")
        coeff, body = m.groups()
        if coeff == "inf":
            raise ValueError("polynomials cannot carry an inf coefficient")
        c = 1 if coeff is None else int(coeff)
        w = _parse_word(body, s)
        coeffs[w] = coeffs.get(w, 0) + c
    return Polynomial(coeffs)


def series_to_text(r: TruncatedSeries, s: FiniteSemiring) -> str:
    body = " + ".join(
        f"{'inf' if r.get(w).rank else r.get(w).n}*"
        f"[{'.'.join(s.label(i) for i in w)}]"
        for w in r.support()) or "0*[]"
    return f"maxlen={r.maxlen}; {body}"


def series_from_text(text: str, s: FiniteSemiring) -> TruncatedSeries:
    head, _, rest = text.partition(";")
    head = head.strip()
    if not head.startswith("maxlen="):
        raise ValueError("series text must start with 'maxlen=<L>;'")
    maxlen = int(head[len("maxlen="):])
    coeffs = {}
    for chunk in rest.split("+"):
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"cannot parse series term {chunk.strip()!r}")
        coeff, body = m.groups()
        c = NINF_INF if coeff == "inf" else ninf(1 if coeff is None else int(coeff))
        w = _parse_word(body, s)
        coeffs[w] = ninf_add(coeffs[w], c) if w in coeffs else c
    return TruncatedSeries(maxlen, coeffs)


# ---------------------------------------------------------------------------
# series over an arbitrary Sigma-semiring of coefficients (d-completeness lift)

def _series_canonical(coeff: SigmaSemiring, items) -> tuple:
    d = {}
    for w, c in items:
        if w in d:
            c = coeff.plus(d[w], c)
        d[w] = c
    return tuple(sorted(((w, c) for w, c in d.items() if c != coeff.zero)))


def series_semiring(coeff: SigmaSemiring, alphabet_size: int, maxlen: int) -> SigmaSemiring:
    """Truncated power series with coefficients in an arbitrary semiring with
    infinite sums; Sigma is computed coefficientwise (the only choice
    compatible with pointwise addition)."""
    words = [()]
    for length in range(1, maxlen + 1):
        words.extend(itertools.product(range(alphabet_size), repeat=length))

    zero = ()
    one = _series_canonical(coeff, [((), coeff.one)])

    def plus(x, y):
        return _series_canonical(coeff, list(x) + list(y))

    def times(x, y):
        items = []
        for u, cu in x:
            for v, cv in y:
                w = u + v
                if len(w) <= maxlen:
                    items.append((w, coeff.times(cu, cv)))
        return _series_canonical(coeff, items)

    def sigma(f: CardinalFamily):
        support = sorted({w for r, _ in f.items() for w, _ in r}, key=word_key)
        out = []
        for w in support:
            coeff_fam = {}
            for r, mult in f.items():
                c = dict(r).get(w, coeff.zero)
                coeff_fam[c] = card_add(coeff_fam.get(c, FIN0), mult)
            out.append((w, coeff.sigma(CardinalFamily(coeff_fam))))
        return _series_canonical(coeff, out)

    def sample(k):
        elems = coeff.sample(3)
        nonzero = [e for e in elems if e != coeff.zero] or elems
        singles = [_series_canonical(coeff, [(w, e)])
                   for w in words[:3] for e in nonzero]
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
        return _series_canonical(coeff, [((), v)])

    for base_seq in omega_sequence_battery(coeff, seed, count // 2):
        seqs.append(OmegaSequence(tuple(lift(v) for v in base_seq.prefix),
                                  tuple(lift(v) for v in base_seq.cycle)))
    ok, witness = is_d_complete(sr, seqs)
    if ok:
        return CheckReport.build([])
    return CheckReport.build([("series-d-complete", (witness.sequence,
                                                     witness.constant,
                                                     witness.sigma_value))])
