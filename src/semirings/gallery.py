"""Executable constructions of the example semirings, each packaged as a
FiniteSemiring or a SigmaSemiring with its order and Sigma rule.

Two carriers are symbolic (infinite): the naturals with a top infinity, and
the chain 0 < 1 < 2 < ... < inf-2 < inf-1 < inf.  Both use unbounded exact
integers, so there are no fake overflow violations of associativity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import FiniteSemiring, PartialOrder, is_orderable, is_zero_sum_free
from .cardinal import CardinalFamily, SigmaSemiring, UNCOUNTABLE


class ZeroSumError(ValueError):
    """Refusal: the input semiring is not zero-sum-free."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not zero-sum-free, witness pair {witness}")


# ---------------------------------------------------------------------------
# the naturals with infinity

@dataclass(frozen=True, order=True)
class NInfElement:
    """rank 0 = the natural number n; rank 1 = the top element infinity.
    Dataclass ordering is the numeric order with infinity on top."""

    rank: int
    n: int = 0

    def label(self) -> str:
        return "inf" if self.rank else str(self.n)

    def __repr__(self):
        return self.label()


def ninf(n: int) -> NInfElement:
    if n < 0:
        raise ValueError("negative natural")
    return NInfElement(0, n)


NINF_ZERO = ninf(0)
NINF_ONE = ninf(1)
NINF_INF = NInfElement(1)


def ninf_add(a: NInfElement, b: NInfElement) -> NInfElement:
    if a.rank or b.rank:
        return NINF_INF
    return ninf(a.n + b.n)


def ninf_mul(a: NInfElement, b: NInfElement) -> NInfElement:
    if a == NINF_ZERO or b == NINF_ZERO:
        return NINF_ZERO
    if a.rank or b.rank:
        return NINF_INF
    return ninf(a.n * b.n)


def ninf_leq(a: NInfElement, b: NInfElement) -> bool:
    return a <= b


def _ninf_parse(text: str) -> NInfElement:
    return NINF_INF if text == "inf" else ninf(int(text))


# the operations `nat` and `nat_infinity` share
_NAT_OPS = dict(zero=NINF_ZERO, one=NINF_ONE, plus=ninf_add, times=ninf_mul,
                leq=ninf_leq, label=NInfElement.label, parse_label=_ninf_parse)


def nat_infinity() -> SigmaSemiring:
    """The d-complete semiring of naturals plus infinity; Sigma is infinity
    as soon as an infinity key or an infinite multiplicity on a nonzero key
    appears, and the exact weighted sum otherwise."""

    def sigma(f: CardinalFamily) -> NInfElement:
        total = 0
        for v, m in f.items():
            if v.rank:
                return NINF_INF
            if v.n and not m.is_finite:
                return NINF_INF
            total += v.n * m.n
        return ninf(total)

    return SigmaSemiring(
        "nat-infinity",
        **_NAT_OPS,
        sigma_fn=sigma,
        sample=lambda k: [ninf(i) for i in range(max(1, k - 1))] + [NINF_INF],
        contains=lambda v: isinstance(v, NInfElement),
        multiples_unbounded=lambda v: v.rank == 0 and v.n > 0,
        fin_chain_plus=lambda b: NINF_INF if b.rank else None,
        fin_chain_sup=NINF_INF,
    )


def nat() -> SigmaSemiring:
    """The plain ordered semiring of naturals: no infinite sums.  Its
    completion is the naturals-with-infinity semiring."""
    return SigmaSemiring(
        "nat",
        **_NAT_OPS,
        sigma_fn=None,
        sample=lambda k: [ninf(i) for i in range(max(1, k))],
        contains=lambda v: isinstance(v, NInfElement) and v.rank == 0,
        multiples_unbounded=lambda v: v.n > 0,
        fin_chain_plus=lambda b: None,
    )


# ---------------------------------------------------------------------------
# finite table semirings

def boolean() -> FiniteSemiring:
    """Two-element semiring with disjunction and conjunction."""
    return FiniteSemiring(("0", "1"), 0, 1, ((0, 1), (1, 1)), ((0, 0), (0, 1)))


def xor_semiring() -> FiniteSemiring:
    """The two-element field: addition is exclusive or.  Not orderable."""
    return FiniteSemiring(("0", "1"), 0, 1, ((0, 1), (1, 0)), ((0, 0), (0, 1)))


def nat_desk(cap: int) -> FiniteSemiring:
    """Saturating fragment {0..cap} of the naturals (desk model)."""
    labels = tuple(str(i) for i in range(cap + 1))
    add = tuple(tuple(min(i + j, cap) for j in range(cap + 1)) for i in range(cap + 1))
    mul = tuple(tuple(min(i * j, cap) for j in range(cap + 1)) for i in range(cap + 1))
    return FiniteSemiring(labels, 0, 1, add, mul)


def _union_sigma(f: CardinalFamily) -> int:
    """Sigma of bitmask-encoded sets under union: the union of the keys,
    whatever their multiplicities."""
    mask = 0
    for v, _ in f.items():
        mask |= v
    return mask


def _union_lattice(name: str, atoms, one: int, mul) -> SigmaSemiring:
    """All sets of the named atoms as bitmasks: union, the product `mul`,
    inclusion, and the union Sigma."""
    n = 1 << len(atoms)
    labels = tuple("{" + ",".join(a for i, a in enumerate(atoms) if m >> i & 1) + "}"
                   for m in range(n))
    add = tuple(tuple(i | j for j in range(n)) for i in range(n))
    order = PartialOrder(tuple(tuple(i | j == j for j in range(n)) for i in range(n)))
    return SigmaSemiring.from_finite(name, FiniteSemiring(labels, 0, one, add, mul),
                                     _union_sigma, order)


def powerset_semiring(universe) -> SigmaSemiring:
    """All subsets of a finite universe: union, intersection, inclusion.
    Subsets are encoded as bitmask indices, so the tables are bit ops."""
    atoms = tuple(universe)
    n = 1 << len(atoms)
    mul = tuple(tuple(i & j for j in range(n)) for i in range(n))
    return _union_lattice(f"powerset:{len(atoms)}", atoms, n - 1, mul)


def language_semiring(alphabet, maxlen: int) -> SigmaSemiring:
    """Languages of words of length <= maxlen: union, truncated concatenation.

    Discarding overlong products is a congruence: a product exceeds the
    bound exactly when all its extensions do, so the quotient is consistent.
    Languages are bitmasks over the shortlex word list.  The product
    distributes over union, so each cell is the union of two cells already
    filled: split off x's lowest word, or, when x is one word, y's."""
    if maxlen < 0:
        raise ValueError("maximum word length must be nonnegative")
    letters = tuple(alphabet)
    words = [()]
    for length in range(1, maxlen + 1 if letters else 1):  # no letters: eps only
        words.extend(itertools.product(range(len(letters)), repeat=length))
        if len(words) > 10:
            raise ValueError("language carrier too large; shrink alphabet or maxlen")
    bit = {w: 1 << i for i, w in enumerate(words)}  # overlong words are absent
    n = 1 << len(words)
    mul = [[0] * n]
    for x in range(1, n):
        low = x & -x
        if x != low:
            mul.append([a | b for a, b in zip(mul[low], mul[x ^ low])])
            continue
        u = words[low.bit_length() - 1]
        row = [0]
        for y in range(1, n):
            ylow = y & -y
            row.append(row[ylow] | row[y ^ ylow] if y != ylow
                       else bit.get(u + words[ylow.bit_length() - 1], 0))
        mul.append(row)
    atoms = ["".join(letters[x] for x in w) if w else "eps" for w in words]
    return _union_lattice(f"lang:{len(letters)}:{maxlen}", atoms, 1,
                          tuple(map(tuple, mul)))


def _max_chain(name: str, labels, sigma) -> SigmaSemiring:
    """The chain labels[0] < labels[1] < ...: addition is max, and so is
    multiplication except that zero absorbs."""
    n = len(labels)
    add = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    mul = tuple(tuple(0 if 0 in (i, j) else max(i, j) for j in range(n)) for i in range(n))
    order = PartialOrder(tuple(tuple(i <= j for j in range(n)) for i in range(n)))
    return SigmaSemiring.from_finite(name, FiniteSemiring(labels, 0, 1, add, mul),
                                     sigma, order)


def three_valued() -> SigmaSemiring:
    """Chain 0 < finite < infinite; complete but not d-complete: infinitely
    many "finite" terms escalate to "infinite" even though the partial sums
    stay at "finite"."""

    def sigma(f: CardinalFamily) -> int:
        top = 0
        for v, _ in f.items():
            top = max(top, v)
        if top == 2:
            return 2
        if not f.total_multiplicity(skip=0).is_finite and top > 0:
            return 2
        return top

    return _max_chain("three-valued", ("0", "finite", "infinite"), sigma)


def four_valued() -> SigmaSemiring:
    """Chain 0 < finite < countable < uncountable; d-complete but not
    finitary, with uncountable characteristic cardinality.

    d-completeness pins the rule down: countably many "finite" terms have
    constant partial sums "finite", so they must sum to "finite"; only an
    uncountable multiplicity (or an uncountable key) escalates past the
    largest key class."""

    def sigma(f: CardinalFamily) -> int:
        top = 0
        escalate = False
        for v, m in f.items():
            top = max(top, v)
            if v != 0 and m == UNCOUNTABLE:
                escalate = True
        if top == 3 or escalate:
            return 3
        return top

    return _max_chain("four-valued", ("0", "finite", "countable", "uncountable"), sigma)


# ---------------------------------------------------------------------------
# the chain 0 < 1 < ... < inf-2 < inf-1 < inf

@dataclass(frozen=True, order=True)
class OmegaMinusElement:
    """rank 0 = the natural key; rank 1 = inf-(-key), stored negated so the
    dataclass order matches the chain; rank 2 = inf."""

    rank: int
    key: int = 0

    def label(self) -> str:
        if self.rank == 0:
            return str(self.key)
        if self.rank == 1:
            return f"inf-{-self.key}"
        return "inf"

    def __repr__(self):
        return self.label()


def omega_fin(n: int) -> OmegaMinusElement:
    if n < 0:
        raise ValueError("negative natural")
    return OmegaMinusElement(0, n)


def omega_inf_minus(k: int) -> OmegaMinusElement:
    if k < 1:
        raise ValueError("inf-k needs k >= 1")
    return OmegaMinusElement(1, -k)


OMEGA_ZERO = omega_fin(0)
OMEGA_ONE = omega_fin(1)
OMEGA_INF = OmegaMinusElement(2)


def omega_add(a: OmegaMinusElement, b: OmegaMinusElement) -> OmegaMinusElement:
    if a.rank == 2 or b.rank == 2:
        return OMEGA_INF
    if a.rank == 1 and b.rank == 1:
        return OMEGA_INF
    if a.rank == 0 and b.rank == 0:
        return omega_fin(a.key + b.key)
    n = a.key if a.rank == 0 else b.key
    k = -(b.key if b.rank == 1 else a.key)
    if n >= k:
        return OMEGA_INF
    return omega_inf_minus(k - n)


def omega_mul(a: OmegaMinusElement, b: OmegaMinusElement) -> OmegaMinusElement:
    if a == OMEGA_ZERO or b == OMEGA_ZERO:
        return OMEGA_ZERO
    if a == OMEGA_ONE:
        return b
    if b == OMEGA_ONE:
        return a
    if a.rank == 0 and b.rank == 0:
        return omega_fin(a.key * b.key)
    return OMEGA_INF


def _omega_parse(text: str) -> OmegaMinusElement:
    if text == "inf":
        return OMEGA_INF
    if text.startswith("inf-"):
        return omega_inf_minus(int(text[4:]))
    return omega_fin(int(text))


def omega_plus_reverse() -> SigmaSemiring:
    """d-complete, characteristic cardinality aleph0, yet not finitary: the
    finite chain 1, 2, 3, ... has no least upper bound, because the upper
    bounds inf-1 > inf-2 > ... descend forever."""

    def multiple(v: OmegaMinusElement, k: int) -> OmegaMinusElement:
        """k * v: finite values scale, and two copies of inf-j reach inf."""
        return omega_fin(v.key * k) if v.rank == 0 else (OMEGA_ZERO, v, OMEGA_INF)[min(k, 2)]

    def sigma(f: CardinalFamily) -> OmegaMinusElement:
        if not f.total_multiplicity(skip=OMEGA_ZERO).is_finite:
            return OMEGA_INF
        acc = OMEGA_ZERO
        for v, m in f.items():
            acc = omega_add(acc, multiple(v, m.n))
        return acc

    return SigmaSemiring(
        "omega-minus",
        zero=OMEGA_ZERO,
        one=OMEGA_ONE,
        plus=omega_add,
        times=omega_mul,
        sigma_fn=sigma,
        leq=lambda a, b: a <= b,
        sample=lambda k: ([omega_fin(i) for i in range(max(1, k - 4))]
                          + [omega_inf_minus(j) for j in (1, 2, 3)] + [OMEGA_INF])[:max(2, k)],
        contains=lambda v: isinstance(v, OmegaMinusElement),
        label=OmegaMinusElement.label,
        parse_label=_omega_parse,
        multiples_unbounded=lambda v: v.rank == 0 and v.key > 0,
        fin_chain_plus=lambda b: None if b.rank == 0 else OMEGA_INF,
        fin_chain_sup=None,
    )


# ---------------------------------------------------------------------------
# adjoining infinity to a zero-sum-free semiring

def adjoin_infinity(s: FiniteSemiring) -> SigmaSemiring:
    """Adjoin an absorbing top element and declare Sigma infinite exactly when
    the nonzero support is infinite (or an infinity key is present).

    Only zero-sum-free inputs are accepted; anything else cannot sit inside
    a semiring with total infinite sums."""
    ok, witness = is_zero_sum_free(s)
    if not ok:
        raise ZeroSumError(witness)
    n = s.n
    inf = n
    label = "inf"
    while label in s.elements:
        label += "'"
    add = [list(row) + [inf] for row in s.add] + [[inf] * (n + 1)]
    mul = [list(row) + [inf if i != s.zero else s.zero]
           for i, row in enumerate(s.mul)]
    mul.append([inf if j != s.zero else s.zero for j in range(n)] + [inf])
    base = FiniteSemiring.from_tables(s.elements + (label,), s.zero, s.one, add, mul)

    def multiple(v: int, k: int) -> int:
        """k * v read off the orbit 0, v, 2v, ..., which cycles from its
        first repeat on."""
        orbit = [base.zero]
        while (nxt := base.plus(orbit[-1], v)) not in orbit:
            orbit.append(nxt)
        start = orbit.index(nxt)
        return orbit[k if k < start else start + (k - start) % (len(orbit) - start)]

    def sigma(f: CardinalFamily) -> int:
        if (any(v == inf for v, _ in f.items())
                or not f.total_multiplicity(skip=s.zero).is_finite):
            return inf
        acc = base.zero
        for v, m in f.items():
            acc = base.plus(acc, multiple(v, m.n))
        return acc

    orderable, w = is_orderable(base)
    order = w if orderable else None
    return SigmaSemiring.from_finite(f"adjoin-inf:{len(s.elements)}", base, sigma, order)


# ---------------------------------------------------------------------------
# registry

_LETTERS = "abcdefgh"

# the members without parameters, in listing order
_NAMED = {"boolean": boolean, "nat": nat, "nat-infinity": nat_infinity,
          "three-valued": three_valued, "four-valued": four_valued,
          "omega-minus": omega_plus_reverse}


def gallery_names():
    return [*_NAMED, "powerset:<n>", "lang:<k>:<L>"]


def gallery_semiring(name: str):
    """Resolve a registry name to a FiniteSemiring or SigmaSemiring."""
    if name in _NAMED:
        return _NAMED[name]()
    if name.startswith("powerset:"):
        (k,) = _name_params(name, "powerset:K, K in 0..4")
        if not 0 <= k <= 4:
            raise ValueError(f"{name}: powerset universe size must be 0..4")
        return powerset_semiring(_LETTERS[:k])
    if name.startswith("lang:"):
        k, ell = _name_params(name, "lang:K:L, K in 1..3")
        if not 1 <= k <= 3:
            raise ValueError(f"{name}: language alphabet size must be 1..3")
        try:
            return language_semiring(_LETTERS[:k], ell)
        except ValueError as e:
            raise ValueError(f"{name}: {e}") from None
    raise KeyError(f"unknown gallery name {name!r}")


def _name_params(name: str, form: str):
    """The integer parameters of a gallery name, one per colon in `form`."""
    params = name.split(":")[1:]
    if len(params) != form.count(":") or not all(p.isdecimal() for p in params):
        raise ValueError(f"malformed gallery name {name!r}: expected {form}")
    return [int(p) for p in params]
