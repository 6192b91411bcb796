"""Cardinal-multiplicity families and semirings with a total infinite sum.

A family (a_i : i in I) is stored up to bijection of the index set as a map
value -> multiplicity, with multiplicities in {finite n, aleph0, one
uncountable class}.  Storing families up to bijection turns the bijection
axiom for infinite sums into a data-model invariant.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .core import (CheckReport, FiniteSemiring, InternalConsistencyError,
                   PartialOrder, StructureError)


class CarrierError(ValueError):
    """A family key lies outside the carrier."""


class MissingOrderError(ValueError):
    """The operation needs an ordered carrier (a symbolic one with its chain
    hooks) and none was supplied."""


class SubsumLimitError(ValueError):
    """A multiplicity has too many multiples to enumerate."""


# ---------------------------------------------------------------------------
# cardinals

@dataclass(frozen=True, order=True)
class Cardinal:
    """Multiplicity class: rank 0 = finite (with count n), 1 = aleph0,
    2 = uncountable.  Dataclass ordering matches cardinal ordering."""

    rank: int
    n: int = 0

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def label(self) -> str:
        if self.rank == 0:
            return f"fin:{self.n}"
        return "aleph0" if self.rank == 1 else "uncountable"

    def __repr__(self):
        return self.label()


def fin(n: int) -> Cardinal:
    if n < 0:
        raise ValueError("finite multiplicity must be nonnegative")
    return _SMALL_FINS[n] if n < len(_SMALL_FINS) else Cardinal(0, n)


_SMALL_FINS = tuple(Cardinal(0, n) for n in range(64))  # one object each


FIN0 = fin(0)
FIN1 = fin(1)
ALEPH0 = Cardinal(1)
UNCOUNTABLE = Cardinal(2)


def parse_cardinal(text: str) -> Cardinal:
    if text == "aleph0":
        return ALEPH0
    if text == "uncountable":
        return UNCOUNTABLE
    if isinstance(text, str) and text.startswith("fin:"):
        return fin(int(text[4:]))
    raise ValueError(f"unknown cardinal {text!r}")


def card_add(x: Cardinal, y: Cardinal) -> Cardinal:
    if x.is_finite and y.is_finite:
        return fin(x.n + y.n)
    return max(x, y)


def card_mul(x: Cardinal, y: Cardinal) -> Cardinal:
    if x == FIN0 or y == FIN0:
        return FIN0
    if x.is_finite and y.is_finite:
        return fin(x.n * y.n)
    return max(x, y)


def card_sum(cards) -> Cardinal:
    total = FIN0
    for c in cards:
        total = card_add(total, c)
    return total


# ---------------------------------------------------------------------------
# families

class CardinalFamily:
    """Canonical value -> multiplicity map; zero multiplicities are absent.
    The (value, multiplicity) pairs are stored once, sorted by value, so
    equal families have equal tuples."""

    __slots__ = ("_items",)

    def __init__(self, mult=()):
        items = mult.items() if hasattr(mult, "items") else mult
        d = {}
        for v, c in items:
            if not isinstance(c, Cardinal):
                raise TypeError(f"multiplicity must be a Cardinal, got {c!r}")
            if not (c.rank or c.n):  # fin:0, without the dataclass __eq__
                continue
            d[v] = card_add(d[v], c) if v in d else c
        self._items = tuple(sorted(d.items(), key=itemgetter(0)))

    @classmethod
    def _canonical(cls, items) -> "CardinalFamily":
        """The family of a tuple of (value, nonzero multiplicity) pairs
        that is already sorted by value, with no value repeated."""
        f = cls.__new__(cls)
        f._items = items
        return f

    @classmethod
    def from_sequence(cls, values) -> "CardinalFamily":
        counts = Counter(values)
        return cls._canonical(tuple(sorted(((v, fin(k)) for v, k in counts.items()),
                                           key=itemgetter(0))))

    def get(self, v) -> Cardinal:
        return dict(self._items).get(v, FIN0)

    def keys(self):
        return [v for v, _ in self._items]

    def items(self):
        return self._items

    def all_finite(self) -> bool:
        return all(c.is_finite for _, c in self._items)

    def total_multiplicity(self, skip=None) -> Cardinal:
        return card_sum(c for v, c in self._items if v != skip)

    def map_keys(self, f) -> "CardinalFamily":
        """Push the family through a function on values, merging collisions
        by cardinal addition (reindexing of the summed family)."""
        return CardinalFamily((f(v), c) for v, c in self._items)

    def scale(self, k: Cardinal) -> "CardinalFamily":
        """The disjoint union of k copies of this family."""
        if k == FIN0:
            return EMPTY_FAMILY
        return CardinalFamily._canonical(tuple((v, card_mul(k, c)) for v, c in self._items))

    def __eq__(self, other):
        return isinstance(other, CardinalFamily) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        inner = ", ".join(f"{v!r}: {c!r}" for v, c in self._items)
        return "Family{" + inner + "}"


EMPTY_FAMILY = CardinalFamily()


@dataclass(frozen=True)
class OmegaSequence:
    """Ultimately periodic sequence a_1, a_2, ...: prefix then cycle forever."""

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must be nonempty")

    def term(self, i: int):
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def family(self) -> CardinalFamily:
        return CardinalFamily([(v, FIN1) for v in self.prefix]
                              + [(v, ALEPH0) for v in self.cycle])


def family_from_json(c, text: str) -> CardinalFamily:
    """Parse {"family": {"<element label>": "fin:3"|"aleph0"|"uncountable"}}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructureError(f"invalid JSON: {e.msg}") from None
    except RecursionError:
        raise StructureError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("family"), dict):
        raise StructureError('expected an object with a "family" mapping')
    mult = {}
    for label, card_text in doc["family"].items():
        try:
            mult[c.parse_label(label)] = parse_cardinal(card_text)
        except ValueError as e:
            raise StructureError(str(e)) from None
    return CardinalFamily(mult)


def family_to_json(c, f: CardinalFamily) -> str:
    return json.dumps(
        {"family": {c.label_of(v): m.label() for v, m in f.items()}},
        sort_keys=True)


def omega_sequence_from_json(c, text: str) -> OmegaSequence:
    """Parse {"prefix": [labels...], "cycle": [labels...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructureError(f"invalid JSON: {e.msg}") from None
    except RecursionError:
        raise StructureError("invalid JSON: nested too deeply") from None
    if (not isinstance(doc, dict) or not isinstance(doc.get("cycle"), list)
            or not isinstance(doc.get("prefix", []), list)):
        raise StructureError('expected {"prefix": [...], "cycle": [...]}')
    try:
        prefix = tuple(c.parse_label(x) for x in doc.get("prefix", []))
        cycle = tuple(c.parse_label(x) for x in doc["cycle"])
        return OmegaSequence(prefix, cycle)
    except ValueError as e:
        raise StructureError(str(e)) from None


# ---------------------------------------------------------------------------
# semirings with infinite sums

def nfold(plus, zero, v, k: int):
    """k-fold sum of v by binary doubling; valid in any commutative monoid."""
    acc = zero
    base = v
    while k:
        if k & 1:
            acc = plus(acc, base)
        k >>= 1
        if k:
            base = plus(base, base)
    return acc


class SigmaSemiring:
    """A semiring carrier together with a total Sigma on cardinal families.

    Finite carriers wrap a FiniteSemiring (elements are table indices).
    Symbolic carriers (infinite, like the naturals with infinity) supply an
    operation bundle plus the structural hooks used by the subsum analysis:

    - multiples_unbounded(v): the set {k*v} grows without bound,
    - fin_chain_plus(b): the eventual value of (large finite chain) + b,
      or None when the sum stays a growing finite chain,
    - fin_chain_sup: least element dominating the whole finite chain, or
      None when the upper bounds have no least member.

    The sup of a family's finite subsums is then its greatest finite subsum
    (top_subsum); when some key's multiples climb forever it is
    fin_chain_plus of that sum, else fin_chain_sup (family_sup).
    """

    def __init__(self, name, *, zero, one, plus, times, sigma_fn,
                 base=None, order=None, leq=None, sample=None, contains=None,
                 label=None, parse_label=None, multiples_unbounded=None,
                 fin_chain_plus=None, fin_chain_sup=None, carrier_bound=32):
        self.name = name
        self.zero = zero
        self.one = one
        self.plus = plus
        self.times = times
        self.base = base
        self.order = order
        self._sigma_fn = sigma_fn
        self._leq = leq
        self._sample = sample
        self._contains = contains
        self._label = label
        self._parse_label = parse_label
        self.multiples_unbounded = multiples_unbounded
        self.fin_chain_plus = fin_chain_plus
        self.fin_chain_sup = fin_chain_sup
        self.carrier_bound = carrier_bound

    @classmethod
    def from_finite(cls, name, base: FiniteSemiring, sigma_fn,
                    order: PartialOrder | None = None) -> "SigmaSemiring":
        return cls(
            name,
            zero=base.zero,
            one=base.one,
            plus=base.plus,
            times=base.times,
            sigma_fn=sigma_fn,
            base=base,
            order=order,
            leq=(order.leq if order is not None else None),
            contains=lambda v, n=base.n: isinstance(v, int) and 0 <= v < n,
            label=base.label,
            parse_label=base.index_of,
            multiples_unbounded=lambda v: False,
            carrier_bound=base.n,
        )

    @property
    def is_finite(self) -> bool:
        return self.base is not None

    @property
    def has_order(self) -> bool:
        return self._leq is not None

    @property
    def has_sigma(self) -> bool:
        return self._sigma_fn is not None

    def sample(self, k: int = 8):
        if self.is_finite:
            n = self.base.n
            if n <= k:
                return list(range(n))
            step = n // k
            return sorted({i * step for i in range(k)}
                          | {self.zero, self.one, n - 1})
        return list(self._sample(k))

    def leq(self, a, b) -> bool:
        if self._leq is None:
            raise MissingOrderError(f"{self.name} carries no order")
        return self._leq(a, b)

    def contains(self, v) -> bool:
        return bool(self._contains(v))

    def label_of(self, v) -> str:
        return self._label(v) if self._label else str(v)

    def parse_label(self, text: str):
        if self._parse_label is None:
            raise ValueError(f"{self.name} has no label parser")
        if not isinstance(text, str):
            raise ValueError(f"element label must be a string, got {text!r}")
        return self._parse_label(text)

    def fold(self, f: CardinalFamily):
        """Finite add-fold of an all-finite family."""
        acc = self.zero
        for v, m in f.items():
            acc = self.plus(acc, nfold(self.plus, self.zero, v, m.n))
        return acc

    def sigma(self, f: CardinalFamily):
        """Apply Sigma; for all-finite families the result is asserted to
        agree with the finite add-fold."""
        if not self.has_sigma:
            raise ValueError(f"{self.name} has no infinite-sum operator")
        for v, _ in f.items():
            if not self.contains(v):
                raise CarrierError(f"{v!r} is not in the carrier of {self.name}")
        value = self._sigma_fn(f)
        if f.all_finite():
            folded = self.fold(f)
            if folded != value:
                raise InternalConsistencyError(
                    f"sigma of {self.name} disagrees with the finite fold on "
                    f"{f!r}: {value!r} vs {folded!r}")
        return value


# ---------------------------------------------------------------------------
# finite subsums and suprema

@dataclass(frozen=True)
class SubsumSet:
    """The set of finite subsums."""

    values: frozenset


_MULT_ENUM_LIMIT = 10_000


def _multiples(c: SigmaSemiring, v, m: Cardinal):
    """([0, v, 2v, ...] up to m*v in order, climbs).  The list ends at the
    first repeated value: from there the orbit cycles, so the list holds
    every multiple.  climbs marks an infinite multiplicity whose multiples
    grow without bound; the list is then [0]."""
    if not m.is_finite and c.multiples_unbounded(v):
        return [c.zero], True
    limit = m.n if m.is_finite else None
    vals, seen = [c.zero], {c.zero}
    while limit is None or len(vals) <= limit:
        cur = c.plus(vals[-1], v)
        vals.append(cur)
        if cur in seen:
            break
        seen.add(cur)
        if len(vals) > _MULT_ENUM_LIMIT + 1:
            # only reachable when the orbit never repeats: a symbolic carrier
            # with a huge finite multiplicity, or an undeclared infinite orbit
            if limit is None:
                raise InternalConsistencyError(
                    f"unbounded multiple orbit of {v!r} on {c.name} was not declared")
            raise SubsumLimitError(
                f"multiplicity {m!r} of {v!r} too large for subsum enumeration")
    return vals, False


def finite_subsums(c: SigmaSemiring, f: CardinalFamily) -> SubsumSet:
    """All values add-reachable using at most the multiplicity of each key.

    Grouping the picks key by key is exact because addition is commutative,
    so the set is the product-fold of the per-key multiple sets.  A family
    with a key whose multiples climb forever has no finite set: refused."""
    vals = {c.zero}
    for v, m in f.items():
        mults, climbs = _multiples(c, v, m)
        if climbs:
            raise SubsumLimitError(f"the multiples of {v!r} on {c.name} grow without bound")
        vals = {c.plus(a, b) for a in vals for b in mults}
    return SubsumSet(frozenset(vals))


def top_subsum(c: SigmaSemiring, f: CardinalFamily):
    """(greatest finite subsum, climbs): the sum of each key's last multiple.

    Under an order with zero least and monotone addition the multiples of a
    key climb, so the last one dominates the others and the sum dominates
    every subsum; a step that does not climb is an internal error.  climbs
    marks a key whose multiples climb forever; it adds 0 to the sum."""
    top, climbs = c.zero, False
    for v, m in f.items():
        mults, up = _multiples(c, v, m)
        for a, b in zip(mults, mults[1:]):
            if not c.leq(a, b):
                raise InternalConsistencyError(
                    f"multiples of {v!r} on {c.name} do not climb: {a!r} then {b!r}")
        top = c.plus(top, mults[-1])
        climbs = climbs or up
    return top, climbs


@dataclass(frozen=True)
class SupResult:
    status: str  # "exists" | "no-upper-bound" | "no-least"
    value: object | None = None


def sup_in_order(o: PartialOrder, xs) -> SupResult:
    """Least upper bound of a subset of a finite poset, distinguishing
    "no upper bound" from "upper bounds but no least one"."""
    xs = list(xs)
    ubs = [u for u in range(o.n) if all(o.leq(x, u) for x in xs)]
    if not ubs:
        return SupResult("no-upper-bound")
    for u in ubs:
        if all(o.leq(u, w) for w in ubs):
            return SupResult("exists", u)
    return SupResult("no-least")


def family_sup(c: SigmaSemiring, f: CardinalFamily) -> SupResult:
    """Sup of the finite subsums of f.  A finite carrier reads it off the
    exact subsum set, independently of top_subsum.  A symbolic chain takes
    the greatest subsum; when some key's multiples climb forever, the sup is
    fin_chain_plus of it, else fin_chain_sup."""
    if c.is_finite:
        if c.order is None:
            raise MissingOrderError(f"{c.name} carries no order")
        return sup_in_order(c.order, finite_subsums(c, f).values)
    if c.multiples_unbounded is None:
        raise MissingOrderError(f"{c.name} declares no chain structure for sups")
    top, climbs = top_subsum(c, f)
    if not climbs:
        return SupResult("exists", top)
    end = c.fin_chain_plus(top)
    if end is not None:
        return SupResult("exists", end)
    if c.fin_chain_sup is None:
        return SupResult("no-least")
    if not c.leq(top, c.fin_chain_sup):
        raise InternalConsistencyError(f"{c.name}: declared chain sup is not maximal")
    return SupResult("exists", c.fin_chain_sup)


# ---------------------------------------------------------------------------
# d-completeness

@dataclass(frozen=True)
class DCompleteWitness:
    sequence: OmegaSequence
    constant: object
    sigma_value: object


def eventually_constant_sum(c: SigmaSemiring, seq: OmegaSequence):
    """The eventual constant of the partial sums, or None.

    If a partial sum stays fixed over one full cycle it is fixed forever
    (each cycle element then satisfies v + a = v), so a constant tail of
    length cycle+1 inside the horizon is an exact criterion."""
    cyc = len(seq.cycle)
    horizon = len(seq.prefix) + (c.carrier_bound + 2) * cyc
    partials = []
    acc = c.zero
    for i in range(horizon):
        acc = c.plus(acc, seq.term(i))
        partials.append(acc)
    tail = partials[-1]
    run = 0
    for p in reversed(partials):
        if p != tail:
            break
        run += 1
    return tail if run >= cyc + 1 else None


def is_d_complete(c: SigmaSemiring, seqs):
    """Check that countable sums respect discrete convergence on the given
    sequences; returns (ok, first DCompleteWitness or None)."""
    for seq in seqs:
        constant = eventually_constant_sum(c, seq)
        if constant is None:
            continue
        got = c.sigma(seq.family())
        if got != constant:
            return False, DCompleteWitness(seq, constant, got)
    return True, None


def omega_sequence_battery(c: SigmaSemiring, seed: int, count: int):
    """Deterministic sequence battery: every single-element cycle and every
    (one-prefix, one-cycle) pair over the sample, then seeded random ones."""
    rng = random.Random(seed)
    sample = c.sample(10)
    seqs = []
    for v in sample:
        seqs.append(OmegaSequence((), (v,)))
    for u in sample:
        for v in sample:
            seqs.append(OmegaSequence((u,), (v,)))
    for _ in range(count):
        prefix = tuple(rng.choice(sample) for _ in range(rng.randrange(4)))
        cycle = tuple(rng.choice(sample) for _ in range(rng.randrange(1, 4)))
        seqs.append(OmegaSequence(prefix, cycle))
    return seqs


# ---------------------------------------------------------------------------
# finitary

@dataclass(frozen=True)
class FinitaryWitness:
    family: CardinalFamily
    reason: str  # "sup-missing" | "sup-differs"
    sigma_value: object
    sup_value: object | None = None
    sup_status: str | None = None


def is_finitary(c: SigmaSemiring, fams):
    """Sigma must equal the least upper bound of the finite subsums."""
    if not c.has_order:
        raise MissingOrderError(f"{c.name} carries no order")
    for f in fams:
        sig = c.sigma(f)
        sup = family_sup(c, f)
        if sup.status != "exists":
            return False, FinitaryWitness(f, "sup-missing", sig, None, sup.status)
        if sup.value != sig:
            return False, FinitaryWitness(f, "sup-differs", sig, sup.value, sup.status)
    return True, None


_RANDOM_MULTS = (fin(1), fin(2), fin(3), fin(4), ALEPH0, UNCOUNTABLE)


def _random_family(rng, sample) -> CardinalFamily:
    """One to three keys from the sample, each with a multiplicity from
    _RANDOM_MULTS."""
    size = rng.randrange(1, 4)
    keys = rng.sample(sample, min(size, len(sample)))
    return CardinalFamily._canonical(tuple(sorted(
        ((v, rng.choice(_RANDOM_MULTS)) for v in keys), key=itemgetter(0))))


def family_battery(c: SigmaSemiring, seed: int, count: int):
    """Deterministic family battery: targeted families first (empty,
    singletons, infinitely many ones, infinite multiplicities), then seeded
    random families over the element sample."""
    rng = random.Random(seed)
    sample = c.sample(8)
    fams = [EMPTY_FAMILY, CardinalFamily({c.one: ALEPH0}),
            CardinalFamily({c.one: UNCOUNTABLE})]
    for v in sample:
        fams.append(CardinalFamily({v: FIN1}))
        fams.append(CardinalFamily({v: ALEPH0}))
    fams.extend(_random_family(rng, sample) for _ in range(count))
    return fams


# ---------------------------------------------------------------------------
# the five-axiom battery

def _split_cardinal(rng, m: Cardinal):
    """A random two-part split m = m1 + m2 realizable by an index partition."""
    if m.is_finite:
        a = rng.randrange(m.n + 1)
        return fin(a), fin(m.n - a)
    if m == ALEPH0:
        return rng.choice([(fin(rng.randrange(1, 4)), ALEPH0), (ALEPH0, ALEPH0)])
    return rng.choice([(fin(rng.randrange(1, 4)), UNCOUNTABLE),
                       (ALEPH0, UNCOUNTABLE), (UNCOUNTABLE, UNCOUNTABLE)])


def check_sigma_axioms(c: SigmaSemiring, seed: int, families: int) -> CheckReport:
    """Generator-based battery for the five infinite-sum axioms, with
    `families` seeded random families.

    Partitions are exercised through two-block multiplicity splits and
    block repetition (kappa disjoint copies of a block), the shapes every
    argument in scope actually uses; arbitrary partitions of uncountable
    index sets are not finitely enumerable."""
    if families < 1:
        raise ValueError("battery sizes must be positive")
    return CheckReport.first_per_law(_sigma_axiom_violations(c, seed, families))


def _sigma_axiom_violations(c: SigmaSemiring, seed: int, families: int):
    """Yield (law, witness) for every failed instance, in battery order."""
    rng = random.Random(seed)
    sample = c.sample(8)
    # one c.sigma call per distinct family, so the carrier check and the fold
    # cross-check still run on each; the cache lives for this battery only
    sigma = functools.cache(c.sigma)
    if sigma(EMPTY_FAMILY) != c.zero:
        yield "sigma-empty", (sigma(EMPTY_FAMILY),)
    for a in sample:
        if sigma(CardinalFamily({a: FIN1})) != a:
            yield "sigma-singleton", (a,)
            break
    for a in sample:
        for b in sample:
            fam = CardinalFamily.from_sequence((a, b))
            if sigma(fam) != c.plus(a, b):
                yield "sigma-pair", (a, b)

    # bijection invariance is representational: any reordering of a listing
    # canonicalizes to the same family, hence the same Sigma
    for _ in range(60):
        listing = [rng.choice(sample) for _ in range(rng.randrange(8))]
        shuffled = list(listing)
        rng.shuffle(shuffled)
        f1 = CardinalFamily.from_sequence(listing)
        f2 = CardinalFamily.from_sequence(shuffled)
        if f1 != f2 or sigma(f1) != sigma(f2):
            yield "sigma-bijection", (tuple(listing), tuple(shuffled))

    kappas = [fin(0), fin(2), fin(3), ALEPH0, UNCOUNTABLE]
    for _ in range(families):
        f = _random_family(rng, sample)
        total = sigma(f)

        splits = [(v, _split_cardinal(rng, m)) for v, m in f.items()]
        part1, part2 = (CardinalFamily._canonical(
            tuple((v, ms[i]) for v, ms in splits if ms[i] != FIN0)) for i in (0, 1))
        blockwise = c.plus(sigma(part1), sigma(part2))
        if blockwise != total:
            yield "sigma-partition-split", (f, part1, part2, total, blockwise)

        kappa = rng.choice(kappas)
        lhs = sigma(f.scale(kappa))
        rhs = sigma(CardinalFamily({total: kappa}))
        if lhs != rhs:
            yield "sigma-partition-repetition", (f, kappa, lhs, rhs)

        x = rng.choice(sample)
        left = c.times(x, total)
        left_dist = sigma(f.map_keys(lambda v: c.times(x, v)))
        if left != left_dist:
            yield "sigma-distributivity-left", (x, f, left, left_dist)
        right = c.times(total, x)
        right_dist = sigma(f.map_keys(lambda v: c.times(v, x)))
        if right != right_dist:
            yield "sigma-distributivity-right", (x, f, right, right_dist)

    for kappa in kappas[1:]:
        zf = CardinalFamily({c.zero: kappa})
        if sigma(zf) != c.zero:
            yield "sigma-zero", (kappa, sigma(zf))


# ---------------------------------------------------------------------------
# characteristic cardinality

@dataclass(frozen=True)
class CharacteristicCardinality:
    lambda1: Cardinal
    lambdaS: Cardinal
    caveat: bool  # lambdaS was computed over a bounded family space


def _stabilization_index(values, ladder):
    i = len(values) - 1
    while i > 0 and values[i - 1] == values[-1]:
        i -= 1
    return ladder[i]


# the finite multiplicities the characteristic scans go up to
_LADDER_BOUND = 3
# the sizes a subfamily over at most two keys can have with finite
# multiplicities, 0 .. 2 * _LADDER_BOUND
_FINITE_SIZES = 2 * _LADDER_BOUND + 1


def characteristic_cardinality(c: SigmaSemiring) -> CharacteristicCardinality:
    """lambda1: least class kappa from which Sigma of kappa-many ones is
    constant; lambdaS: the analogous worst case over a bounded family space.
    The bound lambdaS <= max(lambda1, carrier size) is asserted."""
    ladder = [fin(k) for k in range(_LADDER_BOUND + 1)] + [ALEPH0, UNCOUNTABLE]
    ones = [c.sigma(CardinalFamily({c.one: k})) for k in ladder]
    lambda1 = _stabilization_index(ones, ladder)

    # orbit of the multiples of one: a fixed point inside the window makes
    # the finite part of the ladder exact rather than truncated
    cur = c.zero
    fixed = False
    for _ in range(_LADDER_BOUND + 1):
        nxt = c.plus(cur, c.one)
        if nxt == cur:
            fixed = True
            break
        cur = nxt
    caveat = not fixed

    # Families over a support of one or two sample values, with
    # multiplicities given as positions 0..5 on the ladder.  The subfamilies
    # of a position vector m are the vectors below it, product(range(p + 1)),
    # so one Sigma table per support serves every family over it.
    sample = c.sample(6)
    supports = [(v,) for v in sample]
    supports += [(u, v) for i, u in enumerate(sample) for v in sample[i + 1:]]
    positions = {k: list(itertools.product(range(len(ladder)), repeat=k))
                 for k in (1, 2)}
    size = {m: _size_key(m) for ms in positions.values() for m in ms}
    worst = 0
    for support in supports:
        table = {m: c.sigma(CardinalFamily(zip(support, (ladder[p] for p in m))))
                 for m in positions[len(support)]}
        for mults, target in table.items():
            if 0 in mults:
                continue
            best = min(size[sub] for sub in
                       itertools.product(*(range(p + 1) for p in mults))
                       if table[sub] == target)
            if best > worst:
                worst = best
    worst = fin(worst) if worst < _FINITE_SIZES else ladder[worst - _FINITE_SIZES]
    carrier_card = fin(c.base.n) if c.is_finite else ALEPH0
    if worst > max(lambda1, carrier_card):
        raise InternalConsistencyError(
            f"lambdaS bound violated on {c.name}: {worst!r} > "
            f"max({lambda1!r}, {carrier_card!r})")
    return CharacteristicCardinality(lambda1, worst, caveat)


def _size_key(m):
    """The size of a subfamily given as ladder positions, as an integer that
    orders like the cardinal: the finite sum, or past every finite sum of
    two positions when some multiplicity is infinite."""
    top = max(m)
    return sum(m) if top <= _LADDER_BOUND else _FINITE_SIZES + top
