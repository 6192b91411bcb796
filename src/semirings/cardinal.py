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
from operator import and_, itemgetter

from .core import (CheckReport, FiniteSemiring, InternalConsistencyError,
                   PartialOrder, StructureError, _gather)


class CarrierError(ValueError):
    """A family key lies outside the carrier."""


class MissingOrderError(ValueError):
    """The operation needs an ordered carrier (a symbolic one with its chain
    hooks) and none was supplied."""


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
        if len(self._items) == 1:  # one key: nothing to merge or sort
            (v, c), = self._items
            return CardinalFamily._canonical(((f(v), c),))
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

    def family(self) -> CardinalFamily:
        return CardinalFamily([(v, FIN1) for v in self.prefix]
                              + [(v, ALEPH0) for v in self.cycle])


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise StructureError(f"invalid JSON: {e.msg}") from None
    except RecursionError:
        raise StructureError("invalid JSON: nested too deeply") from None


def family_from_json(c, text: str) -> CardinalFamily:
    """Parse {"family": {"<element label>": "fin:3"|"aleph0"|"uncountable"}}."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("family"), dict):
        raise StructureError('expected an object with a "family" mapping')
    mult = {}
    for label, card_text in doc["family"].items():
        try:
            mult[c.parse_label(label)] = parse_cardinal(card_text)
        except ValueError as e:
            raise StructureError(str(e)) from None
    return CardinalFamily(mult)


def omega_sequence_from_json(c, text: str) -> OmegaSequence:
    """Parse {"prefix": [labels...], "cycle": [labels...]}."""
    doc = _load_json(text)
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


_SYMBOLIC_CARRIER_BOUND = 32  # carrier_bound of every symbolic carrier


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
                 fin_chain_plus=None, fin_chain_sup=None):
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
        self.carrier_bound = base.n if base is not None else _SYMBOLIC_CARRIER_BOUND

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


def _multiples(c: SigmaSemiring, v, m: Cardinal):
    """[0, v, 2v, ...] up to m*v, in order.  The list ends at the first
    repeated value: from there the orbit cycles, so the list holds every
    multiple.  An orbit that has not repeated after carrier_bound + 1 steps
    climbs forever, which the carrier had to declare."""
    vals, seen = [c.zero], {c.zero}
    for _ in range(c.carrier_bound + 1):
        if m.is_finite and len(vals) > m.n:
            return vals
        cur = c.plus(vals[-1], v)
        vals.append(cur)
        if cur in seen:
            return vals
        seen.add(cur)
    raise InternalConsistencyError(
        f"unbounded multiple orbit of {v!r} on {c.name} was not declared")


def _doubling_chain(c: SigmaSemiring, v, k: int):
    """[0, v, 2v, 4v, ..., k*v]: the doublings nfold passes, then k*v."""
    chain, step = [c.zero], v
    for _ in range(k.bit_length()):
        chain.append(step)
        step = c.plus(step, step)
    chain.append(nfold(c.plus, c.zero, v, k))
    return chain


def finite_subsums(c: SigmaSemiring, f: CardinalFamily) -> SubsumSet:
    """All values add-reachable using at most the multiplicity of each key.

    Grouping the picks key by key is exact because addition is commutative,
    so the set is the product-fold of the per-key multiple sets.  Only a
    finite carrier has such sets in general: a symbolic one is refused."""
    if not c.is_finite:
        raise ValueError(f"{c.name} is symbolic: subsum sets exist on finite carriers only")
    vals = {c.zero}
    for v, m in f.items():
        mults = _multiples(c, v, m)
        vals = {c.plus(a, b) for a in vals for b in mults}
    return SubsumSet(frozenset(vals))


def top_subsum(c: SigmaSemiring, f: CardinalFamily):
    """(greatest finite subsum, climbs): the sum of each key's last multiple.

    Under an order with zero least and monotone addition the multiples of a
    key climb, so the last one dominates the others and the sum dominates
    every subsum; a step that does not climb is an internal error.  A
    symbolic carrier checks a finite multiple along its doubling chain.
    climbs marks a key whose multiples climb forever; it adds nothing."""
    top, climbs = c.zero, False
    for v, m in f.items():
        if not m.is_finite and c.multiples_unbounded(v):
            climbs = True
            continue
        mults = (_multiples(c, v, m) if c.is_finite or not m.is_finite
                 else _doubling_chain(c, v, m.n))
        for a, b in zip(mults, mults[1:]):
            if not c.leq(a, b):
                raise InternalConsistencyError(
                    f"multiples of {v!r} on {c.name} do not climb: {a!r} then {b!r}")
        top = c.plus(top, mults[-1])
    return top, climbs


@dataclass(frozen=True)
class SupResult:
    status: str  # "exists" | "no-upper-bound" | "no-least"
    value: object | None = None


def sup_in_order(o: PartialOrder, xs) -> SupResult:
    """Least upper bound of a subset of a finite poset, distinguishing
    "no upper bound" from "upper bounds but no least one".  The upper
    bounds are the AND of the members' up-set masks; the least one is the
    first whose own mask holds them all."""
    ups = o.up_masks
    common = functools.reduce(and_, map(ups.__getitem__, xs), (1 << o.n) - 1)
    if not common:
        return SupResult("no-upper-bound")
    for u in itertools.compress(range(o.n), map(int, reversed(f"{common:b}"))):
        if ups[u] & common == common:
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
    (each cycle element then satisfies v + a = v), so the walk adds the
    prefix, then whole cycles, and stops at the first run of len(cycle)
    additions that leave the sum unchanged.  None means no such run
    within the horizon of carrier_bound + 2 cycles."""
    acc = c.zero
    for a in seq.prefix:
        acc = c.plus(acc, a)
    run = 0
    for a in seq.cycle * (c.carrier_bound + 2):
        nxt = c.plus(acc, a)
        run = run + 1 if nxt == acc else 0
        if run == len(seq.cycle):
            return nxt
        acc = nxt
    return None


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
    sigma_value: object
    sup_status: str  # SupResult.status
    sup_value: object | None = None

    @property
    def reason(self) -> str:
        return "sup-differs" if self.sup_status == "exists" else "sup-missing"


def is_finitary(c: SigmaSemiring, fams):
    """Sigma must equal the least upper bound of the finite subsums."""
    if not c.has_order:
        raise MissingOrderError(f"{c.name} carries no order")
    for f in fams:
        sig = c.sigma(f)
        sup = family_sup(c, f)
        if sup.status != "exists" or sup.value != sig:
            return False, FinitaryWitness(f, sig, sup.status, sup.value)
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
    `families` seeded random families, then infinite distributivity for
    every sample element over every sample singleton {a: aleph0}.

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

        yield from _distributivity_violations(c, sigma, rng.choice(sample), f, total)

    for kappa in kappas[1:]:
        zf = CardinalFamily({c.zero: kappa})
        if sigma(zf) != c.zero:
            yield "sigma-zero", (kappa, sigma(zf))

    # Exhaustive over the sample: x against every singleton {a: aleph0}.
    # With infinity adjoined, Sigma of a family with infinite nonzero
    # support is inf, so any failing family implies a failing singleton.
    # Last in the battery, so it can only add witnesses, never displace one.
    singletons = [CardinalFamily({a: ALEPH0}) for a in sample]
    for x in sample:
        for f in singletons:
            yield from _distributivity_violations(c, sigma, x, f, sigma(f))


def _distributivity_violations(c: SigmaSemiring, sigma, x, f: CardinalFamily, total):
    """Yield the left and right infinite-distributivity failures of x over
    the family f, whose Sigma is total."""
    for side, times in (("left", lambda v: c.times(x, v)),
                        ("right", lambda v: c.times(v, x))):
        product = times(total)
        distributed = sigma(f.map_keys(times))
        if product != distributed:
            yield f"sigma-distributivity-{side}", (x, f, product, distributed)


# ---------------------------------------------------------------------------
# the exact certificate of a finite Sigma table

def check_sigma_table(c: SigmaSemiring) -> CheckReport:
    """The Sigma axioms, d-completeness and finitarity over every family,
    decided exactly on a finite carrier whose order is compatible (zero
    least, + monotone) and whose Sigma is key-additive: the sum over the
    keys v of Sigma({v: m_v}).  Finite multiplicities sum by the fold, so
    the table T_k(v) = Sigma({v: k}), k in aleph0 and uncountable, fixes
    Sigma, and each law becomes row compares on it, each row an instance of the
    law on a family of one or two keys: zero, T_k(0) = 0; split,
    v + T_k(v) = T_k(v) and T_k + T_m = T_max(k,m); repetition,
    T_k(a + b) = T_k(a) + T_k(b) and T_k(T_m(v)) = T_max(k,m)(v);
    distributivity, x * T_k(v) = T_k(x * v) on both sides.  Under the order
    the partial sums of v, v, ... end at the last of v's multiples, the sup
    of the finite subsums of {v: k} is the sup of those multiples, and sups
    add, so Sigma is d-complete iff T_aleph0 is the last multiple, and
    finitary iff T_aleph0 and T_uncountable are the sup, which is read from
    the order's up-sets, not from Sigma.  Each failed row reports its least
    instance.  The verdict is exact; the laws named are exact while the
    split rows hold, since a failed split can hide a failure over merged
    keys."""
    keys = range(c.base.n)
    tables = {k: tuple(c.sigma(CardinalFamily({v: k})) for v in keys)
              for k in (ALEPH0, UNCOUNTABLE)}
    for v in keys:  # one finite multiplicity per key keeps the fold cross-check running
        c.sigma(CardinalFamily({v: fin(2)}))
    multiples = [_multiples(c, v, ALEPH0) for v in keys]
    sups = tuple(sup_in_order(c.order, m) for m in multiples)
    return CheckReport.first_per_law(_sigma_table_violations(
        c.base, tables, tuple(m[-1] for m in multiples), sups))


def _first_miss(got, want):
    """The least index at which two rows differ, or None."""
    got, want = tuple(got), tuple(want)
    return None if got == want else next(i for i, g in enumerate(got) if g != want[i])


def _sigma_table_violations(s: FiniteSemiring, tables, last, sups):
    """Yield (law, witness) for each failed row of check_sigma_table.  Each
    O(n) row is gathered in C: a table row read at the values of T_k, and
    T_k read along a table row."""
    keys, add, mul = range(s.n), s.add, s.mul
    columns = tuple(zip(*mul))
    along = [(_gather(add[a]), _gather(mul[a]), _gather(columns[a])) for a in keys]
    for k, t in tables.items():
        if t[s.zero] != s.zero:
            yield "sigma-zero", (k, t[s.zero])
        if (v := _first_miss(map(s.plus, keys, t), t)) is not None:
            yield "sigma-partition-split", tuple(CardinalFamily({v: j})
                                                 for j in (k, k, FIN1))
        for m, u in tables.items():
            joint = tables[max(k, m)]
            if (v := _first_miss(map(s.plus, t, u), joint)) is not None:
                yield "sigma-partition-split", tuple(CardinalFamily({v: j})
                                                     for j in (max(k, m), k, m))
            if (v := _first_miss(map(t.__getitem__, u), joint)) is not None:
                yield "sigma-partition-repetition", (CardinalFamily({v: m}), k)
        at_t = _gather(t)  # at_t(row) == (row[T_k(v)] for v)
        for a, (plus_a, times_a, a_times) in zip(keys, along):
            if (b := _first_miss(plus_a(t), at_t(add[t[a]]))) is not None:
                yield "sigma-partition-repetition", (CardinalFamily.from_sequence((a, b)), k)
            for side, row, through in (("left", mul[a], times_a),
                                       ("right", columns[a], a_times)):
                if (v := _first_miss(at_t(row), through(t))) is not None:
                    yield f"sigma-distributivity-{side}", (a, CardinalFamily({v: k}))
    if (v := _first_miss(tables[ALEPH0], last)) is not None:
        yield "completion-d-complete", (DCompleteWitness(
            OmegaSequence((), (v,)), last[v], tables[ALEPH0][v]),)
    for k, t in tables.items():
        if (v := _first_miss(t, (sup.value for sup in sups))) is not None:
            yield "completion-finitary", (FinitaryWitness(
                CardinalFamily({v: k}), t[v], sups[v].status, sups[v].value),)


# ---------------------------------------------------------------------------
# characteristic cardinality

@dataclass(frozen=True)
class CharacteristicCardinality:
    lambda1: Cardinal
    lambdaS: Cardinal


def _stabilization_index(values, ladder):
    i = len(values) - 1
    while i > 0 and values[i - 1] == values[-1]:
        i -= 1
    return ladder[i]


def characteristic_cardinality(c: SigmaSemiring) -> CharacteristicCardinality:
    """lambda1: least class kappa from which Sigma of kappa-many ones is
    constant; lambdaS: the analogous worst case over the families on one or
    two sample keys.  Both scan the ladder fin:0 .. fin:b, aleph0,
    uncountable, with b read off the orbits of the multiples: past b no
    finite multiple reaches a new value, so no Sigma value and no least
    subfamily lies beyond the ladder.  The bound
    lambdaS <= max(lambda1, carrier size) is asserted."""
    # b is the largest k at which 0, v, 2v, ... still reaches a new value,
    # over one and the sample keys; a key whose multiples climb forever
    # adds nothing
    sample = c.sample(6)
    bound = max([1] + [len(_multiples(c, v, ALEPH0)) - 2 for v in (c.one, *sample)
                       if c.multiples_unbounded is None or not c.multiples_unbounded(v)])
    ladder = [fin(k) for k in range(bound + 1)] + [ALEPH0, UNCOUNTABLE]
    ones = [c.sigma(CardinalFamily({c.one: k})) for k in ladder]
    lambda1 = _stabilization_index(ones, ladder)

    # Families over a support of one or two sample values, with
    # multiplicities given as ladder positions.  The subfamilies of a
    # position vector m are the vectors below it, product(range(p + 1)),
    # so one Sigma table per support serves every family over it.  A
    # subfamily's size is its finite sum, at most 2 * bound, or past every
    # such sum when some multiplicity is infinite.
    supports = [(v,) for v in sample]
    supports += [(u, v) for i, u in enumerate(sample) for v in sample[i + 1:]]
    positions = {k: list(itertools.product(range(len(ladder)), repeat=k))
                 for k in (1, 2)}
    size = {m: sum(m) if max(m) <= bound else 2 * bound + max(m)
            for ms in positions.values() for m in ms}
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
    worst = fin(worst) if worst <= 2 * bound else ladder[worst - 2 * bound]
    carrier_card = fin(c.base.n) if c.is_finite else ALEPH0
    if worst > max(lambda1, carrier_card):
        raise InternalConsistencyError(
            f"lambdaS bound violated on {c.name}: {worst!r} > "
            f"max({lambda1!r}, {carrier_card!r})")
    return CharacteristicCardinality(lambda1, worst)
