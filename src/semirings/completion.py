"""The finitary completion of a finite ordered semiring, the polynomial
precongruence and congruence that build it, the congruence's collapse onto
the carrier decided over every polynomial from value signatures, the
uniqueness of the finitary Sigma, the universal property decided from the
singleton Sigma tables, and why no completion serves all complete semirings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (CheckReport, FiniteSemiring, InternalConsistencyError,
                   PartialOrder, is_orderable)
from .cardinal import (ALEPH0, CardinalFamily, SigmaSemiring, UNCOUNTABLE,
                       characteristic_cardinality, check_sigma_table, top_subsum)
from .gallery import four_valued, nat_infinity
from .series import (POLY_ZERO, Polynomial, TruncatedSeries, capped_bounds,
                     embed_e, enumerate_below, enumerate_below_series,
                     evaluate_phi, phi_each, word_key)


class NotOrderableError(ValueError):
    """Refusal: the carrier admits no compatible order.  Carries the
    absorption-condition witness triple."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"semiring is not orderable, witness triple {witness}")


class EmbeddingError(ValueError):
    """Refusal: the supplied map is not an order-and-operation embedding."""


class NotFinitaryError(ValueError):
    """Refusal: the target semiring is not finitary."""


@dataclass(frozen=True)
class LesssimHalf:
    holds: bool | None  # None = inconclusive under the coefficient cap
    witness: Polynomial | None = None

    @property
    def inconclusive(self) -> bool:
        return self.holds is None


@dataclass(frozen=True)
class CongruenceVerdict:
    lesssim_forward: bool | None
    lesssim_backward: bool | None
    witness: Polynomial | None

    @property
    def inconclusive(self) -> bool:
        return self.lesssim_forward is None or self.lesssim_backward is None

    @property
    def sim(self) -> bool:
        return bool(self.lesssim_forward) and bool(self.lesssim_backward)


def down_set(values, s: FiniteSemiring, o) -> frozenset:
    """The carrier elements below some element of `values`, read through
    o.leq alone: each a in A lies below some b in B iff A <= down_set(B)."""
    return frozenset(x for x in range(s.n) if any(o.leq(x, v) for v in values))


def _plus_unit(values, a: int, s: FiniteSemiring):
    """V | (V + a): V once one more unit of value a may be added."""
    return values | {s.plus(x, a) for x in values}


def _value_set(bounds: dict, s: FiniteSemiring) -> frozenset:
    """V, the phi values of the polynomials with at most bounds[w] units of
    each word w, a unit at a time until one adds nothing (at most n per
    word), in the order the enumerator's list first reaches the words."""
    values = frozenset((s.zero,))
    for w in sorted(filter(bounds.get, bounds), key=word_key, reverse=True):
        a = evaluate_phi(Polynomial._canonical({w: 1}), s)
        for _ in range(bounds[w]):
            if len(values) == len(values := _plus_unit(values, a, s)):
                break
    return values


class _Side:
    """One argument of the precongruence, read at most once per cap (a
    polynomial once in all).  A read keeps [V, down_set(V)], the latter
    built the first time the side plays q.  Only a failing half's witness
    enumerates, through the enumerators looked up on this module."""

    __slots__ = ("x", "s", "o", "_reads")

    def __init__(self, x, s: FiniteSemiring, o):
        if not isinstance(x, (Polynomial, TruncatedSeries)):
            raise TypeError(f"expected Polynomial or TruncatedSeries, got {type(x).__name__}")
        self.x, self.s, self.o, self._reads = x, s, o, {}

    def read(self, cap: int) -> list:
        key = None if isinstance(self.x, Polynomial) else cap
        if key not in self._reads:
            bounds = self.x.coeffs if key is None else capped_bounds(self.x, cap)
            self._reads[key] = [_value_set(bounds, self.s), None]
        return self._reads[key]

    def down(self, cap: int) -> frozenset:
        read = self.read(cap)
        if read[1] is None:
            read[1] = down_set(read[0], self.s, self.o)
        return read[1]


def _half(p: _Side, q: _Side, cap: int) -> LesssimHalf:
    if p.read(cap)[0] <= (below_q := q.down(cap)):
        return LesssimHalf(True)
    below = (enumerate_below(p.x) if isinstance(p.x, Polynomial)
             else enumerate_below_series(p.x, cap))
    return LesssimHalf(False, next(p1 for p1, v in zip(below, phi_each(below, p.s))
                                   if v not in below_q))


def lesssim(p, q, s: FiniteSemiring, o: PartialOrder, cap: int = 3) -> LesssimHalf:
    """Brute-force precongruence check: the set V(p) of phi values below p,
    built from its words' values, must lie in the down_set of V(q).  Only a
    failing half enumerates p's below-set, for the witness: its first
    polynomial, in enumeration order, whose value falls outside.  A bare
    argument is wrapped here; sim_verdict passes sides shared by its calls.

    For polynomial arguments the verdict is exact and additionally compared
    against the reduced criterion phi(p) <= phi(q); a disagreement would
    falsify the monotonicity of the evaluation map, so it aborts the run.
    Series arguments cap infinite coefficients and require the verdicts at
    cap-1 and cap to agree, otherwise the result is inconclusive and
    nothing is enumerated; a cap below 1 is refused."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap!r}")
    ok, wit = is_orderable(s)
    if not ok:
        raise NotOrderableError(wit)
    p, q = (x if isinstance(x, _Side) else _Side(x, s, o) for x in (p, q))
    if isinstance(p.x, Polynomial) and isinstance(q.x, Polynomial):
        verdict = _half(p, q, cap)
        reduced = o.leq(evaluate_phi(p.x, s), evaluate_phi(q.x, s))
        if verdict.holds != reduced:
            raise InternalConsistencyError(
                f"brute-force and reduced precongruence criteria disagree on "
                f"({p.x!r}, {q.x!r}): {verdict.holds} vs {reduced}")
        return verdict
    if (p.read(cap - 1)[0] <= q.down(cap - 1)) != (p.read(cap)[0] <= q.down(cap)):
        return LesssimHalf(None)
    return _half(p, q, cap)


def sim_verdict(p, q, s: FiniteSemiring, o: PartialOrder, cap: int = 3) -> CongruenceVerdict:
    """Both halves, p <~ q and q <~ p, over one side object per argument:
    each side's value set and down-set are built once per cap (a
    polynomial's once in all) and serve both lesssim calls.  The witness is
    the forward half's, else the backward half's."""
    p, q = _Side(p, s, o), _Side(q, s, o)
    fwd = lesssim(p, q, s, o, cap)
    bwd = lesssim(q, p, s, o, cap)
    witness = fwd.witness if fwd.witness is not None else bwd.witness
    return CongruenceVerdict(fwd.holds, bwd.holds, witness)


def value_signatures(s: FiniteSemiring) -> dict:
    """The signature (phi(p), V(p)) of every polynomial p, V(p) being the
    set of phi-values of the polynomials below p, each mapped to a sum of
    one-letter words that has it.

    The closure of (0, {0}) under (v, V) -> (v + a, V | (V + a)) for each
    carrier element a: one step adds one unit of the word [a], a word w
    acts like the letter phi(w), and every polynomial is a sum of such
    units, so the closure holds exactly the signatures of all polynomials."""
    sigs = {(s.zero, frozenset({s.zero})): POLY_ZERO}
    todo = list(sigs)
    for v, values in todo:
        for a in range(s.n):
            sig = (s.plus(v, a), _plus_unit(values, a, s))
            if sig not in sigs:
                sigs[sig] = sigs[(v, values)] + embed_e(a)
                todo.append(sig)
    return sigs


def collapse_holds(s: FiniteSemiring, o) -> tuple[bool, int]:
    """The main theorem's collapse, p ~ q iff phi(p) = phi(q), over every
    polynomial, and the number of signatures that decide it.

    p ~ q iff the down_sets of V(p) and V(q) are equal, so comparing the
    pairs (phi(p), down_set(V(p))) by equality over the reachable
    signatures covers every pair of polynomials.  Each signature is first
    checked against the below-set of the polynomial that has it; a
    disagreement would falsify the closure, so it aborts the run."""
    sigs = value_signatures(s)
    for (v, values), p in sigs.items():
        below = set(phi_each(enumerate_below(p), s))
        if evaluate_phi(p, s) != v or below != values:
            raise InternalConsistencyError(
                f"signature ({v}, {sorted(values)}) is not that of {p!r}")
    pairs = {(v, down_set(values, s, o)) for v, values in sigs}
    holds = all((da == db) == (va == vb) for va, da in pairs for vb, db in pairs)
    return holds, len(sigs)


# ---------------------------------------------------------------------------
# the completion itself

@dataclass(frozen=True)
class CompletionResult:
    semiring: SigmaSemiring
    finitary_report: CheckReport


def _sup_sigma(s: FiniteSemiring, o: PartialOrder):
    """Sigma as the greatest finite subsum, the sum of each key's greatest
    multiple.  On a finite carrier every orbit of multiples reaches a fixed
    point, so this Sigma is total."""
    carrier = SigmaSemiring.from_finite("subsum-carrier", s, None, o)
    return lambda f: top_subsum(carrier, f)[0]


def completion_semiring(s: FiniteSemiring,
                        o: PartialOrder | None = None) -> SigmaSemiring:
    """The completion's carrier with the induced Sigma, uncertified.  A
    supplied o is taken as compatible; cli._load_finite checks it.  s is
    then orderable: a <= a + x under o, so the natural quasiorder lies in o
    and is antisymmetric.  Without o the natural order is used, and a
    carrier that is not orderable is refused."""
    if o is None:
        orderable, o = is_orderable(s)
        if not orderable:
            raise NotOrderableError(o)
    return SigmaSemiring.from_finite("completion", s, _sup_sigma(s, o), o)


def completion_of_finite(s: FiniteSemiring,
                         o: PartialOrder | None = None) -> CompletionResult:
    """The finitary completion of s, under o taken as compatible as in
    completion_semiring.

    For a finite carrier the completion adds no elements, so the embedding
    is the identity; the content is the induced Sigma (least upper bound of
    finite subsums), which check_sigma_table certifies exactly, over every
    family and sequence: the Sigma axioms, d-completeness and finitarity,
    which is also the uniqueness check (a finitary Sigma is the sup of the
    finite subsums, read from the order).  A failed law is reported with
    its one- or two-key family; no sampled battery runs."""
    comp = completion_semiring(s, o)
    return CompletionResult(comp, check_sigma_table(comp))


def universal_property_check(s: FiniteSemiring, o: PartialOrder,
                             t: SigmaSemiring, f_map: dict) -> CheckReport:
    """The universal property, decided exactly: an embedding f of s into a
    finitary t extends to the completion as f itself, which preserves every
    infinite sum iff f(T_k(v)) = T'_k(f(v)) on both sides' singleton tables
    T_k(v) = Sigma({v: k}), k in aleph0 and uncountable: 2n compares, since
    t's Sigma is taken to be lawful, as the theorem assumes, so key-additive
    (see check_sigma_table).  o is taken as compatible with s.  Refuses
    non-embeddings and a target that has no order, is symbolic or fails
    check_sigma_table; past that a miss would falsify the theorem."""
    rng = range(s.n)
    if sorted(f_map) != list(rng):
        raise EmbeddingError("map must be defined on the whole carrier")
    images = [f_map[a] for a in rng]
    if len(set(images)) != s.n:
        raise EmbeddingError("map is not injective")
    if not all(t.contains(v) for v in images):
        raise EmbeddingError("image lies outside the target carrier")
    if f_map[s.zero] != t.zero or f_map[s.one] != t.one:
        raise EmbeddingError("map does not preserve the constants")
    for a in rng:
        for b in rng:
            if f_map[s.plus(a, b)] != t.plus(f_map[a], f_map[b]):
                raise EmbeddingError(f"addition not preserved at ({a},{b})")
            if f_map[s.times(a, b)] != t.times(f_map[a], f_map[b]):
                raise EmbeddingError(f"multiplication not preserved at ({a},{b})")
            if o.leq(a, b) and not t.leq(f_map[a], f_map[b]):
                raise EmbeddingError(f"order not preserved at ({a},{b})")
    if not t.has_order:
        raise NotFinitaryError(f"{t.name} carries no order")
    if not t.is_finite:
        raise NotFinitaryError(f"{t.name} is symbolic: it has no Sigma table")
    if not (report := check_sigma_table(t)).passed:
        raise NotFinitaryError(f"{t.name} is not finitary: {report.law_names()}")

    completion = completion_semiring(s, o)
    for fam in (CardinalFamily({v: k}) for k in (ALEPH0, UNCOUNTABLE) for v in rng):
        lhs = f_map[completion.sigma(fam)]
        rhs = t.sigma(fam.map_keys(lambda v: f_map[v]))
        if lhs != rhs:
            return CheckReport.build([("universal-sigma-preservation", (fam, lhs, rhs))])
    return CheckReport.build([])


# ---------------------------------------------------------------------------
# the negative result

@dataclass(frozen=True)
class ObstructionRecord:
    """Why no single complete semiring over the naturals maps into every
    complete semiring: the cardinal-class chain separates two infinite sums
    of ones that the naturals-with-infinity must identify."""

    lambda1_nat_infinity: object
    lambda1_four_valued: object
    nat_sigma_aleph0: object
    nat_sigma_uncountable: object
    four_sigma_aleph0: object
    four_sigma_uncountable: object

    def separated_in_four_valued(self) -> bool:
        return self.four_sigma_aleph0 != self.four_sigma_uncountable

    def identified_in_nat_infinity(self) -> bool:
        return self.nat_sigma_aleph0 == self.nat_sigma_uncountable


def no_universal_complete_demo() -> ObstructionRecord:
    ninf_sr = nat_infinity()
    four = four_valued()
    return ObstructionRecord(
        lambda1_nat_infinity=characteristic_cardinality(ninf_sr).lambda1,
        lambda1_four_valued=characteristic_cardinality(four).lambda1,
        nat_sigma_aleph0=ninf_sr.sigma(CardinalFamily({ninf_sr.one: ALEPH0})),
        nat_sigma_uncountable=ninf_sr.sigma(CardinalFamily({ninf_sr.one: UNCOUNTABLE})),
        four_sigma_aleph0=four.sigma(CardinalFamily({four.one: ALEPH0})),
        four_sigma_uncountable=four.sigma(CardinalFamily({four.one: UNCOUNTABLE})),
    )
