"""The finitary completion of a finite ordered semiring, the polynomial
precongruence and congruence that build it, the congruence's collapse onto
the carrier decided over every polynomial from value signatures, the
uniqueness of the finitary Sigma, the universal property, and the negative
result about completing against all complete semirings at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (CheckReport, FiniteSemiring, InternalConsistencyError,
                   PartialOrder, check_ordered_semiring, is_orderable)
from .cardinal import (ALEPH0, CardinalFamily, SigmaSemiring, UNCOUNTABLE,
                       characteristic_cardinality, check_sigma_table,
                       family_battery, is_finitary, top_subsum)
from .gallery import four_valued, nat_infinity
from .series import (POLY_ZERO, Polynomial, TruncatedSeries, embed_e,
                     enumerate_below, enumerate_below_series, evaluate_phi)


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


def _below(x, cap: int):
    if isinstance(x, Polynomial):
        return enumerate_below(x)
    if isinstance(x, TruncatedSeries):
        return enumerate_below_series(x, cap)
    raise TypeError(f"expected Polynomial or TruncatedSeries, got {type(x).__name__}")


def _lesssim_brute(p_list, q_list, s, o) -> LesssimHalf:
    below_q = down_set({evaluate_phi(q1, s) for q1 in q_list}, s, o)
    for p1 in p_list:
        if evaluate_phi(p1, s) not in below_q:
            return LesssimHalf(False, p1)
    return LesssimHalf(True)


def lesssim(p, q, s: FiniteSemiring, o: PartialOrder, cap: int = 3) -> LesssimHalf:
    """Brute-force precongruence check: the value of every polynomial below
    p must lie in the down_set of the values below q; the witness is the
    first polynomial below p, in enumeration order, whose value does not.

    For polynomial arguments the verdict is exact and additionally compared
    against the reduced criterion phi(p) <= phi(q); a disagreement would
    falsify the monotonicity of the evaluation map, so it aborts the run.
    Series arguments cap infinite coefficients and require the verdicts at
    cap-1 and cap to agree, otherwise the result is inconclusive."""
    ok, wit = is_orderable(s)
    if not ok:
        raise NotOrderableError(wit)
    both_poly = isinstance(p, Polynomial) and isinstance(q, Polynomial)
    if both_poly:
        verdict = _lesssim_brute(enumerate_below(p), enumerate_below(q), s, o)
        reduced = o.leq(evaluate_phi(p, s), evaluate_phi(q, s))
        if verdict.holds != reduced:
            raise InternalConsistencyError(
                f"brute-force and reduced precongruence criteria disagree on "
                f"({p!r}, {q!r}): {verdict.holds} vs {reduced}")
        return verdict
    lo = _lesssim_brute(_below(p, cap - 1), _below(q, cap - 1), s, o)
    hi = _lesssim_brute(_below(p, cap), _below(q, cap), s, o)
    if lo.holds != hi.holds:
        return LesssimHalf(None)
    return hi


def sim_verdict(p, q, s: FiniteSemiring, o: PartialOrder, cap: int = 3) -> CongruenceVerdict:
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
            sig = (s.plus(v, a), values | {s.plus(x, a) for x in values})
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
        below = {evaluate_phi(q, s) for q in enumerate_below(p)}
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
    """The completion's carrier with the induced Sigma, uncertified: refuses
    a carrier that is not orderable or an order that is not compatible."""
    orderable, witness = is_orderable(s)
    if not orderable:
        raise NotOrderableError(witness)
    if o is None:
        o = witness
    else:
        rep = check_ordered_semiring(s, o)
        if not rep.passed:
            raise EmbeddingError(f"supplied order is not compatible: {rep.violations}")
    return SigmaSemiring.from_finite("completion", s, _sup_sigma(s, o), o)


def completion_of_finite(s: FiniteSemiring,
                         o: PartialOrder | None = None) -> CompletionResult:
    """The finitary completion of a finite ordered semiring.

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
    """The completion's arrow property at desk scale: any embedding of s
    into a finitary t extends uniquely to the completion, i.e. the (single
    possible) extension preserves every infinite sum.

    Refuses non-embeddings and non-finitary targets.  Both batteries, on t
    and on the completion, draw 120 families from seed 0."""
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
    ok, wit = is_finitary(t, family_battery(t, 0, 120))
    if not ok:
        raise NotFinitaryError(f"{t.name} is not finitary: {wit}")

    completion = completion_semiring(s, o)
    violations = []
    for fam in family_battery(completion, 0, 120):
        lhs = f_map[completion.sigma(fam)]
        rhs = t.sigma(fam.map_keys(lambda v: f_map[v]))
        if lhs != rhs:
            violations.append(("universal-sigma-preservation", (fam, lhs, rhs)))
            break
    return CheckReport.build(violations)


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
