"""The finitary completion of a finite ordered semiring, the polynomial
precongruence and congruence that build it, the uniqueness of the finitary
Sigma, the universal property, and the negative result about completing
against all complete semirings at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (CheckReport, FiniteSemiring, InternalConsistencyError,
                   PartialOrder, check_ordered_semiring, is_orderable)
from .cardinal import (ALEPH0, CardinalFamily, SigmaSemiring, UNCOUNTABLE,
                       characteristic_cardinality, check_sigma_axioms,
                       family_battery, finite_subsums, is_d_complete,
                       is_finitary, omega_sequence_battery)
from .gallery import four_valued, nat_infinity
from .series import (Polynomial, TruncatedSeries, enumerate_below,
                     enumerate_below_series, evaluate_phi)


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
    inconclusive: bool = False


@dataclass(frozen=True)
class CongruenceVerdict:
    lesssim_forward: bool | None
    lesssim_backward: bool | None
    witness: Polynomial | None
    inconclusive: bool = False

    @property
    def sim(self) -> bool:
        return bool(self.lesssim_forward) and bool(self.lesssim_backward)


def _below(x, cap: int):
    if isinstance(x, Polynomial):
        return enumerate_below(x)
    if isinstance(x, TruncatedSeries):
        return enumerate_below_series(x, cap)
    raise TypeError(f"expected Polynomial or TruncatedSeries, got {type(x).__name__}")


def _lesssim_brute(p_list, q_list, s, o) -> LesssimHalf:
    q_values = [evaluate_phi(q1, s) for q1 in q_list]
    for p1 in p_list:
        vp = evaluate_phi(p1, s)
        if not any(o.leq(vp, vq) for vq in q_values):
            return LesssimHalf(False, p1)
    return LesssimHalf(True, None)


def lesssim(p, q, s: FiniteSemiring, o: PartialOrder, cap: int = 3) -> LesssimHalf:
    """Brute-force precongruence check: every polynomial below p must be
    dominated (after evaluation) by some polynomial below q.

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
        return LesssimHalf(None, None, True)
    return hi


def sim_verdict(p, q, s: FiniteSemiring, o: PartialOrder, cap: int = 3) -> CongruenceVerdict:
    fwd = lesssim(p, q, s, o, cap)
    bwd = lesssim(q, p, s, o, cap)
    witness = fwd.witness if fwd.witness is not None else bwd.witness
    return CongruenceVerdict(fwd.holds, bwd.holds, witness,
                             fwd.inconclusive or bwd.inconclusive)


def _random_poly(rng, s, max_support=3, max_len=2, max_coeff=2) -> Polynomial:
    coeffs = {}
    for _ in range(rng.randrange(max_support + 1)):
        w = tuple(rng.randrange(s.n) for _ in range(rng.randrange(max_len + 1)))
        coeffs[w] = rng.randrange(1, max_coeff + 1)
    return Polynomial(coeffs)


def sim_congruence_battery(s: FiniteSemiring, o: PartialOrder,
                           seed: int = 0, triples: int = 300) -> CheckReport:
    """Seeded evidence that the two-sided precongruence is an equivalence,
    is compatible with addition and the Cauchy product, and collapses
    polynomial classes onto carrier elements (p ~ q iff phi(p) = phi(q))."""
    return CheckReport.first_per_law(_sim_congruence_violations(s, o, seed, triples))


def _sim_congruence_violations(s: FiniteSemiring, o: PartialOrder,
                               seed: int, triples: int):
    """Yield (law, witness) for every failed instance, in battery order."""
    rng = random.Random(seed)

    def related(p, q):
        return sim_verdict(p, q, s, o).sim

    polys = [_random_poly(rng, s) for _ in range(max(12, triples // 10))]
    by_value = {}
    for p in polys:
        by_value.setdefault(evaluate_phi(p, s), []).append(p)

    for _ in range(triples):
        p, q, r = (rng.choice(polys) for _ in range(3))
        if not related(p, p):
            yield "sim-reflexive", (p,)
        pq, qp = related(p, q), related(q, p)
        if pq != qp:
            yield "sim-symmetric", (p, q)
        if pq and related(q, r) and not related(p, r):
            yield "sim-transitive", (p, q, r)

    congruent_pairs = []
    for group in by_value.values():
        for i in range(len(group) - 1):
            congruent_pairs.append((group[i], group[i + 1]))
    rng.shuffle(congruent_pairs)
    for (p, p2), (q, q2) in zip(congruent_pairs, reversed(congruent_pairs)):
        if not related(p, p2) or not related(q, q2):
            yield "sim-collapse", (p, p2)
            continue
        if not related(p + q, p2 + q2):
            yield "sim-congruence-add", (p, p2, q, q2)
        if not related(p * q, p2 * q2):
            yield "sim-congruence-mul", (p, p2, q, q2)

    for _ in range(triples // 3):
        p, q = rng.choice(polys), rng.choice(polys)
        if related(p, q) != (evaluate_phi(p, s) == evaluate_phi(q, s)):
            yield "sim-collapse", (p, q)


# ---------------------------------------------------------------------------
# the completion itself

@dataclass(frozen=True)
class CompletionResult:
    semiring: SigmaSemiring
    embedding: tuple
    finitary_report: CheckReport


def _sup_sigma(s: FiniteSemiring, o: PartialOrder):
    """Sigma as the greatest finite subsum.  The subsum set of any family is
    directed (pointwise maxima of two picks dominate both), and a finite
    directed set has a greatest element, so this Sigma is total."""
    carrier = SigmaSemiring.from_finite("subsum-carrier", s, None, o)

    def sigma_fn(f: CardinalFamily):
        values = finite_subsums(carrier, f).values
        for m in values:
            if all(o.leq(v, m) for v in values):
                return m
        raise InternalConsistencyError(
            f"finite subsum set of {f!r} has no greatest element")

    return sigma_fn


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


def completion_of_finite(s: FiniteSemiring, o: PartialOrder | None = None,
                         seed: int = 0, families: int = 120,
                         sequences: int = 60) -> CompletionResult:
    """The finitary completion of a finite ordered semiring.

    For a finite carrier the completion adds no elements; the content is the
    induced Sigma (least upper bound of finite subsums), certified by the
    full Sigma-axiom, discrete-convergence and finitary batteries.  The
    finitary battery is also the uniqueness check: a finitary Sigma is the
    sup of the finite subsums, so the order admits no other one."""
    comp = completion_semiring(s, o)
    axioms = check_sigma_axioms(comp, seed, families)
    ok_d, wd = is_d_complete(comp, omega_sequence_battery(comp, seed, sequences))
    ok_f, wf = is_finitary(comp, family_battery(comp, seed, families))
    extra = []
    if not ok_d:
        extra.append(("completion-d-complete", (wd,)))
    if not ok_f:
        extra.append(("completion-finitary", (wf,)))
    report = axioms.merge(CheckReport.build(extra))
    return CompletionResult(comp, tuple(range(s.n)), report)


def universal_property_check(s: FiniteSemiring, o: PartialOrder,
                             t: SigmaSemiring, f_map: dict,
                             seed: int = 0, families: int = 120) -> CheckReport:
    """The completion's arrow property at desk scale: any embedding of s
    into a finitary t extends uniquely to the completion, i.e. the (single
    possible) extension preserves every infinite sum.

    Refuses non-embeddings and non-finitary targets."""
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
    ok, wit = is_finitary(t, family_battery(t, seed, families))
    if not ok:
        raise NotFinitaryError(f"{t.name} is not finitary: {wit}")

    completion = completion_of_finite(s, o, seed=seed,
                                      families=max(40, families // 3),
                                      sequences=30)
    violations = []
    for fam in family_battery(completion.semiring, seed, families):
        lhs = f_map[completion.semiring.sigma(fam)]
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
