"""Batch front door: ingest semiring definitions, run the check suites and
constructions, and emit deterministic reports.

Exit codes: 0 success, 1 mathematical failure (with witnesses), 2 input
error (parse or structural).  The three are never conflated.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .cardinal import (CardinalFamily, SigmaSemiring, family_battery,
                       family_from_json, is_d_complete, is_finitary,
                       omega_sequence_battery, omega_sequence_from_json,
                       parse_cardinal)
from .cardinal import check_sigma_axioms as sigma_axiom_battery
from .completion import (NotOrderableError, completion_of_finite,
                         completion_semiring, sim_verdict)
from .core import (FiniteSemiring, StructureError, check_ordered_semiring,
                   check_semiring_axioms, is_orderable, is_zero_sum_free,
                   natural_quasiorder, semiring_from_json)
from .gallery import (ZeroSumError, adjoin_infinity, gallery_names,
                      gallery_semiring)
from .series import count_below, poly_from_text, poly_to_text
from .suite import SuiteConfig, run_selftest


@dataclass(frozen=True)
class RunConfig:
    inputs: tuple[str, ...]
    seed: int = 1
    battery: int = 500
    fmt: str = "human"

    @property
    def suite(self) -> SuiteConfig:
        return SuiteConfig(self.seed, self.battery)


MAX_BELOW = 10**5  # polynomials `congruence` may enumerate below both sides
MAX_BATTERY = 10**5  # --battery; a family costs about 200 bytes while it is held


class InputError(Exception):
    """Anything wrong with the request itself; mapped to exit code 2."""


def _gallery_member(name: str):
    """A gallery member by registry name; unknown or malformed names are
    input errors."""
    try:
        return gallery_semiring(name)
    except (KeyError, ValueError) as e:
        raise InputError(e.args[0] if e.args else str(e)) from None


def _is_file(source: str) -> bool:
    path = Path(source)
    return path.suffix == ".json" or path.exists()


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
        raise InputError(f"cannot read {path}: {e}") from None


def _load_finite(source: str):
    """Resolve an input to (FiniteSemiring, optional order): a JSON path or
    a gallery name with a finite carrier.  An order supplied in the JSON
    must be compatible with the tables.  A gallery member's order is its
    tables' natural order, which is_orderable returns, so none is passed on."""
    if _is_file(source):
        try:
            s, order = semiring_from_json(_read_text(source))
        except StructureError as e:
            raise InputError(f"{source}: {e}") from None
        if order is not None:
            report = check_ordered_semiring(s, order)
            if not report.passed:
                law, witness = report.violations[0]
                raise InputError(f"{source}: the supplied order violates {law} at {witness}")
        return s, order
    member = _gallery_member(source)
    s = member if isinstance(member, FiniteSemiring) else member.base
    if s is None:
        raise InputError(f"{source} has an infinite carrier; this command needs tables")
    return s, None


def _load_semiring(source: str):
    """_load_finite for the commands that need a semiring: tables read from
    a file must satisfy the laws.  Gallery members are semirings by
    construction."""
    s, order = _load_finite(source)
    if _is_file(source):
        report = check_semiring_axioms(s)
        if not report.passed:
            raise InputError(f"{source} is not a semiring: {report.law_names()}")
    return s, order


def _load_sigma(source: str) -> SigmaSemiring:
    """Resolve an input to a SigmaSemiring: a gallery name, adjoin-inf:<file>,
    or a JSON path (orderable tables get their completion Sigma, which the
    command itself then tests; certifying it is `complete`'s job)."""
    if source.startswith("adjoin-inf:"):
        inner_source = source[len("adjoin-inf:"):]
        inner, _ = _load_semiring(inner_source)
        try:
            return adjoin_infinity(inner)
        except ZeroSumError as e:
            a, b = e.witness
            raise InputError(f"{inner_source} is not zero-sum-free: "
                             f"{inner.label(a)}+{inner.label(b)} = "
                             f"{inner.label(inner.zero)}") from None
    if _is_file(source):
        s, order = _load_semiring(source)
        try:
            return completion_semiring(s, order)
        except NotOrderableError as e:
            raise InputError(f"{source}: {e}") from None
    member = _gallery_member(source)
    if isinstance(member, FiniteSemiring):
        return completion_semiring(member)
    if not member.has_sigma:
        raise InputError(f"{source} carries no infinite-sum operator; "
                         f"try 'complete {source}'")
    return member


def _emit(cfg: RunConfig, payload: dict) -> None:
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True, default=repr))
        return
    for key, value in payload.items():
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


def _order_matrix(rel) -> list[str]:
    return ["".join("1" if x else "0" for x in row) for row in rel]


def _absorption_text(s: FiniteSemiring, witness) -> str:
    a, x, y = (s.label(i) for i in witness)
    return f"{a}+{x}+{y} = {a} but {a}+{x} != {a}"


def cmd_check(cfg: RunConfig) -> int:
    s, _ = _load_finite(cfg.inputs[0])
    report = check_semiring_axioms(s)
    payload = {
        "command": "check",
        "input": cfg.inputs[0],
        "elements": list(s.elements),
        "axioms": "pass" if report.passed else "fail",
        "violations": [f"{law} at {wit}" for law, wit in report.violations],
    }
    if report.passed:
        orderable, wit = is_orderable(s)
        zsf, zwit = is_zero_sum_free(s)
        # when s is orderable, is_orderable returns the natural quasiorder
        payload["natural-quasiorder"] = _order_matrix(
            wit.rel if orderable else natural_quasiorder(s).rel)
        payload["orderable"] = orderable
        if not orderable:
            payload["orderable-witness"] = _absorption_text(s, wit)
        payload["zero-sum-free"] = zsf
        if not zsf:
            payload["zero-sum-witness"] = f"{s.label(zwit[0])}+{s.label(zwit[1])} = 0"
    _emit(cfg, payload)
    return 0 if report.passed else 1


def cmd_order(cfg: RunConfig) -> int:
    s, _ = _load_finite(cfg.inputs[0])
    report = check_semiring_axioms(s)
    if not report.passed:
        _emit(cfg, {"command": "order", "input": cfg.inputs[0], "axioms": "fail",
                    "violations": [f"{law} at {wit}" for law, wit in report.violations]})
        return 1
    orderable, wit = is_orderable(s)
    payload = {
        "command": "order",
        "input": cfg.inputs[0],
        "natural-quasiorder": _order_matrix(
            wit.rel if orderable else natural_quasiorder(s).rel),
        "orderable": orderable,
    }
    if orderable:
        payload["natural-order"] = _order_matrix(wit.rel)
    else:
        payload["witness-triple"] = [s.label(i) for i in wit]
    _emit(cfg, payload)
    return 0 if orderable else 1


_SIGMA_PROBE = ("fin:1", "fin:2", "fin:3", "aleph0", "uncountable")


def _sigma_table(c: SigmaSemiring, probe_elems) -> list[str]:
    rows = []
    for v in probe_elems:
        cells = []
        for t in _SIGMA_PROBE:
            val = c.sigma(CardinalFamily({v: parse_cardinal(t)}))
            cells.append(f"{t}->{c.label_of(val)}")
        rows.append(f"{c.label_of(v)}: " + " ".join(cells))
    return rows


def cmd_complete(cfg: RunConfig) -> int:
    source = cfg.inputs[0]
    if source == "nat":
        ninf = gallery_semiring("nat-infinity")
        payload = {
            "command": "complete",
            "input": "nat",
            "completion": "nat-infinity",
            "note": "adds the top element inf; sigma is the least upper "
                    "bound of the finite subsums",
            "sigma-table": _sigma_table(ninf, ninf.sample(4)),
        }
        _emit(cfg, payload)
        return 0
    s, order = _load_semiring(source)
    try:
        result = completion_of_finite(s, order)
    except NotOrderableError as e:
        _emit(cfg, {"command": "complete", "input": source, "orderable": False,
                    "witness": _absorption_text(s, e.witness)})
        return 1
    comp = result.semiring
    payload = {
        "command": "complete",
        "input": source,
        "orderable": True,
        # the completion of a finite carrier adds no element
        "embedding": [f"{s.label(i)}->{s.label(i)}" for i in range(s.n)],
        "sigma-table": _sigma_table(comp, comp.sample(6)),
        "finitary-report": "pass" if result.finitary_report.passed else "fail",
        "violations": [f"{law}" for law, _ in result.finitary_report.violations],
    }
    _emit(cfg, payload)
    return 0 if result.finitary_report.passed else 1


def cmd_dcomplete(cfg: RunConfig) -> int:
    c = _load_sigma(cfg.inputs[0])
    if len(cfg.inputs) > 1:
        # one {"prefix": [...], "cycle": [...]} document per line
        seqs = [omega_sequence_from_json(c, line)
                for line in _read_text(cfg.inputs[1]).splitlines() if line.strip()]
    else:
        seqs = omega_sequence_battery(c, cfg.seed, cfg.suite.sequences)
    ok, witness = is_d_complete(c, seqs)
    payload = {"command": "dcomplete", "input": cfg.inputs[0],
               "d-complete": ok, "sequences": len(seqs)}
    if not ok:
        payload["witness"] = (
            f"prefix={[c.label_of(v) for v in witness.sequence.prefix]} "
            f"cycle={[c.label_of(v) for v in witness.sequence.cycle]} "
            f"partial-sums-constant={c.label_of(witness.constant)} "
            f"sigma={c.label_of(witness.sigma_value)}")
    _emit(cfg, payload)
    return 0 if ok else 1


def cmd_finitary(cfg: RunConfig) -> int:
    c = _load_sigma(cfg.inputs[0])
    if not c.has_order:
        raise InputError(f"{c.name} carries no order; the finitary test "
                         f"needs one")
    if len(cfg.inputs) > 1:
        # one {"family": {...}} document per line
        fams = [family_from_json(c, line)
                for line in _read_text(cfg.inputs[1]).splitlines() if line.strip()]
    else:
        fams = family_battery(c, cfg.seed, cfg.battery)
    ok, witness = is_finitary(c, fams)
    payload = {"command": "finitary", "input": cfg.inputs[0], "finitary": ok,
               "families": len(fams)}
    if not ok:
        fam = ", ".join(f"{c.label_of(v)}:{m.label()}" for v, m in
                        witness.family.items())
        payload["witness"] = (f"family {{{fam}}}: {witness.reason}, "
                              f"sigma={c.label_of(witness.sigma_value)}")
        if witness.sup_value is not None:
            payload["witness"] += f", sup={c.label_of(witness.sup_value)}"
    _emit(cfg, payload)
    return 0 if ok else 1


def cmd_congruence(cfg: RunConfig) -> int:
    source, left, right = cfg.inputs
    s, order = _load_semiring(source)
    orderable, wit = is_orderable(s)
    if not orderable:
        _emit(cfg, {"command": "congruence", "input": source, "orderable": False,
                    "witness-triple": [s.label(i) for i in wit]})
        return 1
    order = order if order is not None else wit
    try:
        p = poly_from_text(left, s)
        q = poly_from_text(right, s)
    except (ValueError, StructureError) as e:
        raise InputError(str(e)) from None
    if (below := count_below(p) + count_below(q)) > MAX_BELOW:
        raise InputError(f"{below} polynomials lie below the two sides; "
                         f"congruence enumerates at most {MAX_BELOW}")
    verdict = sim_verdict(p, q, s, order)
    payload = {
        "command": "congruence",
        "input": source,
        "left": poly_to_text(p, s),
        "right": poly_to_text(q, s),
        "lesssim-forward": verdict.lesssim_forward,
        "lesssim-backward": verdict.lesssim_backward,
        "sim": verdict.sim,
        "inconclusive": verdict.inconclusive,
        "witness": (poly_to_text(verdict.witness, s)
                    if verdict.witness is not None else None),
    }
    _emit(cfg, payload)
    return 0


def cmd_gallery(cfg: RunConfig) -> int:
    if not cfg.inputs:
        _emit(cfg, {"command": "gallery", "names": gallery_names()})
        return 0
    member = _gallery_member(cfg.inputs[0])
    if isinstance(member, FiniteSemiring):
        payload = {"command": "gallery", "name": cfg.inputs[0],
                   "kind": "finite semiring", "elements": list(member.elements)}
    else:
        payload = {"command": "gallery", "name": member.name,
                   "kind": ("finite carrier" if member.is_finite
                            else "symbolic carrier"),
                   "ordered": member.has_order,
                   "sigma": member.has_sigma,
                   "sample": [member.label_of(v) for v in member.sample(8)]}
        if member.has_sigma:
            payload["sigma-table"] = _sigma_table(member, member.sample(4))
            report = sigma_axiom_battery(member, cfg.seed,
                                         max(40, cfg.battery // 10))
            payload["sigma-axioms"] = "pass" if report.passed else "fail"
        else:
            payload["sigma-axioms"] = "n/a"
    _emit(cfg, payload)
    return 0


def cmd_selftest(cfg: RunConfig) -> int:
    code, body = run_selftest(cfg.suite)
    if cfg.fmt == "json":
        lines = body.splitlines()
        print(json.dumps({"command": "selftest", "seed": cfg.seed,
                          "lines": lines, "passed": code == 0},
                         sort_keys=True))
    else:
        print(body)
    return code


_COMMANDS = {
    "check": (cmd_check, (1, 1)),
    "order": (cmd_order, (1, 1)),
    "complete": (cmd_complete, (1, 1)),
    "dcomplete": (cmd_dcomplete, (1, 2)),
    "finitary": (cmd_finitary, (1, 2)),
    "congruence": (cmd_congruence, (3, 3)),
    "gallery": (cmd_gallery, (0, 1)),
    "selftest": (cmd_selftest, (0, 0)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semirings",
        description="Decision procedures for finite semirings, infinite sums "
                    "over cardinal families, and finitary completions.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("inputs", nargs="*",
                        help="semiring JSON path or gallery name; congruence "
                             "also takes two polynomial strings like '2*[a] + 1*[a.b]'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--battery", type=int, default=500,
                        help="override the family battery size")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.battery < 1:
        parser.error(f"argument --battery: must be at least 1, got {args.battery}")
    if args.battery > MAX_BATTERY:
        parser.error(f"argument --battery: must be at most {MAX_BATTERY}, got {args.battery}")
    fn, (lo, hi) = _COMMANDS[args.command]
    if not lo <= len(args.inputs) <= hi:
        print(f"error: {args.command} takes {lo}"
              + (f"..{hi}" if hi != lo else "")
              + f" input argument(s), got {len(args.inputs)}", file=sys.stderr)
        return 2
    cfg = RunConfig(inputs=tuple(args.inputs), seed=args.seed,
                    battery=args.battery, fmt=args.format)
    try:
        return fn(cfg)
    except (InputError, StructureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
