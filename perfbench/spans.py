"""Span recorder for the traced benchmark run.

The program under test is not edited.  Instead, `install` replaces each
layer's public functions with a recording wrapper at every place the name
is looked up: the defining module, every `semirings` module that imported
the function by name (aliases included), the suite's criterion table, and
`SigmaSemiring.sigma` on the class.  Each span records its name, start, end
and parent span; spans stay in memory until `dump` writes them out.  Self
time is a span's duration minus the durations of its child spans.

Counting work done for the per-layer extras (distinct Sigma families,
orders examined, ...) runs inside the layer's span but is timed on its own
and taken off the layer's self time, so neither the layer nor its caller
is charged for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# layer -> (module, public functions).  The order is the report order.
LAYERS = {
    "core.enumerate": ("semirings.core", ("enumerate_semirings", "random_semiring")),
    "core.order_search": ("semirings.core", ("search_compatible_order",
                                             "check_ordered_semiring",
                                             "all_partial_orders")),
    "core.laws": ("semirings.core", ("check_semiring_axioms", "is_orderable",
                                     "natural_quasiorder", "is_zero_sum_free")),
    "cardinal.sigma": ("semirings.cardinal", ()),  # SigmaSemiring.sigma, see install
    "cardinal.subsums": ("semirings.cardinal", ("finite_subsums", "family_sup")),
    "cardinal.characteristic": ("semirings.cardinal", ("characteristic_cardinality",)),
    "cardinal.axiom_battery": ("semirings.cardinal", ("check_sigma_axioms",)),
    "cardinal.dcomplete": ("semirings.cardinal", ("is_d_complete",
                                                  "eventually_constant_sum")),
    "series.enumerate_below": ("semirings.series", ("enumerate_below",
                                                    "enumerate_below_series")),
    "completion.lesssim": ("semirings.completion", ("lesssim",)),
    "completion.completion": ("semirings.completion", ("completion_of_finite",)),
    "gallery.construct": ("semirings.gallery", (
        "gallery_semiring", "boolean", "xor_semiring", "nat", "nat_infinity",
        "nat_desk", "powerset_semiring", "language_semiring", "three_valued",
        "four_valued", "omega_plus_reverse", "adjoin_infinity")),
}

CRITERIA = 8

# extra counters reported per layer, beside calls and self_s
EXTRAS = {
    "core.order_search": ("orders_examined", "examined_per_search"),
    "cardinal.sigma": ("fold_checks", "distinct_per_instance", "distinct_by_name"),
    "cardinal.subsums": ("values",),
    "cardinal.dcomplete": ("sequences", "inconclusive"),
    "series.enumerate_below": ("polys",),
    "completion.lesssim": ("inconclusive",),
}


class Recorder:
    """In-memory span store.  A span is [name id, start ns, end ns, parent
    index]; the parent of a root span is -1."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack = [-1]
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.bookkeeping_ns: dict[str, int] = defaultdict(int)
        self._sigma_instances: dict[int, object] = {}
        self._sigma_by_instance: set = set()
        self._sigma_by_name: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.spans)
        self.spans.append([nid, perf_counter_ns(), 0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def current_name(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.spans[top][0]]

    def note_sigma(self, carrier, family) -> None:
        # keep the carrier alive so its id is not reused by a later instance
        self._sigma_instances[id(carrier)] = carrier
        self._sigma_by_instance.add((id(carrier), family))
        self._sigma_by_name.add((carrier.name, family))
        if family.all_finite():
            self.counts["cardinal.sigma.fold_checks"] += 1

    def dump(self) -> dict:
        counts = dict(self.counts)
        counts["cardinal.sigma.distinct_per_instance"] = len(self._sigma_by_instance)
        counts["cardinal.sigma.distinct_by_name"] = len(self._sigma_by_name)
        return {"names": self.names, "spans": self.spans,
                "calls": dict(self.calls), "counts": counts,
                "bookkeeping_ns": dict(self.bookkeeping_ns)}


def _extra(layer: str, name: str, args, result, rec: Recorder) -> None:
    if layer == "cardinal.sigma":
        rec.note_sigma(args[0], args[1])
    elif name == "search_compatible_order":
        rec.counts["core.order_search.searches"] += 1
        rec.counts["core.order_search.orders_examined"] += getattr(result, "examined", 0)
    elif name == "finite_subsums":
        rec.counts["cardinal.subsums.values"] += len(result.values)
    elif name == "eventually_constant_sum":
        rec.counts["cardinal.dcomplete.sequences"] += 1
        rec.counts["cardinal.dcomplete.inconclusive"] += result is None
    elif layer == "series.enumerate_below" and isinstance(result, list):
        rec.counts["series.enumerate_below.polys"] += len(result)
    elif name == "lesssim":
        rec.counts["completion.lesssim.inconclusive"] += bool(getattr(result, "inconclusive", False))


def _wrap(rec: Recorder, layer: str, fn):
    nid = rec.name_id(layer)
    name = fn.__name__

    def enter():
        # a call made from inside the same layer is part of that call
        if rec.current_name() != layer:
            rec.calls[layer] += 1

    if inspect.isgeneratorfunction(fn):
        # one span per resume: the caller's code between items is not ours
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            enter()
            it = fn(*args, **kwargs)
            produced = 0
            while True:
                idx = rec.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    break
                finally:
                    rec.close(idx)
                produced += 1
                yield item
            if layer == "series.enumerate_below":
                rec.counts["series.enumerate_below.polys"] += produced
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter()
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
            if layer in EXTRAS:
                start = perf_counter_ns()
                _extra(layer, name, args, result, rec)
                rec.bookkeeping_ns[layer] += perf_counter_ns() - start
        finally:
            rec.close(idx)
        return result
    return wrapper


def _rebind(original, wrapped) -> None:
    """Point every module-level reference to `original` inside the package
    at `wrapped`, including tuple-valued tables such as the suite's
    criterion list."""
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "semirings" or mod_name.startswith("semirings.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
            elif isinstance(value, tuple) and any(v is original for v in value):
                setattr(mod, attr, tuple(wrapped if v is original else v
                                         for v in value))


class MissingLayerFunction(RuntimeError):
    """A function listed in LAYERS is gone from the program.  The traced
    run stops rather than let that layer's time pass to its callers."""


def install(rec: Recorder) -> None:
    """Wrap every layer function of the imported `semirings` package.
    Raises MissingLayerFunction if one is missing, or if the suite no
    longer has CRITERIA criteria: a renamed function means updating LAYERS."""
    for mod_name in ("semirings.cli", "semirings.suite"):
        importlib.import_module(mod_name)
    for layer, (mod_name, names) in LAYERS.items():
        mod = importlib.import_module(mod_name)
        for name in names:
            original = getattr(mod, name, None)
            if not callable(original):
                raise MissingLayerFunction(f"{mod_name}.{name} ({layer})")
            _rebind(original, _wrap(rec, layer, original))
    cardinal = importlib.import_module("semirings.cardinal")
    cls = cardinal.SigmaSemiring
    cls.sigma = _wrap(rec, "cardinal.sigma", cls.sigma)
    criteria = getattr(importlib.import_module("semirings.suite"), "_CRITERIA", ())
    if len(criteria) != CRITERIA:
        raise MissingLayerFunction(f"semirings.suite._CRITERIA has {len(criteria)} "
                                   f"criteria, expected {CRITERIA}")
    for k, fn in enumerate(criteria, start=1):
        _rebind(fn, _wrap(rec, f"suite.criterion-{k}", fn))


def root_span(rec: Recorder, name: str):
    """Open a root span around one benchmark operation; returns a closer."""
    idx = rec.open(rec.name_id(name))
    return lambda: rec.close(idx)


def aggregate(dumps: list[dict]) -> dict:
    """Per-layer metrics from one or more span dumps (summed)."""
    self_ns: dict[str, int] = defaultdict(int)
    span_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for d in dumps:
        names, spans = d["names"], d["spans"]
        child_ns = [0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (nid, start, end, parent) in enumerate(spans):
            self_ns[names[nid]] += (end - start) - child_ns[i]
            span_ns[names[nid]] += end - start
        for k, v in d["calls"].items():
            calls[k] += v
        for k, v in d["counts"].items():
            counts[k] += v
        for k, v in d["bookkeeping_ns"].items():
            self_ns[k] -= v
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
        for extra in EXTRAS.get(layer, ()):
            out[f"{layer}.{extra}"] = counts.get(f"{layer}.{extra}", 0)
    searches = counts.get("core.order_search.searches", 0)
    out["core.order_search.examined_per_search"] = (
        out["core.order_search.orders_examined"] / searches if searches else 0)
    for k in range(1, CRITERIA + 1):
        out[f"suite.criterion-{k}.span_s"] = span_ns.get(f"suite.criterion-{k}", 0) / 1e9
    out["trace.unattributed_s"] = sum(v for k, v in self_ns.items()
                                      if k.startswith("op.")) / 1e9
    return out


def write_dump(path, dump: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh, separators=(",", ":"))
