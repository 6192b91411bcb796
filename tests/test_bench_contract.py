"""The names the benchmark harness in perfbench/ looks up in the program.

A refactor that deletes or renames one of them breaks the traced benchmark
run; these tests catch that in the ordinary test run.  They only read
perfbench/: the harness modules are loaded from their files under private
module names, and nothing there is changed or installed.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    module_name = f"_perfbench_{name}"
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    sys.modules[module_name] = module
    # and no bytecode cache may appear under perfbench/
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


spans = _load("spans")


@pytest.mark.parametrize("layer", sorted(spans.LAYERS))
def test_every_layer_function_exists(layer):
    mod_name, names = spans.LAYERS[layer]
    module = importlib.import_module(mod_name)
    for name in names:
        assert callable(getattr(module, name, None)), f"{mod_name}.{name} ({layer})"


def test_suite_has_the_traced_criteria():
    suite = importlib.import_module("semirings.suite")
    assert len(suite._CRITERIA) == spans.CRITERIA


def test_workloads_module_imports():
    assert callable(_load("workloads").congruence_inputs)


def test_clean_bad_inputs_get_the_promised_exit_code(tmp_path):
    # the cli-mix workload counts each of these as failed when its exit
    # code differs from the promised one, or when it raises
    workloads = _load("workloads")
    for argv, expected in workloads._malformed_files(tmp_path)["clean"]:
        op = workloads.CliOp(tuple(argv), expected, "malformed")
        code, out = workloads.run_cli(op.argv)
        assert workloads.check_cli(op, code, out) is None, (argv, code)


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / f"{name}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("harness", ["workloads", "worker", "selfcheck"])
def test_every_harness_import_resolves(harness):
    imports = [(node.module, alias.name) for node in ast.walk(_tree(harness))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "semirings"
               for alias in node.names]
    assert imports
    for mod_name, name in imports:
        module = importlib.import_module(mod_name)
        # `from semirings import cli` names a submodule
        assert (hasattr(module, name)
                or importlib.util.find_spec(f"{mod_name}.{name}")), f"{mod_name}.{name}"


def test_every_module_attribute_selfcheck_touches_exists():
    touched = {(node.value.id, node.attr) for node in ast.walk(_tree("selfcheck"))
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in ("series", "completion")}
    assert {mod for mod, _ in touched} == {"series", "completion"}
    for mod, name in sorted(touched):
        module = importlib.import_module(f"semirings.{mod}")
        assert hasattr(module, name), f"semirings.{mod}.{name}"


# perfbench/workloads.py builds series sides as TruncatedSeries(2, {...})
# and tells the two kinds of side apart with isinstance(x, Polynomial);
# the traced run counts len() of what the enumerators return, and
# perfbench/selfcheck.py patches them on `completion` and slices their
# results with [::-1]

def test_series_side_is_not_a_polynomial():
    series = importlib.import_module("semirings.series")
    gallery = importlib.import_module("semirings.gallery")
    r = series.TruncatedSeries(2, {(0,): gallery.NINF_INF, (0, 1): gallery.ninf(2)})
    assert r.coeffs == {(0,): gallery.NINF_INF, (0, 1): gallery.ninf(2)}
    assert not isinstance(r, series.Polynomial)


def test_enumerators_return_lists():
    series = importlib.import_module("semirings.series")
    gallery = importlib.import_module("semirings.gallery")
    p = series.Polynomial({(0,): 2, (1,): 1})
    r = series.TruncatedSeries(2, {(0,): gallery.NINF_INF})
    assert type(series.enumerate_below(p)) is list
    assert type(series.enumerate_below_series(r, 2)) is list


def test_sim_verdict_enumerates_through_the_completion_module(monkeypatch):
    series = importlib.import_module("semirings.series")
    completion = importlib.import_module("semirings.completion")
    gallery = importlib.import_module("semirings.gallery")
    core = importlib.import_module("semirings.core")
    calls = []

    def spy(name):
        real = getattr(completion, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("enumerate_below", "enumerate_below_series"):
        monkeypatch.setattr(completion, name, spy(name))
    # a half is listed only for its witness, so each pair has a failing
    # half: on boolean, 1*[1] and inf*[1] are not below 1*[0]
    s = gallery.boolean()
    _, order = core.is_orderable(s)
    zero = series.Polynomial({(0,): 1})
    completion.sim_verdict(series.Polynomial({(1,): 1}), zero, s, order)
    assert calls == ["enumerate_below"]
    r = series.TruncatedSeries(1, {(1,): gallery.NINF_INF})
    completion.sim_verdict(r, zero, s, order)
    assert calls == ["enumerate_below", "enumerate_below_series"]


def test_sim_verdict_reads_the_order_through_leq_alone():
    # perfbench/selfcheck.py counts comparisons with an order object that
    # has only leq, and whose n attribute is the call count, not the
    # carrier size
    series = importlib.import_module("semirings.series")
    completion = importlib.import_module("semirings.completion")
    gallery = importlib.import_module("semirings.gallery")
    core = importlib.import_module("semirings.core")

    class Counting:
        def __init__(self, order):
            self.order, self.n = order, 0

        def leq(self, a, b):
            self.n += 1
            return self.order.leq(a, b)

    s = gallery.nat_desk(3)
    _, order = core.is_orderable(s)
    pairs = [(series.Polynomial({(2,): 1}), series.Polynomial({(1,): 1})),
             (series.Polynomial({(1,): 2}), series.Polynomial({(2,): 1})),
             (series.Polynomial({(1,): 1}),
              series.TruncatedSeries(1, {(1,): gallery.NINF_INF}))]
    for p, q in pairs:
        counting = Counting(order)
        assert (completion.sim_verdict(p, q, s, counting)
                == completion.sim_verdict(p, q, s, order))
        assert counting.n > 0


def test_the_selftest_still_reaches_the_below_set_enumerator(monkeypatch):
    # the traced selftest-cold run fails when a layer it expects records
    # no calls; there, criterion 6's collapse check is the one caller of
    # enumerate_below, looked up on `completion`
    expected = _load("run").EXPECTED_LAYERS["selftest-cold"]
    assert "series.enumerate_below" in expected
    completion = importlib.import_module("semirings.completion")
    suite = importlib.import_module("semirings.suite")
    calls = []
    real = completion.enumerate_below

    def spy(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(completion, "enumerate_below", spy)
    assert suite.criterion_main_theorem(suite.SuiteConfig()).passed
    assert calls


def test_sim_verdict_reaches_every_layer_the_congruence_run_expects(monkeypatch):
    # the congruence workload calls sim_verdict alone, and its traced run
    # fails when a layer it expects records no calls; core.laws is reached
    # only through lesssim's is_orderable, looked up on `completion`
    expected = _load("run").EXPECTED_LAYERS["congruence"]
    assert "core.laws" in expected
    completion = importlib.import_module("semirings.completion")
    core = importlib.import_module("semirings.core")
    gallery = importlib.import_module("semirings.gallery")
    series = importlib.import_module("semirings.series")
    s = gallery.boolean()
    _, order = core.is_orderable(s)
    modules = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "semirings"]
    reached = set()
    for layer in expected:
        mod_name, names = spans.LAYERS[layer]
        for name in names:
            real = getattr(importlib.import_module(mod_name), name)

            def spy(*args, _layer=layer, _real=real, **kwargs):
                reached.add(_layer)
                return _real(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy)
    # the forward half fails, so its witness reaches the enumerator
    completion.sim_verdict(series.Polynomial({(1,): 1}),
                           series.Polynomial({(0,): 1}), s, order)
    assert reached == set(expected)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_congruence_block_has_a_failing_forward_half(seed):
    # the traced congruence run reaches series.enumerate_below only
    # through the witness of a failing half, and it times whole blocks
    workloads = _load("workloads")
    ops, _ = workloads.congruence_inputs(seed, blocks=3)
    block = len(workloads.LADDER)
    assert block == 20 and len(ops) == 1 + 3 * block
    for start in range(1, len(ops), block):
        assert any(op.expect_fwd is False for op in ops[start:start + block]), start


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_every_cli_mix_pass_has_a_congruence_call_with_a_failing_half(seed, tmp_path, monkeypatch):
    # in cli-mix, series.enumerate_below is reached only for the witness
    # of such a call
    assert "series.enumerate_below" in _load("run").EXPECTED_LAYERS["cli-mix"]
    workloads = _load("workloads")
    completion = importlib.import_module("semirings.completion")
    ops, sizes = workloads.cli_inputs(seed, tmp_path)
    calls = []
    for name in ("enumerate_below", "enumerate_below_series"):
        def spy(*args, _real=getattr(completion, name)):
            calls.append(args)
            return _real(*args)
        monkeypatch.setattr(completion, name, spy)
    congruence = [op for op in ops[:sizes["calls_per_pass"]] if op.argv[0] == "congruence"]
    # the 128-element member last, since one reaching call is enough
    for op in sorted(congruence, key=lambda op: workloads.HEAVY in op.argv):
        assert workloads.check_cli(op, *workloads.run_cli(op.argv)) is None, op.argv
        if calls:
            break
    assert calls
