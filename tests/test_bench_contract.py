"""The names the benchmark harness in perfbench/ looks up in the program.

A refactor that deletes or renames one of them breaks the traced benchmark
run; these tests catch that in the ordinary test run.  They only read
perfbench/: the harness modules are loaded from their files under private
module names, and nothing there is changed or installed.
"""

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
