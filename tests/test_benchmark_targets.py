"""The benchmark in perfbench/ calls the library by name: its workloads
import public callables and its tracer wraps each (module, attr) of
spans.TARGETS.  Both modules are loaded here by path, unchanged, so a
rename or deletion that would break `perfbench/run.py --trace 1` fails
this suite instead."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load(stem):
    name = "perfbench_" + stem
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / (stem + ".py"))
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses resolve their module through sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def test_workloads_import():
    workloads = load("workloads")
    assert callable(workloads.run_call)


SPANS = load("spans")


@pytest.mark.parametrize("layer,module,attr", SPANS.TARGETS,
                         ids=[layer for layer, _, _ in SPANS.TARGETS])
def test_trace_target_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
