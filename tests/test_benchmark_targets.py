"""The benchmark in perfbench/ calls the library by name: its workloads
import public callables and its tracer wraps each (module, attr) of
spans.TARGETS.  Both modules are loaded here by path, unchanged, so a
rename or deletion that would break `perfbench/run.py --trace 1` fails
this suite instead, and so does a change that fails a workload's gates."""

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


WORKLOADS = load("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_one_unit_passes_the_gates(name, tmp_path):
    """One warmed-up unit of each workload, seed 1, through perfbench's own
    calls and gates: a change to what the library returns under those
    calls fails here, not only in a benchmark run."""
    workload = WORKLOADS.WORKLOADS[name](1, str(tmp_path))
    workload.warm_up()
    calls = workload.unit(0)
    for call in calls:
        WORKLOADS.run_call(call)
        assert workload.check(call) == [], call.argv
    assert workload.self_check(calls) == []
