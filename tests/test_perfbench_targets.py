"""The benchmark drives nnfvi through its public API: the tracer wraps
functions at their callers' import names, and the workloads build their
inputs from nnfvi's constructors.  Both must keep working, or benchmark
runs fail."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not SPANS.is_file(), reason="perfbench/spans.py not present")
def test_every_traced_name_resolves():
    spans = _load(SPANS, "perfbench_spans")
    missing = [name for name in spans.INSTALLED
               if not hasattr(importlib.import_module(name.rsplit(".", 1)[0]),
                              name.rsplit(".", 1)[1])]
    assert not missing, f"traced names that no longer exist: {missing}"
    tracer = spans.Tracer()
    tracer.install(spans.INSTALLED)
    tracer.uninstall()


@pytest.mark.skipif(not WORKLOADS.is_file(),
                    reason="perfbench/workloads.py not present")
def test_workload_inputs_build_and_select_runs():
    workloads = _load(WORKLOADS, "perfbench_workloads")
    for name in ("fvi", "sweep"):
        workloads.WORKLOADS[name](0)
    select = workloads.WORKLOADS["select"](0)
    assert len(select.cases) == len(select.CORPUS)
    _, ctx, reward = next(case for case in select.cases if case[0] == 2)
    res = workloads.mcd.select_action(ctx, reward, select.config)
    best = workloads.mcd.select_action(ctx, reward,
                                       workloads.McdConfig(engine="brute")).objective
    tol = workloads.BRACKET_TOL * max(1.0, abs(best))
    assert res.objective <= best + tol and res.upper_bound >= best - tol


@pytest.mark.skipif(not WORKLOADS.is_file(),
                    reason="perfbench/workloads.py not present")
def test_sweep_passes_pass_their_check():
    workloads = _load(WORKLOADS, "perfbench_workloads")
    sweep = workloads.WORKLOADS["sweep"](0)
    check = sweep.check([sweep.run_pass(), sweep.run_pass()])
    assert check.problems == []
    assert check.failed_ops == 0
