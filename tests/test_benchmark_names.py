"""The names the benchmark in ``perfbench/`` reads from ``striplab``.

The benchmark wraps library functions by name to trace them and builds each
workload's references and ensembles in its set-up probe.  A renamed or
re-signed function would break a traced run, which no other test runs.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return {name: importlib.import_module(name)
            for name in ("spans", "setup_probe", "workloads")}


def test_wrapped_names_resolve(perfbench):
    # "Class.method" names a method; anything else a module attribute
    for layer, names in perfbench["spans"].WRAPPED.items():
        mod = importlib.import_module(f"striplab.{layer}")
        for name in names:
            obj = mod
            for part in name.split("."):
                assert hasattr(obj, part), f"striplab.{layer}.{name}"
                obj = getattr(obj, part)
            assert callable(obj), f"striplab.{layer}.{name}"


def test_setup_probe_builds_every_workload(perfbench):
    workloads = perfbench["workloads"]
    for name in workloads.WORKLOADS:
        perfbench["setup_probe"].build(name, workloads.config(name, 0))
