"""Every benchmark operation gives an output its own check accepts, so a
change that makes an output wrong fails here, before a timed run.  An
operation that fails on purpose must fail with exactly its stated reason."""

import importlib
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["readme_cli", "exact_steps", "lazy_smooth"])
def test_every_bench_operation_passes_its_check(monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(BENCH)
    workloads = importlib.import_module("workloads")
    assert workload in workloads.WORKLOADS
    for op in workloads.build(workload, seed):
        why = op.check(op.run())
        assert why is None or why == op.known_failure, f"{op.name}: {why}"
