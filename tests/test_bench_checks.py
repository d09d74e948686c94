"""Every benchmark operation gives an output its own check accepts, so a
change that makes an output wrong fails here, before a timed run.  An
operation that fails on purpose must fail with exactly its stated reason."""

import importlib
import json
import os
import subprocess
import sys

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


_NO_MA = """
import contextlib, io, json, shlex, sys
from pncalc.cli import main
import workloads

with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["suite", "paper-examples"], ["suite", "laws"], *map(shlex.split, json.loads(sys.argv[1]))):
        assert main(argv) == 0, argv
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 1):
            op.run()
print(json.dumps(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))))
"""


def test_no_command_or_bench_operation_imports_numpy_ma():
    # numpy.unique imports numpy.ma on its first call, about 1 MB resident;
    # every README command, both suites and every benchmark operation run
    # in a fresh process without it.  The checks are not run: they are
    # the benchmark's own code, not the library's
    from test_readme_reports import COMMANDS

    root = os.path.dirname(BENCH)
    env = {k: v for k, v in os.environ.items() if k != "PNCALC_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), BENCH])
    done = subprocess.run([sys.executable, "-c", _NO_MA, json.dumps(COMMANDS)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
