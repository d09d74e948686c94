"""Every narrative script under demos/ runs to the end: exit code 0,
nothing on stderr, and exactly the stdout stored in
tests/data/demo_outputs.json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUTS = json.loads((ROOT / "tests" / "data" / "demo_outputs.json").read_text(encoding="utf-8"))


def test_every_demo_has_a_stored_output():
    assert sorted(OUTPUTS) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout == OUTPUTS[demo.stem]
