"""The benchmark's per-layer tracer patches the library's current names and
puts every original back when it is uninstalled, so ``bench/run.py
--trace 1`` keeps working across renames in the library."""

import importlib
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def _namespaces():
    """Every pncalc module and every class they hold, by name."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "pncalc" or name.startswith("pncalc."):
            out[name] = mod
            for attr, val in vars(mod).items():
                if isinstance(val, type) and val.__module__.startswith("pncalc"):
                    out[f"{val.__module__}.{val.__qualname__}"] = val
    return out


def test_tracer_uninstall_restores_every_patched_attribute(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    tracing = importlib.import_module("tracing")
    spaces = _namespaces()
    before = {key: dict(vars(ns)) for key, ns in spaces.items()}

    tracer = tracing.Tracer().install()
    patched = [key for key, ns in spaces.items() if dict(vars(ns)) != before[key]]
    tracer.uninstall()

    assert patched  # the tracer wraps the library's modules and classes
    for key, ns in spaces.items():
        now = dict(vars(ns))
        assert now.keys() == before[key].keys(), key
        assert all(now[attr] is val for attr, val in before[key].items()), key
