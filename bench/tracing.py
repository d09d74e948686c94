"""Per-layer tracing for the traced run: wrappers around the public
functions of each pncalc module, installed from here and only in that run.

A wrapper records nothing unless ``Tracer.recording`` is set, which the
runner does around each timed library call only, so the independent
checks never show up in the layer figures.  Times are inclusive: a
function's time contains the time of the wrapped functions it calls.
"""

from __future__ import annotations

import functools
import inspect
import io
import sys
from collections import defaultdict
from time import perf_counter

import pncalc
import pncalc.cli
from pncalc import acceptance, boundedness, distfn, pnspace, tnorms, topology, triangle

_FAMILIES = pnspace.FAMILIES
_HORIZONS = (64, 256, 512)

#: module functions whose time and call count are recorded under their own
#: name; the other wrapped functions only mark library time for cli.main
_TIMED = {
    distfn: ("pointwise_min",),
    tnorms: ("law_suite",),
    triangle: ("tf_law_suite", "max_tf"),
    pnspace: ("serstnev_check", "lg_probe"),
    topology: ("convergence_probe", "equivalence_probe"),
    boundedness: ("classify_set", "dbounded_witness", "convergent_set_bound", "compactness_probe", "prob_radius"),
}

_POINT_KINDS = {"Step": "step", "Plateau": "plateau", "Ratio": "ratio", "Grid": "grid", "LazyConv": "lazy"}


class Tracer:
    def __init__(self):
        self.t = defaultdict(float)  # seconds per key
        self.n = defaultdict(int)  # calls or points per key
        self.recording = False
        self._undo: list = []
        self._depth = 0  # nesting of wrapped library calls
        self._in_cli = 0
        self._in_compare = 0
        self._in_find_c = 0
        self._lazy = 0  # nesting of lazy evaluations

    # ---------------------------------------------------------- patching

    def _replace(self, original, wrapper) -> None:
        """Put ``wrapper`` wherever a pncalc module holds ``original``."""
        for name, mod in list(sys.modules.items()):
            if name != "pncalc" and not name.startswith("pncalc."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(lambda m=mod, a=attr: setattr(m, a, original))

    def _set_method(self, cls, name, wrapper) -> None:
        if name in cls.__dict__:
            original = cls.__dict__[name]
            self._undo.append(lambda: setattr(cls, name, original))
        else:
            self._undo.append(lambda: delattr(cls, name))
        setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _library(self, fn, key_of=None):
        """Wrapper that times ``fn`` as one library call."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            tr._depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._depth -= 1
            dt = perf_counter() - t0
            if key_of is not None:
                key = key_of(args, kwargs, out)
                if key:
                    tr.t[key] += dt
                    tr.n[key] += 1
            if tr._depth == 0 and tr._in_cli:
                tr.t["cli.library"] += dt
            return out

        return wrapper

    def install(self) -> "Tracer":
        for mod, names in _TIMED.items():
            for name in names:
                key = f"{mod.__name__.split('.')[-1]}.{name}"
                self._replace(getattr(mod, name), self._library(getattr(mod, name), lambda a, k, o, key=key: key))

        def by_family(a, k, o):
            space = a[0] if a else k["space"]
            return f"pnspace.axiom_suite.{space.family}"

        self._replace(pnspace.axiom_suite, self._library(pnspace.axiom_suite, by_family))

        cauchy_sig = inspect.signature(topology.cauchy_probe)

        def by_horizon(a, k, o):
            bound = cauchy_sig.bind(*a, **k)
            bound.apply_defaults()
            return f"topology.cauchy_probe.h{bound.arguments['horizon']}"

        self._replace(topology.cauchy_probe, self._library(topology.cauchy_probe, by_horizon))

        for name in ("sup_conv", "inf_conv"):
            def by_path(a, k, o, name=name):
                return "triangle.lazy.calls" if isinstance(o, triangle.LazyConv) else f"triangle.{name}.exact"

            self._replace(getattr(triangle, name), self._library(getattr(triangle, name), by_path))

        self._wrap_compare()
        self._wrap_find_c()
        self._wrap_eval()
        self._wrap_norm_of()
        self._wrap_acceptance()
        self._wrap_cli()
        return self

    # ------------------------------------------------- special wrappers

    def _wrap_compare(self) -> None:
        tr = self
        compare = distfn.compare_leq
        probes = distfn.merged_probe_xs

        @functools.wraps(compare)
        def compare_leq(*args, **kwargs):
            if not tr.recording:
                return compare(*args, **kwargs)
            tr.n["distfn.compare_leq"] += 1
            tr.n["topology.find_comparison_constant.compare_calls"] += tr._in_find_c > 0
            tr._in_compare += 1
            tr._depth += 1
            t0 = perf_counter()
            try:
                return compare(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tr._depth -= 1
                tr._in_compare -= 1
                tr.t["distfn.compare_leq"] += dt
                if tr._depth == 0 and tr._in_cli:
                    tr.t["cli.library"] += dt

        @functools.wraps(probes)
        def merged_probe_xs(*args, **kwargs):
            out = probes(*args, **kwargs)
            if tr.recording and tr._in_compare:
                tr.n["distfn.compare_leq.probe_points"] += len(out)
            return out

        self._replace(compare, compare_leq)
        self._replace(probes, merged_probe_xs)

    def _wrap_find_c(self) -> None:
        tr = self
        inner = self._library(topology.find_comparison_constant, lambda a, k, o: "topology.find_comparison_constant")

        @functools.wraps(topology.find_comparison_constant)
        def find_comparison_constant(*args, **kwargs):
            tr._in_find_c += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tr._in_find_c -= 1

        self._replace(topology.find_comparison_constant, find_comparison_constant)

    def _wrap_eval(self) -> None:
        tr = self
        DistFn, LazyConv = distfn.DistFn, triangle.LazyConv
        eval_many = DistFn.eval_many
        eval_one = DistFn.eval
        materialize = LazyConv.materialize

        def lazy_call(fn, points, key, args, kwargs):
            # an outermost evaluation's points are the lazy result's own;
            # points evaluated while one runs belong to its operands
            outer = not tr._lazy
            tr.n["triangle.lazy.eval_points" if outer else "triangle.lazy.operand_points"] += points
            tr._lazy += 1
            tr._depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tr._depth -= 1
                tr._lazy -= 1
                if outer:
                    tr.t[key] += dt
                if tr._depth == 0 and tr._in_cli:
                    tr.t["cli.library"] += dt

        @functools.wraps(eval_many)
        def traced_eval_many(self, xs):
            if not tr.recording:
                return eval_many(self, xs)
            points = int(getattr(xs, "size", None) or len(xs))
            kind = _POINT_KINDS.get(type(self).__name__, type(self).__name__.lower())
            tr.n[f"distfn.eval_many.points.{kind}"] += points
            if kind == "lazy":
                return lazy_call(eval_many, points, "triangle.lazy.eval", (self, xs), {})
            if tr._lazy:
                tr.n["triangle.lazy.operand_points"] += points
            return eval_many(self, xs)

        @functools.wraps(eval_one)
        def traced_eval(self, x):
            if not tr.recording:
                return eval_one(self, x)
            return lazy_call(eval_one, 1, "triangle.lazy.eval", (self, x), {})

        @functools.wraps(materialize)
        def traced_materialize(self, *args, **kwargs):
            if not tr.recording:
                return materialize(self, *args, **kwargs)
            grid = args[0] if args else kwargs.get("grid", distfn.DEFAULT_GRID)
            return lazy_call(materialize, grid.n, "triangle.lazy.materialize", (self,) + args, kwargs)

        self._set_method(DistFn, "eval_many", traced_eval_many)
        self._set_method(LazyConv, "eval", traced_eval)
        self._set_method(LazyConv, "__call__", traced_eval)
        self._set_method(LazyConv, "materialize", traced_materialize)

    def _wrap_norm_of(self) -> None:
        tr = self
        norm_of = pnspace.PNSpace.norm_of

        @functools.wraps(norm_of)
        def traced_norm_of(self, p):
            if not tr.recording:
                return norm_of(self, p)
            t0 = perf_counter()
            out = norm_of(self, p)
            tr.t["pnspace.norm_of"] += perf_counter() - t0
            tr.n["pnspace.norm_of"] += 1
            return out

        self._set_method(pnspace.PNSpace, "norm_of", traced_norm_of)

    def _wrap_acceptance(self) -> None:
        criteria = acceptance.CRITERIA
        wrapped = tuple(
            self._library(fn, lambda a, k, o, i=i: f"acceptance.c{i:02d}") for i, fn in enumerate(criteria, start=1)
        )
        acceptance.CRITERIA = wrapped
        self._undo.append(lambda: setattr(acceptance, "CRITERIA", criteria))

    def _wrap_cli(self) -> None:
        tr = self
        main = pncalc.cli.main

        @functools.wraps(main)
        def traced_main(argv=None):
            if not tr.recording:
                return main(argv)
            out = sys.stdout
            start = out.tell() if isinstance(out, io.StringIO) else None
            tr._in_cli += 1
            t0 = perf_counter()
            try:
                return main(argv)
            finally:
                tr.t["cli.main"] += perf_counter() - t0
                tr._in_cli -= 1
                if start is not None:
                    tr.n["cli.report_bytes"] += len(out.getvalue()[start:].encode("utf-8"))

        self._replace(main, traced_main)

    # ----------------------------------------------------------- metrics

    def metrics(self) -> dict:
        t, n = self.t, self.n

        def ms(key):
            return t[key] * 1e3

        def us_per(key):
            return t[key] * 1e6 / n[key] if n[key] else 0.0

        out = {
            "cli.overhead_ms": ((t["cli.main"] - t["cli.library"]) * 1e3, "ms"),
            "cli.report_bytes": (n["cli.report_bytes"], "B"),
        }
        for i in range(1, len(acceptance.CRITERIA) + 1):
            out[f"acceptance.c{i:02d}_ms"] = (ms(f"acceptance.c{i:02d}"), "ms")
        out["distfn.compare_leq.calls"] = (n["distfn.compare_leq"], "count")
        out["distfn.compare_leq.us_per_call"] = (us_per("distfn.compare_leq"), "us")
        out["distfn.compare_leq.probe_points"] = (n["distfn.compare_leq.probe_points"], "count")
        for kind in _POINT_KINDS.values():
            out[f"distfn.eval_many.points.{kind}"] = (n[f"distfn.eval_many.points.{kind}"], "count")
        out["distfn.pointwise_min.calls"] = (n["distfn.pointwise_min"], "count")
        out["distfn.pointwise_min.ms"] = (ms("distfn.pointwise_min"), "ms")
        out["tnorms.law_suite.ms"] = (ms("tnorms.law_suite"), "ms")
        for name in ("sup_conv", "inf_conv"):
            out[f"triangle.{name}.exact_calls"] = (n[f"triangle.{name}.exact"], "count")
            out[f"triangle.{name}.exact_ms"] = (ms(f"triangle.{name}.exact"), "ms")
        out["triangle.lazy.calls"] = (n["triangle.lazy.calls"], "count")
        out["triangle.lazy.eval_points"] = (n["triangle.lazy.eval_points"], "count")
        out["triangle.lazy.operand_points"] = (n["triangle.lazy.operand_points"], "count")
        out["triangle.lazy.eval_ms"] = (ms("triangle.lazy.eval"), "ms")
        out["triangle.lazy.materialize_ms"] = (ms("triangle.lazy.materialize"), "ms")
        out["triangle.tf_law_suite.ms"] = (ms("triangle.tf_law_suite"), "ms")
        out["pnspace.norm_of.calls"] = (n["pnspace.norm_of"], "count")
        out["pnspace.norm_of.us_per_call"] = (us_per("pnspace.norm_of"), "us")
        for family in _FAMILIES:
            out[f"pnspace.axiom_suite.{family}_ms"] = (ms(f"pnspace.axiom_suite.{family}"), "ms")
        out["pnspace.serstnev_check.ms"] = (ms("pnspace.serstnev_check"), "ms")
        for h in _HORIZONS:
            out[f"topology.cauchy_probe.h{h}_ms"] = (ms(f"topology.cauchy_probe.h{h}"), "ms")
        out["topology.convergence_probe.ms"] = (ms("topology.convergence_probe"), "ms")
        out["topology.equivalence_probe.ms"] = (ms("topology.equivalence_probe"), "ms")
        out["topology.find_comparison_constant.ms"] = (ms("topology.find_comparison_constant"), "ms")
        out["topology.find_comparison_constant.compare_calls"] = (
            n["topology.find_comparison_constant.compare_calls"], "count")
        for name in ("classify_set", "dbounded_witness", "convergent_set_bound", "compactness_probe"):
            out[f"boundedness.{name}.ms"] = (ms(f"boundedness.{name}"), "ms")
        return out
