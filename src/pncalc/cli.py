"""Batch front-end: subcommand dispatch, JSON scenario files, and
machine-readable reports.

Every report embeds the fully resolved configuration so a run can be
reproduced from the report alone, floats are rendered at 9 significant
digits, and output is byte-stable for a fixed scenario and seed.  Exit
code 0 means the run completed (verdicts live in the report, never in
the exit code); 2 signals a usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import acceptance
from .boundedness import (
    SetSpec,
    all_reals,
    classify_set,
    compactness_probe,
    finite_set,
    interval_rationals,
    prob_radius,
    sequence_image,
)
from .distfn import DistFn, Grid, GridSpec, Plateau, Ratio, Step, from_spec
from .pnspace import FAMILIES, axiom_suite, lg_probe, make_space, parse_space, parse_vectors, serstnev_check
from .tnorms import TNORMS, get_tnorm, law_suite
from .topology import (
    DEFAULT_HORIZON,
    cauchy_probe,
    convergence_probe,
    equivalence_probe,
    find_comparison_constant,
    parse_sequence,
)
from .triangle import LazyConv, inf_conv, max_tf, parse_triangle, sup_conv, tf_law_suite


class UsageError(Exception):
    pass


#: sentinel default marking an option the caller must supply
REQUIRED = "__required__"


def _round9(obj):
    if isinstance(obj, float):
        # strict JSON has no NaN or Infinity
        return float(f"{obj:.9g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def render_distfn(f: DistFn) -> dict:
    if isinstance(f, Plateau):  # Plateau and Grid are Steps, so they go first
        return {"family": "plateau", "gamma": f.gamma}
    if isinstance(f, Grid):
        return {
            "family": "grid",
            "n": len(f.xs),
            "plateau": f.plateau,
            "head": [[x, v] for x, v in zip(f.xs[:8], f.vs[:8])],
            "tail": [[f.xs[-1], f.vs[-1]]],
        }
    if isinstance(f, Step):
        return {"family": "step", "breakpoints": list(f.breakpoints), "levels": list(f.levels)}
    if isinstance(f, Ratio):
        return {"family": "ratio", "beta": f.beta}
    return {"family": type(f).__name__}


def _parse_set(text: str, dim: int, n_samples: int = 200) -> SetSpec:
    if text == "all_reals":
        return all_reals()
    kind, _, rest = text.partition(":")
    if kind == "interval" and rest:
        try:
            lo, hi = (float(v) for v in rest.split(","))
        except ValueError:
            raise UsageError(f"malformed set spec {text!r}: an interval takes two bounds, lo,hi") from None
        return interval_rationals(lo, hi, n_samples)
    if kind == "finite" and rest:
        return finite_set(parse_vectors(rest))
    if kind == "seq" and rest:
        return sequence_image(parse_sequence(rest, dim))
    raise UsageError(f"malformed set spec {text!r}")


def _parse_lambdas(text) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    return tuple(float(v) for v in str(text).split(","))


def _env_seed() -> int:
    return int(os.environ.get("PNCALC_SEED", "7"))


# ----------------------------------------------------------------- tasks

def _task_convolve(cfg: dict) -> dict:
    kind = cfg["kind"]
    grid = GridSpec(n=int(cfg["grid"]), x_max=float(cfg["xmax"]))
    lhs = from_spec(cfg["lhs"])
    rhs = from_spec(cfg["rhs"])
    if kind == "max":
        result = max_tf(lhs, rhs)
    else:
        t = get_tnorm(cfg["tnorm"])
        result = sup_conv(t, lhs, rhs) if kind == "sup" else inf_conv(t, lhs, rhs)
    if isinstance(result, LazyConv):
        result = result.materialize(grid)
    return {"result": render_distfn(result)}


def _task_axioms(cfg: dict) -> dict:
    space = parse_space(cfg["space"], tau=cfg.get("tau"), tau_star=cfg.get("taustar"))
    rep = axiom_suite(space, tol=float(cfg["tol"]))
    return {"space": space.describe(), "tau": space.tau.describe(), "taustar": space.tau_star.describe(), "axioms": rep.to_dict(), "all_hold": rep.all_hold}


def _task_serstnev(cfg: dict) -> dict:
    space = parse_space(cfg["space"], tau=cfg.get("tau"), tau_star=cfg.get("taustar"))
    rep = serstnev_check(space, tol=float(cfg["tol"]))
    out = {"space": space.describe(), "holds": rep.holds}
    if rep.witness is not None:
        w = rep.witness
        out["witness"] = {"alpha": w.alpha, "p": list(w.p), "x": w.x,
                          "lhs": render_distfn(w.lhs), "rhs": render_distfn(w.rhs)}
    return out


def _task_classify(cfg: dict) -> dict:
    space = parse_space(cfg["space"])
    aset = _parse_set(cfg["set"], space.dim, int(cfg["samples"]))
    rep = classify_set(space, aset, tol=float(cfg["tol"]))
    out = rep.to_dict()
    out["radius"] = render_distfn(rep.radius)
    out["set"] = aset.describe()
    return out


def _task_radius(cfg: dict) -> dict:
    space = parse_space(cfg["space"])
    aset = _parse_set(cfg["set"], space.dim, int(cfg["samples"]))
    return {"set": aset.describe(), "radius": render_distfn(prob_radius(space, aset))}


def _seq_and_space(cfg: dict):
    space = parse_space(cfg["space"])
    seq = parse_sequence(cfg["seq"], space.dim)
    return space, seq


def _task_converge(cfg: dict) -> dict:
    space, seq = _seq_and_space(cfg)
    target, *extra = parse_vectors(str(cfg["target"]))
    if extra:
        raise UsageError(f"target must be one vector, got {cfg['target']!r}")
    rep = convergence_probe(space, seq, target, _parse_lambdas(cfg["lambdas"]), int(cfg["horizon"]))
    out = rep.to_dict()
    out["verdict"] = "converges" if rep.converges else "diverges"
    return out


def _task_cauchy(cfg: dict) -> dict:
    space, seq = _seq_and_space(cfg)
    rep = cauchy_probe(space, seq, _parse_lambdas(cfg["lambdas"]), int(cfg["horizon"]))
    out = rep.to_dict()
    out["verdict"] = "cauchy" if rep.converges else "not_cauchy"
    return out


def _task_equiv(cfg: dict) -> dict:
    a = parse_space(cfg["a"])
    b = parse_space(cfg["b"])
    if cfg["battery"] != "default":
        raise UsageError("only the default battery is built in")
    rep = equivalence_probe(a, b, lambdas=_parse_lambdas(cfg["lambdas"]), horizon=int(cfg["horizon"]))
    return rep.to_dict()


def _task_find_c(cfg: dict) -> dict:
    space = parse_space(cfg["space"])
    basis = parse_vectors(cfg["basis"])
    field = parse_space(cfg["field"])
    rep = find_comparison_constant(space, basis, field)
    return {"found": rep.found, "c": rep.c, "coeff_samples": rep.n_samples}


def _task_compact(cfg: dict) -> dict:
    space = parse_space(cfg["space"])
    aset = _parse_set(cfg["set"], space.dim)
    return {"set": aset.describe(), **compactness_probe(space, aset).to_dict()}


def _task_lgprobe(cfg: dict) -> dict:
    space = parse_space(cfg["space"])
    xs = _parse_lambdas(cfg["xs"]) if cfg.get("xs") else (0.5, 1.0, 2.0, 4.0)
    rep = lg_probe(space, x_probes=tuple(xs), threshold=float(cfg["threshold"]))
    return {
        "has_lg_property": rep.has_property,
        "failures": [[x, v] for x, v in rep.failures],
        "tail_values": [[x, v] for x, v in rep.tail_values],
    }


def _task_suite(cfg: dict) -> dict:
    name = cfg["name"]
    seed = int(cfg["seed"])
    if name == "paper-examples":
        results = acceptance.run_all()
        # stdout carries only the JSON report
        for r in results:
            print(r.line(), file=sys.stderr)
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} criteria passed", file=sys.stderr)
        return {
            "criteria": [
                {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": passed,
            "total": len(results),
        }
    if name == "laws":
        out = {"tnorms": [], "triangle": [], "spaces": [], "violations": 0}
        for tname in sorted(TNORMS):
            rep = law_suite(get_tnorm(tname), 1000, seed)
            out["tnorms"].append(rep.to_dict())
            out["violations"] += rep.to_dict()["violations"]
        taus = ["sup:min", "sup:prod", "sup:lukasiewicz", "inf:prod", "max"]
        for rep in tf_law_suite(map(parse_triangle, taus), 30, seed):
            d = rep.to_dict()
            out["triangle"].append(d)
            out["violations"] += sum(0 if v else 1 for k, v in d.items() if k != "tau")
        for family in FAMILIES:
            space = make_space(family)
            rep = axiom_suite(space)
            d = rep.to_dict()
            out["spaces"].append({"space": space.describe(), **d})
            out["violations"] += sum(0 if v else 1 for v in d.values())
        return out
    raise UsageError(f"unknown suite {name!r}; choose paper-examples or laws")


_TASKS = {
    "convolve": (_task_convolve, {"kind": "sup", "tnorm": "prod", "lhs": REQUIRED, "rhs": REQUIRED,
                                  "grid": 1024, "xmax": 64.0}),
    "axioms": (_task_axioms, {"space": REQUIRED, "tau": None, "taustar": None, "tol": 1e-9}),
    "serstnev": (_task_serstnev, {"space": REQUIRED, "tau": None, "taustar": None, "tol": 1e-9}),
    "classify": (_task_classify, {"space": REQUIRED, "set": REQUIRED, "samples": 200, "tol": 1e-9}),
    "radius": (_task_radius, {"space": REQUIRED, "set": REQUIRED, "samples": 200}),
    "converge": (_task_converge, {"space": REQUIRED, "seq": REQUIRED, "target": "0",
                                  "lambdas": "0.5,0.25,0.1,0.05", "horizon": DEFAULT_HORIZON}),
    "cauchy": (_task_cauchy, {"space": REQUIRED, "seq": REQUIRED, "lambdas": "0.5,0.25,0.1,0.05",
                              "horizon": DEFAULT_HORIZON}),
    "equiv": (_task_equiv, {"a": REQUIRED, "b": REQUIRED, "battery": "default",
                            "lambdas": "0.5,0.25,0.1,0.05", "horizon": DEFAULT_HORIZON}),
    "find_c": (_task_find_c, {"space": REQUIRED, "basis": REQUIRED, "field": "E19"}),
    "compact": (_task_compact, {"space": REQUIRED, "set": REQUIRED}),
    "lgprobe": (_task_lgprobe, {"space": REQUIRED, "xs": "0.5,1,2,4", "threshold": 1e-6}),
    "suite": (_task_suite, {"name": REQUIRED, "seed": None}),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fits(key: str, value, default) -> bool:
    """Whether a scenario value has a type its subcommand flag parses:
    every key takes a string, numeric keys also a number, and ``lambdas``
    and ``xs`` also a list of numbers."""
    if isinstance(value, list):
        return key in ("lambdas", "xs") and all(map(_is_number, value))
    numeric = _is_number(default) or key in ("seed", "target", "lambdas", "xs")
    return isinstance(value, str) or (numeric and _is_number(value))


def load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read scenario {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: malformed scenario: {exc.msg}") from exc
    if not isinstance(doc, dict) or "task" not in doc:
        raise UsageError(f"{path}: scenario must be a JSON object with a 'task' key")
    task = doc["task"]
    if not isinstance(task, str) or task not in _TASKS:
        raise UsageError(f"{path}: unknown task {task!r}")
    _, defaults = _TASKS[task]
    unknown = sorted(set(doc) - set(defaults) - {"task", "seed"})
    if unknown:
        raise UsageError(f"{path}: unknown scenario key(s) {', '.join(unknown)} for task {task!r}")
    for key, value in doc.items():
        if key != "task" and value is not None and not _fits(key, value, defaults.get(key)):
            raise UsageError(f"{path}: scenario key {key!r} has a value of the wrong type: {value!r}")
    return doc


def run_task(task: str, cfg: dict) -> dict:
    fn, defaults = _TASKS[task]
    resolved = dict(defaults)
    resolved.update({k: v for k, v in cfg.items() if v is not None})
    if resolved.get("seed") in (None, REQUIRED):
        resolved["seed"] = _env_seed()
    missing = [k for k, v in resolved.items() if v == REQUIRED]
    if missing:
        raise UsageError(f"task {task!r} is missing required option(s): {', '.join(missing)}")
    result = fn(resolved)
    return {"task": task, "config": resolved, "result": result}


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(_round9(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pncalc", description=__doc__)
    parser.add_argument("--scenario", default=None, help="JSON scenario file; overrides subcommand flags")
    parser.add_argument("--out", default=None, help="also write the report to this path")
    sub = parser.add_subparsers(dest="task")

    for name, (_, opts) in _TASKS.items():
        if name == "suite":
            continue  # takes its name as a positional argument, below
        p = sub.add_parser(name)
        # accept the common options after the subcommand too; SUPPRESS
        # keeps a value parsed before the subcommand from being clobbered
        p.add_argument("--scenario", default=argparse.SUPPRESS)
        p.add_argument("--out", default=argparse.SUPPRESS)
        for key in opts:
            p.add_argument(f"--{key}", default=None)
    suite = sub.add_parser("suite")
    suite.add_argument("name", nargs="?", default=None)
    suite.add_argument("--seed", default=None)
    suite.add_argument("--scenario", default=argparse.SUPPRESS)
    suite.add_argument("--out", default=argparse.SUPPRESS)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call to main and kept: parse_args reads a parser
    # and writes only the namespace it returns, and building the tree costs
    # about 2.5 ms, most of a light command's time in a batch of main calls
    return build_parser()


def main(argv=None) -> int:
    """Run one command line; can be called repeatedly in one process."""
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.scenario:
            doc = load_scenario(args.scenario)
            task = doc.pop("task")
            report = run_task(task, doc)
        else:
            if not args.task:
                parser.print_usage(sys.stderr)
                return 2
            cfg = {k: v for k, v in vars(args).items() if k not in ("scenario", "out", "task")}
            report = run_task(args.task, cfg)
        _emit(report, args.out)
        return 0
    except (UsageError, ValueError, KeyError, OSError) as exc:
        print(f"pncalc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
