"""Built-in verification battery: twelve checks that reproduce the worked
examples and properties the library is contracted to satisfy, each with
its stated tolerance.  ``run_all`` powers both the test suite and the
``pncalc suite paper-examples`` command.

Independent oracles live here next to the checks they back: the step
convolution is re-derived by brute-force maximization on a dense split
grid, and the comparison constant is checked against direct minimization
of the Euclidean norm over sampled points of the unit l1 sphere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boundedness import (
    all_reals,
    classify_set,
    convergent_set_bound,
    dbounded_witness,
    finite_set,
    interval_rationals,
)
from .distfn import Step, eps
from .pnspace import (
    lg_probe,
    make_space,
    random_scalar_triples,
    scalar_monotonicity_check,
    serstnev_check,
    axiom_suite,
)
from .tnorms import get_tnorm
from .topology import (
    SequenceSpec,
    completeness_probe,
    convergence_probe,
    equivalence_probe,
    find_comparison_constant,
)
from .triangle import TriangleFn, _leq_rows, _pack, random_step_fn, sup_conv, tf_law_suite


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d}: {self.name} -- {self.detail}"


def _criterion(number: int, name: str):
    """Make a check that returns (passed, detail) criterion ``number``: a
    zero-argument callable that returns its ``CriterionResult``."""

    def wrap(check):
        return functools.wraps(check)(lambda: CriterionResult(number, name, *check()))

    return wrap


def _split_reads(f, g, x: float, n_splits: int) -> tuple[np.ndarray, np.ndarray]:
    """F(s) and G(x-s) at the oracle's uniform splits s of [0, x]."""
    ss = np.linspace(0.0, x, n_splits)
    return f.eval_many(ss), g.eval_many(x - ss)


def brute_force_sup_conv(tnorm, f, g, x: float, n_splits: int = 10_000) -> float:
    """Definition-level oracle: maximize T(F(s), G(x-s)) over a dense
    uniform split grid, with no knowledge of the exact step algorithm."""
    return float(np.max(tnorm.fn_np(*_split_reads(f, g, x, n_splits))))


@_criterion(1, "step convolution exactness")
def _c1_step_convolution():
    e1, e2 = eps(1.0), eps(2.0)
    convs = []
    for name in ("min", "prod", "lukasiewicz"):
        t = get_tnorm(name)
        r = sup_conv(t, e1, e2)
        if not (isinstance(r, Step) and r.breakpoints == (3.0,) and r.levels == (0.0, 1.0)):
            return False, f"{name}: got {r}"
        convs.append((t, r))
    # oracle comparison away from the jump: a finite split grid cannot
    # witness the open window just past a sum of jump abscissae, so
    # probe at points at least one grid step from x = 3 (the jump
    # itself is pinned exactly by the breakpoint assertion above); the
    # operands are the same under every t-norm, so one read of them at
    # an abscissa's splits serves all three
    h = 8.0 / 10_000
    worst = 0.0
    for x in np.linspace(0.05, 8.0, 101):
        if abs(x - 3.0) <= 2.0 * h:
            continue
        fs, gs = _split_reads(e1, e2, float(x), 10_000)
        for t, r in convs:
            worst = max(worst, abs(float(np.max(t.fn_np(fs, gs))) - r.eval(float(x))))
    if worst > 1e-6:
        return False, f"oracle gap {worst:.2e}"
    return True, f"eps1*eps2=eps3 for 3 t-norms, oracle gap {worst:.1e}"


@_criterion(2, "triangle-function laws")
def _c2_triangle_laws():
    taus = [
        TriangleFn("sup", get_tnorm("min")),
        TriangleFn("sup", get_tnorm("prod")),
        TriangleFn("max"),
    ]
    for rep in tf_law_suite(taus, n_samples=50, seed=7, tol=1e-12):
        if not rep.all_laws_hold:
            return False, f"{rep.tau}: {rep.to_dict()}"
    rng = np.random.default_rng(11)
    for t in (get_tnorm("min"), get_tnorm("prod")):
        f, g = map(_pack, zip(*[(random_step_fn(rng), random_step_fn(rng)) for _ in range(50)]))
        if not _leq_rows(TriangleFn("sup", t).on_rows(f, g), TriangleFn("max").on_rows(f, g), 1e-9).all():
            return False, "dominance violated"
    return True, "laws at 1e-12, dominance on 100 pairs at 1e-9"


@_criterion(3, "E12 axioms + scaling failure")
def _c3_e12_axioms():
    space = make_space("E12", tau="sup:prod", tau_star="inf:prod")
    rep = axiom_suite(space, tol=1e-9)
    if not rep.all_hold:
        return False, str(rep.to_dict())
    sc = serstnev_check(space, tol=1e-9)
    if sc.holds or sc.witness is None:
        return False, "scaling identity not refuted"
    w = sc.witness
    return True, f"N1-N4 hold at 1e-9; scaling violated at alpha={w.alpha:g}, p={w.p}"


@_criterion(4, "scaling-identity contrast")
def _c4_scaling_contrast():
    if not serstnev_check(make_space("E19"), tol=1e-9).holds:
        return False, "E19 unexpectedly violated"
    sc = serstnev_check(make_space("E9", a=1.0), tol=1e-9)
    if sc.holds:
        return False, "E9 unexpectedly holds"
    hit = next((v for v in sc.violations if v.alpha == 2.0 and v.p == (1.0,)), None)
    if hit is None:
        return False, "witness (alpha=2, p=1) missing"
    lhs_ok = isinstance(hit.lhs, Step) and abs(hit.lhs.breakpoints[0] - 2.0 / 3.0) < 1e-12
    rhs_ok = isinstance(hit.rhs, Step) and abs(hit.rhs.breakpoints[0] - 1.0) < 1e-12
    if not (lhs_ok and rhs_ok):
        return False, f"wrong witness pair {hit}"
    return True, "E19 holds; E9 violated at (2, 1): step(2/3) vs step(1)"


@_criterion(5, "classification battery")
def _c5_classification():
    e9 = classify_set(make_space("E9", a=1.0), all_reals(), tol=1e-9)
    if e9.cls != "certainly_bounded" or e9.witness_x0 != 1.0:
        return False, f"E9 all_reals: {e9.to_dict()}"

    lo, hi = math.sqrt(2.0), math.sqrt(10.0)
    e25 = classify_set(make_space("E25"), interval_rationals(lo, hi), tol=1e-9)
    beta = math.sqrt(max(abs(lo), abs(hi)))
    worst = max(abs(e25.radius.eval(float(t)) - t / (t + beta)) for t in np.geomspace(1e-3, 1e3, 301))
    if e25.cls != "perhaps_bounded" or worst > 1e-6:
        return False, f"E25 interval: {e25.to_dict()}, gap {worst:.2e}"

    e12a = classify_set(make_space("E12"), finite_set([1.0]), tol=1e-9)
    if e12a.cls != "perhaps_unbounded" or abs(e12a.plateau - math.exp(-1.0)) > 1e-9:
        return False, f"E12 {{1}}: {e12a.to_dict()}"

    e12b = classify_set(make_space("E12"), finite_set([float(m * m) for m in range(1, 51)]), tol=1e-9)
    if e12b.cls != "certainly_unbounded":
        return False, f"E12 escape: {e12b.to_dict()}"
    return True, "all four classes reproduced"


@functools.cache
def _battery_sets():
    return (
        (make_space("E9", a=1.0), all_reals()),
        (make_space("E25"), interval_rationals(math.sqrt(2.0), math.sqrt(10.0))),
        (make_space("E12"), finite_set([1.0])),
        (make_space("E12"), finite_set([float(m * m) for m in range(1, 51)])),
        (make_space("E19"), finite_set([0.5, 1.0, 2.0])),
        (make_space("E27", a=1.0), finite_set([-3.0, -1.0, 0.5, 2.0, 3.0])),
        (make_space("E21"), finite_set([1.0, 2.0])),
        (make_space("E12"), finite_set([0.0])),
    )


@_criterion(6, "lower-bound witness coherence")
def _c6_witness_coherence():
    for space, aset in _battery_sets():
        rep = classify_set(space, aset, tol=1e-9)
        wit = dbounded_witness(space, aset, tol=1e-9)
        if wit.found != rep.d_bounded:
            return False, f"{space.family} {aset.describe()}: mismatch"
        if wit.found and not wit.verified:
            return False, f"{space.family} {aset.describe()}: unverified"
    return True, f"{len(_battery_sets())} sets agree"


@_criterion(7, "scalar monotonicity")
def _c7_scalar_monotonicity():
    spaces = [
        make_space("E9", a=1.0),
        make_space("E12"),
        make_space("E19"),
        make_space("E25"),
        make_space("E27", a=1.0),
    ]
    per_space = 40  # 5 x 40 = 200 random trials
    for k, space in enumerate(spaces):
        trials = random_scalar_triples(per_space, seed=100 + k)
        rep = scalar_monotonicity_check(space, trials=trials, tol=1e-9)
        if not rep.ok:
            return False, f"{space.family}: {rep.violations[0]}"
    return True, "200 random (alpha, beta, p) trials hold at 1e-9"


@_criterion(8, "vanishing-at-infinity contrast")
def _c8_vanishing_contrast():
    if not lg_probe(make_space("E12")).has_property:
        return False, "E12 should vanish"
    rep = lg_probe(make_space("E9", a=1.0))
    if rep.has_property:
        return False, "E9 should not vanish"
    at2 = dict(rep.failures).get(2.0)
    if at2 is None or abs(at2 - 1.0) > 1e-12:
        return False, f"limit at x=2 is {at2}"
    return True, "E12 vanishes; E9 sticks at 1 for x=2"


@_criterion(9, "convergence contrast")
def _c9_convergence_contrast():
    harm = SequenceSpec("harmonic")
    n = convergence_probe(make_space("E19"), harm, 0.0, (0.25,), 64).per_lambda[0].n
    if n != 5:
        return False, f"E19 N={n}, expected 5"
    e21 = make_space("E21")
    rep = convergence_probe(e21, harm, 0.0, (0.25,), 64)
    if rep.per_lambda[0].succeeded:
        return False, "E21 unexpectedly converges"
    inside = [m for m in range(1, 65) if e21.norm_of((1.0 / m,)).eval(0.25) > 0.75]
    if inside:
        return False, f"E21 enters at m={inside[:3]}"
    return True, "E19 N=5 at lambda=0.25; E21 fails every index"


@_criterion(10, "completeness probe")
def _c10_completeness():
    r = completeness_probe(make_space("E19"), SequenceSpec("harmonic"))
    if r.status != "cauchy_and_converges" or r.limit != (0.0,):
        return False, f"E19 harmonic: {r.status}"
    r2 = completeness_probe(make_space("E9", a=1.0), SequenceSpec("geometric"), (0.25,))
    if r2.status != "not_cauchy":
        return False, f"E9 geometric: {r2.status}"
    return True, "E19 harmonic converges to 0; E9 2^m not Cauchy"


@_criterion(11, "convergent-sequence bound")
def _c11_sequence_bound():
    harm = SequenceSpec("harmonic")
    r19 = convergent_set_bound(make_space("E19"), harm, 0.0, lam=0.25, horizon=64)
    if not (r19.succeeded and r19.verified and r19.h.in_d_plus()):
        return False, f"E19: {r19.to_dict()}"
    # the harmonic tail enters the 0.25-neighborhood of 0 only past the
    # horizon in E25, so the premise is instantiated at lambda = 0.5
    r25 = convergent_set_bound(make_space("E25"), harm, 0.0, lam=0.5, horizon=64)
    if not (r25.succeeded and r25.verified and r25.h.in_d_plus()):
        return False, f"E25: {r25.to_dict()}"
    r21 = convergent_set_bound(make_space("E21"), harm, 0.0, lam=0.25, horizon=64)
    if r21.status != "premise_norms_not_proper":
        return False, f"E21: {r21.status}"
    return True, "bounds found for E19/E25; E21 premise violation reported"


@_criterion(12, "equivalence + comparison constant")
def _c12_equivalence_and_constant():
    eq = equivalence_probe(make_space("E19"), make_space("E19b", a=1.0))
    if not eq.equivalent_on_battery:
        return False, f"E19/E19b: {eq.witness}"
    eq2 = equivalence_probe(make_space("E21"), make_space("E19"), battery=[(SequenceSpec("harmonic"), 0.0)])
    if eq2.equivalent_on_battery or eq2.witness != "harmonic":
        return False, "E21 vs E19 not refuted"

    space = make_space("E19", dim=2, base_norm="l2")
    found = find_comparison_constant(space, [(1.0, 0.0), (0.0, 1.0)], make_space("E19"))
    # dense-sampling oracle: minimize the l2 norm directly over the l1 sphere
    ts = np.linspace(0.0, 1.0, 2001)
    oracle = float(np.min(np.hypot(ts, 1.0 - ts)))
    if found.c is None or abs(found.c - oracle) > 0.01 or abs(found.c - math.sqrt(0.5)) > 0.01:
        return False, f"c={found.c}, oracle={oracle:.6f}"
    return True, f"batteries agree; c={found.c:.4f} vs oracle {oracle:.4f}"


CRITERIA = (
    _c1_step_convolution,
    _c2_triangle_laws,
    _c3_e12_axioms,
    _c4_scaling_contrast,
    _c5_classification,
    _c6_witness_coherence,
    _c7_scalar_monotonicity,
    _c8_vanishing_contrast,
    _c9_convergence_contrast,
    _c10_completeness,
    _c11_sequence_bound,
    _c12_equivalence_and_constant,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]

