"""Triangle functions on the distribution-function space.

Three kinds are provided: the sup-convolution under a t-norm T,

    tau_T(F, G)(x) = sup_{s+t=x} T(F(s), G(t)),

the inf-convolution under the dual t-conorm,

    tau_S(F, G)(x) = inf_{s+t=x} S(F(s), G(t)),

and the maximal triangle function (pointwise min).  Both convolutions
have an exact path when the operands are piecewise constant: one sweep
over the sorted sums of jump abscissae, keeping a running max of the
post-jump T values over the sums below each cell (sup), or a running min
of the pre-jump S values over the sums at or above it (inf).  Otherwise
the optimum is searched lazily over a merged candidate set of sample
points, fixed fractions of x, and breakpoint images.  The lazy search
runs over the abscissae in ascending row blocks of about ``_BLOCK``
candidates, so each nesting level holds a bounded number of values, and
reads the left operand once per evaluation at its own probe points.  A
probe point above x splits x at an endpoint, (0, x) or (x, 0), which the
fraction columns 0.0 and 1.0 already hold bit for bit; so each block
reads only the probe points at or below its largest abscissa, and since
max and min are exact, leaving those duplicate columns out changes no
value.  Materialized samples are re-monotonized by a running max to
absorb floating-point wobble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distfn import (
    DEFAULT_GRID,
    INF,
    DistFn,
    Grid,
    GridSpec,
    Step,
    compare_leq,
    distfn_equal,
    is_eps0,
    make_step,
    max_tf,
)
from .distfn import EPS0
from .tnorms import LawCheck, TNorm

_FRACTIONS = np.linspace(0.0, 1.0, 17)

#: candidate values per row block of a lazy evaluation, so that each
#: nesting level holds O(_BLOCK) values whatever the number of points
_BLOCK = 1 << 16


def _probe_array(f: DistFn) -> np.ndarray:
    pts = np.array([p for p in f.probe_xs() if math.isfinite(p) and p >= 0.0])
    if pts.size == 0:
        return pts
    # points just past each feature so post-jump levels are visible
    return np.concatenate([pts, np.nextafter(pts, INF)])


def _conv_steps(t: TNorm, a: Step, b: Step, maximize: bool) -> Step:
    # sup: T of the levels just after jumps at x and y holds past x + y;
    # inf: S of the levels just before them holds up to x + y, floored by
    # min(pF, pG) as pairs with a last interval reach +inf (a pair whose
    # lower sums miss a cell steps down to one that covers it, with no
    # larger S).  Negating the inf values turns its running min from the
    # top into the same max.
    op, sign, after = (t, 1.0, 1) if maximize else (t.conorm, -1.0, 0)
    best: dict[float, float] = {}
    for i, x in enumerate(a.breakpoints):
        u = a.levels[i + after]
        for j, y in enumerate(b.breakpoints):
            s = x + y
            v = sign * op(u, b.levels[j + after])
            if v > best.get(s, -1.0):
                best[s] = v
    sums = sorted(best)
    run = 0.0 if maximize else -min(a.plateau, b.plateau)
    levels = [run]
    for s in sums if maximize else reversed(sums):
        run = max(run, best[s])
        levels.append(run)
    return make_step(sums, levels if maximize else [-v for v in reversed(levels)])


@dataclass(frozen=True)
class LazyConv(DistFn):
    """Convolution evaluated on demand: at each x, T(F(s), G(x-s)) is
    optimized over endpoint splits, fixed fractions of x, and both
    operands' probe abscissae (in both orientations).

    The abscissae are walked in ascending blocks, and a block reads only
    the probe points at or below its largest x.  The cut is exact: a
    right probe point t > x clips to the split s = 0, and a left one
    s > x to s = x, which are the fraction 0.0 and 1.0 columns.

    The search can only miss the optimum, so the sup path never
    overestimates and the inf path never underestimates the true
    convolution; the plateau is exact (see ``conv_plateau``).
    """

    tnorm: TNorm
    f: DistFn
    g: DistFn
    maximize: bool

    is_approximate = True

    def _eval_pos(self, x: float) -> float:
        return float(self._eval_pos_many(np.array([x]))[0])

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        pf = np.sort(_probe_array(self.f))
        pg = _probe_array(self.g)
        pg = np.sort(np.concatenate([pg, np.nextafter(pg, -INF)]))
        # the split at pf[k] is min(pf[k], x), so F there is F(pf[k]) or,
        # past x, F(x): the fraction 1.0 column, as x * 1.0 == x
        fpf = self.f.eval_many(pf)
        op = self.tnorm.fn_np if self.maximize else self.tnorm.conorm.fn_np
        reduce = np.max if self.maximize else np.min
        combine = np.maximum if self.maximize else np.minimum
        rows = max(1, _BLOCK // (_FRACTIONS.size + pf.size + pg.size))
        order = np.argsort(xs, kind="stable")
        out = np.empty(xs.shape)
        for i in range(0, xs.size, rows):
            at = order[i:i + rows]
            col = xs[at, None]
            # rows ascend, so the probe points above the block's largest
            # x clip to endpoint splits in every row (see the class doc)
            top = col[-1, 0]
            kg = np.searchsorted(pg, top, "right")
            kf = np.searchsorted(pf, top, "right")
            ss = np.clip(np.concatenate([col * _FRACTIONS, col - pg[:kg]], axis=1), 0.0, col)
            fv = self.f.eval_many(ss)
            best = reduce(op(fv, self.g.eval_many(col - ss)), axis=1)
            if kf:
                fx = fv[:, _FRACTIONS.size - 1, None]
                sf = np.clip(pf[:kf], 0.0, col)
                fs = np.where(pf[:kf] <= col, fpf[:kf], fx)
                best = combine(best, reduce(op(fs, self.g.eval_many(col - sf)), axis=1))
            out[at] = best
        return np.clip(out, 0.0, 1.0)

    @property
    def plateau(self) -> float:
        if self.maximize:
            return self.tnorm(self.f.plateau, self.g.plateau)
        return min(self.f.plateau, self.g.plateau)

    @property
    def has_continuous_part(self) -> bool:
        return self.f.has_continuous_part or self.g.has_continuous_part

    def scale_arg(self, a: float) -> "LazyConv":
        # sup_{s+t=x/a} T(F(s), G(t)) rewrites to the convolution of the
        # argument-scaled operands, so scaling distributes
        return LazyConv(self.tnorm, self.f.scale_arg(a), self.g.scale_arg(a), self.maximize)

    def probe_xs(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.f.probe_xs()) | set(self.g.probe_xs())))

    def materialize(self, grid: GridSpec = DEFAULT_GRID) -> Grid:
        """Sample onto a grid; re-monotonized by a running max to absorb
        candidate-set wobble between neighbouring abscissae."""
        xs = grid.points()
        vals = np.maximum.accumulate(self._eval_pos_many(xs))
        return Grid(tuple(xs.tolist()), tuple(vals.tolist()))


def _convolve(t: TNorm, f: DistFn, g: DistFn, maximize: bool) -> DistFn:
    if is_eps0(f):
        return g
    if is_eps0(g):
        return f
    a, b = f.as_exact_step(), g.as_exact_step()
    if a is not None and b is not None:
        return _conv_steps(t, a, b, maximize)
    return LazyConv(t, f, g, maximize)


def sup_conv(t: TNorm, f: DistFn, g: DistFn) -> DistFn:
    """Sup-convolution of F and G under the t-norm T."""
    return _convolve(t, f, g, maximize=True)


def inf_conv(t: TNorm, f: DistFn, g: DistFn) -> DistFn:
    """Inf-convolution of F and G under the conorm dual to T."""
    return _convolve(t, f, g, maximize=False)


@dataclass(frozen=True)
class TriangleFn:
    """A binary operation on the function space: associative, commutative,
    nondecreasing, with the unit step at 0 as unit."""

    kind: str  # 'sup' | 'inf' | 'max'
    tnorm: TNorm | None = None

    def __post_init__(self):
        if self.kind not in ("sup", "inf", "max"):
            raise ValueError(f"unknown triangle-function kind {self.kind!r}")
        if self.kind in ("sup", "inf") and self.tnorm is None:
            raise ValueError(f"{self.kind}-convolution needs a t-norm")

    def __call__(self, f: DistFn, g: DistFn) -> DistFn:
        if self.kind == "sup":
            return sup_conv(self.tnorm, f, g)
        if self.kind == "inf":
            return inf_conv(self.tnorm, f, g)
        return max_tf(f, g)

    def describe(self) -> str:
        if self.kind == "max":
            return "max"
        return f"{self.kind}:{self.tnorm.name}"


def conv_plateau(tau: TriangleFn, f: DistFn, g: DistFn) -> float:
    """Left limit at +inf of tau(F, G), computed from the operand plateaus.

    For the sup-convolution the symmetric split x/2 + x/2 drives both
    operands to their plateaus, and T caps every other split, so the limit
    is T(pF, pG).  The inf-convolution and the pointwise min are capped by
    the endpoint splits, giving min(pF, pG).  Exact even when the sampled
    convolution path truncates at its horizon.
    """
    if tau.kind == "sup":
        return tau.tnorm(f.plateau, g.plateau)
    return min(f.plateau, g.plateau)


def parse_triangle(text: str) -> TriangleFn:
    """Parse ``sup:<tnorm>``, ``inf:<tnorm>`` or ``max``."""
    from .tnorms import get_tnorm

    if text == "max":
        return TriangleFn("max")
    kind, _, tn = text.partition(":")
    if kind not in ("sup", "inf") or not tn:
        raise ValueError(f"malformed triangle-function spec {text!r}")
    return TriangleFn(kind, get_tnorm(tn))


def random_step_fn(rng: np.random.Generator, max_jumps: int = 4) -> Step:
    """Random step function with dyadic breakpoints and levels, so that
    sums and the standard t-norm values stay exactly representable."""
    k = int(rng.integers(1, max_jumps + 1))
    bps = np.sort(rng.choice(np.arange(1, 129), size=k, replace=False)) / 8.0
    raw = np.sort(rng.integers(0, 17, size=k)) / 16.0
    levels = [0.0] + raw.tolist()
    if rng.random() < 0.5:
        levels[-1] = 1.0
    return make_step(tuple(bps.tolist()), levels)


@dataclass(frozen=True)
class TriangleLawReport:
    tau: str
    associative: LawCheck
    commutative: LawCheck
    monotone: LawCheck
    unit: LawCheck
    n_samples: int
    seed: int

    @property
    def all_laws_hold(self) -> bool:
        return all(c.ok for c in (self.associative, self.commutative, self.monotone, self.unit))

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "associative": self.associative.ok,
            "commutative": self.commutative.ok,
            "monotone": self.monotone.ok,
            "unit": self.unit.ok,
        }


def tf_law_suite(
    tau: TriangleFn,
    n_samples: int = 50,
    seed: int = 7,
    tol: float = 1e-12,
    unit: DistFn = EPS0,
) -> TriangleLawReport:
    """Check the triangle-function axioms on random step operands.

    The step operands keep everything on the exact path, so the default
    tolerance is tight.  Passing a wrong ``unit`` (a negative control)
    reports a violation with a witness operand.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    assoc, comm, mono, unit_v = [], [], [], []
    for _ in range(n_samples):
        f = random_step_fn(rng)
        g = random_step_fn(rng)
        h = random_step_fn(rng)
        if not distfn_equal(tau(tau(f, g), h), tau(f, tau(g, h)), tol):
            assoc.append((f, g, h))
        if not distfn_equal(tau(f, g), tau(g, f), tol):
            comm.append((f, g))
        # f scaled right is pointwise below f, giving an ordered pair
        lo = f.scale_arg(2.0)
        if not compare_leq(tau(lo, h), tau(f, h), tol).holds:
            mono.append((lo, f, h))
        if not distfn_equal(tau(f, unit), f, tol):
            unit_v.append((f,))
    return TriangleLawReport(
        tau=tau.describe(),
        associative=LawCheck(not assoc, tuple(assoc[:2])),
        commutative=LawCheck(not comm, tuple(comm[:2])),
        monotone=LawCheck(not mono, tuple(mono[:2])),
        unit=LawCheck(not unit_v, tuple(unit_v[:2])),
        n_samples=n_samples,
        seed=seed,
    )
