"""Left-continuous distribution functions on the extended half-line.

The value space is the set of maps F: [0, +inf] -> [0, 1] that are
nondecreasing, left-continuous and satisfy F(0) = 0 and F(+inf) = 1,
partially ordered pointwise.  Four representations are provided:

* ``Step``    -- piecewise-constant with finitely many jumps (exact),
* ``Plateau`` -- constant level on (0, +inf) with a jump at infinity,
* ``Ratio``   -- the scale family x / (x + beta),
* ``Grid``    -- a sampled curve, read as a step function from below.

All values are immutable after construction and every operation is a
pure function, so concurrent use of shared values is safe.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

#: Plateau tolerance for membership in D+ (no mass escaping to infinity).
DPLUS_TOL = 1e-9

#: Default comparison tolerance when a sampled (Grid) operand is involved.
GRID_TOL = 1e-6

#: Largest grid: materializing a depth-1 lazy convolution of two Ratio
#: operands costs about 2.5 us per point (5 us under t2), so 16384 points
#: take under 0.1 s (on a 2-CPU x86 host)
MAX_GRID = 16384


@dataclass(frozen=True)
class GridSpec:
    """Sampling policy for operations that have no exact path.

    Points are geometrically spaced on (0, x_max]; the first sample sits
    at ``x_max * x_min_frac``.
    """

    n: int = 1024
    x_max: float = 64.0
    x_min_frac: float = 1e-6

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GRID:
            raise ValueError(f"grid size must lie in [1, {MAX_GRID}], got {self.n}")
        if not 0.0 < self.x_max < INF:
            raise ValueError(f"grid x_max must be positive and finite, got {self.x_max!r}")

    def points(self) -> np.ndarray:
        return np.geomspace(self.x_max * self.x_min_frac, self.x_max, self.n)


DEFAULT_GRID = GridSpec()

#: slimmer geometric fill used by comparisons to resolve smooth operands
COMPARE_FILL = GridSpec(n=192)
_COMPARE_FILL_XS = tuple(COMPARE_FILL.points().tolist())


class DistFn:
    """Base class; see the module docstring for the function-space contract."""

    def eval(self, x: float) -> float:
        """F(x) with the universal conventions F(x)=0 for x<=0, F(+inf)=1."""
        if x != x:
            raise ValueError("cannot evaluate at NaN")
        if x <= 0.0:
            return 0.0
        if x == INF:
            return 1.0
        return self._eval_pos(float(x))

    __call__ = eval

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        pos = xs > 0.0
        fin = pos & np.isfinite(xs)
        out[fin] = self._eval_pos_many(xs[fin])
        out[np.isposinf(xs)] = 1.0
        return out

    def left_limit(self, x: float) -> float:
        """Left limit of F at x; equals F(x) at finite x by left-continuity."""
        if x == INF:
            return self.plateau
        return self.eval(x)

    @property
    def plateau(self) -> float:
        """sup of F over finite arguments, i.e. the left limit at +inf."""
        raise NotImplementedError

    def scale_arg(self, a: float) -> "DistFn":
        """The function x -> F(x / a) for a > 0.  A jump or sample scaled
        past the largest float drops out, as it never shows at finite x;
        a Ratio whose scale overflows becomes its pointwise limit, eps(inf)."""
        raise NotImplementedError

    def probe_xs(self) -> tuple[float, ...]:
        """Abscissae that resolve this function's shape (used by comparisons)."""
        raise NotImplementedError

    def as_exact_step(self) -> "Step | None":
        """Exact step form, or None when the function is not piecewise constant."""
        return None

    @property
    def has_continuous_part(self) -> bool:
        """True when comparisons need a dense probe fill to resolve F."""
        return False

    #: set on representations whose values carry discretization error
    is_approximate: bool = False

    def in_d_plus(self, tol: float = DPLUS_TOL) -> bool:
        return self.plateau >= 1.0 - tol

    def _eval_pos(self, x: float) -> float:
        raise NotImplementedError

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self._eval_pos(float(x)) for x in xs])

    def _check_scale(self, a: float) -> float:
        if not (a > 0.0) or a == INF:
            raise ValueError(f"scale factor must be positive and finite, got {a!r}")
        return float(a)


@dataclass(frozen=True)
class Step(DistFn):
    """Piecewise-constant F with jumps at ``breakpoints``.

    ``levels`` has one more entry than ``breakpoints``; F equals
    ``levels[j]`` on the half-open interval (breakpoints[j-1], breakpoints[j]],
    so the value AT a breakpoint is the lower level (left-continuity).
    The top level may be below 1: the remaining mass sits at +inf.
    """

    breakpoints: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.breakpoints) + 1:
            raise ValueError("levels must have exactly one more entry than breakpoints")
        if self.levels[0] != 0.0:
            raise ValueError("base level must be 0")
        prev_b = -INF
        for b in self.breakpoints:
            if not (b >= 0.0) or math.isinf(b):
                raise ValueError(f"breakpoints must be finite and nonnegative, got {b!r}")
            if b <= prev_b:
                raise ValueError("breakpoints must be strictly ascending")
            prev_b = b
        prev_v = -INF
        for v in self.levels:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"levels must lie in [0, 1], got {v!r}")
            if v < prev_v:
                raise ValueError("levels must be nondecreasing")
            prev_v = v

    def _eval_pos(self, x: float) -> float:
        return self.levels[bisect.bisect_left(self.breakpoints, x)]

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.breakpoints), xs, side="left")
        return np.asarray(self.levels)[idx]

    @property
    def plateau(self) -> float:
        return self.levels[-1]

    def scale_arg(self, a: float) -> "Step":
        a = self._check_scale(a)
        bps = [b * a for b in self.breakpoints]
        k = bisect.bisect_left(bps, INF)
        return Step(tuple(bps[:k]), self.levels[:k + 1])

    def probe_xs(self) -> tuple[float, ...]:
        return self.breakpoints

    def as_exact_step(self) -> "Step":
        return self


@dataclass(frozen=True)
class Plateau(DistFn):
    """F(x) = gamma for 0 < x < +inf; the jump of height 1-gamma sits at +inf."""

    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"plateau level must lie in [0, 1], got {self.gamma!r}")

    def _eval_pos(self, x: float) -> float:
        return self.gamma

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        return np.full(xs.shape, self.gamma)

    @property
    def plateau(self) -> float:
        return self.gamma

    def scale_arg(self, a: float) -> "Plateau":
        self._check_scale(a)
        return self

    def probe_xs(self) -> tuple[float, ...]:
        return (0.0,)

    def as_exact_step(self) -> Step:
        return make_step((0.0,), (0.0, self.gamma))


#: probe ladder of Ratio(1); Ratio(beta) probes beta times it
_RATIO_LADDER = np.geomspace(1e-3, 1e3, 25)


@dataclass(frozen=True)
class Ratio(DistFn):
    """F(x) = x / (x + beta) for x > 0; strictly increasing with plateau 1."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0.0) or math.isinf(self.beta):
            raise ValueError(f"ratio scale must be positive and finite, got {self.beta!r}")

    def _eval_pos(self, x: float) -> float:
        return x / (x + self.beta)

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        return xs / (xs + self.beta)

    @property
    def plateau(self) -> float:
        return 1.0

    def scale_arg(self, a: float) -> "DistFn":
        a = self._check_scale(a)
        beta = self.beta * a
        # x / (x + beta) tends to 0 at every x as beta grows
        return Ratio(beta) if beta < INF else EPS_INF

    def probe_xs(self) -> tuple[float, ...]:
        return tuple(self.beta * _RATIO_LADDER)

    @property
    def has_continuous_part(self) -> bool:
        return True


@dataclass(frozen=True)
class Grid(DistFn):
    """Sampled curve: F(x) = vs[j] on (xs[j], xs[j+1]], zero at or below xs[0].

    Reading the samples as a left-continuous step from below keeps the
    representation inside the function space; the last sample doubles as
    the plateau (a horizon approximation for curves that keep climbing).
    """

    xs: tuple[float, ...]
    vs: tuple[float, ...]

    is_approximate = True

    def __post_init__(self):
        if len(self.xs) != len(self.vs) or not self.xs:
            raise ValueError("xs and vs must be nonempty and of equal length")
        prev = 0.0
        for x in self.xs:
            if not (x > prev) or math.isinf(x):
                raise ValueError("sample abscissae must be finite, positive and strictly ascending")
            prev = x
        prev_v = 0.0
        for v in self.vs:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"sample values must lie in [0, 1], got {v!r}")
            if v < prev_v - 1e-15:
                raise ValueError("sample values must be nondecreasing")
            prev_v = v

    def _eval_pos(self, x: float) -> float:
        j = bisect.bisect_left(self.xs, x)
        return 0.0 if j == 0 else self.vs[j - 1]

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.xs), xs, side="left")
        vals = np.concatenate(([0.0], np.asarray(self.vs)))
        return vals[idx]

    @property
    def plateau(self) -> float:
        return self.vs[-1]

    def scale_arg(self, a: float) -> "DistFn":
        a = self._check_scale(a)
        xs = [x * a for x in self.xs]
        k = bisect.bisect_left(xs, INF)
        return Grid(tuple(xs[:k]), self.vs[:k]) if k else EPS_INF

    def probe_xs(self) -> tuple[float, ...]:
        return self.xs


def make_step(breakpoints, levels) -> Step:
    """Canonical step function: sorts jumps, merges duplicates, drops
    zero-height jumps and anything at +inf (which never shows at finite x)."""
    bps = [float(b) for b in breakpoints]
    lvls = [float(v) for v in levels]
    if len(lvls) != len(bps) + 1:
        raise ValueError("levels must have exactly one more entry than breakpoints")
    if abs(lvls[0]) != 0.0:
        raise ValueError("base level must be 0")
    out_b: list[float] = []
    out_l: list[float] = [0.0]
    for b, v in sorted(zip(bps, lvls[1:])):
        if math.isinf(b):
            break
        v = min(v, 1.0)
        if v <= out_l[-1]:
            continue
        if out_b and b == out_b[-1]:
            out_l[-1] = v
        else:
            out_b.append(b)
            out_l.append(v)
    return Step(tuple(out_b), tuple(out_l))


def eps(c: float) -> DistFn:
    """Unit step at c: 0 for x <= c, 1 for x > c.  eps(inf) is the minimal element."""
    if c == INF:
        return EPS_INF
    if not (c >= 0.0):
        raise ValueError(f"step threshold must be nonnegative, got {c!r}")
    return Step((float(c),), (0.0, 1.0))


EPS0 = Step((0.0,), (0.0, 1.0))
EPS_INF = Step((), (0.0,))


def from_spec(text: str) -> DistFn:
    """Parse the textual constructor syntax: ``step:<c>``, ``plateau:<g>``,
    ``ratio:<b>``, ``grid:@<path>`` (two-column text, x and value per line)."""
    kind, _, arg = text.partition(":")
    if not arg:
        raise ValueError(f"malformed distribution spec {text!r}")
    if kind == "step":
        return eps(INF if arg in ("inf", "+inf") else float(arg))
    if kind == "plateau":
        return Plateau(float(arg))
    if kind == "ratio":
        return Ratio(float(arg))
    if kind == "grid":
        if not arg.startswith("@"):
            raise ValueError("grid spec must reference a file: grid:@<path>")
        xs, vs = [], []
        with open(arg[1:], encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                sx, sv = line.split()
                xs.append(float(sx))
                vs.append(float(sv))
        return Grid(tuple(xs), tuple(vs))
    raise ValueError(f"unknown distribution family {kind!r}")


@dataclass(frozen=True)
class Comparison:
    """Outcome of a pointwise <= test: either it holds, or a witness x
    where the left side exceeds the right by ``gap``."""

    holds: bool
    witness: float | None
    gap: float


def merged_probe_xs(f: DistFn, g: DistFn | None = None, extra=()) -> np.ndarray:
    """Probe abscissae resolving both operands: native probe points, their
    midpoints, a tail point past the last feature, plus a dense geometric
    fill when a continuous (Ratio) operand is involved."""
    pts = {0.0}
    fns = (f,) if g is None else (f, g)
    for fn in fns:
        pts.update(float(x) for x in fn.probe_xs())
    pts.update(float(x) for x in extra)
    if any(fn.has_continuous_part for fn in fns):
        pts.update(_COMPARE_FILL_XS)
    base = sorted(p for p in pts if p >= 0.0 and not math.isinf(p))
    mids = [(a + b) / 2.0 for a, b in zip(base, base[1:])]
    tail = base[-1] if base else 0.0
    return np.array(sorted(set(base + mids + [tail + 1.0, 2.0 * tail + 2.0])))


def compare_leq(f: DistFn, g: DistFn, tol: float | None = None) -> Comparison:
    """Pointwise order test F <= G + tol over the merged probe set.

    Default tolerance is 0 for exact representations and ``GRID_TOL``
    when a sampled operand is involved.
    """
    if tol is None:
        tol = GRID_TOL if (f.is_approximate or g.is_approximate) else 0.0
    xs = merged_probe_xs(f, g)
    diff = f.eval_many(xs) - g.eval_many(xs)
    k = int(np.argmax(diff))
    gap = float(diff[k])
    if gap <= tol:
        return Comparison(True, None, gap)
    return Comparison(False, float(xs[k]), gap)


def check_tol(tol: float) -> None:
    """Reject a verdict tolerance outside [0, 1): a NaN passes no
    comparison, a negative slack fails equal functions, and a slack of 1
    or more passes every pair of values in [0, 1]."""
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tolerance must be finite and in [0, 1), got {tol}")


def distfn_equal(f: DistFn, g: DistFn, tol: float | None = None) -> bool:
    return compare_leq(f, g, tol).holds and compare_leq(g, f, tol).holds


def is_eps0(f: DistFn, tol: float = 0.0) -> bool:
    """True when F is (pointwise) the maximal element: 1 on all of (0, +inf)."""
    step = f.as_exact_step()
    if step is not None:
        return step.plateau >= 1.0 - tol and all(b <= 0.0 for b in step.breakpoints)
    return False


def levy_dist(f: DistFn, g: DistFn) -> float:
    """Levy-Sibley distance inf{h > 0: F(x-h)-h <= G(x) <= F(x+h)+h for all x},
    metrizing weak convergence; computed by bisection to 1e-9."""

    def ok(h: float) -> bool:
        shifts = [p + d for p in probes for d in (-h, h)]
        xs = merged_probe_xs(f, g, extra=shifts)
        fv_lo = f.eval_many(xs - h)
        fv_hi = f.eval_many(xs + h)
        gv = g.eval_many(xs)
        slack = 1e-15
        return bool(np.all(fv_lo - h <= gv + slack) and np.all(gv <= fv_hi + h + slack))

    probes = [float(x) for x in f.probe_xs()] + [float(x) for x in g.probe_xs()]
    lo, hi = 0.0, 1.0
    if ok(0.0):
        return 0.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def pointwise_min(fns) -> DistFn:
    """Pointwise minimum of finitely many distribution functions.

    A finite minimum of left-continuous nondecreasing functions is again
    left-continuous, so no regularization step is needed.  Exact for
    step-like operands and for pure Ratio families; sampled otherwise.
    """
    fns = list(fns)
    if not fns:
        raise ValueError("pointwise_min of an empty collection")
    if len(fns) == 1:
        return fns[0]
    if all(isinstance(f, Ratio) for f in fns):
        return Ratio(max(f.beta for f in fns))
    steps = [f.as_exact_step() if f.as_exact_step() is not None else f for f in fns]
    if all(isinstance(s, (Step, Grid)) for s in steps):
        return _min_steps(steps)
    xs = merged_probe_xs(fns[0], fns[1])
    allpts = set(xs.tolist())
    for f in fns[2:]:
        allpts.update(float(x) for x in f.probe_xs())
    allpts.update(DEFAULT_GRID.points().tolist())
    xs = np.array(sorted(p for p in allpts if 0.0 < p < INF))
    vals = np.min(np.vstack([f.eval_many(xs) for f in fns]), axis=0)
    vals = np.maximum.accumulate(vals)
    return Grid(tuple(xs.tolist()), tuple(np.clip(vals, 0.0, 1.0).tolist()))


def _min_steps(steps) -> Step:
    bset: set[float] = set()
    for s in steps:
        bset.update(s.probe_xs())
    bps = sorted(bset)
    if not bps:
        return EPS_INF
    reps = bps[1:] + [bps[-1] + 1.0]
    levels = [0.0] + [min(s.eval(r) for s in steps) for r in reps]
    return make_step(bps, levels)


def max_tf(f: DistFn, g: DistFn) -> DistFn:
    """The maximal triangle function: pointwise min(F, G).  It dominates
    every convolution-style triangle function and has the unit step at 0
    as unit, since min(F, eps0) = F."""
    return pointwise_min([f, g])
