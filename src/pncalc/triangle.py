"""Triangle functions on the distribution-function space.

Three kinds are provided: the sup-convolution under a t-norm T,

    tau_T(F, G)(x) = sup_{s+t=x} T(F(s), G(t)),

the inf-convolution under the dual t-conorm,

    tau_S(F, G)(x) = inf_{s+t=x} S(F(s), G(t)),

and the maximal triangle function (pointwise min).  Both convolutions
have an exact path when both operands are exact Steps: T (or S) of
every pair of levels in one array call of the t-norm's single definition,
then one sweep over the sorted sums of jump abscissae, keeping a running
max of the post-jump T values over the sums below each cell (sup), or a
running min of the pre-jump S values over the sums at or above it (inf).
From ``_ARRAY_MIN`` pairs of jumps on, the sweep runs on arrays: the n m
sums in a stable sort, one ``np.maximum.accumulate`` (from the top for
the inf) and one level per distinct sum; below it, a loop over a dict of
the sums, which costs less on the few jumps of unit steps.

Otherwise the result is a ``LazyConv``, evaluated on demand.  With a
Step F on one side (a Plateau, a Grid or eps(inf) among them), each
value is one walk over F's jumps b (Schweizer & Sklar, Probabilistic
Metric Spaces, 1983, ch. 7; Williamson & Downs, IJAR 4, 1990): as F is
constant between jumps and G nondecreasing and left-continuous, the sup
is the largest T(level after b, G(x - b)), the limit of the splits
s -> b+, and the inf the smaller of F's plateau and the smallest
S(level before b, G(x - b)), read at s = b; G reads 0 at t <= 0.  The
walk goes over the abscissae in blocks of about ``_BLOCK`` values and
reads G only for the jumps below each block's largest x: a jump b >= x
adds T(l, 0) = 0 to the sup and S(l, 0) = l to the inf, the least of
which is the level before the first jump left out, so the cut changes
no value.  On ascending abscissae (grids, probe sets) each block cuts at
its own top; in any order the values stay exact.  A pair with a Grid
stays lazy, as its values carry the sampling error.
Ratio(b) is the Dombi generator family, 1/G - 1 = b/x, so for Ratio(a)
(+) Ratio(b) the optimum over s + t = x has a closed form (Dombi, Fuzzy
Sets and Systems 8, 1982; Schweizer & Sklar, ch. 7):

    t-norm       sup                                  inf
    min          Ratio(a + b)                         Ratio(a + b)
    t2           Ratio((a^2/3 + b^2/3)^3/2)           Ratio(hypot(a, b))
    prod         F(s) G(t) at s = x A/(A + B),        Ratio(max(a, b))
                 t = x B/(A + B), with
                 A = sqrt(a) sqrt(x + b),
                 B = sqrt(b) sqrt(x + a)
    lukasiewicz  max(0, (x - 2 sqrt(ab))/(x + a + b))  Ratio(max(a, b))

The sup objective is log-concave under prod and concave under
Lukasiewicz, so its stationary point is the maximum; the inf objective
under prod and Lukasiewicz is concave, so its minimum sits at an endpoint
split.  A ``LazyConv`` operand whose closed form is a Ratio is read as
that Ratio, so min and t2 chains and every inf chain stay closed at any
depth.

Every other pair (no Step side, and not two Ratios) is searched lazily
over a merged candidate set of sample points, fixed fractions of x, and
breakpoint images.  The search runs over the abscissae in ascending row
blocks of about ``_BLOCK`` candidates, so each nesting level holds a
bounded number of values, and reads the left operand once per
evaluation at its own probe points.  A probe point above x splits x at
an endpoint, (0, x) or (x, 0), which the fraction columns 0.0 and 1.0
already hold bit for bit; so each block reads only the probe points at
or below its largest abscissa, and since max and min are exact, leaving
those duplicate columns out changes no value.  Materialized samples are
re-monotonized by a running max to absorb floating-point wobble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distfn import (
    _ARRAY_MIN,
    _rising_step,
    DEFAULT_GRID,
    INF,
    DistFn,
    Grid,
    GridSpec,
    Ratio,
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

#: values per block of a lazy evaluation, the walk's jumps times its
#: columns or the search's candidates times its rows, so that each nesting
#: level holds O(_BLOCK) values whatever the number of points.  At 2^14 a
#: float temporary is at most 128 KB (512 KB at 2^16), and ascending
#: points split into enough blocks for the walk's cut to drop the jumps
#: above most of them; at 2^13 the per-block numpy calls cost more than
#: the smaller temporaries save.  A 64-sample Grid (+) Ratio at 1,024
#: ascending points, us per walk at 2^16 / 2^14 / 2^13 (2-CPU shared x86
#: host, best of 15):
#:
#:     sup:min 445 / 164 / 195     sup:prod 460 / 179 / 206
#:     inf:min 636 / 210 / 266     inf:prod 701 / 224 / 267
#:     sup:t2  870 / 425 / 485     inf:t2  1216 / 509 / 557
_BLOCK = 1 << 14


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
    sweep = _conv_array if len(a.breakpoints) * len(b.breakpoints) >= _ARRAY_MIN else _conv_loop
    return sweep(t, a, b, maximize)


def _pair_values(t: TNorm, a: Step, b: Step, maximize: bool) -> np.ndarray:
    """T of the levels after each pair of jumps, or -S of those before."""
    op, sign = (t.fn_np, 1.0) if maximize else (t.conorm.fn_np, -1.0)
    pick = slice(1, None) if maximize else slice(None, -1)
    return sign * op(np.asarray(a.levels[pick])[:, None], np.asarray(b.levels[pick]))


def _conv_loop(t: TNorm, a: Step, b: Step, maximize: bool) -> Step:
    best: dict[float, float] = {}
    for x, row in zip(a.breakpoints, _pair_values(t, a, b, maximize).tolist()):
        for y, v in zip(b.breakpoints, row):
            s = x + y
            if v > best.get(s, -1.0):
                best[s] = v
    sums = sorted(best)
    run = 0.0 if maximize else -min(a.plateau, b.plateau)
    levels = [run]
    for s in sums if maximize else reversed(sums):
        run = max(run, best[s])
        levels.append(run)
    return make_step(sums, levels if maximize else [-v for v in reversed(levels)])


def _conv_array(t: TNorm, a: Step, b: Step, maximize: bool) -> Step:
    # the n m sums in stable order, one level per distinct sum: the sup's
    # running max at its last pair, the inf's running max from the top at
    # the first pair of the next sum (only one pair can sum to a zero, so
    # its sign is the loop's)
    with np.errstate(over="ignore"):  # two jumps near the largest float
        sums = np.add.outer(a.arrays[0], b.arrays[0]).ravel()
    order = np.argsort(sums, kind="stable")
    sums, vals = sums[order], _pair_values(t, a, b, maximize).ravel()[order]
    new = sums[1:] != sums[:-1]
    if maximize:
        last = np.flatnonzero(np.append(new, True))
        return _rising_step(sums[last], np.maximum.accumulate(vals)[last])
    first = np.flatnonzero(np.concatenate(((True,), new)))
    above = np.maximum.accumulate(vals[::-1])[::-1][first[1:]]
    floor = -min(a.plateau, b.plateau)
    return _rising_step(sums[first], -np.maximum(np.append(above, floor), floor))


@dataclass(frozen=True)
class _SplitOptimum(DistFn):
    """The optimum over s + t = x of Ratio(a) (+) Ratio(b) under the sup
    of prod or Lukasiewicz, read per point from the module table.  It
    serves only as a ``LazyConv``'s evaluator."""

    tnorm: TNorm
    f: Ratio
    g: Ratio

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        a, b = self.f.beta, self.g.beta
        if self.tnorm.name == "prod":
            # the factors keep sqrt(a (x + b)) from overflowing at large x
            wa = math.sqrt(a) * np.sqrt(xs + b)
            wb = math.sqrt(b) * np.sqrt(xs + a)
            s, t = xs * (wa / (wa + wb)), xs * (wb / (wa + wb))
            return s / (s + a) * (t / (t + b))
        return np.maximum(0.0, (xs - 2.0 * math.sqrt(a) * math.sqrt(b)) / (xs + a + b))


@dataclass(frozen=True)
class _StepWalk(DistFn):
    """The walk over a Step side's jumps (see the module docstring); a ``LazyConv``'s evaluator."""

    tnorm: TNorm
    f: Step
    g: DistFn
    maximize: bool

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        # one row per jump b below the block's largest x, one column per x,
        # in blocks of columns.  A jump b >= x reads G(x - b) = 0, so the
        # rows past the cut reduce exactly: to T(l, 0) = 0 for the sup, and
        # for the inf to S(l, 0) = l, least at the level before the cut
        bps, levels = self.f.arrays
        cols = _BLOCK // max(1, bps.size)
        out = np.empty(xs.shape)
        for i in range(0, xs.size, cols):
            block = xs[i:i + cols]
            k = bps.searchsorted(block.max())
            vals = self.g.eval_many(block - bps[:k, None])  # 0 at x - b <= 0
            if self.maximize:
                vals = self.tnorm.fn_np(levels[1:k + 1, None], vals)
                np.maximum.reduce(vals, axis=0, initial=0.0, out=out[i:i + cols])
            else:
                if k > 1:  # the first jump needs no S: its level before is 0, and S(0, y) = y
                    vals[1:] = self.tnorm.conorm.fn_np(levels[1:k, None], vals[1:])
                np.minimum.reduce(vals, axis=0, initial=levels[k], out=out[i:i + cols])
        return out


def _read_through(f: DistFn) -> DistFn:
    """A lazy result whose closed form is a Ratio, read as that Ratio."""
    if isinstance(f, LazyConv) and isinstance(f.closed, Ratio):
        return f.closed
    return f


def _closed_form(t: TNorm, f: DistFn, g: DistFn, maximize: bool) -> DistFn | None:
    """The convolution of F and G in closed form, from the module table,
    or None when the pair has none (or its Ratio scale overflows)."""
    f, g = _read_through(f), _read_through(g)
    # walk the Step side, the one with fewer jumps when both are Steps
    if isinstance(g, Step) and not (isinstance(f, Step) and len(f.breakpoints) <= len(g.breakpoints)):
        f, g = g, f
    if isinstance(f, Step):
        return _StepWalk(t, f, g, maximize)
    if not (isinstance(f, Ratio) and isinstance(g, Ratio)):
        return None
    a, b = f.beta, g.beta
    if t.name == "min":
        beta = a + b
    elif t.name == "t2":
        # (a^2/3 + b^2/3)^3/2 with the larger scale factored out: a float
        # power that overflows raises, a product only rounds to inf
        hi, lo = max(a, b), min(a, b)
        beta = hi * (1.0 + (lo / hi) ** (2.0 / 3.0)) ** 1.5 if maximize else math.hypot(a, b)
    elif maximize:
        return _SplitOptimum(t, f, g)
    else:
        beta = max(a, b)
    return Ratio(beta) if beta < INF else None


@dataclass(frozen=True)
class LazyConv(DistFn):
    """Convolution evaluated on demand.

    When ``closed`` is set, each value is read from it: ``sup_conv`` and
    ``inf_conv`` set it to the walk over the jumps of a Step side, and
    for two Ratios to the form in the module table.  Otherwise, at each
    x, T(F(s), G(x-s)) is optimized over endpoint splits, fixed fractions
    of x, and both operands' probe abscissae (in both orientations): the
    search, left to pairs with no Step side that are not two Ratios.  A
    ``LazyConv`` built directly has no closed form and takes the search.

    The search goes over the abscissae in ascending blocks, and a block
    reads only the probe points at or below its largest x.  The cut is
    exact: a right probe point t > x clips to the split s = 0, and a
    left one s > x to s = x, which are the fraction 0.0 and 1.0 columns.

    The search can only miss the optimum, so the sup path never
    overestimates and the inf path never underestimates the true
    convolution; the plateau is exact (see ``conv_plateau``).  Values
    stay flagged approximate either way, so default tolerances do not
    depend on which path a pair takes.
    """

    tnorm: TNorm
    f: DistFn
    g: DistFn
    maximize: bool
    closed: DistFn | None = None

    is_approximate = True

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self.closed is not None:
            return self.closed._eval_pos_many(xs)
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
        f, g = self.f.scale_arg(a), self.g.scale_arg(a)
        closed = None if self.closed is None else _closed_form(self.tnorm, f, g, self.maximize)
        return LazyConv(self.tnorm, f, g, self.maximize, closed)

    def probe_xs(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.f.probe_xs()) | set(self.g.probe_xs())))

    def materialize(self, grid: GridSpec = DEFAULT_GRID) -> Grid:
        """Sample onto a grid; re-monotonized by a running max to absorb
        candidate-set wobble between neighbouring abscissae."""
        xs = grid.points()
        vals = np.maximum.accumulate(self._eval_pos_many(xs))
        return Grid(xs, vals)


def _convolve(t: TNorm, f: DistFn, g: DistFn, maximize: bool) -> DistFn:
    if is_eps0(f):
        return g
    if is_eps0(g):
        return f
    if isinstance(f, Step) and isinstance(g, Step) and not (f.is_approximate or g.is_approximate):
        return _conv_steps(t, f, g, maximize)
    return LazyConv(t, f, g, maximize, _closed_form(t, f, g, maximize))


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
        fg = tau(f, g)
        if not distfn_equal(tau(fg, h), tau(f, tau(g, h)), tol):
            assoc.append((f, g, h))
        if not distfn_equal(fg, tau(g, f), tol):
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
    )
