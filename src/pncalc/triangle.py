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
From ``_ARRAY_MIN`` pairs of jumps on, the sweep runs on arrays (the n m
sums in a stable sort, one ``np.maximum.accumulate``, from the top for
the inf, and one level per distinct sum); below it, on a dict of the
largest value at each sum, which costs less on the few jumps of unit
steps.  The law batteries of ``tf_law_suite`` run the array sweep, the
minimum and the order read of a Step F on many Steps at once, as rows:
jumps padded with +inf, levels with the plateau (``TriangleFn.on_rows``).

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
no value.  A pair with a Grid stays lazy, as its values carry the
sampling error.
Ratio(b) is the Dombi generator family, 1/G - 1 = b/x, so the optimum
over s_1 + ... + s_n = x of a chain Ratio(a_1) (+) ... (+) Ratio(a_n)
of one kind and t-norm (associative: Schweizer & Sklar, ch. 7) has a
closed form (Dombi, Fuzzy Sets and Systems 8, 1982), R = sum sqrt(a_i):

    t-norm       sup                                  inf
    min          Ratio(a + b)                         Ratio(a + b)
    t2           Ratio((a^2/3 + b^2/3)^3/2)           Ratio(hypot(a, b))
    prod         n = 2: F(s) G(t) at s = x A/(A + B), Ratio(max(a, b))
                 t = x B/(A + B), A = sqrt(a) sqrt(x + b),
                 B = sqrt(b) sqrt(x + a);  n >= 3: the
                 product at s_i = (sqrt(a_i^2 + 4 a_i nu^2) - a_i)/2,
                 nu the root of sum s_i = x
    lukasiewicz  max(0, 1 - R (R/(x + sum a_i)))       Ratio(max(a, b))

Read as written, and Ratio(b) as 1/(1 + b/x), each form but sup:prod is
a chain of correctly rounded steps monotone in x, nondecreasing on floats;
the sup:prod split s(x) is not, and its values can step down by a few ulps.

The sup objective is log-concave under prod and concave under
Lukasiewicz, so its stationary point is the maximum; the inf objective
is concave, so its minimum sits at an endpoint split.  Each s_i(nu) is
convex, above its asymptote sqrt(a_i) nu - a_i/2 and below nu^2 and
sqrt(a_i) nu, so Newton's method falls monotonically onto nu from the
lesser of two starts above it, where the asymptotes or half the smaller
bounds add up to x: 7 to 10 rounds at scale ratios up to 1e600 and x
from 1e-300 to 1e300.  A ``LazyConv`` operand whose form is a Ratio is
read as it, so min, t2 and inf chains stay Ratios, and a scale that
overflows takes the limit of ``Ratio.scale_arg``, eps(inf).  A walk
convolved again under its own kind and t-norm re-associates: walk(F, G)
(+) X = walk(F, G (+) X).  Any other pair (a chain under another kind
or t-norm) reads the operand that is neither a Step nor a Ratio onto a
Grid below it, at the sampled points of ``pointwise_min``, which reach
the largest float, and walks that Grid: as both convolutions are
nondecreasing in each operand, its values are lower bounds under both
kinds.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .distfn import (_ARRAY_MIN, _LARGEST, DEFAULT_GRID, EPS0, EPS_INF, INF, DistFn, Grid, GridSpec, Ratio, Step,
                     _exact_form, _rising_list, _rising_step, _sample_min, is_eps0, max_tf)
from .tnorms import LawCheck, TNorm

#: values per block of a walk, its jumps times its columns, so that each
#: nesting level holds O(_BLOCK) values whatever the number of points.
#: At 2^14 a float temporary is at most 128 KB (512 KB at 2^16), and
#: ascending points split into enough blocks for the walk's cut to drop
#: the jumps above most of them; at 2^13 the per-block numpy calls cost
#: more than the smaller temporaries save.  A 64-sample Grid (+) Ratio
#: at 1,024 ascending points, us per walk at 2^16 / 2^14 / 2^13 (2-CPU
#: shared x86 host, best of 15):
#:
#:     sup:min 445 / 164 / 195     sup:prod 460 / 179 / 206
#:     inf:min 636 / 210 / 266     inf:prod 701 / 224 / 267
#:     sup:t2  870 / 425 / 485     inf:t2  1216 / 509 / 557
_BLOCK = 1 << 14


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
    if maximize:
        # the running max of the values tops the last level kept exactly
        # where a sum's own value does, so the one pass reads the values
        return _rising_list(sums, map(best.__getitem__, sums))
    # the level from a sum up to the next: the negated running max, from
    # the top, of the floor and the values of the sums above it
    above = itertools.accumulate(map(best.__getitem__, reversed(sums[1:])), max, initial=-min(a.plateau, b.plateau))
    return _rising_list(sums, map(operator.neg, reversed([*above])))


def _conv_array(t: TNorm, a: Step, b: Step, maximize: bool) -> Step:
    # the n m sums in stable order, one level per distinct sum: the sup's
    # running max at its last pair, the inf's running max from the top at
    # the first pair of the next sum (only one pair can sum to a zero, so
    # its sign is the loop's)
    with np.errstate(over="ignore"):  # two jumps near the largest float
        sums = np.add.outer(a.arrays[0], b.arrays[0]).ravel()
    if not sums.size:  # an operand with no jump: 0 at every finite x under both kinds, as the loop finds
        return EPS_INF
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


def _pack(steps) -> tuple[np.ndarray, np.ndarray]:
    """Steps as rows: the jumps padded with +inf, the levels with the plateau."""
    k = max(1, max(len(s.breakpoints) for s in steps))
    return (np.array([s.breakpoints + (INF,) * (k - len(s.breakpoints)) for s in steps]),
            np.array([s.levels + s.levels[-1:] * (k - len(s.breakpoints)) for s in steps]))


def _level_rows(rows, xs: np.ndarray, below=np.less) -> np.ndarray:
    """Each row's level after its jumps that lie ``below`` each x of its row of xs."""
    return rows[1][np.arange(len(xs))[:, None], below(rows[0][:, None, :], xs[:, :, None]).sum(axis=2)]


def _canonical_rows(xs: np.ndarray, levels: np.ndarray):
    """``_rising_step`` of each row of ascending xs and levels in [0, 1] that
    do not fall: of the last entry of each run of equal xs below +inf, those
    whose level tops the one before (and 0), moved to the front."""
    n, r = len(xs), np.arange(len(xs))[:, None]
    last = np.concatenate((xs[:, 1:] != xs[:, :-1], np.ones((n, 1), bool)), axis=1)
    top = np.maximum.accumulate(np.where(last, levels, 0.0), axis=1)
    keep = last & (xs < INF) & (levels > np.concatenate((np.zeros((n, 1)), top[:, :-1]), axis=1))
    order = np.argsort(~keep, axis=1, kind="stable")[:, :max(1, keep.sum(axis=1).max())]
    kept = keep[r, order]
    levels = np.concatenate((np.zeros((n, 1)), np.where(kept, levels[r, order], 0.0)), axis=1)
    return np.where(kept, xs[r, order], INF), np.maximum.accumulate(levels, axis=1)


def _conv_rows(t: TNorm, a, b, maximize: bool):
    """``_conv_array``'s sweep along each pair of packed rows; a pair with
    a padded jump sums to +inf and, for the inf, reads no value."""
    (ab, al), (bb, bl) = a, b
    n, r = len(ab), np.arange(len(ab))[:, None]
    with np.errstate(over="ignore"):  # two jumps near the largest float
        sums = (ab[:, :, None] + bb[:, None, :]).reshape(n, -1)
    vals = t.fn_np(al[:, 1:, None], bl[:, None, 1:]) if maximize else -t.conorm.fn_np(al[:, :-1, None], bl[:, None, :-1])
    if not maximize:
        vals[np.isinf(ab)[:, :, None] | np.isinf(bb)[:, None, :]] = -INF
    order = np.argsort(sums, axis=1, kind="stable")
    sums, vals = sums[r, order], vals.reshape(n, -1)[r, order]
    if maximize:
        return _canonical_rows(sums, np.maximum.accumulate(vals, axis=1))
    floor = -np.minimum(al[:, -1:], bl[:, -1:])
    above = np.maximum.accumulate(vals[:, ::-1], axis=1)[:, ::-1]
    return _canonical_rows(sums, -np.maximum(np.concatenate((above[:, 1:], floor), axis=1), floor))


def _leq_rows(a, b, tol: float) -> np.ndarray:
    """``compare_leq(F, G, tol).holds`` of each pair of packed rows, read as
    ``_compare_step_side`` reads a Step F: at the next float above each jump."""
    xs = np.nextafter(a[0], _LARGEST)
    return np.where(a[0] < INF, _level_rows(a, xs) - _level_rows(b, xs), 0.0).max(axis=1, initial=0.0) <= tol


@dataclass(frozen=True)
class _Chain(DistFn):
    """A sup:prod or sup:Lukasiewicz chain of Ratios (see the module
    docstring); a ``LazyConv``'s evaluator."""

    tnorm: TNorm
    scales: tuple[float, ...]

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        a = self.scales
        if self.tnorm.name == "lukasiewicz" or len(a) == 2:
            # the form reads x and the a_i only through their ratios, and
            # dividing all of them by 2^64 is exact (while they stay normal)
            # and commutes with sqrt: where a sum of x and the scales could
            # overflow, it is read there
            r = [math.sqrt(b) for b in a]
            big = xs > 2.0**1000 if sum(r) < 2.0**500 else np.ones(xs.shape, bool)
            if big.any():
                h = np.where(big, 2.0**-32, 1.0)
                xs, a, r = xs * h * h, [b * h * h for b in a], [v * h for v in r]
            if self.tnorm.name == "lukasiewicz":
                root = sum(r)  # each correctly rounded step below is monotone in x
                return np.maximum(0.0, 1.0 - root * (root / sum(a, xs)))
            # the factors keep sqrt(a (x + b)) from overflowing at large x
            wa = r[0] * np.sqrt(xs + a[1])
            wb = r[1] * np.sqrt(xs + a[0])
            s, t = xs * (wa / (wa + wb)), xs * (wb / (wa + wb))
            return s / (s + a[0]) * (t / (t + a[1]))
        # in units of the largest scale: past x = 2^1000 every factor
        # rounds to 1, and where x underflows to 0 the value does too
        m = max(a)
        alpha = np.maximum(np.array(a) / m, np.finfo(float).tiny)[:, None]
        r = np.sqrt(alpha)
        with np.errstate(over="ignore"):
            x = np.minimum(xs / m, 2.0**1000)
        zero = x == 0.0
        x[zero] = 1.0
        # two starts above the root: where the asymptotes add up to x, and
        # where s_i of the largest scale, above min(nu^2, nu) / 2, reaches x
        nu = np.minimum((x + alpha.sum() / 2.0) / r.sum(), np.maximum(np.sqrt(2.0 * x), 2.0 * x))
        while True:
            # s_i = 2 r_i nu^2 / (r_i + hypot(r_i, 2 nu)), slope 2 r_i nu / hypot(r_i, 2 nu)
            hyp = np.hypot(r, 2.0 * nu)
            slope = 2.0 * r * nu
            s = nu * (slope / (r + hyp))
            step = nu - (s.sum(axis=0) - x) / (slope / hyp).sum(axis=0)
            if not (step < nu).any():
                break
            nu = np.minimum(step, nu)
        out = np.prod(s / (s + alpha), axis=0)
        out[zero] = 0.0
        return out


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
        cols = _BLOCK // max(1, bps.searchsorted(xs.max(initial=0.0)))  # the most jumps a block reads
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


def _closed_form(t: TNorm, f: DistFn, g: DistFn, maximize: bool) -> DistFn:
    """The convolution of F and G from the module table."""
    f, g = _exact_form(f), _exact_form(g)
    # walk the Step side, the one with fewer jumps when both are Steps
    if isinstance(g, Step) and not (isinstance(f, Step) and len(f.breakpoints) <= len(g.breakpoints)):
        f, g = g, f
    if isinstance(f, Step):
        return _StepWalk(t, f, g, maximize)
    if maximize and t.name in ("prod", "lukasiewicz"):
        fc, gc = getattr(f, "closed", f), getattr(g, "closed", g)
        if all(isinstance(h, Ratio) or isinstance(h, _Chain) and h.tnorm.name == t.name for h in (fc, gc)):
            return _Chain(t, fc.scales + gc.scales)
    elif isinstance(f, Ratio) and isinstance(g, Ratio):
        a, b = f.beta, g.beta
        if t.name == "min":
            beta = a + b
        elif t.name == "t2":
            # (a^2/3 + b^2/3)^3/2 with the larger scale factored out: a float
            # power that overflows raises, a product only rounds to inf
            hi, lo = max(a, b), min(a, b)
            beta = hi * (1.0 + (lo / hi) ** (2.0 / 3.0)) ** 1.5 if maximize else math.hypot(a, b)
        else:
            beta = max(a, b)
        # a scale past the largest float takes the limit of Ratio.scale_arg
        return Ratio(beta) if beta < INF else EPS_INF
    # a walk convolved again under its own kind and t-norm re-associates
    for h, other in ((f, g), (g, f)):
        walk = getattr(h, "closed", None)
        if isinstance(walk, _StepWalk) and walk.maximize == maximize and walk.tnorm.name == t.name:
            return _StepWalk(t, walk.f, _convolve(t, walk.g, other, maximize), maximize)
    # any other pair walks the Grid below the operand that is not a Ratio
    h, other = (g, f) if isinstance(f, Ratio) else (f, g)
    return _StepWalk(t, _sample_min([h]), other, maximize)


@dataclass(frozen=True)
class LazyConv(DistFn):
    """Convolution evaluated on demand, read from ``closed``, the pair's
    form in the module table.  Values are exact, but for the sampled
    fallback, where they are lower bounds under both kinds, and for a
    Ratio scale that overflows, read as its limit eps(inf).  The plateau
    is exact either way: T(pF, pG) for the sup, which the split x/2 + x/2
    attains, and min(pF, pG), set by the endpoint splits, for the inf."""

    tnorm: TNorm
    f: DistFn
    g: DistFn
    maximize: bool

    @functools.cached_property
    def closed(self) -> DistFn:
        return _closed_form(self.tnorm, self.f, self.g, self.maximize)

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        return self.closed._eval_pos_many(xs)

    @property
    def plateau(self) -> float:
        return self.tnorm(self.f.plateau, self.g.plateau) if self.maximize else min(self.f.plateau, self.g.plateau)

    def scale_arg(self, a: float) -> "LazyConv":
        # sup_{s+t=x/a} T(F(s), G(t)) rewrites to the convolution of the
        # argument-scaled operands, so scaling distributes
        return LazyConv(self.tnorm, self.f.scale_arg(a), self.g.scale_arg(a), self.maximize)

    def probe_xs(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.f.probe_xs()) | set(self.g.probe_xs())))

    def materialize(self, grid: GridSpec = DEFAULT_GRID) -> Grid:
        """Sample onto a grid."""
        xs = grid.points()
        return Grid(xs, self._eval_pos_many(xs))


def _convolve(t: TNorm, f: DistFn, g: DistFn, maximize: bool) -> DistFn:
    if is_eps0(f):
        return g
    if is_eps0(g):
        return f
    if isinstance(f, Step) and isinstance(g, Step) and not (isinstance(f, Grid) or isinstance(g, Grid)):
        return _conv_steps(t, f, g, maximize)
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

    def on_rows(self, a, b):
        """The operation on each pair of packed rows of Steps."""
        if self.kind != "max":
            return _conv_rows(self.tnorm, a, b, self.kind == "sup")
        # the minimum: the merged jumps, each at the lesser level after it,
        # as _min_steps builds it; of equal jumps F's, sorted last, stays
        xs = np.sort(np.concatenate((b[0], a[0]), axis=1), axis=1, kind="stable")
        return _canonical_rows(xs, np.minimum(_level_rows(a, xs, np.less_equal), _level_rows(b, xs, np.less_equal)))

    def describe(self) -> str:
        if self.kind == "max":
            return "max"
        return f"{self.kind}:{self.tnorm.name}"


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
    bps = [(b + 1) / 8.0 for b in sorted(rng.choice(128, size=k, replace=False).tolist())]
    levels = [v / 16.0 for v in sorted(rng.integers(0, 17, size=k).tolist())]
    if rng.random() < 0.5:
        levels[-1] = 1.0
    return _rising_list(bps, levels)


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
    taus: Iterable[TriangleFn],
    n_samples: int = 50,
    seed: int = 7,
    tol: float = 1e-12,
    unit: DistFn = EPS0,
) -> list[TriangleLawReport]:
    """Check the triangle-function axioms on random step operands, one
    report per triangle function in ``taus``.

    The n_samples operand triples are drawn once, from ``seed``, and every
    tau is checked on the same ones, as one call per tau would draw them.
    The step operands keep everything on the exact path, so the default
    tolerance is tight.  Passing a wrong ``unit`` (a negative control)
    reports a violation with a witness operand; the unit must be a Step.
    Each law runs on all the triples at once, as rows, by the tau's
    ``on_rows`` (``TriangleFn.on_rows`` for the built-in kinds), with the
    verdicts of ``distfn_equal`` and ``compare_leq`` at ``tol``.
    n_samples is at most 10,000: a triple takes about 7 KB and 0.1 ms a
    tau, so 70 MB and 1 s a tau at the bound.
    """
    if not 1 <= n_samples <= 10_000:
        raise ValueError(f"n_samples must lie in [1, 10000], got {n_samples}")
    if not isinstance(unit, Step):
        raise ValueError(f"the unit must be a Step, as the laws run on packed rows, got {type(unit).__name__}")
    rng = np.random.default_rng(seed)
    triples = [(random_step_fn(rng), random_step_fn(rng), random_step_fn(rng)) for _ in range(n_samples)]
    # f scaled right is pointwise below f, giving an ordered pair
    lows = [f.scale_arg(2.0) for f, _, _ in triples]
    f, g, h, lo, u = map(_pack, (*zip(*triples), lows, [unit] * n_samples))

    def equal(a, b):  # distfn_equal(F, G, tol) of each pair of rows
        return _leq_rows(a, b, tol) & _leq_rows(b, a, tol)

    reports = []
    for tau in taus:
        op = tau.on_rows
        fg = op(f, g)
        laws = ((equal(op(fg, h), op(f, op(g, h))), triples),
                (equal(fg, op(g, f)), [t[:2] for t in triples]),
                (_leq_rows(op(lo, h), op(f, h), tol), [(w, x, z) for w, (x, _, z) in zip(lows, triples)]),
                (equal(op(f, u), f), [t[:1] for t in triples]))
        # each law's check, with the operands of its first two violations
        reports.append(TriangleLawReport(tau.describe(), *(
            LawCheck(bool(np.all(ok)), tuple(w for w, v in zip(ops, ok) if not v)[:2]) for ok, ops in laws)))
    return reports
