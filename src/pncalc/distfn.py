"""Left-continuous distribution functions on the extended half-line.

The value space is the set of maps F: [0, +inf] -> [0, 1] that are
nondecreasing, left-continuous and satisfy F(0) = 0 and F(+inf) = 1,
partially ordered pointwise.  Four representations are provided:

* ``Step``    -- piecewise-constant with finitely many jumps (exact),
* ``Plateau`` -- the Step with one jump, at 0, up to a level gamma: the
  constant gamma on (0, +inf), with the rest of the mass at infinity,
* ``Ratio``   -- the scale family x / (x + beta),
* ``Grid``    -- a sampled curve, read from below: the (approximate)
  Step that jumps to each sample's value at its abscissa.

The order test ``compare_leq`` reads both operands where the pair's
largest gap can sit, and ``_read_gap`` turns the reads into a verdict.
It is exact with a Step (a Plateau or a Grid among them) on either side
and below a Ratio, by the generator rule, for a Ratio or a chain of them.
Any other pair with a lazy convolution is sampled.  Every sampled path
(that order check, the sampled pointwise minimum and ``levy_dist``)
reads the one set that ``merged_probe_xs`` builds from the operands'
probe points, up to the largest float; a violation between two of its
points can go unseen.

All values are immutable after construction and every operation is a
pure function, so concurrent use of shared values is safe.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

INF = math.inf
_LARGEST = math.nextafter(INF, 0.0)

#: Plateau tolerance for membership in D+ (no mass escaping to infinity).
DPLUS_TOL = 1e-9

#: Largest grid, and most samples in a ``grid:@`` file: materializing a
#: depth-1 convolution (a Ratio form or a walk over a Step side's jumps)
#: at 16384 points takes about 0.04 us per point with two Ratios or a
#: one-jump Step and 0.15-0.21 us (0.33-0.37 us under t2) with a 64-sample
#: Grid, so under 10 ms.  A walk reads the samples below each block of
#: points: a file at the bound reads in about 13 ms, and its convolution
#: with a Ratio materializes 16384 points in 0.3-0.5 s under prod and
#: 1.3-1.6 s under t2 when its samples span the points, and in 0.6-0.9 s
#: and 2.8-3.2 s when they all lie below the first point, so that no jump
#: is cut (2-CPU x86 host)
MAX_GRID = 16384

#: first grid sample as a fraction of the grid's x_max
X_MIN_FRAC = 1e-6

#: size from which the convolution (``triangle._conv_steps``) and the order
#: check (``_compare_step_side``) sweep numpy arrays instead of looping:
#: the pairs of jumps a convolution sums, or the jumps of an order check's
#: Step side.  An array sweep pays 12-25 us of numpy calls at these sizes;
#: a loop, which builds its Step as it sweeps, about 0.25-0.55 us per pair
#: and 0.45 us per order-check read against a Step or a Ratio (a lazy
#: operand, which costs a numpy call per read, is read at all of them in
#: one).  The crossovers measured at 25-36 pairs and 28-32 reads.  Both
#: loops carry real traffic below the switch: one round of every README
#: command and both suites makes 15 loop convolutions and about 650 list
#: reads, and the array sweep alone made ``convolve`` about 25 % slower.
#: The minimum (``_min_steps``), whose crossover sat at 20-24 jumps and
#: which those commands call once, sweeps arrays at every size; the law
#: batteries run on packed rows (``triangle._conv_rows``).  Loop / array
#: us at n jumps per operand (2-CPU shared x86 host, best of 9):
#:
#:     n    sup:prod convolution   order check
#:     8          35 / 22             4 / 13
#:     32        257 / 52            15 / 14
#:     64        797 / 173           31 / 14
_ARRAY_MIN = 32


@dataclass(frozen=True)
class GridSpec:
    """Sampling policy for operations that have no exact path.

    Points are geometrically spaced on (0, x_max]; the first sample sits
    at ``x_max * X_MIN_FRAC``.
    """

    n: int = 1024
    x_max: float = 64.0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GRID:
            raise ValueError(f"grid size must lie in [1, {MAX_GRID}], got {self.n}")
        if not 0.0 < self.x_max < INF:
            raise ValueError(f"grid x_max must be positive and finite, got {self.x_max!r}")

    def points(self) -> np.ndarray:
        return np.geomspace(self.x_max * X_MIN_FRAC, self.x_max, self.n)


DEFAULT_GRID = GridSpec()

#: slimmer geometric fill used by comparisons to resolve smooth operands
COMPARE_FILL = GridSpec(n=192)
_COMPARE_FILL_XS = COMPARE_FILL.points()


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
        """F at every entry of xs, an array of any shape, by ``_eval_array``."""
        return self._eval_array(np.asarray(xs, dtype=float))

    def _eval_array(self, xs: np.ndarray) -> np.ndarray:
        # the conventions on a mask, and _eval_pos_many on the rest
        fin = (xs > 0.0) & (xs < INF)
        if fin.all():  # no argument to mask out
            return self._eval_pos_many(xs.ravel()).reshape(xs.shape)
        out = np.array(xs == INF, dtype=float)  # a writable array, also 0-d
        out[fin] = self._eval_pos_many(xs[fin])
        return out

    @property
    def plateau(self) -> float:
        """sup of F over finite arguments, i.e. the left limit at +inf."""
        raise NotImplementedError

    def scale_arg(self, a: float) -> "DistFn":
        """The function x -> F(x / a) for a > 0.  A jump or sample scaled
        past the largest float drops out, as it never shows at finite x,
        and jumps that scaling rounds onto one abscissa merge; a Ratio
        whose scale overflows or underflows becomes its pointwise limit,
        eps(inf) or eps(0)."""
        raise NotImplementedError

    def probe_xs(self) -> tuple[float, ...]:
        """Abscissae that resolve this function's shape, from which
        ``merged_probe_xs`` builds the one set of points that the sampled
        order check, the sampled minimum and ``levy_dist`` read."""
        raise NotImplementedError

    def in_d_plus(self, tol: float = DPLUS_TOL) -> bool:
        return self.plateau >= 1.0 - tol

    def _eval_pos(self, x: float) -> float:
        # every representation defines _eval_pos_many, F at positive finite xs
        return float(self._eval_pos_many(np.array([x]))[0])

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
        if math.copysign(1.0, self.levels[0]) < 0.0:  # F(x) = +0.0 at x <= 0, as eval reads it
            object.__setattr__(self, "levels", (0.0, *self.levels[1:]))
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

    @functools.cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``breakpoints`` and ``levels`` as read-only numpy arrays, built once."""
        bps, levels = np.array(self.breakpoints), np.array(self.levels)
        bps.flags.writeable = levels.flags.writeable = False
        return bps, levels

    def _eval_array(self, xs: np.ndarray) -> np.ndarray:
        """One search over all of xs: as every jump is >= 0, an x <= 0 lands
        on levels[0] = 0, and only +inf (1) and NaN (0) are patched."""
        bps, levels = self.arrays
        out = np.asarray(levels[np.searchsorted(bps, xs)])  # 0-d for a 0-d xs
        if not xs.max(initial=-INF) < INF:  # a +inf or a NaN, which max propagates
            top = ~(xs < INF)
            out[top] = xs[top] == INF
        return out

    _eval_pos_many = _eval_array

    @property
    def plateau(self) -> float:
        return self.levels[-1]

    def scale_arg(self, a: float) -> "Step":
        a = self._check_scale(a)
        return _rising_list([b * a for b in self.breakpoints], self.levels[1:])

    def probe_xs(self) -> tuple[float, ...]:
        return self.breakpoints


class Plateau(Step):
    """F(x) = gamma for 0 < x < +inf; the jump of height 1-gamma sits at +inf.

    It is the Step with one jump, at 0, up to gamma, so every exact path
    takes it as a Step.  Its own type keeps the ``plateau`` report and an
    argument scaling that returns it unchanged.
    """

    def __init__(self, gamma: float):
        if not (0.0 <= gamma <= 1.0):
            raise ValueError(f"plateau level must lie in [0, 1], got {gamma!r}")
        super().__init__((0.0,), (0.0, gamma))

    @property
    def gamma(self) -> float:
        return self.levels[1]

    def scale_arg(self, a: float) -> "Plateau":
        self._check_scale(a)
        return self


#: probe ladder of Ratio(1); Ratio(beta) probes beta times it
_RATIO_LADDER = np.geomspace(1e-3, 1e3, 25)


@dataclass(frozen=True)
class Ratio(DistFn):
    """F(x) = x / (x + beta) for x > 0; strictly increasing with plateau 1.

    Read as 1 / (1 + beta/x), x clamped to at least beta 2^-1023 so that
    beta/x stays finite: each step is monotone in x, so F is nondecreasing
    on floats, within 2 ulps of exact (2^-1022 below the least normal)."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0.0) or math.isinf(self.beta):
            raise ValueError(f"ratio scale must be positive and finite, got {self.beta!r}")

    def _eval_pos(self, x: float) -> float:
        if x == 0.0:  # the jump at 0 of a Step side, which _compare_step_side reads
            return 0.0
        return 1.0 / (1.0 + self.beta / max(x, self.beta * 2.0**-1023))

    def _eval_pos_many(self, xs: np.ndarray) -> np.ndarray:
        d = self.beta / np.maximum(xs, self.beta * 2.0**-1023)
        d += 1.0
        return np.reciprocal(d, out=d)

    @property
    def plateau(self) -> float:
        return 1.0

    @property
    def scales(self) -> tuple[float, ...]:
        return (self.beta,)  # a chain of one, as ``triangle._Chain`` has its scales

    def scale_arg(self, a: float) -> "DistFn":
        a = self._check_scale(a)
        beta = self.beta * a
        # x / (x + beta) tends to 0 at every x as beta grows, to 1 as it shrinks
        if beta == INF:
            return EPS_INF
        return Ratio(beta) if beta > 0.0 else EPS0

    def probe_xs(self) -> tuple[float, ...]:
        with np.errstate(over="ignore"):  # the ladder points past the largest float drop out
            pts = self.beta * _RATIO_LADDER
        return tuple(pts[pts < INF])


class Grid(Step):
    """Sampled curve: F(x) = vs[j] on (xs[j], xs[j+1]], zero at or below xs[0].

    The Step that jumps to each sample's value at its abscissa (a sample
    at 0 is a jump at 0); the last sample doubles as the plateau, a
    horizon approximation for curves that keep climbing.  A value at most
    1e-15 below an earlier one is rounding wobble, raised to it.

    ``xs`` and ``vs`` may be sequences or arrays.  Step's conditions are
    checked on arrays, which become the Step's ``arrays``; a Grid that
    fails one is built through ``Step``, whose checks name the fault.
    """

    def __init__(self, xs, vs):
        # a copy of xs, which becomes read-only: the caller's stays writeable
        xs, vs = np.array(xs, dtype=float), np.asarray(vs, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or not xs.size:
            raise ValueError("xs and vs must be nonempty and of equal length")
        top = np.maximum.accumulate(vs)
        with np.errstate(invalid="ignore"):  # inf - inf, for Step's check to name
            wobble = top - vs
        if np.any(wobble > 1e-15):
            raise ValueError("sample values must be nondecreasing")
        levels = np.concatenate(((0.0,), top))
        # a NaN fails every comparison, and one in vs reaches top[-1]
        if (0.0 <= xs[0] and xs[-1] < INF and np.all(xs[1:] > xs[:-1])
                and 0.0 <= top[0] and top[-1] <= 1.0):
            object.__setattr__(self, "breakpoints", tuple(xs.tolist()))
            object.__setattr__(self, "levels", tuple(levels.tolist()))
            xs.flags.writeable = levels.flags.writeable = False
            self.__dict__["arrays"] = xs, levels  # what the cached property would build
        else:
            super().__init__(tuple(xs.tolist()), tuple(levels.tolist()))

    @property
    def xs(self) -> tuple[float, ...]:
        return self.breakpoints

    @property
    def vs(self) -> tuple[float, ...]:
        return self.levels[1:]

    def scale_arg(self, a: float) -> "DistFn":
        return _sampled(Step.scale_arg(self, a))


def _sampled(s: Step) -> DistFn:
    """A Step computed from sampled operands, read as the Grid of its
    jumps; with no jump left it is eps(inf), 0 at every finite x."""
    return Grid(s.breakpoints, s.levels[1:]) if s.breakpoints else EPS_INF


def make_step(breakpoints, levels) -> Step:
    """Canonical step function: sorts jumps, merges duplicates, drops
    zero-height jumps and anything at +inf (which never shows at finite x)."""
    bps = [float(b) for b in breakpoints]
    lvls = [float(v) for v in levels]
    if len(lvls) != len(bps) + 1:
        raise ValueError("levels must have exactly one more entry than breakpoints")
    if abs(lvls[0]) != 0.0:
        raise ValueError("base level must be 0")
    xs, vs = zip(*sorted(zip(bps, lvls[1:]))) if bps else ((), ())
    s = _rising_list(xs, vs)
    s.__post_init__()  # the checks: the jumps come from outside
    return s


def _rising_list(xs, levels) -> Step:
    """The Step that rises to ``levels[j]`` at ``xs[j]``, for ascending
    float xs: ``_rising_step`` on lists, the pass of ``make_step`` without
    its sort and checks, for the few jumps the loop kernels build.  Jumps
    from one at +inf on drop, levels clip to 1, and of equal abscissae the
    first stays, with the largest level; a level at or below every earlier
    one (and 0) adds no jump."""
    out_b: list[float] = []
    out_l: list[float] = [0.0]
    for b, v in zip(xs, levels):
        if b == INF:
            break
        v = min(v, 1.0)
        if v <= out_l[-1]:
            continue
        if out_b and b == out_b[-1]:
            out_l[-1] = v
        else:
            out_b.append(b)
            out_l.append(v)
    return _new_step(tuple(out_b), tuple(out_l))


def _new_step(breakpoints: tuple[float, ...], levels: tuple[float, ...]) -> Step:
    """A Step from fields that meet its conditions by construction, set
    without the checks of ``__post_init__``, as ``Grid`` sets its own."""
    s = object.__new__(Step)
    s.__dict__.update(breakpoints=breakpoints, levels=levels)
    return s


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
            for n, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if len(xs) == MAX_GRID:
                    raise ValueError(f"grid file {arg[1:]!r} has more than {MAX_GRID} samples")
                try:
                    x, v = map(float, line.split())
                except ValueError:
                    raise ValueError(f"grid file {arg[1:]!r} line {n}: expected two numbers, x and value, "
                                     f"got {line!r}") from None
                xs.append(x)
                vs.append(v)
        return Grid(tuple(xs), tuple(vs))
    raise ValueError(f"unknown distribution family {kind!r}")


class Comparison(NamedTuple):
    """Outcome of a pointwise <= test: it holds, or the left side exceeds
    the right by ``gap`` at the ``witness`` x that ``_read_gap`` names."""

    holds: bool
    witness: float | None
    gap: float


def _distinct(xs: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the 1-D array xs, as ``numpy.unique``
    gives them, by a sort and a mask: ``numpy.unique`` imports ``numpy.ma``
    on its first call, about 1 MB of resident memory.  Of equal values the
    one that sorts first stays, so -0.0 and 0.0 give either."""
    xs, keep = np.sort(xs), np.ones(len(xs), bool)
    keep[1:] = xs[1:] != xs[:-1]
    return xs[keep]


def merged_probe_xs(*fns: DistFn, extra=()) -> np.ndarray:
    """The abscissae that every sampled path reads: 0, the operands' probe
    points and ``extra`` with their midpoints (a/2 + b/2 where a + b
    overflows, so that no read lands on +inf), the comparison fill when an
    operand is not a Step, and the powers of 2 from the least positive
    point up to 2^1023, then the largest float, so that a gap past the
    last probe point is read too."""
    parts = [(0.0,), *(fn.probe_xs() for fn in fns), extra]
    if not all(isinstance(fn, Step) for fn in fns):
        parts.append(_COMPARE_FILL_XS)
    pts = np.concatenate([np.asarray(p, dtype=float) for p in parts])
    # adding 0.0 turns a -0.0 probe into +0.0
    base = _distinct(pts[(pts >= 0.0) & (pts < INF)]) + 0.0
    with np.errstate(over="ignore"):  # two abscissae near the largest float
        mids = (base[:-1] + base[1:]) / 2.0
    over = mids == INF
    mids[over] = base[:-1][over] / 2.0 + base[1:][over] / 2.0
    xs = _distinct(np.concatenate([base, mids, (_LARGEST,)]))  # xs[0] is 0
    return _distinct(np.concatenate([xs, np.ldexp(1.0, np.arange(np.frexp(xs[1])[1], 1024))]))


def compare_leq(f: DistFn, g: DistFn, tol: float = 0.0) -> Comparison:
    """Pointwise order test F <= G + tol, at tolerance 0 for every pair
    unless one is passed.

    A lazy result whose form is a Ratio or a Step is read as that form.
    Two Steps with the same jumps and levels hold at a tolerance >= 0 with
    no read.  A pair with a Step on either side (a Plateau or a Grid among
    them) is read once per cell of the Step side, by ``_compare_step_side``.  For F
    a Ratio or a sup:prod or sup:Lukasiewicz chain of them, F <= Ratio(c)
    holds with no read by ``_generator_holds``, or else, for F = Ratio(a),
    fails by (sqrt c - sqrt a)/(sqrt c + sqrt a) at sqrt(ac).  Any other
    pair is read at the merged probe set.
    """
    f, g = _exact_form(f), _exact_form(g)
    if isinstance(f, Step):
        if isinstance(g, Step) and f.breakpoints == g.breakpoints and f.levels == g.levels and tol >= 0.0:
            return Comparison(True, None, 0.0)  # what the reads find: every F - G is 0
        return _compare_step_side(f, g, tol)
    if isinstance(g, Step):
        return _compare_step_side(f, g, tol)
    scales = getattr(getattr(f, "closed", f), "scales", None)  # a Ratio's or a lazy chain's
    if isinstance(g, Ratio) and scales and tol >= 0.0 and _generator_holds(scales, g.beta):
        return Comparison(True, None, 0.0)  # what the reads find: every F - G <= 0, and 0 at x = 0
    if isinstance(f, Ratio) and isinstance(g, Ratio) and f.beta < g.beta:
        return _read_gap(f, g, [math.sqrt(f.beta) * math.sqrt(g.beta)], tol)
    return _compare_sampled(f, g, tol)


def _generator_holds(scales, c: float) -> bool:
    """Whether c <= C = (sum sqrt a_i)^2, the bound up to which F, a Ratio
    or a chain of the Ratio(a_i), lies below Ratio(c) and past which it
    fails at large x (Dombi, FSS 8, 1982): prod (1 + a_i/s_i) >= 1 + C/x
    over every split of x, by Engel's form of Cauchy-Schwarz; under
    Lukasiewicz, x (C - c) + c (C - sum a_i) >= 0.  sqrt c and sum sqrt a_i
    round by 2^-53 and n 2^-53, so a margin decides all but near-ties: in
    integers for two scales, as False from three on."""
    n = len(scales)
    if n == 1:  # C = a
        return c <= scales[0]
    root, s, margin = sum(map(math.sqrt, scales)), math.sqrt(c), (n + 1) * 2.0**-51
    if s <= root * (1.0 - margin):
        return True
    if s >= root * (1.0 + margin) or n > 2:
        return False
    # c - a - b <= 2 sqrt(ab), over the common denominator of the three
    (cn, cd), (an, ad), (bn, bd) = (v.as_integer_ratio() for v in (c, *scales))
    d = cn * ad * bd - an * cd * bd - bn * cd * ad
    return d <= 0 or d * d <= 4 * an * bn * cd * cd * ad * bd


def _exact_form(f: DistFn) -> DistFn:
    """F, or the Ratio or Step that a lazy result F is read as: the
    ``closed`` form of a ``triangle.LazyConv``."""
    if isinstance(f, (Ratio, Step)):
        return f
    closed = getattr(f, "closed", f)
    return closed if isinstance(closed, (Ratio, Step)) else f


def _read_gap(f: DistFn, g: DistFn, xs, tol: float, fs=None, gs=None) -> Comparison:
    """The order test F <= G + tol read at the abscissae xs, which the
    caller picks where F - G is largest.  The gap is the first largest
    F - G read, floored by the 0 that both operands read at x = 0, and
    the abscissa where it is read is the witness: F(witness) - G(witness)
    is the gap, and a gap of 0 is read at x = 0.  A list of reads of two
    Steps or Ratios, each at a finite x >= 0 (0 for a Step G's jump at 0,
    where a Ratio reads 0 too), loops over ``_eval_pos``; any other reads
    are one ``eval_many`` per operand, but for an operand whose values at
    the array xs the caller holds, as ``fs`` or ``gs``.
    """
    gap, witness = 0.0, 0.0  # the floor
    if isinstance(xs, list) and isinstance(f, (Step, Ratio)) and isinstance(g, (Step, Ratio)):
        for x in xs:
            d = f._eval_pos(x) - g._eval_pos(x)
            if d > gap:
                gap, witness = d, x
    else:
        xs = np.asarray(xs, dtype=float)
        d = (f.eval_many(xs) if fs is None else fs) - (g.eval_many(xs) if gs is None else gs)
        if d.size:  # a Step F with no jump has no cell to read
            k = int(np.argmax(d))
            if d[k] > gap:
                gap, witness = float(d[k]), float(xs[k])
    return Comparison(True, None, gap) if gap <= tol else Comparison(False, witness, gap)


def _compare_sampled(f: DistFn, g: DistFn, tol: float) -> Comparison:
    """The order test read at the merged probe abscissae."""
    return _read_gap(f, g, merged_probe_xs(f, g), tol)


def _compare_step_side(f: DistFn, g: DistFn, tol: float) -> Comparison:
    """The order test with a Step on either side, exact: both operands are
    read once per cell of the Step side, at the float where F - G is
    largest on it, as both are nondecreasing and left-continuous.

    When F is a Step, each cell (b, b'] of F, where F is constant, is read
    at the next float above b: a Step G is least there, at G(b+), and so is
    a Ratio or a sup:Lukasiewicz chain G, nondecreasing on floats; a sup:prod
    chain G is within a few ulps of its least.  A jump at the largest float
    has an empty cell: it reads at itself, on the cell below, no more than
    that cell's own read.  When only G is a Step, F is largest on G's cell
    (c', c] at its jump c, where G still has its level before c, and on
    the last cell (c, inf) at the largest float, against G's plateau;
    past a jump at the largest float that read repeats the jump's, and
    the plateau there reads no more.  Below ``_ARRAY_MIN`` jumps the reads
    are a list; from there on an array, on which the Step side's values
    are its own levels: F's after each jump (the level below it for a jump
    at the largest float), G's before each jump and then its plateau.  On
    the few jumps of a unit step a bisection per read costs less than
    slicing out the levels.
    """
    s = f if isinstance(f, Step) else g
    if len(s.breakpoints) < _ARRAY_MIN:
        xs = [math.nextafter(b, _LARGEST) for b in s.breakpoints] if s is f else [*s.breakpoints, _LARGEST]
        return _read_gap(f, g, xs, tol)
    bps, levels = s.arrays
    if s is g:
        return _read_gap(f, g, np.append(bps, _LARGEST), tol, gs=levels)
    fs = np.append(levels[1:-1], levels[-2]) if bps[-1] == _LARGEST else levels[1:]
    return _read_gap(f, g, np.nextafter(bps, _LARGEST), tol, fs=fs)


def check_tol(tol: float) -> None:
    """Reject a verdict tolerance outside [0, 1): a NaN passes no
    comparison, a negative slack fails equal functions, and a slack of 1
    or more passes every pair of values in [0, 1]."""
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tolerance must be finite and in [0, 1), got {tol}")


def distfn_equal(f: DistFn, g: DistFn, tol: float = 0.0) -> bool:
    return compare_leq(f, g, tol).holds and compare_leq(g, f, tol).holds


def is_eps0(f: DistFn) -> bool:
    """True when F is (pointwise) the maximal element: 1 on all of (0, +inf)."""
    return isinstance(f, Step) and f.plateau >= 1.0 and f.breakpoints[-1] <= 0.0  # a plateau of 1 has a jump


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
    Steps (a Plateau or a Grid among them) and for pure Ratio families;
    sampled otherwise, with the least operand plateau.  The minimum is a
    ``Grid`` whenever an operand is one, as it carries that operand's
    sampling error.
    """
    fns = list(fns)
    if not fns:
        raise ValueError("pointwise_min of an empty collection")
    if len(fns) == 1:
        return fns[0]
    if all(isinstance(f, Ratio) for f in fns):
        return Ratio(max(f.beta for f in fns))
    if all(isinstance(f, Step) for f in fns):
        m = _min_steps(fns)
        return _sampled(m) if any(isinstance(f, Grid) for f in fns) else m
    return _sample_min(fns)


def _sample_min(fns) -> Grid:
    """The Grid below the pointwise minimum of functions, read at their
    merged probe set and the default grid, with a last jump, at the
    largest float, up to the least operand plateau."""
    xs = _distinct(np.concatenate([merged_probe_xs(*fns), DEFAULT_GRID.points()]))
    xs = xs[(xs > 0.0) & (xs < _LARGEST)]
    vals = np.clip(np.maximum.accumulate(np.min([f.eval_many(xs) for f in fns], axis=0)), 0.0, 1.0)
    return Grid(np.append(xs, _LARGEST), np.append(vals, min(f.plateau for f in fns)))


def _min_steps(steps) -> Step:
    """The pointwise minimum of Steps: each merged jump rises to the
    minimum on the cell above it, and the last cell is read from the
    plateaus, as bps[-1] + 1 rounds onto a jump at 2^53 or above.  The
    merged jumps are ``_distinct`` of them all, a zero among them with the
    sign of the first one met; each operand reads its levels
    at them with one ``searchsorted``, and an elementwise min takes the
    least.  With no jump in any operand the minimum is eps(inf)."""
    every = np.concatenate([s.arrays[0] for s in steps])
    if not every.size:
        return EPS_INF
    bps = _distinct(every)
    if bps[0] == 0.0:  # -0.0 and 0.0 are one jump: keep the sign first met
        bps[0] = every[np.argmax(every == 0.0)]
    reads = bps[1:]
    levels = np.minimum.reduce([s.arrays[1][np.searchsorted(s.arrays[0], reads)] for s in steps])
    return _rising_step(bps, np.append(levels, min(s.plateau for s in steps)))


def _rising_step(xs: np.ndarray, levels: np.ndarray) -> Step:
    """The Step that rises to ``levels[j]`` at ``xs[j]``, for strictly
    ascending xs: what ``make_step`` builds from them, without its pass.
    Abscissae at +inf drop, levels clip to 1, and only the levels above
    every earlier one (and above 0) stay."""
    fin = xs < INF  # ascending, so the abscissa at +inf is the last
    xs, levels = xs[fin], np.minimum(levels[fin], 1.0)
    keep = levels > np.maximum.accumulate(np.concatenate(((0.0,), levels[:-1])))
    return _new_step(tuple(xs[keep].tolist()), (0.0, *levels[keep].tolist()))


def max_tf(f: DistFn, g: DistFn) -> DistFn:
    """The maximal triangle function: pointwise min(F, G).  It dominates
    every convolution-style triangle function and has the unit step at 0
    as unit, since min(F, eps0) = F."""
    return pointwise_min([f, g])
