"""Computations made apart from pncalc, used to check its outputs.

Nothing here imports the library.  Distribution functions are read from
their public fields (breakpoints and levels, grid samples, ratio scale,
plateau level) and evaluated from the definitions; the t-norms and
their dual conorms are written out from their formulas; convolutions are
evaluated by brute force over a split grid.
"""

from __future__ import annotations

import math

import numpy as np


# ------------------------------------------------------------ t-norms

def _t2(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.hypot(1.0 / a - 1.0, 1.0 / b - 1.0)
        out = 1.0 / (1.0 + r)
    out = np.where(a >= 1.0, b, out)
    out = np.where(b >= 1.0, a, out)
    return np.where((a <= 0.0) | (b <= 0.0), 0.0, out)


TNORMS = {
    "min": np.minimum,
    "prod": lambda a, b: np.asarray(a) * np.asarray(b),
    "lukasiewicz": lambda a, b: np.maximum(np.asarray(a) + np.asarray(b) - 1.0, 0.0),
    "t2": _t2,
}


def conorm(name: str):
    t = TNORMS[name]
    return lambda a, b: 1.0 - t(1.0 - np.asarray(a), 1.0 - np.asarray(b))


# ------------------------------------------- evaluation from the fields

def step_eval(breakpoints, levels, xs) -> np.ndarray:
    """Left-continuous step: levels[j] on (b[j-1], b[j]], 0 at x <= 0."""
    xs = np.asarray(xs, dtype=float)
    idx = np.searchsorted(np.asarray(breakpoints, dtype=float), xs, side="left")
    out = np.asarray(levels, dtype=float)[idx]
    return np.where(xs > 0.0, out, 0.0)


def evaluator(f):
    """A function xs -> F(xs) built from the public fields of ``f``."""
    kind = type(f).__name__
    if kind == "Step":
        return lambda xs: step_eval(f.breakpoints, f.levels, xs)
    if kind == "Plateau":
        return lambda xs: np.where(np.asarray(xs) > 0.0, f.gamma, 0.0)
    if kind == "Ratio":
        return lambda xs: np.where(np.asarray(xs) > 0.0, np.asarray(xs) / (np.asarray(xs) + f.beta), 0.0)
    if kind == "Grid":
        vals = np.concatenate(([0.0], np.asarray(f.vs, dtype=float)))
        xsamp = np.asarray(f.xs, dtype=float)
        return lambda xs: np.where(
            np.asarray(xs) > 0.0, vals[np.searchsorted(xsamp, np.asarray(xs, dtype=float), side="left")], 0.0
        )
    raise TypeError(f"no independent evaluator for {kind}")


# ---------------------------------------------------- step convolutions

#: spacing of the split grid used on dyadic step operands
STEP_SPLIT = 1.0 / 128.0


def step_conv_brute(name: str, maximize: bool, fe, ge, xs) -> np.ndarray:
    """sup (or inf) over s + t = x of T(F(s), G(t)) (or S(F(s), G(t))).

    Meant for step operands whose jumps lie on the 1/32 lattice and for
    abscissae x that are odd multiples of 1/64.  The splits
    s = (m + 1/2)/128 and x - s then never fall on a jump, and every pair
    of level intervals that meets the line s + t = x does so on a stretch
    whose ends lie on the 1/64 lattice, so it is at least 1/64 long and
    holds a split point: the grid optimum is the exact optimum.
    """
    op = TNORMS[name] if maximize else conorm(name)
    out = []
    for x in np.asarray(xs, dtype=float):
        m = int(math.floor(x / STEP_SPLIT))
        ss = np.concatenate(([0.0], (np.arange(m) + 0.5) * STEP_SPLIT, [x]))
        ss = ss[ss <= x]
        vals = op(fe(ss), ge(x - ss))
        out.append(vals.max() if maximize else vals.min())
    return np.asarray(out)


def off_lattice_points(rng: np.random.Generator, x_max: float, n: int) -> np.ndarray:
    """n abscissae that are odd multiples of 1/64 in (0, x_max]."""
    k = rng.integers(0, int(x_max * 32), size=n)
    return (2 * k + 1) / 64.0


def random_dyadic_step(rng: np.random.Generator, jumps: int):
    """(breakpoints, levels) with ``jumps`` jumps: breakpoints on the 1/32
    lattice in (0, 16], strictly increasing levels on the 1/256 lattice.
    Sums, products and Lukasiewicz values of such numbers are exact."""
    bps = np.sort(rng.choice(np.arange(1, 513), size=jumps, replace=False)) / 32.0
    lv = np.sort(rng.choice(np.arange(1, 257), size=jumps, replace=False)) / 256.0
    return tuple(bps.tolist()), (0.0,) + tuple(lv.tolist())


# ---------------------------------------------- smooth convolutions

def split_bracket(name: str, maximize: bool, fe, ge, x: float, n: int = 2048) -> tuple[float, float]:
    """Certified bracket (lo, hi) for the convolution at x, for any
    nondecreasing operands.  On [s_k, s_k+1] monotonicity gives
    F(s_k) <= F(s) <= F(s_k+1) and G(x - s_k+1) <= G(x - s) <= G(x - s_k),
    and T and S are nondecreasing in each argument."""
    op = TNORMS[name] if maximize else conorm(name)
    ss = np.linspace(0.0, x, n + 1)
    fv = fe(ss)
    gv = ge(x - ss)
    lower = op(fv[:-1], gv[1:])  # each piece's lowest possible value
    upper = op(fv[1:], gv[:-1])  # each piece's highest possible value
    at = op(fv, gv)
    if maximize:
        return float(at.max()), float(upper.max())
    return float(lower.min()), float(at.min())


def ratio(beta: float, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    return xs / (xs + beta)


def geometric_sample_curve(rng: np.random.Generator, n: int = 64):
    """(xs, vs): a Weibull distribution function with seeded scale and
    shape, sampled at n geometric abscissae and capped below 1."""
    scale = float(rng.uniform(0.5, 4.0))
    shape = float(rng.uniform(0.6, 2.0))
    xs = np.geomspace(0.01, 64.0, n)
    vs = (1.0 - np.exp(-((xs / scale) ** shape))) * 0.999
    return tuple(xs.tolist()), tuple(np.maximum.accumulate(vs).tolist())


# ---------------------------------------------- norms of the built-in spaces

def l2(v) -> float:
    return math.sqrt(sum(c * c for c in v))


def harmonic_gaps(horizon: int):
    """Pair indices (i < j, 0-based) and the l2 gaps |1/(j+1) - 1/(i+1)|
    of the harmonic sequence up to the horizon."""
    i_idx, j_idx = np.triu_indices(horizon, k=1)
    c = 1.0 / (j_idx + 1.0) - 1.0 / (i_idx + 1.0)
    return i_idx, np.sqrt(c * c)


def cauchy_tail_start(i_idx: np.ndarray, bad: np.ndarray, horizon: int) -> int | None:
    """Tail start N of the pairwise Cauchy test: the largest 1-based
    smaller index of a pair outside the neighbourhood (at least 1), so
    that every pair whose smaller index exceeds N lies inside; None when
    no such tail is left inside the horizon."""
    needed = int(i_idx[bad].max()) + 1 if bad.any() else 0
    if needed >= horizon - 1:
        return None
    return max(needed, 1)
