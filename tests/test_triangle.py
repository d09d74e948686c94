"""Triangle functions: exact step convolutions against reference kernels,
the lazy closed forms against brute-force split oracles, unit and
dominance laws, and the law suite."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pncalc

from pncalc.acceptance import brute_force_sup_conv
from pncalc.distfn import (
    DEFAULT_GRID,
    EPS0,
    EPS_INF,
    INF,
    Grid,
    GridSpec,
    Plateau,
    Ratio,
    Step,
    _LARGEST,
    _min_steps,
    _new_step,
    compare_leq,
    distfn_equal,
    eps,
    make_step,
    max_tf,
)
from pncalc.tnorms import get_tnorm
from pncalc.triangle import (
    _ARRAY_MIN,
    _BLOCK,
    LazyConv,
    TriangleFn,
    _Chain,
    _StepWalk,
    _conv_array,
    _conv_loop,
    _conv_rows,
    _leq_rows,
    _pack,
    inf_conv,
    parse_triangle,
    random_step_fn,
    sup_conv,
    tf_law_suite,
)


def _unpack(rows):
    """The Steps of packed rows: the jumps below +inf and their levels."""
    return [_new_step(tuple(b[b < INF].tolist()), tuple(ls[:1 + (b < INF).sum()].tolist())) for b, ls in zip(*rows)]


def brute_sup(t, f, g, x, n=4001):
    ss = np.linspace(0.0, x, n)
    return float(np.max(t.fn_np(f.eval_many(ss), g.eval_many(x - ss))))


def brute_inf(t, f, g, x, n=4001):
    ss = np.linspace(0.0, x, n)
    return float(np.min(t.conorm.fn_np(f.eval_many(ss), g.eval_many(x - ss))))


# The two step kernels that preceded the single sweep in ``triangle``,
# kept as references: the sup kernel is a running max over sorted sums,
# the inf kernel scans every (cell, interval pair) in O(n^4).

def _sup_conv_steps(t, a, b):
    # level T(u_i, w_j) becomes reachable once x exceeds b_i + d_j
    cands: dict[float, float] = {}
    for i, bi in enumerate(a.breakpoints):
        ui = a.levels[i + 1]
        for j, dj in enumerate(b.breakpoints):
            s = bi + dj
            v = t(ui, b.levels[j + 1])
            if v > cands.get(s, 0.0):
                cands[s] = v
    sums = sorted(cands)
    levels = [0.0]
    run = 0.0
    for s in sums:
        run = max(run, cands[s])
        levels.append(run)
    return make_step(sums, levels)


def _inf_conv_steps(t, a, b):
    # interval i of a step covers (lo_i, hi_i]; a pair of intervals is
    # reachable exactly on the half-open sum of its windows
    s = t.conorm
    alo = (-INF,) + a.breakpoints
    ahi = a.breakpoints + (INF,)
    blo = (-INF,) + b.breakpoints
    bhi = b.breakpoints + (INF,)
    edges = [-INF] + sorted({bi + dj for bi in a.breakpoints for dj in b.breakpoints}) + [INF]
    vals = [[s(ua, ub) for ub in b.levels] for ua in a.levels]
    levels = []
    for left, right in zip(edges, edges[1:]):
        best = 1.0
        for i in range(len(a.levels)):
            for j in range(len(b.levels)):
                if alo[i] + blo[j] <= left and ahi[i] + bhi[j] >= right:
                    if vals[i][j] < best:
                        best = vals[i][j]
        levels.append(best)
    return make_step(edges[1:-1], levels)


def _jumps(rng, n):
    """A step with exactly n jumps at dyadic abscissae (one may sit at 0)."""
    bps = np.sort(rng.choice(np.arange(0, 257), size=n, replace=False)) / 8.0
    levels = np.sort(rng.choice(np.arange(1, 65), size=n, replace=False)) / 64.0
    return make_step(tuple(bps.tolist()), [0.0] + levels.tolist())


def _reference_operands():
    rng = np.random.default_rng(12)
    edge = [
        Plateau(0.35),  # a single jump at 0
        Plateau(0.0),  # a zero-height jump at 0: the minimal element
        EPS_INF,
        make_step((0.0, 1.5), (0.0, 0.25, 0.75)),
    ]
    return edge + [random_step_fn(rng) for _ in range(24)]


@pytest.mark.parametrize("name", ["min", "prod", "lukasiewicz", "t2"])
def test_step_kernel_equals_reference_kernels(name):
    t = get_tnorm(name)
    ops = _reference_operands()
    for f in ops:
        for g in ops:
            for conv, ref in ((sup_conv, _sup_conv_steps), (inf_conv, _inf_conv_steps)):
                got, want = conv(t, f, g), ref(t, f, g)
                assert isinstance(got, Step)
                assert (got.breakpoints, got.levels) == (want.breakpoints, want.levels), (
                    conv.__name__, f, g)


@pytest.mark.parametrize("name", ["min", "prod", "lukasiewicz", "t2"])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_step_kernel_equals_reference_kernels_at_many_jumps(name, n):
    t = get_tnorm(name)
    rng = np.random.default_rng(n)
    for _ in range(2):
        a, b = _jumps(rng, n), _jumps(rng, n)
        assert len(a.breakpoints) == len(b.breakpoints) == n
        for conv, ref in ((sup_conv, _sup_conv_steps), (inf_conv, _inf_conv_steps)):
            got, want = conv(t, a, b), ref(t, a, b)
            assert (got.breakpoints, got.levels) == (want.breakpoints, want.levels)


def _wide_step(rng, n):
    """A step with n jumps, among them the edge cases of the sweep:
    a jump at 0 or -0.0, adjacent floats, and jumps near 2^1019 and
    2^1023, whose sums overflow to +inf."""
    bps = np.sort(rng.choice(np.arange(1, 257), size=n, replace=False)) / 8.0
    if rng.random() < 0.5:
        bps[0] = rng.choice((0.0, -0.0))
    if rng.random() < 0.5:
        bps[2] = np.nextafter(bps[1], INF)
    if rng.random() < 0.5:
        bps[-2:] = 2.0**1019 * rng.choice((1.0, 1.5)), 2.0**1023 * rng.choice((1.0, 1.5, 1.75))
    levels = np.sort(rng.choice(np.arange(1, 65), size=n, replace=False)) / 64.0
    step = make_step(bps.tolist(), [0.0, *levels.tolist()])
    assert len(step.breakpoints) == n
    return step


@pytest.mark.parametrize("name", ["min", "prod", "lukasiewicz", "t2"])
def test_array_sweep_equals_the_loop_above_the_switch(name):
    # bit for bit, down to the sign of a zero abscissa: the array sweep
    # that the convolution takes from _ARRAY_MIN pairs on gives the loop's
    # Step, also where sums overflow to +inf
    t = get_tnorm(name)
    rng = np.random.default_rng(17)
    overflows = zeros = 0
    for k in range(250):
        a = Plateau(0.0) if k % 25 == 0 else _wide_step(rng, int(rng.integers(4, 40)))
        b = _wide_step(rng, _ARRAY_MIN + int(rng.integers(0, 8)))
        assert len(a.breakpoints) * len(b.breakpoints) >= _ARRAY_MIN
        overflows += a.breakpoints[-1] + b.breakpoints[-1] == INF
        for maximize in (True, False):
            got = (sup_conv if maximize else inf_conv)(t, a, b)
            want = _conv_loop(t, a, b, maximize)
            assert repr(got) == repr(want) == repr(_conv_array(t, a, b, maximize)), (a, b, maximize)
            zeros += bool(got.breakpoints) and str(got.breakpoints[0]) == "-0.0"
    assert overflows > 25 and zeros > 5
    assert sup_conv(t, Plateau(0.0), b) == EPS_INF


@pytest.mark.parametrize("name", ["min", "prod", "lukasiewicz", "t2"])
def test_loop_sweep_equals_the_array_sweep_below_the_switch(name):
    # the loop's one-pass sweep, which builds its Step as it goes, gives
    # the array sweep's Step bit for bit below _ARRAY_MIN pairs: down to
    # the sign of a zero abscissa, and where sums overflow to +inf
    t = get_tnorm(name)
    rng = np.random.default_rng(19)
    overflows = zeros = 0
    for k in range(400):
        a = Plateau(float(rng.random())) if k % 20 == 0 else _wide_step(rng, int(rng.integers(3, 6)))
        b = _wide_step(rng, int(rng.integers(3, 7)))
        assert len(a.breakpoints) * len(b.breakpoints) < _ARRAY_MIN
        overflows += a.breakpoints[-1] + b.breakpoints[-1] == INF
        for maximize in (True, False):
            got = _conv_loop(t, a, b, maximize)
            assert repr(got) == repr(_conv_array(t, a, b, maximize)), (a, b, maximize)
            assert repr((sup_conv if maximize else inf_conv)(t, a, b)) == repr(got)
            zeros += bool(got.breakpoints) and str(got.breakpoints[0]) == "-0.0"
    assert overflows > 50 and zeros > 10


def _edge_rows():
    """Steps at the edges of the row kernels: a jump at 0 and at -0.0, the
    minimal element, eps(0), jumps at and near the largest float, adjacent
    floats, jumps near 2^1019 and 2^1023, whose sums overflow to +inf, and
    levels whose prod conorm rounds below the larger one: 1 - (1 - 0.1)
    (1 - 1e-17) < 0.1, which a padded jump must not bring in."""
    rng = np.random.default_rng(23)
    top = math.nextafter(_LARGEST, 0.0)
    return [Plateau(0.35), Plateau(0.0), Plateau(1.0), EPS0, EPS_INF, eps(_LARGEST),
            Step((0.0, _LARGEST), (0.0, 0.5, 1.0)), Step((-0.0, 1.5), (0.0, 0.25, 0.75)),
            Step((top, _LARGEST), (0.0, 0.25, 1.0)), Step((1.0, math.nextafter(1.0, 2.0)), (0.0, 0.5, 0.625)),
            Step((1.0,), (0.0, 0.1)), Step((1.0, 2.0), (0.0, 1e-17, 0.5)),
            *(_wide_step(rng, int(rng.integers(3, 6))) for _ in range(12))]


def _row_pairs(seed):
    """Pairs of random and edge Steps of every width, in one batch."""
    rng = np.random.default_rng(seed)
    ops = _edge_rows() + [random_step_fn(rng) for _ in range(30)]
    return [(a, b) for a in ops for b in ops]


@pytest.mark.parametrize("name", ["min", "prod", "lukasiewicz", "t2"])
def test_row_convolution_equals_the_single_pair_kernels(name):
    # bit for bit, by repr: each row of the batch against the loop and the
    # array sweep, on random, edge and second-level operands
    t = get_tnorm(name)
    pairs = _row_pairs(29)
    fs, gs = (_pack(c) for c in zip(*pairs))
    overflows = sum(a.breakpoints[-1] + b.breakpoints[-1] == INF for a, b in pairs if a.breakpoints and b.breakpoints)
    ties = sum(len({x + y for x in a.breakpoints for y in b.breakpoints}) < len(a.breakpoints) * len(b.breakpoints)
               for a, b in pairs)
    assert overflows > 50 and ties > 100 and len({len(a.breakpoints) for a, _ in pairs}) >= 4  # rows of several widths
    for maximize in (True, False):
        rows = _conv_rows(t, fs, gs, maximize)
        firsts = _unpack(rows)
        for (a, b), got in zip(pairs, firsts):
            want = _conv_loop(t, a, b, maximize)
            assert repr(got) == repr(want), (name, maximize, a, b)
            assert repr(got) == repr(_conv_array(t, a, b, maximize))
        # the second level: up to 16 jumps against up to 4, one batch
        for (a, b), first, got in zip(pairs, firsts, _unpack(_conv_rows(t, rows, gs, maximize))):
            assert repr(got) == repr(_conv_loop(t, first, b, maximize)), (name, maximize, a, b)


@pytest.mark.parametrize("maximize", [True, False], ids=["sup", "inf"])
@pytest.mark.parametrize("name", ["min", "prod", "lukasiewicz", "t2"])
def test_array_sweep_of_an_operand_with_no_jump_is_the_loops(name, maximize):
    # eps(inf) has no jump, so there is no sum to sweep: 0 at every finite x
    t = get_tnorm(name)
    for a, b in ((EPS_INF, eps(1.0)), (eps(1.0), EPS_INF), (EPS_INF, Plateau(0.5)), (EPS_INF, EPS_INF)):
        assert repr(_conv_array(t, a, b, maximize)) == repr(_conv_loop(t, a, b, maximize)) == repr(EPS_INF)


def test_row_minimum_equals_the_pointwise_minimum():
    pairs = _row_pairs(31)
    fs, gs = (_pack(c) for c in zip(*pairs))
    for (a, b), got in zip(pairs, _unpack(TriangleFn("max").on_rows(fs, gs))):
        assert repr(got) == repr(_min_steps([a, b])) == repr(max_tf(a, b)), (a, b)


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25, -1e-12])
def test_row_order_read_equals_compare_leq(tol):
    # against compare_leq's equal-Steps shortcut and its Step-side read,
    # with jumps at the largest float and a negative tolerance
    pairs = _row_pairs(37)
    pairs += [(max_tf(a, b), a) for a, b in pairs[:400]] + [(a, a) for a, _ in pairs[:60]]
    fs, gs = (_pack(c) for c in zip(*pairs))
    got = _leq_rows(fs, gs, tol)
    want = [compare_leq(a, b, tol).holds for a, b in pairs]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want) if tol >= 0.0 else not any(want)  # a gap of 0 exceeds a negative tol
    assert compare_leq(eps(_LARGEST), EPS_INF, tol).holds == (tol >= 0.0)  # reads its level below, at itself


# ------------------------------------------------------------ sup path

def test_sup_conv_of_unit_steps_adds_thresholds():
    for name in ("min", "prod", "lukasiewicz"):
        assert sup_conv(get_tnorm(name), eps(1.0), eps(2.0)) == eps(3.0)


def test_sup_conv_matches_brute_force_on_mixed_steps():
    t = get_tnorm("prod")
    f = Step((0.5, 2.0), (0.0, 0.25, 0.75))
    g = Step((1.0, 3.0), (0.0, 0.5, 1.0))
    r = sup_conv(t, f, g)
    for x in np.linspace(0.1, 9.7, 37):
        # stay off the jump abscissae, which a split grid cannot resolve
        if min(abs(x - b) for b in r.breakpoints) < 0.01:
            continue
        assert r.eval(float(x)) == pytest.approx(brute_sup(t, f, g, float(x)), abs=1e-6)


def test_sup_conv_unit_law_on_random_steps():
    rng = np.random.default_rng(1)
    for name in ("min", "prod", "lukasiewicz", "t2"):
        t = get_tnorm(name)
        for _ in range(50):
            f = random_step_fn(rng)
            assert distfn_equal(sup_conv(t, f, EPS0), f)
            assert distfn_equal(sup_conv(t, EPS0, f), f)


def test_sup_conv_of_plateaus_applies_tnorm_to_levels():
    r = sup_conv(get_tnorm("min"), Plateau(0.3), Plateau(0.7))
    assert distfn_equal(r, Plateau(0.3))
    r = sup_conv(get_tnorm("prod"), Plateau(0.5), Plateau(0.5))
    assert distfn_equal(r, Plateau(0.25))


def test_sup_conv_annihilated_by_minimal_element():
    assert distfn_equal(sup_conv(get_tnorm("prod"), eps(1.0), EPS_INF), EPS_INF)


def test_threshold_additivity_across_scales():
    rng = np.random.default_rng(2)
    for name in ("min", "prod", "lukasiewicz"):
        t = get_tnorm(name)
        for _ in range(20):
            c, d = rng.uniform(0.0, 10.0, size=2)
            assert sup_conv(t, eps(c), eps(d)) == eps(c + d)


def test_convex_split_identity_on_steps():
    # sup-convolution under min glues eps(l*u) and eps((1-l)*u) back to eps(u)
    t = get_tnorm("min")
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        for u in (0.5, 1.0, 3.0):
            r = sup_conv(t, eps(lam * u), eps((1.0 - lam) * u))
            assert distfn_equal(r, eps(u))


# ------------------------------------------------------------ inf path

def test_inf_conv_of_unit_steps_adds_thresholds():
    assert inf_conv(get_tnorm("lukasiewicz"), eps(1.0), eps(2.0)) == eps(3.0)
    assert inf_conv(get_tnorm("prod"), eps(1.0), eps(2.0)) == eps(3.0)


def test_inf_conv_matches_brute_force_on_steps():
    t = get_tnorm("prod")
    f = Step((0.5, 2.0), (0.0, 0.25, 0.75))
    g = Step((1.0, 3.0), (0.0, 0.5, 1.0))
    r = inf_conv(t, f, g)
    for x in np.linspace(0.1, 9.7, 37):
        if r.breakpoints and min(abs(x - b) for b in r.breakpoints) < 0.01:
            continue
        assert r.eval(float(x)) == pytest.approx(brute_inf(t, f, g, float(x)), abs=1e-6)


def test_inf_conv_unit_law_on_random_steps():
    rng = np.random.default_rng(3)
    for name in ("min", "prod", "lukasiewicz"):
        t = get_tnorm(name)
        for _ in range(50):
            f = random_step_fn(rng)
            assert distfn_equal(inf_conv(t, f, EPS0), f)


def test_inf_conv_of_equal_plateaus_is_capped_by_endpoint_splits():
    # the infimum is reached where one operand is still 0, so the result
    # is the plateau itself, not the interior conorm value 2g - g^2;
    # brute-force minimization over splits is the oracle
    t = get_tnorm("prod")
    for gamma in (0.2, 0.5, 0.8):
        f = Plateau(gamma)
        r = inf_conv(t, f, f)
        oracle = brute_inf(t, f, f, 1.0)
        assert oracle == pytest.approx(gamma, abs=1e-12)
        assert distfn_equal(r, Plateau(gamma))


def test_inf_conv_lazy_path_agrees_with_exact_on_plateaus():
    t = get_tnorm("prod")
    f, g = Plateau(0.4), Plateau(0.7)
    exact = inf_conv(t, f, g)
    lazy = LazyConv(t, f, g, maximize=False)
    for x in (0.25, 1.0, 5.0, 40.0):
        assert lazy.eval(x) == pytest.approx(exact.eval(x), abs=1e-6)


# ------------------------------------------------------------ max path

def test_max_tf_steps_and_unit():
    assert max_tf(eps(1.0), eps(2.0)) == eps(2.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = random_step_fn(rng)
        assert distfn_equal(max_tf(f, EPS0), f)


def test_dominance_over_both_convolutions():
    rng = np.random.default_rng(5)
    for _ in range(100):
        f, g = random_step_fn(rng), random_step_fn(rng)
        cap = max_tf(f, g)
        for name in ("min", "prod", "lukasiewicz"):
            t = get_tnorm(name)
            assert compare_leq(sup_conv(t, f, g), cap, 1e-9).holds
            assert compare_leq(inf_conv(t, f, g), cap, 1e-9).holds


def test_monotonicity_in_each_operand():
    rng = np.random.default_rng(6)
    t = get_tnorm("prod")
    for _ in range(30):
        f, h = random_step_fn(rng), random_step_fn(rng)
        lo = f.scale_arg(2.0)  # pointwise below f
        assert compare_leq(sup_conv(t, lo, h), sup_conv(t, f, h), 1e-12).holds


# ------------------------------------------------------------ sampled path

def test_lazy_path_agrees_with_exact_step_path():
    t = get_tnorm("prod")
    f = Step((0.5, 2.0), (0.0, 0.25, 0.75))
    g = Step((1.0, 3.0), (0.0, 0.5, 1.0))
    exact = sup_conv(t, f, g)
    lazy = LazyConv(t, f, g, maximize=True)
    xs = np.geomspace(1e-3, 50.0, 200)
    gaps = np.abs(lazy.eval_many(xs) - exact.eval_many(xs))
    # disagreements concentrate on breakpoints; elsewhere within 1e-6
    off_jump = np.array([min(abs(x - b) for b in exact.breakpoints) > 1e-9 for x in xs])
    assert np.max(gaps[off_jump]) <= 1e-6


def test_lazy_conv_plateau_is_structural():
    t = get_tnorm("prod")
    r = sup_conv(t, Ratio(1.0), Ratio(2.0))
    assert isinstance(r, LazyConv)
    assert r.plateau == 1.0
    assert r.in_d_plus()
    assert TriangleFn("sup", t)(Ratio(1.0), Ratio(2.0)).plateau == 1.0
    assert TriangleFn("max")(Plateau(0.3), Ratio(1.0)).plateau == 0.3


def test_lazy_conv_scale_arg_distributes():
    t = get_tnorm("prod")
    r = sup_conv(t, Ratio(1.0), Ratio(2.0))
    scaled = r.scale_arg(2.0)
    for x in (0.5, 1.0, 4.0):
        assert scaled.eval(x) == pytest.approx(r.eval(x / 2.0), abs=1e-9)


def test_lazy_materialize_is_monotone_grid():
    t = get_tnorm("prod")
    r = sup_conv(t, Ratio(1.0), eps(0.5))
    g = r.materialize()
    assert isinstance(g, Grid)
    assert np.all(np.diff(np.array(g.vs)) >= 0.0)


def test_exact_and_lazy_paths_agree_on_random_steps():
    # two independent routes to the same definition: breakpoint
    # enumeration versus the walk over one side's jumps
    rng = np.random.default_rng(9)
    for name in ("min", "prod", "lukasiewicz"):
        t = get_tnorm(name)
        for _ in range(10):
            f, g = random_step_fn(rng), random_step_fn(rng)
            for maximize in (True, False):
                exact = _conv_exact(t, f, g, maximize)
                lazy = LazyConv(t, f, g, maximize)
                xs = np.geomspace(0.05, 60.0, 80)
                jumps = exact.breakpoints or (0.0,)
                for x in xs:
                    if min(abs(x - b) for b in jumps) < 1e-9:
                        continue
                    assert lazy.eval(float(x)) == pytest.approx(
                        exact.eval(float(x)), abs=1e-6
                    ), (name, maximize, f, g, x)


def _conv_exact(t, f, g, maximize):
    return sup_conv(t, f, g) if maximize else inf_conv(t, f, g)


# ------------------------------------------------------------ closed forms

_TNORMS = ("min", "prod", "lukasiewicz", "t2")
#: which Ratio (+) Ratio pairs have a Ratio as their closed form
_RATIO_FORMS = {("min", True), ("t2", True), ("min", False), ("prod", False),
                ("lukasiewicz", False), ("t2", False)}


def _sample_curve(rng, n):
    """A Grid of a Weibull distribution function at n geometric abscissae."""
    xs = np.geomspace(0.05, 20.0, n)
    vs = 0.98 * (1.0 - np.exp(-(xs / rng.uniform(0.5, 4.0)) ** rng.uniform(0.6, 2.0)))
    return Grid(tuple(xs.tolist()), tuple(np.maximum.accumulate(vs).tolist()))


def _closed_pairs():
    """Ratio pairs whose scale ratios span 1e-3 to 1e3, Plateau (+) Ratio
    in both orders, and a Step, Grid, Plateau or eps(inf) against a Ratio
    or a Grid: the pairs with a Step side are walked."""
    rng = np.random.default_rng(21)
    pairs = []
    for ratio in (1e-3, 0.1, 1.0, 7.0, 1e3):
        a = float(10.0 ** rng.uniform(-1.0, 1.0))
        pairs.append((Ratio(a), Ratio(a * ratio)))
    step = make_step((0.5, 1.25, 3.0), (0.0, 0.2, 0.6, 0.9))
    g1, g2 = _sample_curve(rng, 24), _sample_curve(rng, 9)
    return pairs + [(Plateau(0.37), Ratio(2.5)), (Ratio(0.4), Plateau(0.81)),
                    (step, Ratio(1.7)), (g1, Ratio(0.6)), (g1, g2), (step, g2),
                    (Plateau(0.55), g1), (EPS_INF, Ratio(1.2))]


def _scale(h):
    return h.beta if isinstance(h, Ratio) else max(h.breakpoints, default=0.0)


def _far_bound(t, f, g, x, maximize, n):
    """A bound on the convolution at x from the far side of the split
    grid: on [s_k, s_k+1] both operands are monotone, so T(F(s_k+1),
    G(x - s_k)) bounds the sup from above there, and S(F(s_k),
    G(x - s_k+1)) the inf from below."""
    ss = np.linspace(0.0, x, n)
    fv, gv = f.eval_many(ss), g.eval_many(x - ss)
    if maximize:
        return float(np.max(t.fn_np(fv[1:], gv[:-1])))
    return float(np.min(t.conorm.fn_np(fv[:-1], gv[1:])))


@pytest.mark.parametrize("maximize", [True, False], ids=["sup", "inf"])
@pytest.mark.parametrize("name", _TNORMS)
def test_closed_forms_match_a_dense_split_oracle(name, maximize):
    # the oracle reads the definition over 20,001 splits; it may come
    # within rounding of a closed form but never beat it by more, and the
    # closed form stays inside the grid's bound from the other side
    t = get_tnorm(name)
    ulps = 4.0 * np.spacing(1.0)
    n = 20_001
    for f, g in _closed_pairs():
        r = (sup_conv if maximize else inf_conv)(t, f, g)
        assert isinstance(r, LazyConv)
        if isinstance(f, Ratio) and isinstance(g, Ratio):
            form = Ratio if (name, maximize) in _RATIO_FORMS else _Chain
            assert isinstance(r.closed, form)
        else:
            assert isinstance(r.closed, _StepWalk)
        scale = max(_scale(f), _scale(g), 1.0)
        for x in scale * np.geomspace(1e-3, 1e3, 9):
            x = float(x)
            got, far = r.eval(x), _far_bound(t, f, g, x, maximize, n)
            if maximize:
                assert brute_force_sup_conv(t, f, g, x, n) <= got + ulps <= far + 2.0 * ulps, (f, g, x)
            else:
                assert far - 2.0 * ulps <= got - ulps <= brute_inf(t, f, g, x, n), (f, g, x)


def test_step_walk_reads_each_abscissa_alone():
    # the walk over 64 jumps reads 256 abscissae per block, so 2,989
    # points cross a dozen seams; each value is the walk at that x alone
    g = _sample_curve(np.random.default_rng(4), 64)
    xs = np.geomspace(1e-3, 64.0, 2989)
    for maximize in (True, False):
        r = _conv_exact(get_tnorm("prod"), g, Ratio(1.3), maximize)
        got = r.eval_many(xs)
        assert got.tolist()[::97] == [r.eval(float(x)) for x in xs[::97]]
        assert np.array_equal(got[::-1], r.eval_many(xs[::-1]))


# The walk before the cut, kept as the reference: every jump at every
# abscissa, in blocks of 2^16 values.

def _full_walk(walk, xs):
    bps, levels = (a[:, None] for a in walk.f.arrays)
    reduce, first = (np.maximum.reduce, 0.0) if walk.maximize else (np.minimum.reduce, walk.f.plateau)
    cols = (1 << 16) // max(1, bps.size)
    out = np.empty(xs.shape)
    for i in range(0, xs.size, cols):
        vals = walk.g.eval_many(xs[i:i + cols] - bps)
        if walk.maximize:
            vals = walk.tnorm.fn_np(levels[1:], vals)
        elif bps.size > 1:
            vals[1:] = walk.tnorm.conorm.fn_np(levels[1:-1], vals[1:])
        out[i:i + cols] = reduce(vals, axis=0, initial=first)
    return out


def _walk_xs(f, rng):
    """Each jump of F (every 20th of a large Grid) and its neighbours one
    ulp either side, with points from 1e-300 to far past the last jump, a
    third of them repeated, shuffled; then more ascending points than
    three blocks hold, and the same descending."""
    bps = np.asarray(f.breakpoints)[::20 if len(f.breakpoints) > 200 else 1]
    pts = np.concatenate([bps, np.nextafter(bps, -INF), np.nextafter(bps, INF),
                          np.geomspace(1e-3, 64.0, 40), [1e-300, 1e6]])
    pts = pts[pts > 0.0]
    ascending = np.geomspace(1e-3, 64.0, 3 * (_BLOCK // max(1, len(f.breakpoints))) + 50)
    return rng.permutation(np.concatenate([pts, pts[::3]])), ascending, ascending[::-1]


@pytest.mark.parametrize("name", _TNORMS)
def test_cut_walk_equals_the_full_walk_bit_for_bit(name):
    # the rows past each block's cut read G at x - b <= 0; dropping them
    # leaves every value and its sign bit as the full walk's
    t = get_tnorm(name)
    rng = np.random.default_rng(18)
    fs = [_sample_curve(rng, n) for n in (1, 2, 64, 2000)] + [
        make_step((0.5, 1.25, 3.0), (0.0, 0.2, 0.6, 0.9)),
        Step((0.0, 1.0, 2.0), (0.0, 0.0, 0.5, 0.5)),  # a level held across jumps
        Plateau(0.0), Plateau(1.0), EPS_INF]
    prod = get_tnorm("prod")
    chain = sup_conv(prod, sup_conv(prod, Ratio(0.7), Ratio(1.3)), Ratio(2.1))
    gs = [Ratio(1.3), Plateau(0.6), _sample_curve(rng, 30), eps(0.75), sup_conv(prod, Ratio(0.7), Ratio(1.3)), chain]
    for f in fs:
        shuffled, ascending, descending = _walk_xs(f, rng)
        for g, xs in [(g, xs) for g in gs for xs in (shuffled, ascending, descending)]:
            for maximize in (True, False):
                walk = _StepWalk(t, f, g, maximize)
                got, want = walk._eval_pos_many(xs), _full_walk(walk, xs)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (f, g, maximize)


def test_cut_walk_reads_only_the_jumps_below_each_block(monkeypatch):
    # a 64-sample Grid has 63 jumps below the default grid's largest
    # point, 64, so it reads 16,384 // 63 = 260 ascending points per
    # block.  Its jumps sit at 2^(-6 + 12 j / 63), and the block tops at
    # 2^-8.89, 2^-3.82, 2^1.25 and 64: below them lie no jump, j <= 11,
    # j <= 38 and j <= 62, so G is read at 260 * (0 + 12 + 39) + 244 * 63
    # = 28,632 points, where the full walk read 64 * 1,024 = 65,536
    seen = []
    g_eval = Ratio.eval_many

    def counted(self, xs):
        seen.append(xs.size)
        return g_eval(self, xs)

    grid = Grid(np.geomspace(1.0 / 64.0, 64.0, 64), np.linspace(0.01, 0.99, 64))
    monkeypatch.setattr(Ratio, "eval_many", counted)
    for conv in (sup_conv, inf_conv):
        seen.clear()
        conv(get_tnorm("prod"), grid, Ratio(1.3)).eval_many(DEFAULT_GRID.points())
        assert sum(seen) == 28632


def test_walk_blocks_sized_by_the_jumps_they_read_keep_every_value():
    # the mixed-kind fallback walks a Grid of about 2,500 jumps, most of
    # them above every point: its blocks hold the points of a walk that
    # reads only the jumps below them, with the values of one point each
    prod = get_tnorm("prod")
    for r in (inf_conv(prod, sup_conv(prod, Ratio(1.0), Ratio(2.0)), Ratio(3.0)),
              sup_conv(get_tnorm("min"), inf_conv(prod, Ratio(1.0), Ratio(2.0)), eps(0.5))):
        walk = r.closed
        assert isinstance(walk, _StepWalk)
        xs = DEFAULT_GRID.points()
        got = r.eval_many(xs)
        one = np.concatenate([walk._eval_pos_many(xs[i:i + 1]) for i in range(xs.size)])
        assert np.array_equal(got.view(np.int64), one.view(np.int64))


def test_closed_forms_raise_no_warning_at_extreme_abscissae():
    # the factored sup:prod form keeps sqrt(a (x + b)) finite, and a
    # chain's splits are found in units of its largest scale; pytest
    # turns a RuntimeWarning into an error
    xs = np.geomspace(1e-300, 1e300, 121)
    for a, b in ((0.7, 1.3), (1e-3, 1e3), (1e154, 3e153)):
        for name in _TNORMS:
            t = get_tnorm(name)
            for conv in (sup_conv, inf_conv):
                pair = conv(t, Ratio(a), Ratio(b))
                for f, g in ((Ratio(a), Ratio(b)), (Plateau(0.6), Ratio(b)), (pair, Ratio(a * b / (a + b))),
                             (pair, pair), (conv(t, pair, Ratio(a)), Ratio(b))):
                    vals = conv(t, f, g).eval_many(xs)
                    assert np.all((vals >= 0.0) & (vals <= 1.0))
                    assert np.all(np.diff(vals) >= -1e-15)
    # x over the largest scale overflows past 1e600 and underflows below 1e-600
    for scales in ((1e-300, 1e-300, 1e-300), (1e-300, 1.0, 1e300)):
        for name in ("prod", "lukasiewicz"):
            vals = _Chain(get_tnorm(name), scales).eval_many(xs)
            assert np.all((vals >= 0.0) & (vals <= 1.0)) and np.all(np.diff(vals) >= -1e-15)


def test_a_chain_is_read_bit_for_bit_at_scales_times_a_power_of_4():
    # H(4^k x; 4^k a) = H(x; a): the forms read x and the scales through
    # their ratios, and a chain whose x or scales could overflow reads at
    # them divided by 2^64, which is exact.  At 4^511 = 2^1022 each of x
    # and the scales stays finite, but x + sum a_i overflows
    rng = np.random.default_rng(20)
    xs = np.linspace(0.5, 3.9, 35)
    for name in ("prod", "lukasiewicz"):
        t = get_tnorm(name)
        for n in (2, 3, 4):
            scales = tuple(rng.uniform(0.5, 3.9, n))
            want = _Chain(t, scales).eval_many(xs)
            for k in (-500, -200, 1, 200, 480, 500, 511):
                q = 4.0**k
                got = _Chain(t, tuple(a * q for a in scales)).eval_many(xs * q)
                assert np.array_equal(got, want), (name, scales, k)


def test_chains_of_scales_near_the_largest_float_read_finite_values():
    # at 2 and 3 scales of 1e308 (pytest turns a RuntimeWarning into an
    # error), up to the largest float, where a Step's last cell is read
    xs = np.append(np.geomspace(1e-300, 1e308, 61), np.finfo(float).max)
    for name in ("prod", "lukasiewicz"):
        t = get_tnorm(name)
        h = sup_conv(t, Ratio(1e308), Ratio(1e308))
        for r in (h, sup_conv(t, h, Ratio(1e308))):
            vals = r.eval_many(xs)
            assert np.all((vals >= 0.0) & (vals <= 1.0)) and np.all(np.diff(vals) >= -1e-15)
            c = compare_leq(r, Plateau(0.5))
            assert c.gap == max(0.0, r.eval(np.finfo(float).max) - 0.5)
    # the pair at x = a: the split x/2 + x/2, (1/3)^2
    assert sup_conv(get_tnorm("prod"), Ratio(1e308), Ratio(1e308)).eval(1e308) == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_min_and_t2_chains_and_inf_chains_stay_ratio():
    a, b, c, d = 0.7, 1.3, 2.1, 0.4
    ra, rb, rc, rd = Ratio(a), Ratio(b), Ratio(c), Ratio(d)
    for conv in (sup_conv, inf_conv):
        t = get_tnorm("min")
        r = conv(t, conv(t, conv(t, ra, rb), rc), rd)
        assert isinstance(r, LazyConv) and r.closed == Ratio(a + b + c + d)
        xs = np.geomspace(1e-3, 64.0, 50)
        assert np.allclose(r.eval_many(xs), Ratio(a + b + c + d).eval_many(xs), rtol=0.0, atol=1e-15)
    t2 = get_tnorm("t2")
    assert sup_conv(t2, sup_conv(t2, ra, rb), rc).closed.beta == pytest.approx(
        (a ** (2 / 3) + b ** (2 / 3) + c ** (2 / 3)) ** 1.5, rel=1e-14)
    assert inf_conv(t2, inf_conv(t2, ra, rb), rc).closed.beta == pytest.approx(np.sqrt(a * a + b * b + c * c), rel=1e-14)
    for name in ("prod", "lukasiewicz"):
        t = get_tnorm(name)
        assert inf_conv(t, rc, inf_conv(t, ra, rb)).closed == Ratio(c)


def test_same_kind_ratio_chains_flatten_into_one_tuple_of_scales():
    # sup:prod and sup:Lukasiewicz chains of any shape read one optimum
    # over all their scales, in the order of the operands
    ra, rb, rc, rd = Ratio(0.7), Ratio(1.3), Ratio(2.1), Ratio(0.4)
    for name in ("prod", "lukasiewicz"):
        t = get_tnorm(name)
        ab, cd = sup_conv(t, ra, rb), sup_conv(t, rc, rd)
        assert ab.closed == _Chain(t, (0.7, 1.3))
        assert sup_conv(t, ab, rc).closed == _Chain(t, (0.7, 1.3, 2.1))
        assert sup_conv(t, rc, ab).closed == _Chain(t, (2.1, 0.7, 1.3))
        assert sup_conv(t, ab, cd).closed == _Chain(t, (0.7, 1.3, 2.1, 0.4))
    # prod <= min adds the scales
    r = sup_conv(get_tnorm("prod"), sup_conv(get_tnorm("prod"), ra, rb), rc)
    xs = np.geomspace(0.05, 20.0, 40)
    assert np.all(r.eval_many(xs) <= Ratio(4.1).eval_many(xs) + 1e-15)


def _chain_oracle(t, scales, x, n):
    """A chain of 3 or 4 Ratios at x over an n x n grid of the splits
    (s_1, s_2), the rest going to the third Ratio, or to the pair closed
    form of the last two: the largest T at the grid points, and a bound
    from above read at the far corner of each cell, as in _far_bound."""
    f1, f2 = Ratio(scales[0]), Ratio(scales[1])
    rest = Ratio(scales[2]) if len(scales) == 3 else sup_conv(t, Ratio(scales[2]), Ratio(scales[3]))
    ss = np.linspace(0.0, x, n)
    v1, v2 = f1.eval_many(ss), f2.eval_many(ss)
    r = rest.eval_many(np.maximum(x - ss[:, None] - ss[None, :], 0.0))
    near = t.fn_np(t.fn_np(v1[:, None], v2[None, :]), r)
    far = t.fn_np(t.fn_np(v1[1:, None], v2[None, 1:]), r[:-1, :-1])
    return float(near.max()), float(far.max())


@pytest.mark.parametrize("name", ["prod", "lukasiewicz"])
def test_chains_of_three_and_four_match_a_dense_split_oracle(name):
    # scale ratios from 1e-3 to 1e3: the oracle reads the definition at
    # 801 x 801 splits; it never beats a chain by more than 4 ulps, and
    # the chain stays below the bound from the cells' far corners
    t = get_tnorm(name)
    ulps = 4.0 * np.spacing(1.0)
    rng = np.random.default_rng(19)
    for ratio in (1e-3, 0.1, 1.0, 30.0, 1e3):
        for n in (3, 4):
            base = float(10.0 ** rng.uniform(-1.0, 1.0))
            scales = tuple(base * ratio ** (k / (n - 1)) * rng.uniform(0.8, 1.25) for k in range(n))
            scales = tuple(rng.permutation(scales).tolist())
            r = sup_conv(t, Ratio(scales[0]), Ratio(scales[1]))
            for a in scales[2:]:
                r = sup_conv(t, r, Ratio(a))
            assert r.closed == _Chain(t, scales)
            for x in max(scales) * np.geomspace(1e-3, 1e3, 9):
                near, far = _chain_oracle(t, scales, float(x), 801)
                got = r.eval(float(x))
                assert near <= got + ulps <= far + 2.0 * ulps, (scales, x)


def test_a_walk_convolved_again_reassociates_over_a_chain():
    # (Plateau (+) Ratio) (+) Ratio is Plateau (+) (Ratio (+) Ratio): the
    # walk's one jump at 0 reads gamma T G(x) of the pair's closed form
    t = get_tnorm("prod")
    r = sup_conv(t, sup_conv(t, Plateau(0.6), Ratio(0.7)), Ratio(1.3))
    assert isinstance(r.closed, _StepWalk) and r.closed.f == Plateau(0.6)
    assert r.closed.g.closed == _Chain(t, (0.7, 1.3))
    xs = np.geomspace(1e-3, 64.0, 50)
    assert np.array_equal(r.eval_many(xs), 0.6 * sup_conv(t, Ratio(0.7), Ratio(1.3)).eval_many(xs))


#: a chain under another kind or t-norm, at x = 0.05, 8, 63 and 1000:
#: the values of the candidate search that preceded the sampled walk
_MIXED = {
    ("inf", "prod"): (0.0003011250471071513, 0.5385717708264671, 0.9135840064242742, 0.9941971996151034),
    ("sup", "min"): (0.00026666047739463175, 0.43562717198338136, 0.8677685950413223, 0.9908483682607891),
}


@pytest.mark.parametrize("kind, name", list(_MIXED))
def test_a_mixed_chain_walks_a_sampled_operand(kind, name):
    # the operand that is neither a Step nor a Ratio is read onto a Grid
    # below it, so the walk over that Grid is a lower bound; it stays
    # within 0.01 of the search, and under min below the sum of scales
    prod = get_tnorm("prod")
    inner = sup_conv(prod, Ratio(1.0), Ratio(2.0))
    r = _conv_exact(get_tnorm(name), inner, Ratio(3.0), kind == "sup")
    assert isinstance(r.closed, _StepWalk) and isinstance(r.closed.f, Grid) and r.closed.g == Ratio(3.0)
    xs = np.array([0.05, 8.0, 63.0, 1000.0])
    got = r.eval_many(xs)
    assert np.all(np.abs(got - _MIXED[kind, name]) < 0.01)
    if kind == "sup":
        assert np.all(got <= Ratio(6.0).eval_many(xs))


def test_a_mixed_chain_keeps_growing_up_to_the_largest_float():
    # its sampled operand reads the powers of 2 past the probe tail, so
    # the walk grows past 4,002 (it read 0.998545 at 1e4, 1e5 and 1e6
    # alike), stays below the inner chain and has the inner plateau
    prod = get_tnorm("prod")
    inner = sup_conv(prod, Ratio(1.0), Ratio(2.0))
    r = inf_conv(prod, inner, Ratio(3.0))
    assert r.closed.f.xs[-1] == sys.float_info.max and r.closed.f.plateau == inner.plateau == 1.0
    xs = np.array([1e4, 1e5, 1e6, 1e100, 1e300])
    got = r.eval_many(xs)
    assert np.all(np.diff(got[:4]) > 0.0) and got[4] == 1.0 and np.all(got <= inner.eval_many(xs))
    assert got[:3] == pytest.approx([0.999289, 0.999911, 0.999989], abs=1e-6)


def test_scale_arg_keeps_the_closed_form():
    for name in _TNORMS:
        t = get_tnorm(name)
        for conv in (sup_conv, inf_conv):
            r = conv(t, Ratio(0.7), Ratio(1.3))
            scaled = r.scale_arg(2.0)
            assert type(scaled.closed) is type(r.closed)
            for x in (0.5, 1.0, 4.0):
                assert scaled.eval(x) == pytest.approx(r.eval(x / 2.0), abs=1e-15)
    # a scale that overflows leaves an operand eps(inf), a Step: its walk reads 0
    r = sup_conv(get_tnorm("min"), Ratio(1e154), Ratio(1.0)).scale_arg(1e300)
    assert r.f == EPS_INF and isinstance(r.closed, _StepWalk)
    assert np.all(r.eval_many(np.geomspace(1e-3, 1e300, 25)) == 0.0)


def test_a_ratio_scale_that_overflows_takes_its_limit_eps_inf():
    # as Ratio.scale_arg does: x / (x + beta) tends to 0 as beta grows
    for name, maximize in (("min", True), ("t2", True), ("min", False)):
        r = _conv_exact(get_tnorm(name), Ratio(1e308), Ratio(1e308), maximize)
        assert isinstance(r, LazyConv) and r.closed == EPS_INF
        assert np.all(r.eval_many(np.geomspace(1e-3, 1e308, 25)) == 0.0)


_DEPTH3_UNDER_512MB = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
import numpy as np
from pncalc.distfn import Ratio
from pncalc.tnorms import get_tnorm
from pncalc.triangle import sup_conv
t = get_tnorm("min")
r = sup_conv(t, sup_conv(t, sup_conv(t, Ratio(0.7), Ratio(1.3)), Ratio(2.1)), Ratio(0.4))
xs = np.geomspace(0.5, 8.0, 16)
# under min the betas add, and the sup path never overestimates
assert np.all(r.eval_many(xs) <= xs / (xs + 4.5) + 1e-12)
"""


def test_depth3_chain_evaluates_16_points_in_512mb():
    # the address-space limit is set in the child only
    src = os.path.dirname(os.path.dirname(pncalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _DEPTH3_UNDER_512MB], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_grid_operands_take_sampled_path():
    # a Grid's values carry its sampling error, so the walk stays lazy
    t = get_tnorm("prod")
    g = Grid((0.5, 1.0), (0.3, 0.9))
    r = sup_conv(t, g, eps(1.0))
    assert isinstance(r, LazyConv)
    # value just past 2.0 combines both jumps: 0.9 * 1.0
    assert r.eval(2.1) == 0.9


def test_step_walk_reads_the_split_the_search_loses_to_rounding():
    # the sup at x = 4 sits at the split s = 3.5, where eps(0.5) has just
    # jumped; the search reached 0.7647 there
    r = sup_conv(get_tnorm("prod"), Ratio(1.0), eps(0.5))
    assert r.eval(4.0) == Ratio(1.0).eval(3.5)
    assert r.materialize(GridSpec(n=8, x_max=4.0)).vs[-1] == Ratio(1.0).eval(3.5)


# ------------------------------------------------------------ law suite

def test_law_suite_passes_for_exact_kinds():
    specs = ("sup:min", "sup:prod", "max", "inf:prod", "sup:lukasiewicz")
    for spec, rep in zip(specs, tf_law_suite(map(parse_triangle, specs), n_samples=50, seed=7, tol=1e-12)):
        assert rep.all_laws_hold, (spec, rep.to_dict())


def test_law_suite_negative_control_wrong_unit():
    [rep] = tf_law_suite([parse_triangle("sup:prod")], n_samples=20, seed=7, unit=eps(1.0))
    assert not rep.unit.ok
    assert rep.unit.violations  # witness operand recorded


class _LeftProjection:
    """tau(F, G) = F on packed rows: associative, monotone, with unit eps0,
    not commutative."""

    def on_rows(self, a, b):
        return a

    def describe(self):
        return "left"


def test_law_suite_negative_control_non_commutative():
    [rep] = tf_law_suite([_LeftProjection()], n_samples=20, seed=7)
    assert not rep.commutative.ok
    assert rep.commutative.violations  # witness pair recorded
    assert rep.associative.ok and rep.monotone.ok and rep.unit.ok


def test_law_suite_of_many_taus_equals_one_call_per_tau():
    # the operands are drawn once for every tau, and both negative
    # controls report the same witnesses
    taus = [*map(parse_triangle, ("sup:min", "sup:prod", "sup:lukasiewicz", "inf:prod", "max")), _LeftProjection()]
    for unit in (EPS0, eps(1.0)):
        reps = tf_law_suite(taus, n_samples=20, seed=7, unit=unit)
        assert reps == [tf_law_suite([tau], n_samples=20, seed=7, unit=unit)[0] for tau in taus]
        assert [r.unit.ok for r in reps] == [unit is EPS0] * 5 + [True]  # the projection keeps F
        assert [r.commutative.ok for r in reps] == [True] * 5 + [False]


def test_law_batteries_run_on_rows_with_no_per_pair_call(monkeypatch):
    # the shape of the work: when every law holds, no battery falls back to
    # a convolution or an order check per pair of Steps
    from pncalc import acceptance, distfn, triangle

    calls = []

    def counted(name, real):
        return lambda *a, **k: calls.append(name) or real(*a, **k)

    for mod in (distfn, triangle, acceptance):
        for name in ("_conv_loop", "_conv_array", "compare_leq"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    taus = list(map(parse_triangle, ("sup:min", "sup:prod", "max", "inf:prod", "sup:lukasiewicz")))
    for seed in (0, 7):
        assert all(rep.all_laws_hold for rep in tf_law_suite(taus, n_samples=50, seed=seed))
    assert acceptance._c2_triangle_laws().passed
    assert calls == []
    assert distfn_equal(sup_conv(taus[1].tnorm, eps(1.0), eps(2.0)), eps(3.0)) and calls  # the counters count


def test_law_suite_rejects_a_unit_that_is_not_a_step_before_drawing(monkeypatch):
    # the laws run on packed rows only, and a Ratio has none
    from pncalc import triangle

    monkeypatch.setattr(triangle, "random_step_fn", lambda *a: pytest.fail("drew an operand"))
    monkeypatch.setattr(triangle, "_pack", lambda *a: pytest.fail("packed a row"))
    with pytest.raises(ValueError, match="the unit must be a Step"):
        tf_law_suite([parse_triangle("sup:prod")], n_samples=20, unit=Ratio(1.0))


@pytest.mark.parametrize("n_samples", [0, 10_001])
def test_law_suite_rejects_a_sample_count_out_of_bounds_before_drawing(monkeypatch, n_samples):
    from pncalc import triangle

    monkeypatch.setattr(triangle, "random_step_fn", lambda *a: pytest.fail("drew an operand"))
    monkeypatch.setattr(triangle, "_pack", lambda *a: pytest.fail("packed a row"))
    with pytest.raises(ValueError, match=r"n_samples must lie in \[1, 10000\]"):
        tf_law_suite([parse_triangle("sup:prod")], n_samples=n_samples)


def _numpy_random_step_fn(rng, max_jumps=4):
    """``random_step_fn`` as it drew before it sorted in Python."""
    k = int(rng.integers(1, max_jumps + 1))
    bps = np.sort(rng.choice(np.arange(1, 129), size=k, replace=False)) / 8.0
    raw = np.sort(rng.integers(0, 17, size=k)) / 16.0
    levels = [0.0] + raw.tolist()
    if rng.random() < 0.5:
        levels[-1] = 1.0
    return make_step(tuple(bps.tolist()), levels)


@pytest.mark.parametrize("seed", [1, 3, 4, 5, 6, 7, 9, 11, 12])
def test_random_step_fn_draws_what_the_numpy_draw_drew(seed):
    for max_jumps in (4, 1, 16):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            assert repr(random_step_fn(new, max_jumps)) == repr(_numpy_random_step_fn(old, max_jumps))
        assert new.bit_generator.state == old.bit_generator.state


def test_parse_triangle_rejects_malformed():
    with pytest.raises(ValueError):
        parse_triangle("sup")
    with pytest.raises(ValueError):
        parse_triangle("mid:prod")
    with pytest.raises(ValueError):
        parse_triangle("sup:bogus")
