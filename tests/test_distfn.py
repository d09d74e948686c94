"""Distribution-function representations: evaluation, order, scaling,
weak-convergence distance, and membership in the proper subset."""

import itertools
import math
import random
import shlex
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pncalc import distfn
from pncalc.boundedness import _attainment_threshold, convergent_set_bound
from pncalc.cli import main, render_distfn
from pncalc.pnspace import FAMILIES, axiom_suite, make_space
from pncalc.tnorms import get_tnorm
from pncalc.topology import SequenceSpec
from pncalc.triangle import LazyConv, inf_conv, sup_conv
from pncalc.distfn import (
    EPS0,
    EPS_INF,
    MAX_GRID,
    Grid,
    GridSpec,
    Plateau,
    Ratio,
    Step,
    compare_leq,
    distfn_equal,
    eps,
    from_spec,
    levy_dist,
    make_step,
    max_tf,
    pointwise_min,
)
from test_readme_reports import COMMANDS

INF = math.inf
_LARGEST = sys.float_info.max


# ------------------------------------------------------------ construction

def test_step_at_zero_is_maximal_element():
    e0 = from_spec("step:0")
    assert e0.eval(0.0) == 0.0
    assert e0.eval(0.1) == 1.0
    assert e0.eval(-1.0) == 0.0
    assert e0.eval(INF) == 1.0


def test_plateau_boundary_levels():
    assert distfn_equal(Plateau(1.0), EPS0)
    assert distfn_equal(Plateau(0.0), EPS_INF)
    assert distfn_equal(eps(INF), EPS_INF)


def test_plateau_is_the_one_jump_step():
    p = Plateau(0.35)
    assert isinstance(p, Step)
    assert (p.breakpoints, p.levels) == ((0.0,), (0.0, 0.35))
    assert p.gamma == p.plateau == 0.35
    assert p == Plateau(0.35) and hash(p) == hash(Plateau(0.35))
    assert p != Plateau(0.36)
    # the same function, but its own type: equal as functions only
    step = Step((0.0,), (0.0, 0.35))
    assert p != step and distfn_equal(p, step)
    assert p.scale_arg(3.0) is p
    assert render_distfn(p) == {"family": "plateau", "gamma": 0.35}
    with pytest.raises(ValueError, match=r"plateau level must lie in \[0, 1\], got 1.5"):
        Plateau(1.5)


def test_grid_is_the_step_of_its_samples():
    g = Grid((0.5, 1.0, 2.0), (0.2, 0.2 - 1e-16, 0.7))
    assert isinstance(g, Step) and type(g) is Grid
    # a value just below an earlier one is wobble, raised to it
    assert (g.breakpoints, g.levels) == ((0.5, 1.0, 2.0), (0.0, 0.2, 0.2, 0.7))
    assert (g.xs, g.vs) == ((0.5, 1.0, 2.0), (0.2, 0.2, 0.7))
    assert g == Grid((0.5, 1.0, 2.0), (0.2, 0.2, 0.7)) and hash(g) == hash(Grid(g.xs, g.vs))
    # the same function, but its own type: equal as functions only
    step = Step(g.breakpoints, g.levels)
    assert g != step and distfn_equal(g, step)
    assert [g.eval(x) for x in (0.5, 0.75, 1.5, 3.0)] == [0.0, 0.2, 0.2, 0.7]
    assert g.plateau == 0.7 and g.probe_xs() == g.xs
    # a sample at 0 is a jump at 0, as a Plateau's is
    assert distfn_equal(Grid((0.0,), (0.35,)), Plateau(0.35))
    assert render_distfn(Grid((0.0, 1.0), (0.25, 0.5)))["family"] == "grid"
    with pytest.raises(ValueError, match="nondecreasing"):
        Grid((1.0, 2.0), (0.5, 0.5 - 1e-14))
    with pytest.raises(ValueError, match="equal length"):
        Grid((1.0, 2.0), (0.5,))


def test_grid_from_arrays_equals_grid_from_tuples():
    xs, vs = np.array([0.5, 1.0, 2.0]), np.array([0.2, 0.2 - 1e-16, 0.7])
    g = Grid(xs, vs)
    want = Grid(tuple(xs.tolist()), tuple(vs.tolist()))
    assert g == want and repr(g) == repr(want) and hash(g) == hash(want)
    assert {type(v) for v in g.breakpoints + g.levels} == {type(v) for v in want.breakpoints + want.levels} == {float}
    assert Grid(np.array([1.0, 2.0]), np.array([0.5, 0.7])).vs == (0.5, 0.7)
    # its arrays are the Step's, read-only; the caller's stay writeable and unchanged
    bps, levels = g.arrays
    assert bps.tolist() == list(want.breakpoints) and levels.tolist() == list(want.levels)
    assert not (bps.flags.writeable or levels.flags.writeable)
    assert xs.flags.writeable and vs.flags.writeable
    assert xs.tolist() == [0.5, 1.0, 2.0] and vs.tolist() == [0.2, 0.2 - 1e-16, 0.7]


_NAN = float("nan")


@pytest.mark.parametrize("xs, vs, message", [
    ((_NAN, 1.0), (0.2, 0.5), "breakpoints must be finite and nonnegative, got nan"),
    ((1.0, 2.0), (0.2, _NAN), "levels must lie in [0, 1], got nan"),
    ((-1.0, 1.0), (0.2, 0.5), "breakpoints must be finite and nonnegative, got -1.0"),
    ((1.0, 2.0), (-0.1, 0.5), "levels must lie in [0, 1], got -0.1"),
    ((1.0, INF), (0.2, 0.5), "breakpoints must be finite and nonnegative, got inf"),
    ((1.0, 2.0), (0.5, INF), "levels must lie in [0, 1], got inf"),
    ((2.0, 1.0), (0.2, 0.5), "breakpoints must be strictly ascending"),
    ((1.0, 1.0), (0.2, 0.5), "breakpoints must be strictly ascending"),
    ((1.0, 2.0), (0.5, 1.5), "levels must lie in [0, 1], got 1.5"),
    ((1.0, 2.0), (0.5, 0.5 - 1e-14), "sample values must be nondecreasing"),
    ((1.0, 2.0), (0.5,), "xs and vs must be nonempty and of equal length"),
    ((), (), "xs and vs must be nonempty and of equal length"),
])
def test_grid_rejects_bad_samples_alike_from_tuples_and_arrays(xs, vs, message):
    for make in (tuple, np.array):
        with pytest.raises(ValueError) as err:
            Grid(make(xs), make(vs))
        assert str(err.value) == message


def test_ratio_closed_form():
    f = from_spec("ratio:2")
    assert f.eval(2.0) == pytest.approx(0.5)  # x / (x + 2) at x = 2
    assert f.eval(0.0) == 0.0
    assert f.plateau == 1.0


def test_ratio_near_the_largest_float():
    # 1 / (1 + beta/x) forms no sum, so nothing overflows at any scale
    assert Ratio(1e308).eval(1e308) == 0.5
    assert Ratio(1e308).eval_many(np.array([1e308]))[0] == 0.5
    # the ladder points below the largest float stay
    ladder = [1e308 * float(r) for r in distfn._RATIO_LADDER]
    assert list(Ratio(1e308).probe_xs()) == [p for p in ladder if p < INF] == ladder[:14]


def test_ratio_agrees_with_exact_arithmetic_up_to_the_largest_float():
    # 1 / (1 + beta/x) rounds three times, each step monotone in x: it is
    # nondecreasing, within 2 ulps of the exact quotient where that is a
    # normal float, and within 2^-1022 of it below, where x may be clamped
    # to beta 2^-1023; eval reads the bits eval_many reads
    top = sys.float_info.max
    rng = random.Random(8)
    ladder = [top, 1e308, 2.0**970, 2.0**969, math.nextafter(2.0**969, INF), 1e300, 1.0, 1e-300, 5e-324]
    scales = ladder + [10.0 ** rng.uniform(-320.0, 308.25) for _ in range(15)]
    xs = np.array(sorted(ladder + [10.0 ** rng.uniform(-320.0, 308.25) for _ in range(120)]))
    for b in scales:
        vals = Ratio(b).eval_many(xs)
        assert np.all(np.diff(vals) >= 0.0), b
        for x, got in zip(xs.tolist(), vals.tolist()):
            exact = Fraction(x) / (Fraction(x) + Fraction(b))
            bound = 2 * Fraction(math.ulp(float(exact))) if exact >= sys.float_info.min else Fraction(2.0**-1022)
            assert abs(Fraction(got) - exact) <= bound, (x, b)
            assert Ratio(b).eval(x) == got, (x, b)


def _float_runs(centres, n=400):
    """n consecutive floats up from each positive centre, one row each,
    the centres moved down so that no row passes the largest float."""
    top = np.array(sys.float_info.max).view(np.int64)
    bits = np.minimum(np.asarray(centres, dtype=float).view(np.int64), top - n + 1)
    return (bits[:, None] + np.arange(n)).view(float)


@pytest.mark.parametrize("family", ["ratio", "lukasiewicz_chain"])
def test_smooth_forms_are_nondecreasing_on_consecutive_floats(family):
    # every operation of 1 / (1 + beta/x) and of 1 - R (R/(x + sum a_i))
    # is correctly rounded and monotone in x, so no read steps down, at
    # any scale: near 0, around the scale, near a chain's root, around
    # 2^53 (where x + 1 rounds to x) and up to the largest float
    rng = np.random.default_rng(26)
    top = sys.float_info.max
    fixed = [5e-324, 1e-300, 1.0, 2.0**53, 1.5e16, 2.0**1000, 1e300, top]
    if family == "ratio":
        scales = [5e-324, 1e-310, 1e-300, 2.0**-60, 1e-3, 1.0, 3.7, 1e5, 1e100, 2.0**969, 1e308, top]
        fns = [(Ratio(b), [b]) for b in scales]
    else:
        t = get_tnorm("lukasiewicz")
        chains = [tuple((10.0 ** rng.uniform(-3.0, 3.0, int(rng.integers(2, 5)))).tolist()) for _ in range(24)]
        chains += [(1.0, 1.0), (1e-300, 2e-300), (1e300, 3e300), (1e308, 1e308), (top, top)]
        fns = []
        for scales in chains:
            f = Ratio(scales[0])
            for a in scales[1:]:
                f = sup_conv(t, f, Ratio(a))
            # where the value leaves 0: R^2 - sum a_i, or inf past the largest float
            root = 2.0 * sum(math.sqrt(a) * math.sqrt(b) for a, b in itertools.combinations(scales, 2))
            fns.append((f, [root, root * (1.0 + 1e-9), 2.0 * root]))
    for f, marks in fns:
        with np.errstate(over="ignore"):
            centres = np.array([m * q for m in marks for q in (1e-3, 0.5, 1.0, 2.0, 1e3)] + fixed)
        xs = _float_runs(centres[(centres > 0.0) & (centres < INF)])
        vals = f.eval_many(xs)
        assert np.all((vals >= 0.0) & (vals <= 1.0)), f
        steps_down = np.diff(vals, axis=1) < 0.0
        assert not steps_down.any(), (f, xs[:, 1:][steps_down][:3])


def test_construct_rejects_bad_params():
    with pytest.raises(ValueError):
        Ratio(0.0)
    with pytest.raises(ValueError):
        Ratio(-1.0)
    with pytest.raises(ValueError):
        Plateau(1.5)
    with pytest.raises(ValueError):
        Grid((1.0, 2.0), (0.5, 0.4))  # decreasing values
    with pytest.raises(ValueError):
        Grid((2.0, 1.0), (0.4, 0.5))  # decreasing abscissae
    with pytest.raises(ValueError):
        Grid((1.0,), (1.5,))  # value outside [0, 1]
    with pytest.raises(ValueError):
        Step((1.0,), (0.1, 1.0))  # nonzero base level
    for n in (0, MAX_GRID + 1):
        with pytest.raises(ValueError, match="grid size"):
            GridSpec(n=n)
    assert GridSpec(n=MAX_GRID).n == MAX_GRID


def test_from_spec_parsing(tmp_path):
    assert from_spec("step:1.5") == eps(1.5)
    assert from_spec("plateau:0.25") == Plateau(0.25)
    assert from_spec("ratio:3") == Ratio(3.0)
    path = tmp_path / "curve.txt"
    path.write_text("0.5 0.1\n1.0 0.4\n2.0 0.9\n")
    g = from_spec(f"grid:@{path}")
    assert g.xs == (0.5, 1.0, 2.0)
    assert g.eval(1.5) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        from_spec("bogus:1")


def test_make_step_canonicalizes():
    # unsorted jumps are ordered, duplicates merge to the higher level,
    # zero-height jumps vanish, and jumps at +inf only lower the plateau
    s = make_step([2.0, 1.0], [0.0, 0.8, 0.3])
    assert s == Step((1.0, 2.0), (0.0, 0.3, 0.8))
    s = make_step([1.0, 1.0], [0.0, 0.3, 0.7])
    assert s == Step((1.0,), (0.0, 0.7))
    s = make_step([1.0, 2.0], [0.0, 0.5, 0.5])
    assert s == Step((1.0,), (0.0, 0.5))
    s = make_step([1.0, INF], [0.0, 0.5, 1.0])
    assert s == Step((1.0,), (0.0, 0.5))
    assert s.plateau == 0.5


@pytest.mark.parametrize("b", [-INF, -1.0, math.nan])
def test_make_step_rejects_a_jump_below_zero_or_at_nan(b):
    # a jump at -inf is rejected as one at -1 is, not read as the end of
    # the jumps: only +inf ends them
    with pytest.raises(ValueError, match="breakpoints must be finite and nonnegative"):
        make_step([b, 1.0], [0.0, 0.5, 1.0])


# ------------------------------------------------------------ evaluation

def test_left_continuity_at_jump():
    e1 = eps(1.0)
    assert e1.eval(1.0) == 0.0
    assert e1.eval(1.0 + 1e-9) == 1.0


def test_left_limit_at_infinity():
    # the left limit at +inf is the plateau (F(+inf) itself is 1 by convention)
    assert Plateau(math.exp(-1.0)).plateau == pytest.approx(0.367879441, abs=1e-9)
    assert Ratio(7.0).plateau == 1.0
    assert eps(3.0).plateau == 1.0
    assert EPS_INF.plateau == 0.0


def test_grid_semantics_step_from_below():
    g = Grid((1.0, 2.0), (0.25, 0.75))
    assert g.eval(1.0) == 0.0
    assert g.eval(1.5) == 0.25
    assert g.eval(2.0) == 0.25
    assert g.eval(2.5) == 0.75
    assert g.plateau == 0.75


def test_eval_many_matches_scalar():
    for f in (eps(1.0), Plateau(0.3), Ratio(2.0), Grid((1.0, 4.0), (0.2, 0.9))):
        xs = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 10.0, INF])
        assert np.allclose(f.eval_many(xs), [f.eval(x) for x in xs])


_EDGE_XS = [-INF, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.25, 1.0, 2.0,
            1e308, _LARGEST, INF, math.nan]


def test_step_eval_many_is_the_masked_read_and_eval_bit_for_bit():
    # one search over all of xs, with only +inf and NaN patched, equals the
    # masked read it replaces and eval at each point, to the sign of a zero
    # (NaN, which eval rejects, reads 0); in 1-D, in 2-D and at a 0-d xs
    rng = random.Random(41)
    operands = [EPS0, EPS_INF, Plateau(0.0), Plateau(0.4), Step((-0.0,), (-0.0, 0.5)), Step((0.0, _LARGEST), (0.0, 0.5, 1.0)),
                Grid((5e-324, 1.0), (0.25, 0.75))]
    operands += [_random_step_or_grid(rng) for _ in range(400)]
    for f in operands:
        xs = np.array(rng.sample(_EDGE_XS, 8) + [rng.uniform(-2.0, 8.0) for _ in range(4)])
        want = np.array([0.0 if math.isnan(x) else f.eval(x) for x in xs])
        for arr, ref in ((xs, want), (xs.reshape(3, 4), want.reshape(3, 4))):
            got = f.eval_many(arr)
            assert got.shape == arr.shape and got.tobytes() == ref.tobytes(), (f, arr)
            assert got.tobytes() == distfn.DistFn._eval_array(f, arr).tobytes(), (f, arr)
        for x, v in zip(xs[:3], want):
            one = f.eval_many(x)
            assert one.shape == () and one.tobytes() == v.tobytes(), (f, x)
    # a base level of -0.0 is stored as +0.0, which eval reads at x <= 0
    assert Step((1.0,), (-0.0, 1.0)).levels == (0.0, 1.0)
    assert math.copysign(1.0, Step((1.0,), (-0.0, 1.0)).eval(0.5)) == 1.0


_ZERO_D_OPERANDS = {
    "step": Step((0.5, 2.0), (0.0, 0.25, 1.0)),
    "plateau": Plateau(0.4),
    "grid": Grid((0.5, 1.0), (0.25, 0.75)),
    "ratio": Ratio(1.0),
    "walk": sup_conv(get_tnorm("prod"), Plateau(0.7), Ratio(1.0)),
    "chain": sup_conv(get_tnorm("prod"), Ratio(1.0), Ratio(2.0)),
}


@pytest.mark.parametrize("name", list(_ZERO_D_OPERANDS))
def test_eval_many_reads_a_0d_argument_as_a_one_element_array(name):
    # the masked path builds a writable 0-d array, also where it masks
    # the argument out (x <= 0, +inf and NaN)
    f = _ZERO_D_OPERANDS[name]
    for x in (-1.0, -0.0, 0.0, 2.0, INF, math.nan):
        got = f.eval_many(x)
        want = f.eval_many(np.array([x]))[0]
        assert got.shape == () and got.tobytes() == want.tobytes(), (name, x)


# ------------------------------------------------------------ order

def test_step_order_reverses_threshold():
    assert compare_leq(eps(2.0), eps(1.0), 0.0).holds
    assert not compare_leq(eps(1.0), eps(2.0), 0.0).holds


def test_everything_below_the_maximal_element():
    for f in (eps(0.5), Plateau(0.4), Ratio(1.0), EPS_INF, Grid((1.0,), (0.7,))):
        assert compare_leq(f, EPS0, 0.0).holds


def test_ratio_order_reverses_scale():
    assert compare_leq(Ratio(2.0), Ratio(1.0), 0.0).holds  # x/(x+2) <= x/(x+1)
    assert not compare_leq(Ratio(1.0), Ratio(2.0), 0.0).holds


def test_ratio_order_by_scale_matches_the_probe_path():
    # a pair that holds by its scales gives what the sampled path gives,
    # bit for bit; a failing pair reads its closed-form largest gap, which
    # no probe point exceeds
    rng = np.random.default_rng(13)
    for _ in range(2000):
        a, b = (float(v) for v in 10.0 ** rng.uniform(-3.0, 3.0, 2))
        if rng.random() < 0.1:
            b = a
        f, g = Ratio(a), Ratio(b)
        for tol in (0.0, 1e-9, 1e-6):
            got, want = compare_leq(f, g, tol), distfn._compare_sampled(f, g, tol)
            if a >= b:
                assert (got.holds, got.witness, got.gap) == (want.holds, want.witness, want.gap), (a, b, tol)
                continue
            peak = (math.sqrt(b) - math.sqrt(a)) / (math.sqrt(b) + math.sqrt(a))
            assert got.gap == pytest.approx(peak, rel=1e-12, abs=1e-15)
            assert got.gap >= want.gap - 1e-15 and got.holds == (got.gap <= tol)
            if not got.holds:
                assert got.witness == math.sqrt(a) * math.sqrt(b)
                assert f.eval(got.witness) - g.eval(got.witness) == got.gap


def test_failing_ratio_pair_reads_its_closed_form_gap():
    c = compare_leq(Ratio(1.0), Ratio(2.0))
    assert not c.holds
    assert c.witness == math.sqrt(2.0)
    assert c.gap == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
    assert c.gap == pytest.approx(0.17157288, abs=1e-8)
    # the sampled path read 0.1715629 at 1.4363, below the peak
    assert distfn._compare_sampled(Ratio(1.0), Ratio(2.0), 0.0).gap < c.gap
    assert compare_leq(Ratio(1.0), Ratio(2.0), 0.2).holds


def test_the_default_tolerance_is_0_for_every_pair():
    # a sampled pair and an exact pair alike: a gap of 1e-9 fails
    for f, g in ((Grid((1.0,), (0.5 + 1e-9,)), Grid((1.0,), (0.5,))),
                 (Step((1.0,), (0.0, 0.5 + 1e-9)), Step((1.0,), (0.0, 0.5)))):
        assert compare_leq(f, g) == compare_leq(f, g, 0.0)
        assert not compare_leq(f, g).holds and not distfn_equal(f, g)
        assert distfn_equal(f, g, 1e-6)


def test_violation_carries_witness():
    c = compare_leq(eps(1.0), eps(2.0), 0.0)
    assert not c.holds
    assert 1.0 < c.witness <= 2.0
    assert eps(1.0).eval(c.witness) > eps(2.0).eval(c.witness)


def test_order_reflexive():
    for f in (eps(1.0), Plateau(0.3), Ratio(2.0), EPS_INF):
        assert compare_leq(f, f, 0.0).holds


@given(st.floats(0.1, 8.0), st.floats(0.1, 8.0))
def test_order_antisymmetry_on_steps(c, d):
    fwd = compare_leq(eps(c), eps(d), 0.0).holds
    bwd = compare_leq(eps(d), eps(c), 0.0).holds
    if fwd and bwd:
        assert distfn_equal(eps(c), eps(d))


def _random_jump(rng: random.Random) -> float:
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice((0.0, -0.0))
    if kind == 1:
        return rng.uniform(0.0, 4.0)
    if kind == 2:
        return rng.randrange(9) / 4.0  # jumps the other side shares
    if kind == 3:
        return 2.0**53 * rng.choice((1, 1.5, 2, 64)) + rng.choice((0.0, 2.0, 4.0))
    if kind == 4:
        return rng.uniform(1e15, 1e18)
    return rng.choice((1e307, 8.9e307, 9e307, 1e308, 1.7e308, 1.7976931348623157e308))


def _random_step(rng: random.Random):
    if rng.random() < 0.15:
        return Plateau(rng.choice((0.0, 0.5, 1.0, rng.random())))
    bps = []
    for _ in range(rng.choice((0, 1, 1, 2, 3, 5))):
        b = _random_jump(rng)
        bps.append(b)
        if rng.random() < 0.3:
            bps.append(math.nextafter(b, INF))  # the adjacent float
    levels = sorted(rng.choice((rng.random(), 0.25, 0.5, 1.0)) for _ in bps)
    return make_step(bps, [0.0] + levels)


def _random_step_or_grid(rng: random.Random):
    f = _random_step(rng)
    if f.breakpoints and rng.random() < 0.3:
        return Grid(f.breakpoints, f.levels[1:])
    return f


def _rule_witness(f, g, gap):
    """Where the order-check rule reads the gap first: the float above a
    jump of a Step F, else a jump of the Step G or the largest float."""
    if isinstance(f, Step):
        reads = [(math.nextafter(b, INF), v) for b, v in zip(f.breakpoints, f.levels[1:])]
        return next(x for x, v in reads if v - g.eval(x) == gap)
    reads = [*g.breakpoints, _LARGEST]
    return next(x for x in reads if f.eval(x) - g.eval(x) == gap)


def _both_reads(f, g, tol):
    """The check with every Step side read by the loop, then by arrays
    (but a side with no jump, which the switch never reads by arrays)."""
    switch = distfn._ARRAY_MIN
    try:
        distfn._ARRAY_MIN = INF
        loop = distfn._compare_step_side(f, g, tol)
        distfn._ARRAY_MIN = 1
        return loop, distfn._compare_step_side(f, g, tol)
    finally:
        distfn._ARRAY_MIN = switch


def _check_step_pair(f, g, tol):
    """Verdict and gap bit for bit the probe set's, the witness the rule's
    and attaining the gap, and the loop and the arrays alike."""
    got = compare_leq(f, g, tol)
    want = distfn._compare_sampled(f, g, tol)
    assert (got.holds, got.gap) == (want.holds, want.gap), (f, g, tol)
    assert isinstance(got.gap, float)
    if not got.holds:
        assert type(got.witness) is float
        assert f.eval(got.witness) - g.eval(got.witness) == got.gap
        assert got.witness == _rule_witness(f, g, got.gap)
    loop, arrays = _both_reads(f, g, tol)
    assert repr(loop) == repr(arrays) == repr(got), (f, g, tol)
    return got


def test_step_walk_matches_the_probe_path():
    # one read per cell of a Step F gives the probe set's verdict and gap
    # bit for bit, also past jumps where 2 lo + 2 overflows; only the
    # witness moves, to the first float where the gap is attained, below
    # every probe point that attains it; a Grid is the Step of its samples
    rng = random.Random(12)
    past_probes = grids = fails = 0
    for _ in range(20_000):
        f, g = _random_step_or_grid(rng), _random_step_or_grid(rng)
        grids += isinstance(f, Grid) or isinstance(g, Grid)
        tol = rng.choice((0.0, 1e-9, 0.3))
        got = _check_step_pair(f, g, tol)
        lo = max((0.0, *f.breakpoints, *g.breakpoints))
        past_probes += math.isinf(2.0 * lo + 2.0)
        if not got.holds:
            fails += 1
            xs = distfn.merged_probe_xs(f, g)
            assert got.witness <= xs[np.argmax(f.eval_many(xs) - g.eval_many(xs))]
    assert past_probes > 1000 and grids > 5000 and fails > 5000


def test_step_walk_reads_the_cell_past_a_jump_near_the_largest_float():
    # the rule reads the cell past the jump at the next float; the probe
    # set reads it at the largest float, its last point, with the same gap
    f, g = Step((1e308,), (0.0, 1.0)), Plateau(0.5)
    c = compare_leq(f, g)
    assert not c.holds
    assert c.witness == math.nextafter(1e308, INF) and c.gap == 0.5
    assert distfn._compare_sampled(f, g, 0.0) == c._replace(witness=_LARGEST)
    # past a jump at the largest float no finite x is left to read
    assert compare_leq(Step((1.7976931348623157e308,), (0.0, 1.0)), g).holds


def test_a_step_against_a_ratio_fails_on_the_cell_past_its_jump():
    # F = the step at 1 up to c exceeds Ratio(1) on (1, (c/(1-c))], which
    # the probe set missed at c = 0.5001 and under-read at c = 0.505
    g = Ratio(1.0)
    c = compare_leq(Step((1.0,), (0.0, 0.5001)), g)
    assert not c.holds and 1.0 < c.witness <= 1.0004
    assert distfn._compare_sampled(Step((1.0,), (0.0, 0.5001)), g, 0.0).holds
    c = compare_leq(Step((1.0,), (0.0, 0.505)), g)
    assert not c.holds and 1.0 < c.witness <= 1.0004
    assert c.gap == pytest.approx(0.005, abs=1e-9)


def _smooth_operand(rng: random.Random):
    """A Ratio, a 2- or 3-scale sup:prod chain, or a walk of a Step over a Ratio."""
    prod, scale = get_tnorm("prod"), lambda: 10.0 ** rng.uniform(-2.0, 2.0)
    kind = rng.randrange(4)
    if kind == 0:
        return Ratio(scale())
    if kind == 3:
        return LazyConv(prod, _random_step_or_grid(rng), Ratio(scale()), True)
    h = LazyConv(prod, Ratio(scale()), Ratio(scale()), True)
    return LazyConv(prod, h, Ratio(scale()), True) if kind == 2 else h


def _dense_scan(f, g):
    """The largest F - G over a geometric scan and the floats around each jump."""
    jumps = np.array([b for h in (f, g) if isinstance(h, Step) for b in h.breakpoints])
    with np.errstate(over="ignore"):  # past the largest float, dropped below
        near = np.concatenate([jumps, np.nextafter(jumps, _LARGEST), jumps * (1.0 + 1e-9), jumps * (1.0 + 1e-3)])
    xs = np.concatenate([np.geomspace(1e-6, 1e6, 2001), near, (_LARGEST,)])
    xs = xs[(xs > 0.0) & (xs <= _LARGEST)]
    return float(np.max(f.eval_many(xs) - g.eval_many(xs)))


def test_a_step_side_against_smooth_operands_is_never_below_a_scan():
    # Steps and Grids against Ratios, sup:prod chains and walks, in both
    # orders: the exact gap is at least the probe set's and a dense scan's
    # largest, and a failing witness attains it.  A chain's Newton root is
    # monotone only to its last ulp, so a scan may read it 1 ulp lower
    # further along a cell than at the cell's first float
    ulp = np.spacing(1.0)
    rng = random.Random(31)
    beyond = 0
    for _ in range(1500):
        step, smooth = _random_step_or_grid(rng), _smooth_operand(rng)
        for f, g in ((step, smooth), (smooth, step)):
            tol = rng.choice((0.0, 1e-9, 0.3))
            got = compare_leq(f, g, tol)
            sampled = distfn._compare_sampled(f, g, tol)
            assert got.gap >= sampled.gap - ulp and got.gap >= _dense_scan(f, g) - ulp, (f, g)
            assert got.holds == (got.gap <= tol)
            if not got.holds:
                assert f.eval(got.witness) - g.eval(got.witness) == got.gap
            beyond += sampled.holds and not got.holds
            loop, arrays = _both_reads(f, g, tol)
            assert repr(loop) == repr(arrays) == repr(got)
    assert beyond > 0  # violations that the probe set misses


def test_order_check_edge_cases_of_a_step_side():
    chain = LazyConv(get_tnorm("prod"), Ratio(1.0), Ratio(2.0), True)
    # a jump at the largest float: its cell on the left is empty, and on
    # the right G reads its level before it up to the largest float
    assert compare_leq(Step((1.0, _LARGEST), (0.0, 0.3, 1.0)), Plateau(0.5)).holds
    assert compare_leq(Ratio(1.0), Step((_LARGEST,), (0.0, 1.0))) == distfn.Comparison(False, _LARGEST, 1.0)
    assert compare_leq(Ratio(1.0), Step((1.0, _LARGEST), (0.0, 0.5, 1.0))) == distfn.Comparison(False, 1.0, 0.5)
    # Plateau(gamma) and EPS_INF on either side
    c = compare_leq(Plateau(0.5), Ratio(1.0))
    assert c == distfn.Comparison(False, 5e-324, 0.5)
    assert compare_leq(Ratio(1.0), Plateau(0.5)) == distfn.Comparison(False, _LARGEST, 0.5)
    assert compare_leq(Plateau(0.5), chain, 0.0).witness == 5e-324
    assert compare_leq(chain, Plateau(0.5), 0.0) == distfn.Comparison(False, _LARGEST, chain.eval(_LARGEST) - 0.5)
    for g in (Ratio(1.0), chain, Plateau(0.3), EPS_INF):
        assert compare_leq(EPS_INF, g, 0.0) == distfn.Comparison(True, None, 0.0)
    assert compare_leq(Ratio(1.0), EPS_INF) == distfn.Comparison(False, _LARGEST, 1.0)
    assert compare_leq(chain, EPS_INF, 0.0) == distfn.Comparison(False, _LARGEST, chain.eval(_LARGEST))
    assert compare_leq(Plateau(0.3), EPS_INF) == distfn.Comparison(False, 5e-324, 0.3)
    # a jump at -0.0 reads the cell (0, b'] at the least positive float
    f = Step((-0.0,), (0.0, 0.7))
    assert compare_leq(f, Ratio(1.0)) == distfn.Comparison(False, 5e-324, 0.7)
    assert compare_leq(f, Step((-0.0, 2.0), (0.0, 0.7, 1.0))).holds
    assert compare_leq(Ratio(1.0), Step((-0.0, 2.0), (0.0, 0.7, 1.0))) == distfn.Comparison(True, None, 0.0)
    assert compare_leq(Ratio(1.0), Step((-0.0,), (0.0, 0.5))) == distfn.Comparison(False, _LARGEST, 0.5)


def _bisect_reads(f, g, tol, as_list):
    """The Step-side check with both operands read at its abscissae, the
    Step side by bisection, not from its levels."""
    s = f if isinstance(f, Step) else g
    xs = [math.nextafter(b, _LARGEST) for b in s.breakpoints] if s is f else [*s.breakpoints, _LARGEST]
    return distfn._read_gap(f, g, xs if as_list else np.array(xs, dtype=float), tol)


def test_step_side_levels_equal_the_bisect_reads():
    # the array side, which takes the Step side's values from its levels,
    # and the loop equal reading both operands at each abscissa, to the
    # witness and the sign of the gap; jumps at -0.0, 0 and the largest
    # float included
    rng = random.Random(43)
    tops = 0
    for _ in range(3000):
        step = _random_step_or_grid(rng)
        if rng.random() < 0.2:
            step = make_step([*step.breakpoints, _LARGEST], [*step.levels, 1.0])
        tops += bool(step.breakpoints) and step.breakpoints[-1] == _LARGEST
        other = rng.choice((_random_step_or_grid(rng), Ratio(10.0 ** rng.uniform(-2.0, 2.0)), _smooth_operand(rng)))
        for f, g in ((step, other), (other, step)):
            tol = rng.choice((0.0, 1e-9, 0.3))
            loop, arrays = _both_reads(f, g, tol)
            assert repr(loop) == repr(_bisect_reads(f, g, tol, True)), (f, g, tol)
            assert repr(arrays) == repr(_bisect_reads(f, g, tol, not step.breakpoints)), (f, g, tol)
    assert tops > 300


def test_equal_steps_hold_with_no_read(monkeypatch):
    # two Steps with equal jumps and levels (a Grid, a -0.0 jump or level
    # among them) hold at tol >= 0 as the read path finds; at tol < 0 they
    # are read and fail with a gap of 0
    rng = random.Random(44)
    pairs = [(Step((-0.0, 1.0), (0.0, 0.5, 1.0)), Step((0.0, 1.0), (0.0, 0.5, 1.0))),
             (Step((1.0, 2.0), (0.0, -0.0, 0.5)), Step((1.0, 2.0), (0.0, 0.0, 0.5))), (EPS_INF, Step((), (0.0,)))]
    for _ in range(500):
        f = _random_step_or_grid(rng)
        pairs.append((f, Step(f.breakpoints, f.levels)))
        if f.breakpoints:
            pairs.append((f, Grid(f.breakpoints, f.levels[1:])))
    step_side = distfn._compare_step_side
    for f, g in pairs:
        for tol in (0.0, 1e-9, 0.3, -1e-3):
            want = step_side(f, g, tol)
            monkeypatch.setattr(distfn, "_compare_step_side", lambda *a: pytest.fail("read an equal pair"))
            if tol >= 0.0:
                assert repr(compare_leq(f, g, tol)) == repr(want) == repr(distfn.Comparison(True, None, 0.0))
            monkeypatch.setattr(distfn, "_compare_step_side", step_side)
            if tol < 0.0:
                assert compare_leq(f, g, tol) == want and not want.holds and want.gap == 0.0


def test_no_step_operand_reaches_the_probe_set(monkeypatch, capsys):
    # the suites, every README command, every family's axiom battery, E25's
    # convergent-set bound and the chains of two Ratios against the Ratio
    # of their summed scales under every kind and t-norm: a Step side is
    # read per cell, and E25's sup:prod chains against Ratios are decided
    # by the generator rule.  No sampled path runs, so not one probe set
    # is built
    seen, probe_sets = [], []
    sampled, probes = distfn._compare_sampled, distfn.merged_probe_xs
    monkeypatch.setattr(distfn, "_compare_sampled", lambda f, g, tol: seen.append((f, g)) or sampled(f, g, tol))
    monkeypatch.setattr(distfn, "merged_probe_xs", lambda *a, **k: probe_sets.append(a) or probes(*a, **k))
    monkeypatch.delenv("PNCALC_SEED", raising=False)
    assert main(["suite", "paper-examples"]) == 0
    assert main(["suite", "laws"]) == 0
    for command in COMMANDS:
        assert main(shlex.split(command)) == 0, command
    capsys.readouterr()
    for family in FAMILIES:
        axiom_suite(make_space(family))
    convergent_set_bound(make_space("E25"), SequenceSpec("harmonic"), 0.0, lam=0.5, horizon=64)
    for a, b in ((0.25, 4.0), (1.0, 1.0), (3.7, 0.3)):
        for tname in ("min", "prod", "t2"):
            t = get_tnorm(tname)
            assert compare_leq(sup_conv(t, Ratio(a), Ratio(b)), Ratio(a + b)).holds
            assert compare_leq(Ratio(a + b), inf_conv(t, Ratio(a), Ratio(b))).holds
    assert seen == [] and probe_sets == []


def _chain(tname, scales):
    t = get_tnorm(tname)
    f = Ratio(scales[0])
    for a in scales[1:]:
        f = sup_conv(t, f, Ratio(a))
    return f


@pytest.mark.parametrize("tname,scales", [
    ("prod", (1.0, 2.0)), ("prod", (0.3, 7.0)), ("prod", (1.0, 2.0, 3.0)), ("prod", (0.5, 4.0, 0.01)),
    ("lukasiewicz", (1.0, 2.0)), ("lukasiewicz", (0.3, 7.0)),
])
def test_the_generator_rule_against_a_dense_scan(monkeypatch, tname, scales):
    # F <= Ratio(c) exactly when c <= C = (sum sqrt a_i)^2.  At C (1 - 1e-6)
    # the rule holds with no read, and the computed F exceeds G nowhere by
    # more than the two sides' rounding near 1: at most 3 half-ulps of 1
    # for three scales, so 2 ulps of 1 is allowed.  At C (1 + 1e-6) F - G
    # passes 1e-13 near x = 1e6 C, and the probe set, whose powers of 2
    # reach the largest float, reads a failure there: 4e-13 to 2e-12 at a
    # power of 2 near 2^22 to 2^24 times the scales, also with every
    # scale times 1e10
    f = _chain(tname, scales)
    big_c = sum(map(math.sqrt, scales)) ** 2
    xs = big_c * np.geomspace(1e-6, 1e14, 200_001)
    below, above = Ratio(big_c * (1.0 - 1e-6)), Ratio(big_c * (1.0 + 1e-6))
    sampled = distfn._compare_sampled
    monkeypatch.setattr(distfn, "_compare_sampled", lambda *a: pytest.fail("read at the probe set"))
    assert compare_leq(f, below) == distfn.Comparison(True, None, 0.0)
    assert np.max(f.eval_many(xs) - below.eval_many(xs)) <= 2.0 * np.spacing(1.0)
    monkeypatch.setattr(distfn, "_compare_sampled", sampled)
    assert not distfn._generator_holds(scales, above.beta)
    assert np.max(f.eval_many(xs) - above.eval_many(xs)) > 1e-13
    for m in (1.0, 1e10):
        f = _chain(tname, tuple(m * a for a in scales))
        g = Ratio(sum(math.sqrt(m * a) for a in scales) ** 2 * (1.0 + 1e-6))
        c = compare_leq(f, g)
        assert not c.holds and c.gap > 4e-13 and f.eval(c.witness) - g.eval(c.witness) == c.gap


def _exactly_below(c, scales):
    """c <= (sqrt a + sqrt b)^2 in rationals, for one or two scales."""
    a, b = (Fraction(v) for v in (*scales, 0.0)[:2])
    d = Fraction(c) - a - b
    return d <= 0 or d * d <= 4 * a * b


def test_the_generator_rule_is_exact_at_near_ties():
    # E25's battery of test_keyed_battery_on_a_custom_sample chains
    # Ratio(sqrt 5e-324) = Ratio(2.2e-162) and Ratio(1e154) with other
    # scales: there the rounded C can sit one ulp below c although c <= C,
    # which a rounded comparison gets wrong.  Then random scales, each
    # against the floats within 3 ulps of its rounded C
    tiny, root3 = math.sqrt(5e-324), math.sqrt(3.0)
    edge = [((tiny, root3), root3), ((root3, tiny), root3), ((tiny, 1e154), 1e154), ((tiny, tiny), math.sqrt(1e-323)),
            ((1e154, 0.75 ** 0.5), 1e154), ((root3, root3), 6.0 ** 0.5)]
    for scales, c in edge:
        assert (sum(map(math.sqrt, scales)) ** 2 < c) == (scales in ((tiny, root3), (root3, tiny)))
        assert distfn._generator_holds(scales, c) and _exactly_below(c, scales)
        chain = sup_conv(get_tnorm("prod"), Ratio(scales[0]), Ratio(scales[1]))
        assert compare_leq(chain, Ratio(c)) == distfn.Comparison(True, None, 0.0)
    rng = random.Random(23)
    for _ in range(400):
        scales = tuple(math.ldexp(rng.random() + 0.5, rng.randint(-60, 60)) for _ in range(rng.choice((1, 2))))
        if rng.random() < 0.25:
            scales = (scales[0],) * len(scales)  # sqrt(ab) exact: a tie of C itself
        c = sum(map(math.sqrt, scales)) ** 2
        for _ in range(3):
            c = math.nextafter(c, 0.0)
        for _ in range(7):
            assert distfn._generator_holds(scales, c) == _exactly_below(c, scales), (scales, c)
            c = math.nextafter(c, INF)
    # from three scales on a near-tie is left to the reads
    assert not distfn._generator_holds((1.0, 1.0, 1.0), 9.0)
    assert distfn._generator_holds((1.0, 1.0, 1.0), 9.0 * (1.0 - 1e-14))


def test_the_reverse_order_and_the_bound_exceeded_are_read_as_before():
    # Ratio(c) <= chain always fails near 0, and c > C fails at large x;
    # both are still read at the probe set, and a Ratio pair past the rule
    # at sqrt(ac)
    chain = _chain("prod", (1.0, 2.0))
    big_c = (1.0 + math.sqrt(2.0)) ** 2
    for f, g in ((Ratio(big_c), chain), (chain, Ratio(2.0 * big_c))):
        assert compare_leq(f, g) == distfn._compare_sampled(f, g, 0.0)
        assert not compare_leq(f, g).holds
    assert compare_leq(Ratio(1.0), Ratio(4.0)) == distfn.Comparison(False, 2.0, 2.0 / 3.0 - 2.0 / 6.0)
    assert compare_leq(Ratio(4.0), Ratio(1.0)) == distfn.Comparison(True, None, 0.0)
    # the tolerance does not enter the rule, but a negative one is read
    assert not compare_leq(Ratio(4.0), Ratio(1.0), -1e-3).holds
    assert repr(distfn.Comparison(False, 2.0, 0.5)) == "Comparison(holds=False, witness=2.0, gap=0.5)"


def test_a_lazy_operand_against_a_small_step_is_read_once_as_an_array(monkeypatch):
    # below the switch the Step side's reads are a list, but a lazy
    # operand is read at all of them in one eval_many, not once per jump
    chain = sup_conv(get_tnorm("prod"), Ratio(1.0), Ratio(2.0))
    step = make_step([k / 4.0 for k in range(1, 17)], [0.0, *(k / 16.0 for k in range(1, 17))])
    assert type(chain) is LazyConv and len(step.breakpoints) == 16 < distfn._ARRAY_MIN
    calls = []
    eval_one, eval_many = LazyConv.eval, LazyConv.eval_many
    monkeypatch.setattr(LazyConv, "eval", lambda self, x: calls.append("eval") or eval_one(self, x))
    monkeypatch.setattr(LazyConv, "eval_many", lambda self, xs: calls.append("eval_many") or eval_many(self, xs))
    for f, g in ((step, chain), (chain, step)):
        calls.clear()
        got = compare_leq(f, g)
        assert calls == ["eval_many"], (f, g)
        if not got.holds:
            assert f.eval(got.witness) - g.eval(got.witness) == got.gap


def _wide_step(rng: random.Random, n: int):
    """A step with n jumps from ``_random_jump``, adjacent floats among
    them, and dyadic levels, so that operands share jumps and levels; now
    and then a Plateau(0.0) or EPS_INF."""
    if rng.random() < 0.05:
        return rng.choice((Plateau(0.0), EPS_INF))
    bps = set()
    while len(bps) < n:
        b = _random_jump(rng) + 0.0
        bps.update((b, math.nextafter(b, INF)) if rng.random() < 0.2 else (b,))
    bps = sorted(bps)[:n]
    if bps[0] == 0.0:
        bps[0] = rng.choice((0.0, -0.0))
    levels = [v / 64.0 for v in sorted(rng.sample(range(1, 65), n))]
    return make_step(bps, [0.0, *levels])


def _above_the_switch(rng: random.Random, k: int):
    """k operands with at least ``_ARRAY_MIN`` jumps together."""
    while True:
        fns = [_wide_step(rng, rng.randrange(1, 2 * distfn._ARRAY_MIN // k)) for _ in range(k)]
        if sum(len(f.breakpoints) for f in fns) >= distfn._ARRAY_MIN:
            return fns


def test_array_order_check_equals_the_loop_above_the_switch():
    rng = random.Random(21)
    zeros = 0
    for _ in range(3000):
        f, g = _above_the_switch(rng, 2)
        if rng.random() < 0.3 and f.breakpoints:
            f = Grid(f.breakpoints, f.levels[1:])
        zeros += math.copysign(1.0, min((INF, *f.breakpoints, *g.breakpoints))) < 0.0
        for tol in (0.0, 1e-9, 0.3):
            _check_step_pair(f, g, tol)
    assert zeros > 100


def _min_loop(steps):
    """The pointwise minimum of Steps as a loop of bisections, the kernel
    that ``_min_steps`` took below 32 merged jumps: the merged jumps of a
    set, each rising to the least level after it, the plateaus last."""
    bps = sorted(set().union(*(s.breakpoints for s in steps)))
    if not bps:
        return EPS_INF
    levels = [min(s._eval_pos(r) for s in steps) for r in bps[1:]]  # each r > bps[0] >= 0
    levels.append(min(s.plateau for s in steps))
    return distfn._rising_list(bps, levels)


def _check_min(fns):
    """pointwise_min, max_tf and _min_steps bit for bit the loop's Step,
    and still a Grid when an operand is one."""
    want = _min_loop(fns)
    assert repr(distfn._min_steps(fns)) == repr(want), fns
    if any(isinstance(f, Grid) for f in fns):  # it carries the sampling error
        want = distfn._sampled(want)
    assert repr(pointwise_min(fns)) == repr(want), fns
    if len(fns) == 2:
        assert repr(max_tf(*fns)) == repr(want), fns
    return want


def test_array_minimum_equals_the_loop_above_the_switch():
    rng = random.Random(22)
    zeros = 0
    for i in range(3000):
        fns = _above_the_switch(rng, 2 + i % 2)
        if rng.random() < 0.5 and fns[0].breakpoints:
            fns[0] = Grid(fns[0].breakpoints, fns[0].levels[1:])
        got = _check_min(fns)
        zeros += bool(got.breakpoints) and math.copysign(1.0, got.breakpoints[0]) < 0.0
    assert zeros > 100


@pytest.mark.parametrize("k", [2, 3, 4])
def test_minimum_equals_the_loop_at_every_size(k):
    # every total of merged jumps from 0 (no operand has a jump: eps(inf))
    # to past 32, with jumps at +-0, jumps the operands share, Plateaus and
    # Grids among the operands
    rng = random.Random(40 + k)
    totals, zeros, shared, grids = set(), 0, 0, 0
    for total in range(41):
        for _ in range(12):
            cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
            sizes = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
            fns = [_wide_step(rng, n) if n else rng.choice((EPS_INF, eps(INF))) for n in sizes]
            if rng.random() < 0.3 and fns[0].breakpoints:
                fns[0] = Grid(fns[0].breakpoints, fns[0].levels[1:])
                grids += 1
            every = [b for f in fns for b in f.breakpoints]
            totals.add(len(every))
            shared += len(set(every)) < len(every)
            got = _check_min(fns)
            zeros += bool(got.breakpoints) and math.copysign(1.0, got.breakpoints[0]) < 0.0
    assert set(range(41)) <= totals and zeros > 5 and shared > 100 and grids > 50
    for none in ([EPS_INF] * k, [eps(INF)] * k):
        assert repr(_check_min(none)) == repr(EPS_INF)


def test_order_check_on_large_grids_matches_the_probe_path():
    rng = np.random.default_rng(4096)
    for _ in range(3):
        f, g = (Grid(np.sort(rng.uniform(0.0, 64.0, 4096)).tolist(), np.sort(rng.random(4096)).tolist())
                for _ in range(2))
        for a, b in ((f, g), (g, f), (f, f)):
            _check_step_pair(a, b, 1e-6)


_POWERS_OF_2 = [math.ldexp(1.0, k) for k in range(-1074, 1024)]


def _merged_probe_xs_by_sets(*fns, extra=()):
    """The probe set built with Python sets and sorted lists, the
    reference for the array builder, and how many of its midpoints are
    taken as a/2 + b/2, where a + b overflows."""
    pts = {0.0}
    for fn in fns:
        pts.update(float(x) for x in fn.probe_xs())
    pts.update(float(x) for x in extra)
    if not all(isinstance(fn, Step) for fn in fns):
        pts.update(distfn.COMPARE_FILL.points().tolist())
    base = sorted(p for p in pts if p >= 0.0 and not math.isinf(p))
    pairs = list(zip(base, base[1:]))
    halved = sum(a + b == INF for a, b in pairs)
    xs = {*base, *((a + b) / 2.0 if a + b < INF else a / 2.0 + b / 2.0 for a, b in pairs), _LARGEST}
    least = min(x for x in xs if x > 0.0)
    return np.array(sorted(xs.union(p for p in _POWERS_OF_2 if p > least))), halved


def _random_operand(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return _random_step(rng)
    if kind == 1:
        return Plateau(rng.random())
    if kind == 2:
        return Ratio(rng.choice((1e-300, 0.5, 3.0, 1e305)))
    if kind == 3:
        xs = sorted({rng.choice((5e-324, rng.uniform(0.0, 8.0), 1.7e308)) for _ in range(5)} - {0.0})
        return Grid(tuple(xs), tuple(sorted(rng.random() for _ in xs)))
    return LazyConv(get_tnorm("prod"), _random_step(rng), Ratio(rng.uniform(0.1, 4.0)), True)


def test_probe_set_matches_the_set_built_reference():
    # same values, same order, +0.0 for a -0.0 probe, the midpoint a/2 +
    # b/2 of two abscissae near the largest float, whose sum overflows, so
    # that no point is +inf, and the powers of 2 from the least positive
    # point up to 2^1023 before the largest float
    rng = random.Random(14)
    halved_sets = 0
    for _ in range(3000):
        args = tuple(_random_operand(rng) for _ in range(rng.choice((1, 2, 2, 3))))
        extra = [rng.choice((-0.0, -1.0, rng.uniform(0.0, 9.0))) for _ in range(rng.randrange(3))]
        got = distfn.merged_probe_xs(*args, extra=extra)
        want, halved = _merged_probe_xs_by_sets(*args, extra=extra)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), args
        assert not np.isinf(got).any(), args
        halved_sets += halved > 0
    assert halved_sets > 10


# ------------------------------------------------------------ levy distance

def test_levy_identity_and_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(100):
        c, d = rng.uniform(0.0, 3.0, size=2)
        f, g = eps(c), eps(d)
        assert levy_dist(f, f) == 0.0
        assert levy_dist(f, g) == pytest.approx(levy_dist(g, f), abs=1e-9)


def test_levy_step_against_maximal_matches_closed_form():
    # band geometry gives exactly min(c, 1) for a unit step at c
    for c in (0.1, 0.25, 0.5, 0.9, 1.0, 2.5):
        assert levy_dist(EPS0, eps(c)) == pytest.approx(min(c, 1.0), abs=1e-9)


def test_levy_metrizes_weak_convergence_along_harmonic_steps():
    for n in (2, 5, 17, 64):
        assert levy_dist(eps(1.0 / n), EPS0) == pytest.approx(1.0 / n, abs=1e-9)


def test_levy_reads_the_cell_past_a_jump_near_the_largest_float():
    # 2 tail + 2 overflows, so the far tail probe is the next float above
    # the jump, where eps(1e308) is 1
    assert levy_dist(eps(1e308), EPS_INF) == 1.0
    assert levy_dist(eps(1e17), EPS_INF) == 1.0


@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_levy_triangle_inequality_on_steps(c, d, e):
    f, g, h = eps(c), eps(d), eps(e)
    assert levy_dist(f, h) <= levy_dist(f, g) + levy_dist(g, h) + 1e-8


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_levy_between_plateaus_is_level_gap(g1, g2):
    # vertical bands alone bridge two plateaus, so the distance is the
    # smaller of the level gap and 1
    d = levy_dist(Plateau(g1), Plateau(g2))
    assert d == pytest.approx(min(abs(g1 - g2), 1.0), abs=1e-8)


# ------------------------------------------------------------ scaling

def test_scale_arg_on_steps():
    assert eps(2.0).scale_arg(3.0) == eps(6.0)


def test_scale_arg_roundtrip_exact():
    for f in (eps(1.5), Plateau(0.3), Ratio(2.0)):
        assert f.scale_arg(2.0).scale_arg(0.5) == f


def test_scale_arg_on_ratio():
    assert Ratio(3.0).scale_arg(2.0) == Ratio(6.0)
    # (x/a) / ((x/a) + b) = x / (x + a b)
    f = Ratio(3.0)
    g = f.scale_arg(2.0)
    for x in (0.5, 1.0, 4.0):
        assert g.eval(x) == pytest.approx(f.eval(x / 2.0))


def test_scale_arg_drops_abscissae_that_overflow():
    assert Step((1.0, 1e308), (0.0, 0.2, 0.9)).scale_arg(3.0) == Step((3.0,), (0.0, 0.2))
    assert Grid((1.0, 1e308), (0.2, 0.5)).scale_arg(3.0) == Grid((3.0,), (0.2,))
    assert Grid((1e308,), (0.5,)).scale_arg(3.0) == EPS_INF
    # x / (x + beta) tends to 0 at every x as beta grows
    assert Ratio(1e154).scale_arg(1e300) == EPS_INF


def test_scale_arg_takes_the_limit_when_scaling_underflows():
    # jumps that round onto one abscissa merge, keeping the higher level
    assert Step((1e-300, 2e-300), (0.0, 0.5, 1.0)).scale_arg(1e-30) == EPS0
    assert Step((1e-300, 1.0), (0.0, 0.5, 1.0)).scale_arg(1e-30) == Step((0.0, 1e-30), (0.0, 0.5, 1.0))
    assert Grid((1e-300, 2e-300), (0.2, 0.5)).scale_arg(1e-30) == Grid((0.0,), (0.5,))
    assert Grid((1e-300, 1.0), (0.0, 0.5)).scale_arg(1e-30) == Grid((1e-30,), (0.5,))
    # x / (x + beta) tends to 1 at every x > 0 as beta shrinks
    assert Ratio(1e-300).scale_arg(1e-300) == EPS0


def _grid_scale_arg_by_arrays(g: Grid, a: float):
    """make_step's pass on a Grid's arrays: jumps that add no height or
    overflow drop, and those that round onto one abscissa merge into the
    first.  The reference for the Step route that ``Grid.scale_arg``
    takes."""
    xs, levels = g.arrays
    with np.errstate(over="ignore"):
        bps = xs * a
    keep = (levels[1:] > levels[:-1]) & (bps < INF)
    bps, vs = bps[keep], levels[1:][keep]
    new = bps[1:] != bps[:-1]
    return Grid(bps[np.insert(new, 0, True)], vs[np.append(new, True)]) if bps.size else EPS_INF


def test_grid_scale_arg_equals_the_step_route():
    # the Step route gives the Grid of the arrays scaled directly: zero-
    # height jumps drop, overflowed ones too, and jumps that round onto
    # one abscissa merge, to the sign bit of a zero abscissa
    rng = np.random.default_rng(23)
    scales = (1e-300, 1e-30, 0.5, 3.0, 1e300)
    for k in range(4000):
        n = int(rng.integers(1, 40))
        xs = np.sort(rng.choice(np.geomspace(1e-320, 1e308, 4000), size=n, replace=False))
        if k % 4 == 0:
            xs[0] = rng.choice((0.0, -0.0))
        vs = np.sort(rng.choice(np.arange(0, 9), size=n)) / 8.0  # repeated values
        g = Grid(xs, vs)
        a = scales[k % 5] if k % 2 else float(10.0 ** rng.uniform(-300.0, 300.0))
        got, want = g.scale_arg(a), _grid_scale_arg_by_arrays(g, a)
        assert type(got) is type(want) and got == want, (g, a)
        assert np.array_equal(np.signbit(got.breakpoints), np.signbit(want.breakpoints))


def test_rising_list_is_make_step_on_ascending_jumps():
    # the loop kernels' pass builds make_step's Step from ascending jumps,
    # to the sign bit of a zero abscissa (the first of equal ones stays)
    pinned = [  # jumps, levels, and the Step's breakpoints and levels
        ((1.0, INF), (0.5, 1.0), (1.0,), (0.0, 0.5)),  # jumps from +inf on drop
        ((1.0, INF, INF), (0.25, 0.5, 1.0), (1.0,), (0.0, 0.25)),
        ((-0.0, 1.0), (0.5, 1.0), (-0.0, 1.0), (0.0, 0.5, 1.0)),  # the sign bit of -0.0 stays
        ((-0.0, 0.0, 2.0), (0.25, 0.5, 1.0), (-0.0, 2.0), (0.0, 0.5, 1.0)),  # equal abscissae merge into the first
        ((1.0, 1.0, 1.0), (0.25, 0.25, 0.75), (1.0,), (0.0, 0.75)),
        ((0.5, 2.0), (1.5, 2.0), (0.5,), (0.0, 1.0)),  # levels above 1 clip
        ((0.5, 1.0, 2.0), (0.0, 0.0, 0.5), (2.0,), (0.0, 0.5)),  # zero-height jumps drop
        ((0.5, 1.0, 2.0), (0.5, 0.5, 0.5), (0.5,), (0.0, 0.5)),
        ((1.0, 2.0, 3.0), (0.5, 0.25, 0.75), (1.0, 3.0), (0.0, 0.5, 0.75)),  # a lower level adds no jump
        ((), (), (), (0.0,)),
    ]
    for xs, vs, bps, levels in pinned:
        assert repr(distfn._rising_list(xs, vs)) == repr(Step(bps, levels)), (xs, vs)
    cases = [(xs, vs) for xs, vs, _, _ in pinned]
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(0, 12))
        xs = np.sort(rng.choice([-0.0, 1e-300, 0.5, 1.0, 3.0, _LARGEST, INF], size=n))
        vs = np.sort(rng.choice([0.0, 0.25, 0.5, 1.0, 1.5], size=n))
        cases.append((tuple(xs.tolist()), tuple(vs.tolist())))
    for xs, vs in cases:
        assert repr(distfn._rising_list(xs, vs)) == repr(make_step(xs, (0.0, *vs))), (xs, vs)


def test_step_scale_arg_equals_make_step_of_the_scaled_jumps():
    # scaled jumps that underflow to 0 or round onto one abscissa merge,
    # and those that overflow drop, as make_step does
    rng = np.random.default_rng(29)
    steps = [EPS0, eps(1.0), Step((-0.0, 1e-300, 1.0), (0.0, 0.25, 0.5, 1.0)),
             Step((0.0, 1.0, 2.0), (0.0, 0.0, 0.5, 0.5)), Step((1e-310, 1.0, _LARGEST), (0.0, 0.5, 0.75, 1.0))]
    for _ in range(200):
        n = int(rng.integers(1, 20))
        bps = np.sort(rng.choice(np.geomspace(1e-310, 1e308, 4000), size=n, replace=False))
        steps.append(Step(tuple(bps.tolist()), (0.0, *(np.sort(rng.choice(np.arange(0, 9), size=n)) / 8.0).tolist())))
    for s in steps:
        for a in (1e-300, 1e-30, 0.5, 3.0, 1e300):
            want = make_step([b * a for b in s.breakpoints], s.levels)
            assert repr(s.scale_arg(a)) == repr(want), (s, a)


def test_scale_arg_rejects_nonpositive():
    with pytest.raises(ValueError):
        eps(1.0).scale_arg(0.0)
    with pytest.raises(ValueError):
        eps(1.0).scale_arg(-2.0)


@given(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(0.25, 4.0))
def test_scale_arg_preserves_order(c, d, a):
    f, g = eps(max(c, d)), eps(min(c, d))  # f <= g
    assert compare_leq(f.scale_arg(a), g.scale_arg(a), 0.0).holds


# ------------------------------------------------------------ properness

def test_proper_membership():
    assert eps(5.0).in_d_plus()
    assert Ratio(10.0).in_d_plus()
    assert not Plateau(math.exp(-1.0)).in_d_plus()
    assert not EPS_INF.in_d_plus()
    assert not Step((1.0,), (0.0, 0.999)).in_d_plus()


# ------------------------------------------------------------ invariants

def _random_distfns(rng, n):
    out = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            bps = np.sort(rng.uniform(0.0, 10.0, size=rng.integers(1, 5)))
            lvls = np.sort(rng.uniform(0.0, 1.0, size=len(bps)))
            out.append(make_step(bps, [0.0, *lvls]))
        elif kind == 1:
            out.append(Plateau(float(rng.uniform(0.0, 1.0))))
        elif kind == 2:
            out.append(Ratio(float(rng.uniform(0.1, 10.0))))
        else:
            xs = np.sort(rng.uniform(0.01, 20.0, size=8))
            vs = np.sort(rng.uniform(0.0, 1.0, size=8))
            out.append(Grid(tuple(xs), tuple(vs)))
    return out


def test_construction_invariants_on_dense_probes():
    rng = np.random.default_rng(42)
    xs = np.geomspace(1e-4, 64.0, 1024)
    for f in _random_distfns(rng, 40):
        vals = f.eval_many(xs)
        assert np.all(np.diff(vals) >= -1e-15), f
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert f.eval(0.0) == 0.0
        assert f.eval(INF) == 1.0


def test_maximal_element_dominates_random_constructions():
    rng = np.random.default_rng(43)
    for f in _random_distfns(rng, 40):
        assert compare_leq(f, EPS0, 0.0).holds


def test_order_transitivity_on_sampled_triples():
    rng = np.random.default_rng(44)
    fns = _random_distfns(rng, 15)
    for f in fns:
        for g in fns:
            for h in fns:
                if compare_leq(f, g, 1e-12).holds and compare_leq(g, h, 1e-12).holds:
                    assert compare_leq(f, h, 1e-9).holds


# ------------------------------------------------------------ pointwise min

def test_pointwise_min_of_steps_is_exact():
    assert pointwise_min([eps(1.0), eps(2.0)]) == eps(2.0)
    m = pointwise_min([Step((1.0, 3.0), (0.0, 0.5, 1.0)), eps(2.0)])
    assert m.eval(1.5) == 0.0
    assert m.eval(2.5) == 0.5
    assert m.eval(3.5) == 1.0
    # bps[-1] + 1 rounds onto a jump at 2^53 or above; the last level is
    # the smaller plateau
    assert pointwise_min([eps(2.0**60), eps(2.0**60)]) == eps(2.0**60)
    assert pointwise_min([eps(2.0**53), eps(1.0)]) == eps(2.0**53)
    assert max_tf(eps(1e17), EPS0) == eps(1e17)
    assert max_tf(EPS0, eps(1e308)) == eps(1e308)
    assert pointwise_min([Step((1e17,), (0.0, 0.5)), Plateau(0.7)]) == Step((1e17,), (0.0, 0.5))


def test_pointwise_min_with_a_grid_operand_stays_a_grid():
    m = pointwise_min([Grid((1.0, 2.0), (0.5, 0.8)), eps(3.0)])
    assert type(m) is Grid
    assert (m.breakpoints, m.levels) == ((3.0,), (0.0, 0.8))
    # so it is not read as attaining its plateau; it compares at
    # tolerance 0 as every pair does
    assert _attainment_threshold(m, 0.8) is None
    below = Step((3.0,), (0.0, 0.8 - 1e-7))
    c = compare_leq(m, below)
    assert not c.holds and c.gap == pytest.approx(1e-7)
    assert compare_leq(m, below, 1e-6).holds
    # a minimum that is 0 at every finite x is eps(inf) exactly
    assert pointwise_min([Grid((1.0,), (0.5,)), EPS_INF]) is EPS_INF


def test_step_arrays_are_built_once_and_read_only():
    g = Grid((0.5, 1.0, 2.0), (0.2, 0.4, 0.7))
    bps, levels = g.arrays
    assert g.arrays[0] is bps and g.arrays[1] is levels
    assert bps.tolist() == list(g.breakpoints) and levels.tolist() == list(g.levels)
    with pytest.raises(ValueError, match="read-only"):
        levels[0] = 1.0
    assert EPS_INF.eval_many(np.array([1.0, INF])).tolist() == [0.0, 1.0]


def test_a_sampled_minimum_has_the_least_operand_plateau():
    # the sampled Grid reads the powers of 2 up to 2^1023 and ends with a
    # jump at the largest float to the least plateau; it stays below every
    # operand's computed values, which are nondecreasing on floats
    prod = get_tnorm("prod")
    chain = sup_conv(prod, Ratio(1.0), Ratio(2.0))
    walk = sup_conv(prod, Plateau(0.7), Ratio(1.0))
    cases = ([Ratio(1.0), eps(1.0)], [Ratio(3.0), Plateau(0.4)], [chain, Ratio(5.0)], [walk, Ratio(2.0), chain],
             [Ratio(1e300), eps(1e308)], [Ratio(1.0), Step((_LARGEST,), (0.0, 0.5))], [chain, EPS_INF])
    for fns in cases:
        m = pointwise_min(fns)
        assert type(m) is Grid and m.plateau == min(f.plateau for f in fns), fns
        assert m.xs[-1] == _LARGEST and m.xs[-2] >= 2.0**1023
        xs = np.array([*m.xs, *np.geomspace(1e-3, 1e300, 301)])
        assert np.all(m.eval_many(xs) <= np.min([f.eval_many(xs) for f in fns], axis=0)), fns
    assert max_tf(Ratio(1.0), eps(1.0)).plateau == 1.0 and len(max_tf(Ratio(1.0), eps(1.0)).xs) == 2493


def test_pointwise_min_of_ratios():
    assert pointwise_min([Ratio(1.0), Ratio(4.0), Ratio(2.0)]) == Ratio(4.0)


def test_pointwise_min_mixed_is_lower_bound():
    fns = [Ratio(2.0), Plateau(0.6), eps(1.0)]
    m = pointwise_min(fns)
    for f in fns:
        assert compare_leq(m, f, 1e-6).holds


def test_max_tf_examples():
    assert max_tf(eps(1.0), eps(2.0)) == eps(2.0)
    f = Step((0.5, 2.0), (0.0, 0.25, 1.0))
    assert distfn_equal(max_tf(f, EPS0), f)
