"""Triangle functions: exact step convolutions against reference kernels
and brute-force oracles, unit and dominance laws, and the law suite."""

import numpy as np
import pytest

from pncalc.distfn import (
    EPS0,
    EPS_INF,
    INF,
    Grid,
    Plateau,
    Ratio,
    Step,
    compare_leq,
    distfn_equal,
    eps,
    make_step,
    max_tf,
)
from pncalc.tnorms import get_tnorm
from pncalc.triangle import (
    LazyConv,
    TriangleFn,
    conv_plateau,
    inf_conv,
    parse_triangle,
    random_step_fn,
    sup_conv,
    tf_law_suite,
)


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
        Plateau(0.0),  # exact form is the minimal element
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
            a, b = f.as_exact_step(), g.as_exact_step()
            for conv, ref in ((sup_conv, _sup_conv_steps), (inf_conv, _inf_conv_steps)):
                got, want = conv(t, f, g), ref(t, a, b)
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
    assert conv_plateau(TriangleFn("sup", t), Ratio(1.0), Ratio(2.0)) == 1.0
    assert conv_plateau(TriangleFn("max"), Plateau(0.3), Ratio(1.0)) == pytest.approx(0.3)


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
    # enumeration versus on-demand split search
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


def test_grid_operands_take_sampled_path():
    t = get_tnorm("prod")
    g = Grid((0.5, 1.0), (0.3, 0.9))
    r = sup_conv(t, g, eps(1.0))
    assert isinstance(r, LazyConv)
    # value just past 2.0 should combine both jumps: 0.9 * 1.0
    assert r.eval(2.1) == pytest.approx(0.9, abs=1e-6)


# ------------------------------------------------------------ law suite

def test_law_suite_passes_for_exact_kinds():
    for spec in ("sup:min", "sup:prod", "max", "inf:prod", "sup:lukasiewicz"):
        rep = tf_law_suite(parse_triangle(spec), n_samples=50, seed=7, tol=1e-12)
        assert rep.all_laws_hold, (spec, rep.to_dict())


def test_law_suite_negative_control_wrong_unit():
    rep = tf_law_suite(parse_triangle("sup:prod"), n_samples=20, seed=7, unit=eps(1.0))
    assert not rep.unit.ok
    assert rep.unit.violations  # witness operand recorded


def test_parse_triangle_rejects_malformed():
    with pytest.raises(ValueError):
        parse_triangle("sup")
    with pytest.raises(ValueError):
        parse_triangle("mid:prod")
    with pytest.raises(ValueError):
        parse_triangle("sup:bogus")
