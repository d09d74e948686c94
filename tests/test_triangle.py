"""Triangle functions: exact step convolutions and the lazy kernel against
reference kernels and brute-force oracles, unit and dominance laws, and
the law suite."""

import os
import subprocess
import sys

import numpy as np
import pytest

import pncalc

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
    _BLOCK,
    _FRACTIONS,
    LazyConv,
    TriangleFn,
    _probe_array,
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


# The lazy kernel that preceded the row blocks, kept as the reference: it
# builds the whole rows x candidates matrix and reads F at every candidate.

def _lazy_reference_kernel(self, xs):
    xs = np.asarray(xs, dtype=float)
    col = xs[:, None]
    blocks = [col * _FRACTIONS[None, :]]
    pf = _probe_array(self.f)
    if pf.size:
        blocks.append(np.broadcast_to(pf[None, :], (xs.size, pf.size)))
    pg = _probe_array(self.g)
    if pg.size:
        blocks.append(col - np.concatenate([pg, np.nextafter(pg, -INF)])[None, :])
    ss = np.clip(np.concatenate(blocks, axis=1), 0.0, col)
    fv = self.f.eval_many(ss.ravel()).reshape(ss.shape)
    gv = self.g.eval_many((col - ss).ravel()).reshape(ss.shape)
    op = self.tnorm.fn_np if self.maximize else self.tnorm.conorm.fn_np
    vals = op(fv, gv)
    out = vals.max(axis=1) if self.maximize else vals.min(axis=1)
    return np.clip(out, 0.0, 1.0)


def _lazy_reference_in_rows(self, xs):
    # rows are independent in the reference, so feeding it 256 at a time
    # keeps its values and bounds its memory at depth 3
    parts = [_lazy_reference_kernel(self, xs[i:i + 256]) for i in range(0, xs.size, 256)]
    return np.concatenate(parts)


def _on_reference(monkeypatch, run):
    # the reference replaces the kernel at every nesting level
    with monkeypatch.context() as m:
        m.setattr(LazyConv, "_eval_pos_many", _lazy_reference_in_rows)
        return run()


_GRID = Grid((0.3, 0.5, 1.0, 2.5), (0.1, 0.3, 0.9, 0.95))
_LAZY_PAIRS = {
    "ratio-ratio": (Ratio(0.7), Ratio(1.3)),
    "ratio-plateau": (Ratio(0.7), Plateau(0.6)),
    "grid-ratio": (_GRID, Ratio(1.3)),
    "step-ratio": (eps(1.0), Ratio(1.3)),
    "plateau-grid": (Plateau(0.6), _GRID),
}
# more rows than three blocks hold for any operands, so the seams are crossed
_LONG = np.geomspace(1e-3, 64.0, 3 * (_BLOCK // _FRACTIONS.size) + 100)


def _cut_xs(f, g):
    """Abscissae around the kernel's cut, shuffled with some repeated: a
    tiny one below every probe point, each left (pf) and right (pg) probe
    entry of the kernel with its neighbours one ulp either side, and two
    above every probe point."""
    pg = _probe_array(g)
    entries = np.concatenate([_probe_array(f), pg, np.nextafter(pg, -INF)])
    cut = np.concatenate([np.nextafter(entries, -INF), entries, np.nextafter(entries, INF)])
    head = np.concatenate([[1e-300], cut[cut > 0.0], [2.0 * entries.max(), 1e6]])
    rng = np.random.default_rng(0)
    return rng.permutation(np.concatenate([head, head[::5]]))


def _decade_xs(f, g):
    """One block of rows per decade from 1e-3 to 100, so that the block
    seams fall between decades."""
    rows = _BLOCK // (_FRACTIONS.size + _probe_array(f).size + 2 * _probe_array(g).size)
    return np.concatenate([np.geomspace(10.0**k, 10.0**(k + 1), rows, endpoint=False)
                           for k in range(-3, 2)])


@pytest.mark.parametrize("maximize", [True, False], ids=["sup", "inf"])
@pytest.mark.parametrize("name", ["min", "prod", "lukasiewicz", "t2"])
def test_lazy_kernel_equals_reference_kernel(monkeypatch, name, maximize):
    t = get_tnorm(name)
    for label, (f, g) in _LAZY_PAIRS.items():
        d1 = LazyConv(t, f, g, maximize)
        xs = _cut_xs(f, g)
        cases = {
            "depth 1": (d1, np.concatenate([xs, _LONG])),
            "decade seams": (d1, _decade_xs(f, g)),
            "depth 2 left": (LazyConv(t, d1, Ratio(2.1), maximize), xs[:24]),
            "depth 2 right": (LazyConv(t, Ratio(2.1), d1, maximize), xs[:24]),
            "depth 3 left": (LazyConv(t, LazyConv(t, d1, Ratio(2.1), maximize), Ratio(0.4), maximize),
                             np.array([0.9, 3.7])),
        }
        for depth, (r, pts) in cases.items():
            got = r.eval_many(pts)
            want = _on_reference(monkeypatch, lambda: r.eval_many(pts))
            assert np.array_equal(got, want), (label, depth)
        # one abscissa per call tops its own block, so the cut falls at it
        one_by_one = lambda: [d1.eval(float(x)) for x in xs]
        assert one_by_one() == _on_reference(monkeypatch, one_by_one), label
        got = d1.materialize()
        assert got.vs == _on_reference(monkeypatch, d1.materialize).vs, label
        for other in (Ratio(2.0), Plateau(0.5)):
            for a, b in ((d1, other), (other, d1)):
                assert compare_leq(a, b) == _on_reference(monkeypatch, lambda: compare_leq(a, b)), label


def test_lazy_kernel_reads_right_operand_only_below_the_cut(monkeypatch):
    # G is read only at splits that are not endpoint duplicates: 91,092
    # points, where reading every probe column took 140,756
    seen = []
    g_eval = Ratio._eval_pos_many

    def counted(self, xs):
        if self.beta == 1.3:
            seen.append(xs.size)
        return g_eval(self, xs)

    monkeypatch.setattr(Ratio, "_eval_pos_many", counted)
    sup_conv(get_tnorm("min"), Ratio(0.7), Ratio(1.3)).eval_many(np.geomspace(1e-3, 64.0, 1024))
    assert sum(seen) == 91092


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
