"""Distribution-function representations: evaluation, order, scaling,
weak-convergence distance, and membership in the proper subset."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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

INF = math.inf


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


def test_ratio_closed_form():
    f = from_spec("ratio:2")
    assert f.eval(2.0) == pytest.approx(0.5)  # x / (x + 2) at x = 2
    assert f.eval(0.0) == 0.0
    assert f.plateau == 1.0


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


# ------------------------------------------------------------ evaluation

def test_left_continuity_at_jump():
    e1 = eps(1.0)
    assert e1.eval(1.0) == 0.0
    assert e1.eval(1.0 + 1e-9) == 1.0


def test_left_limit_at_infinity():
    assert Plateau(math.exp(-1.0)).left_limit(INF) == pytest.approx(0.367879441, abs=1e-9)
    assert Ratio(7.0).left_limit(INF) == 1.0
    assert eps(3.0).left_limit(INF) == 1.0
    assert EPS_INF.left_limit(INF) == 0.0


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
