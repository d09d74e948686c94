"""Built-in space families: norm values, axiom suite, scaling identity,
scalar monotonicity, vanishing at infinity, and the small-scalar probe."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from pncalc import pnspace
from pncalc.boundedness import classify_set, interval_rationals
from pncalc.distfn import EPS0, Plateau, Ratio, compare_leq, distfn_equal, eps
from pncalc.pnspace import (
    FAMILIES,
    MAX_DIM,
    N3_SLACK,
    AxiomReport,
    SampleSpec,
    ScalingResult,
    ScalingViolation,
    _FAMILIES,
    as_vector,
    axiom_suite,
    default_samples,
    is_zero,
    lg_probe,
    make_space,
    parse_space,
    parse_vectors,
    random_scalar_triples,
    scalar_monotonicity_check,
    serstnev_check,
    small_scalar_delta_probe,
    strong_tvs_probe,
    vec_add,
    vec_scale,
)
from pncalc.tnorms import LawCheck
from pncalc.triangle import parse_triangle


# ------------------------------------------------------------ norm values

def test_norm_closed_forms():
    assert make_space("E9", a=1.0).norm_of(1.0) == eps(0.5)
    assert make_space("E25").norm_of(4.0) == Ratio(2.0)  # |4|^(1/2) = 2
    assert make_space("E25").norm_of(4.0).eval(2.0) == pytest.approx(0.5)
    assert make_space("E12").norm_of(1.0) == Plateau(math.exp(-1.0))
    assert make_space("E21").norm_of(1.0) == Plateau(1.0 / 3.0)
    assert make_space("E27", a=2.0).norm_of(4.0) == eps(3.0)  # (2 + 4) / 2
    assert make_space("E19", dim=2).norm_of((3.0, 4.0)) == eps(5.0)
    assert make_space("E19", dim=2, base_norm="l1").norm_of((3.0, 4.0)) == eps(7.0)
    big = 2.0**600  # big * big overflows
    assert make_space("E19", dim=2).norm_of((3.0 * big, 4.0 * big)) == eps(5.0 * big)
    assert make_space("E19b", a=1.0).norm_of(1.0) == eps(0.5)


@pytest.mark.parametrize("family", FAMILIES)
def test_infinite_magnitude_gives_the_family_limit(family):
    assert make_space(family).norm_at_magnitude(math.inf) == _FAMILIES[family].limit


@pytest.mark.parametrize("family", FAMILIES)
def test_tiny_magnitude_gives_the_family_limit0(family):
    near_zero = make_space(family).norm_at_magnitude(1e-300)
    limit0 = _FAMILIES[family].limit0
    for x in (1e-6, 0.1, 0.5, 0.99, 1.5):
        assert near_zero.eval(x) == limit0.eval(x), (family, x)


def test_parse_vectors():
    assert parse_vectors("1,0;0,1") == ((1.0, 0.0), (0.0, 1.0))
    assert parse_vectors("0.5") == ((0.5,),)
    with pytest.raises(ValueError):
        parse_vectors("1,x")


def test_zero_vector_maps_to_maximal_element():
    for family in FAMILIES:
        assert make_space(family).norm_of(0.0) == EPS0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        make_space("E19", dim=2).norm_of(1.0)
    with pytest.raises(ValueError):
        make_space("E12", dim=3)


def test_dimension_is_bounded(monkeypatch):
    assert make_space("E19", dim=MAX_DIM).dim == MAX_DIM

    def no_battery(space):
        raise AssertionError("battery built before the dimension check")

    monkeypatch.setattr(pnspace, "default_samples", no_battery)
    with pytest.raises(ValueError, match=f"dimension must be <= {MAX_DIM}, got {MAX_DIM + 1}"):
        parse_space(f"E19:l2,dim={MAX_DIM + 1}")


@pytest.mark.parametrize("a", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("family", ["E9", "E19b", "E27"])
def test_parameter_a_must_be_positive_and_finite(family, a):
    with pytest.raises(ValueError, match="parameter a must be positive and finite"):
        make_space(family, a=a)


def test_parse_space_round_trip():
    s = parse_space("E19b:a=2,l1,dim=3")
    assert (s.family, s.a, s.base_norm, s.dim) == ("E19b", 2.0, "l1", 3)
    with pytest.raises(ValueError):
        parse_space("E19:bogus")
    with pytest.raises(ValueError):
        parse_space("E99")


def test_negation_symmetry_exact():
    for family in FAMILIES:
        space = make_space(family)
        for p in (0.5, 1.0, 2.0, 8.0):
            assert space.norm_of(p) == space.norm_of(-p)


def test_norm_image_properness_split():
    # proper-valued families versus plateau families with mass at infinity
    for family in ("E9", "E19", "E19b", "E25", "E27"):
        assert make_space(family).norm_of(2.0).in_d_plus()
    for family in ("E12", "E21"):
        assert not make_space(family).norm_of(2.0).in_d_plus()


def test_monotone_in_magnitude():
    # the contract on Family.norm, from the origin out to the limit
    magnitudes = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, math.inf)
    for family in FAMILIES:
        for a in (0.5, 1.0, 3.0):
            space = make_space(family, a=a)
            for lo, hi in zip(magnitudes, magnitudes[1:]):
                c = compare_leq(space.norm_at_magnitude(hi), space.norm_at_magnitude(lo), 0.0)
                assert c.holds, (family, a, lo, hi, c.witness)


# ------------------------------------------------------------ axiom suite

def test_axioms_hold_for_all_builtin_pairings():
    for family in FAMILIES:
        rep = axiom_suite(make_space(family))
        assert rep.all_hold, (family, rep.to_dict())
        assert rep.tau_le_tau_star.ok


def test_e12_axioms_with_product_pairing():
    space = make_space("E12", tau="sup:prod", tau_star="inf:prod")
    rep = axiom_suite(space, tol=1e-9)
    assert rep.all_hold


def test_e19_with_max_tau_fails_n3():
    # tau = pointwise min makes N3 demand eps(2) >= eps(1), which flips
    space = make_space("E19", tau="max", tau_star="max")
    rep = axiom_suite(space)
    assert not rep.n3.ok
    witnesses = [(p, q) for p, q, _ in rep.n3.violations]
    assert any(p == q and p != (0.0,) for p, q in witnesses)


def test_axiom_suite_rejects_empty_battery():
    with pytest.raises(ValueError):
        axiom_suite(make_space("E12"), SampleSpec(vectors=()))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-12, 1.0])
def test_verdict_tolerance_must_lie_in_the_unit_interval(tol):
    space = make_space("E25")
    for check in (axiom_suite, serstnev_check):
        with pytest.raises(ValueError, match="tolerance must be finite and in"):
            check(space, tol=tol)
    with pytest.raises(ValueError, match="tolerance must be finite and in"):
        classify_set(space, interval_rationals(1.0, 2.0), tol=tol)


# The axiom suite and the scaling check as they compared every vector
# pair, norm by norm; the magnitude-keyed versions must equal them.

def _reference_axiom_suite(space, samples=None, tol=1e-9):
    if samples is None:
        samples = default_samples(space)
    if not samples.vectors:
        raise ValueError("sample battery must be nonempty")
    norms = {p: space.norm_of(p) for p in samples.vectors}

    n1_v = []
    if not distfn_equal(space.norm_of(space.zero), EPS0, tol):
        n1_v.append(("theta", space.zero))
    for p, f in norms.items():
        if not is_zero(p) and distfn_equal(f, EPS0, tol):
            n1_v.append(("nonzero maps to unit step", p))

    n2_v = [(p,) for p, f in norms.items() if not distfn_equal(space.norm_of(vec_scale(-1.0, p)), f, tol)]

    n3_v = []
    for p, fp in norms.items():
        for q, fq in norms.items():
            lhs = space.tau(fp, fq)
            # the largest norm the exact |p + q| can have
            rhs = space.norm_at_magnitude(space.magnitude(vec_add(p, q)) * (1.0 - N3_SLACK))
            c = compare_leq(lhs, rhs, tol)
            if not c.holds:
                n3_v.append((p, q, c.witness))

    n4_v = []
    for p, fp in norms.items():
        for lam in samples.lambdas:
            rhs = space.tau_star(space.norm_of(vec_scale(lam, p)), space.norm_of(vec_scale(1.0 - lam, p)))
            c = compare_leq(fp, rhs, tol)
            if not c.holds:
                n4_v.append((p, lam, c.witness))

    order_v = []
    pairs = list(norms.values())
    for f, g in zip(pairs, pairs[1:] + pairs[:1]):
        c = compare_leq(space.tau(f, g), space.tau_star(f, g), tol)
        if not c.holds:
            order_v.append((c.witness,))

    return AxiomReport(
        n1=LawCheck(not n1_v, tuple(n1_v[:3])),
        n2=LawCheck(not n2_v, tuple(n2_v[:3])),
        n3=LawCheck(not n3_v, tuple(n3_v[:3])),
        n4=LawCheck(not n4_v, tuple(n4_v[:3])),
        tau_le_tau_star=LawCheck(not order_v, tuple(order_v[:3])),
    )


def _reference_serstnev_check(space, samples=None, tol=1e-9):
    if samples is None:
        samples = default_samples(space)
    violations = []
    for alpha in samples.alphas:
        for sgn in (1.0, -1.0):
            av = sgn * alpha
            if av == 0.0:
                continue
            for p in samples.vectors:
                lhs = space.norm_of(vec_scale(av, p))
                rhs = space.norm_of(p).scale_arg(abs(av))
                fwd = compare_leq(lhs, rhs, tol)
                bwd = compare_leq(rhs, lhs, tol)
                if not (fwd.holds and bwd.holds):
                    x = fwd.witness if fwd.witness is not None else bwd.witness
                    violations.append(ScalingViolation(av, p, x, lhs, rhs))
    return ScalingResult(not violations, tuple(violations))


_KEYED_SPACES = (
    [f"{family}:a={a}" if _FAMILIES[family].reads_a else family for family in FAMILIES for a in (0.5, 1)]
    + [f"{family}:a=1,{base},dim={dim}" for family in ("E19", "E19b") for base in ("l1", "l2", "linf") for dim in (2, 3)]
)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("spec", sorted(set(_KEYED_SPACES)))
def test_keyed_battery_equals_the_pairwise_scan(spec, tol):
    space = parse_space(spec)
    assert axiom_suite(space, tol=tol) == _reference_axiom_suite(space, tol=tol)
    assert serstnev_check(space, tol=tol) == _reference_serstnev_check(space, tol=tol)


def test_keyed_battery_holds_n3_at_the_rounded_magnitude():
    # ||p + q|| rounds one ulp above ||p|| + ||q|| for p = (0.5, 0.5, 0.5),
    # q = (2, 2, 2), and the exact step check of eps(||p|| + ||q||) against
    # eps(||p + q||) fails by 1 there; N3 reads the norm at the computed
    # magnitude less N3_SLACK, which holds
    space = parse_space("E19:l2,dim=3")
    p, q = (0.5, 0.5, 0.5), (2.0, 2.0, 2.0)
    m_p, m_q, m_sum = space.magnitude(p), space.magnitude(q), space.magnitude(vec_add(p, q))
    assert m_sum == math.nextafter(m_p + m_q, math.inf)
    assert not compare_leq(eps(m_p + m_q), eps(m_sum)).holds
    assert compare_leq(eps(m_p + m_q), eps(m_sum * (1.0 - N3_SLACK))).holds
    rep = axiom_suite(space)
    assert rep == _reference_axiom_suite(space)
    assert rep.all_hold and rep.tau_le_tau_star.ok


def test_keyed_battery_with_non_default_triangle_functions():
    for space in (make_space("E19", tau="max", tau_star="max"), make_space("E12", tau="sup:prod", tau_star="inf:prod")):
        assert axiom_suite(space) == _reference_axiom_suite(space)


_ODD_VECTORS = {
    # signed zeros, equal magnitudes in different directions, and huge
    # components whose sums overflow the l1 and l2 magnitudes (the scalars
    # below keep every argument-scaled norm finite)
    1: ((-0.0,), (0.0,), (3.0,), (-3.0,), (0.75,), (1e308,), (-1e308,), (5e-324,)),
    2: ((-0.0, 0.0), (0.0, -0.0), (3.0, 4.0), (4.0, -3.0), (-5.0, 0.0), (0.0, 5.0),
        (1e308, 1e308), (-1e308, 2.0), (5e-324, 0.0), (0.5, 0.5)),
}


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("spec", ["E9:a=1", "E12", "E21", "E25", "E27:a=1", "E19:l1,dim=2", "E19:l2,dim=2", "E19b:a=1,linf,dim=2"])
def test_keyed_battery_on_a_custom_sample(spec, tol):
    space = parse_space(spec)
    samples = SampleSpec(vectors=_ODD_VECTORS[space.dim], lambdas=(0.0, 0.5, 1.0 / 3.0, 1.0), alphas=(0.0, 0.5, -1.25, 1.0))
    assert axiom_suite(space, samples, tol) == _reference_axiom_suite(space, samples, tol)
    assert serstnev_check(space, samples, tol) == _reference_serstnev_check(space, samples, tol)


def _counting_compare(monkeypatch):
    calls = [0]
    compare = pnspace.compare_leq

    def counted(*args, **kwargs):
        calls[0] += 1
        return compare(*args, **kwargs)

    monkeypatch.setattr(pnspace, "compare_leq", counted)
    return calls


def test_step_norms_are_decided_on_rows_and_only_witnesses_are_read(monkeypatch):
    calls = _counting_compare(monkeypatch)
    for spec, tau, tau_star in (("E19:l2,dim=3", None, None), ("E12", "sup:prod", "inf:prod"), ("E19", "max", "max"),
                                ("E9:a=1", "sup:lukasiewicz", "sup:prod")):
        space = parse_space(spec, tau, tau_star)
        counts = []
        for _ in range(2):
            calls[0] = 0
            rep = axiom_suite(space)
            counts.append(calls[0])
        failing = [c for c in (rep.n3, rep.n4, rep.tau_le_tau_star) if not c.ok]
        # no comparison where every law holds, at most three witness
        # reads a failing law, and a second call costs what the first did:
        # no cache outlives a call
        assert counts[0] == counts[1] <= 3 * len(failing), (spec, counts)
        assert (counts[0] == 0) == (not failing), spec


def test_each_distinct_magnitude_key_is_compared_once_per_call(monkeypatch):
    # a Ratio family's axiom battery, and the scaling check of any family,
    # compare once per distinct key of magnitudes
    space = make_space("E25")
    samples = default_samples(space)
    vs, m = samples.vectors, space.magnitude
    n3_keys = {(m(p), m(q), m(vec_add(p, q))) for p in vs for q in vs}
    n4_keys = {(m(p), m(vec_scale(lam, p)), m(vec_scale(1.0 - lam, p))) for p in vs for lam in samples.lambdas}
    ms = [m(p) for p in vs]
    order_keys = set(zip(ms, ms[1:] + ms[:1]))
    # N1 and N2 compare both ways, nu_p with eps_0 = nu_0 and nu_{-p} with
    # nu_p, but for the norm at one magnitude, which equals itself
    pairs = [(x, 0.0) for x in [0.0, *ms]] + [(m(vec_scale(-1.0, p)), m(p)) for p in vs]
    equal_keys = {k for x, y in pairs if x != y for k in ((x, y), (y, x))}
    calls = _counting_compare(monkeypatch)
    counts = []
    for _ in range(2):
        calls[0] = 0
        axiom_suite(space)
        counts.append(calls[0])
    # and a second call costs what the first did: no cache outlives a call
    assert counts == [len(n3_keys) + len(n4_keys) + len(order_keys) + len(equal_keys)] * 2

    space = parse_space("E19:l2,dim=3")
    samples = default_samples(space)
    vs, m = samples.vectors, space.magnitude
    scaling_keys = {(m(vec_scale(s * a, p)), m(p), a) for a in samples.alphas for s in (1.0, -1.0) for p in vs}
    counts = []
    for _ in range(2):
        calls[0] = 0
        serstnev_check(space)
        counts.append(calls[0])
    assert counts == [2 * len(scaling_keys)] * 2
    assert len(scaling_keys) < 2 * len(samples.alphas) * len(vs)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("family, tau, tau_star, law", [
    ("E9", "sup:lukasiewicz", "sup:prod", "n4"),
    ("E12", "max", "sup:min", "n3"),
    ("E19", "max", "sup:prod", "tau_le_tau_star"),
    ("E25", "max", "sup:prod", "n3"),
])
def test_a_failing_law_keeps_the_scan_witnesses(family, tau, tau_star, law, tol):
    space = make_space(family, tau=tau, tau_star=tau_star)
    rep = axiom_suite(space, tol=tol)
    assert not getattr(rep, law).ok and getattr(rep, law).violations
    assert rep == _reference_axiom_suite(space, tol=tol)


@pytest.mark.parametrize("family", FAMILIES)
def test_norm_rows_equal_the_packed_norms(family):
    from pncalc.triangle import _pack

    for a in (0.5, 1.0, 1e-300):
        space = make_space(family, a=a)
        ms = [0.0, 5e-324, 1e-300, 0.25, 1.0, 3.0, 1e10, 1e300, 1.7976931348623157e308, math.inf]
        norms = [space.norm_at_magnitude(m) for m in ms]
        if not space.step_norms:
            assert all(isinstance(f, Ratio) for f in norms[1:-1])
            continue
        rows = space.norm_rows(np.array(ms))
        for got, want in zip(rows, _pack(norms)):
            assert got.tolist() == want.tolist() and np.array_equal(np.signbit(got), np.signbit(want)), (a, got, want)
        with pytest.raises(ValueError) as caught:
            space.norm_rows(np.array([1.0, math.nan]))
        with pytest.raises(ValueError, match=re.escape(str(caught.value))):
            space.norm_at_magnitude(math.nan)


def test_a_threshold_that_overflows_gives_the_limit_row():
    space = make_space("E27", a=1e-300)  # (a + m) / a overflows from m = 1.8e8 on
    jumps, levels = space.norm_rows(np.array([1e10]))
    assert space.norm_at_magnitude(1e10) == _FAMILIES["E27"].limit
    assert (jumps.tolist(), levels.tolist()) == ([[math.inf]], [[0.0, 0.0]])


def _odd_components(rng, n, dim):
    """Mixed-scale components with signed zeros, subnormals and values
    whose sums overflow, and a few infinities and NaNs."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7976931348623157e308, 1.0, -1.0,
                        math.inf, -math.inf, math.nan])
    vs = rng.choice([-1.0, 1.0], (n, dim)) * 10.0 ** rng.uniform(-320, 308, (n, dim))
    pick = rng.random((n, dim)) < 0.3
    vs[pick] = rng.choice(special, pick.sum())
    # terms of one scale, whose sum depends on the order of the additions
    alike = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** rng.uniform(-5, 5, (n, 1))
    return np.concatenate((vs, alike))


@pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 64])
@pytest.mark.parametrize("base", ["l1", "l2", "linf"])
def test_magnitudes_equal_the_scalar_magnitude(base, dim):
    space = make_space("E19", dim=dim, base_norm=base)
    rng = np.random.default_rng(dim)
    vs = np.concatenate((_odd_components(rng, 400, dim), np.full((1, dim), 1e308), np.full((1, dim), -0.0),
                         np.full((1, dim), 5e-324)))
    want = [repr(space.magnitude(tuple(v))) for v in vs.tolist()]
    assert [repr(m) for m in space.magnitudes(vs).tolist()] == want


def test_the_axiom_battery_at_the_dimension_bound_holds_in_bounded_memory():
    # 651 vectors and 423,801 pairs: their sums are read a block of p at a
    # time, so only the n^2 magnitudes and no n^2 dim array are held
    space = parse_space(f"E19:l2,dim={MAX_DIM}")
    tracemalloc.start()
    try:
        rep = axiom_suite(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_hold and rep.tau_le_tau_star.ok
    assert peak < 12e6, peak


# ------------------------------------------------------------ scaling identity

def test_scaling_identity_holds_for_homogeneous_steps():
    assert serstnev_check(make_space("E19")).holds
    assert serstnev_check(make_space("E19", dim=2)).holds


@pytest.mark.parametrize("name, vector, alpha", [
    ("E27", 1e308, 3.0),
    ("E19", 1e308, 3.0),
    ("E25", 1e308, 1e300),
])
def test_scaling_identity_decided_when_the_scaled_norm_overflows(name, vector, alpha):
    # |alpha p| overflows, so nu_{alpha p} is its limit eps(inf), and
    # scaling the argument of nu_p overflows to the same limit
    rep = serstnev_check(make_space(name), SampleSpec(vectors=((vector,),), alphas=(alpha,)))
    assert rep.holds


def test_scaling_identity_decided_when_scaling_underflows():
    # |alpha p| underflows to 0, so nu_{alpha p} is eps(0), and the ratio
    # scale of nu_p underflows to the same limit
    rep = serstnev_check(make_space("E25"), SampleSpec(vectors=((1e-300,),), alphas=(1e-300,)))
    assert rep.holds


def test_scaling_identity_violated_for_e9_with_expected_witness():
    rep = serstnev_check(make_space("E9", a=1.0))
    assert not rep.holds
    hit = next(v for v in rep.violations if v.alpha == 2.0 and v.p == (1.0,))
    assert hit.lhs == eps(2.0 / 3.0)  # norm of 2: threshold 2/(1+2)
    assert hit.rhs == eps(1.0)  # argument-scaled norm of 1: threshold 2*0.5
    assert 2.0 / 3.0 < hit.x <= 1.0


def test_scaling_identity_violated_for_e12():
    rep = serstnev_check(make_space("E12"))
    assert not rep.holds
    w = rep.witness
    # plateaus are scale-invariant in the argument, so any |alpha| != 1 differs
    assert abs(w.alpha) != 1.0


# ------------------------------------------------------------ scalar order

def test_scalar_monotonicity_examples():
    e9 = make_space("E9", a=1.0)
    assert compare_leq(e9.norm_of(2.0), e9.norm_of(1.0), 0.0).holds  # eps(2/3) <= eps(1/2)
    rep = scalar_monotonicity_check(e9, trials=[(1.0, 2.0, (1.0,))])
    assert rep.ok
    rep = scalar_monotonicity_check(e9, trials=[(2.0, 2.0, (1.0,))])  # equal scalars
    assert rep.ok
    e12 = make_space("E12")
    rep = scalar_monotonicity_check(e12, trials=[(0.5, 3.0, (1.0,)), (-1.0, 2.0, (0.5,))])
    assert rep.ok


def test_scalar_monotonicity_random_battery():
    for k, family in enumerate(FAMILIES):
        space = make_space(family)
        rep = scalar_monotonicity_check(space, trials=random_scalar_triples(40, seed=k), tol=1e-9)
        assert rep.ok, (family, rep.violations)


def _reference_scalar_monotonicity(space, trials, tol=1e-9):
    violations = []
    for alpha, beta, p in trials:
        p = as_vector(p, space.dim)
        c = compare_leq(space.norm_of(vec_scale(beta, p)), space.norm_of(vec_scale(alpha, p)), tol)
        if not c.holds:
            violations.append((alpha, beta, p, c.witness))
    return LawCheck(not violations, tuple(violations[:3]))


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("spec", ["E9:a=1", "E12", "E19", "E19:l1,dim=2", "E19b:a=1,linf,dim=2", "E21", "E25", "E27:a=1"])
def test_scalar_monotonicity_equals_the_per_trial_scan(spec, tol):
    space = parse_space(spec)
    dim = space.dim
    rng = np.random.default_rng(3)
    trials = [(alpha, beta, tuple(rng.uniform(-8.0, 8.0, dim).tolist())) for alpha, beta, _ in random_scalar_triples(30, 5)]
    trials += [(0.0, 0.0, (0.0,) * dim), (1e300, 1e300, (1e10,) * dim), (-0.0, 5e-324, (-0.0,) * dim)]
    assert scalar_monotonicity_check(space, trials, tol=tol) == _reference_scalar_monotonicity(space, trials, tol)
    # |alpha| > |beta| fails where the norm is not constant in the magnitude
    bad = [*trials[:5], (2.0, 1.0, (1.0,) * dim), (-4.0, 0.5, (0.5,) * dim), (3.0, 0.0, (1.0,) * dim), (8.0, 2.0, (1.0,) * dim)]
    rep = scalar_monotonicity_check(space, bad, tol=tol)
    assert rep == _reference_scalar_monotonicity(space, bad, tol)
    assert not rep.ok and len(rep.violations) == 3 and rep.violations[0][:3] == (2.0, 1.0, (1.0,) * dim)
    assert scalar_monotonicity_check(space, [], tol=tol) == LawCheck(True, ())


# ------------------------------------------------------------ vanishing probe

def test_vanishing_at_infinity_contrast():
    assert lg_probe(make_space("E12")).has_property
    assert lg_probe(make_space("E25")).has_property
    rep = lg_probe(make_space("E9", a=1.0))
    assert not rep.has_property
    # thresholds |p|/(1+|p|) stay below 1, so values at x=2 stick at 1
    assert dict(rep.failures)[2.0] == pytest.approx(1.0)
    assert not lg_probe(make_space("E19b", a=1.0)).has_property


def test_vanishing_probe_reads_the_family_limit():
    # the tail value is the limit itself, not a value at a large magnitude
    for family in ("E12", "E19", "E21", "E25", "E27"):
        rep = lg_probe(make_space(family))
        assert all(v == 0.0 for _, v in rep.tail_values), family
    rep = lg_probe(make_space("E9", a=1.0))
    assert rep.tail_values == ((0.5, 0.0), (1.0, 0.0), (2.0, 1.0), (4.0, 1.0))


def test_vanishing_for_escaping_thresholds():
    # eps(threshold)(x) drops to 0 once the threshold passes x, and the
    # plateau 1/(|p|+2) falls to 0, so these families all vanish
    assert lg_probe(make_space("E19")).has_property
    assert lg_probe(make_space("E21")).has_property
    assert lg_probe(make_space("E27", a=1.0)).has_property


# ------------------------------------------------------------ delta probe

def test_delta_probe_on_step_family():
    rep = small_scalar_delta_probe(make_space("E19"), 1.0, 0.5)
    assert rep.found
    assert rep.delta == pytest.approx(0.5, abs=1e-6)


def test_delta_probe_on_plateau_family_matches_closed_form():
    # exp(-sqrt(a)) > 0.5 iff a < (ln 2)^2
    rep = small_scalar_delta_probe(make_space("E12"), 1.0, 0.5)
    assert rep.found
    assert rep.delta == pytest.approx(math.log(2.0) ** 2, abs=1e-6)


def test_delta_probe_none_when_plateau_capped():
    # 1/(|alpha| + 2) <= 1/2 < 0.75 for every alpha, so no delta exists
    rep = small_scalar_delta_probe(make_space("E21"), 1.0, 0.25)
    assert not rep.found
    assert rep.delta is None


def test_strong_tvs_probe_separates_families():
    # Archimedean-paired families admit thresholds at every sampled (p, h)
    for family in ("E19", "E12", "E25"):
        assert strong_tvs_probe(make_space(family)).ok, family
    # the plateau family capped at 1/2 fails once 1 - h exceeds the cap
    rep = strong_tvs_probe(make_space("E21"))
    assert not rep.ok
    assert rep.violations


def _delta_grid_tvs(
    space,
    ps=((0.5,), (1.0,), (4.0,)),
    hs=(0.1, 0.25, 0.5, 0.75),
):
    """The sampled stand-in: the small-scalar threshold must exist for
    every (p, h) of a ps x hs grid."""
    failures = []
    for p in ps:
        if is_zero(as_vector(p, space.dim)):
            continue
        for h in hs:
            if not small_scalar_delta_probe(space, p, h).found:
                failures.append((p, h))
    return LawCheck(not failures, tuple(failures[:4]))


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_strong_tvs_probe_matches_the_delta_grid(a):
    for family in FAMILIES:
        space = make_space(family, a=a)
        assert strong_tvs_probe(space).ok == _delta_grid_tvs(space).ok, family


def _ladder_delta(space, p, h):
    """The per-candidate scalar ladder: each delta is vetted at 48 scalars
    up to delta, with the doubling-then-bisection search written out."""
    p = as_vector(p, space.dim)

    def ok(delta):
        alphas = delta * np.linspace(1.0 / 48, 1.0, 48)
        return all(space.norm_of(vec_scale(float(a), p)).eval(h) > 1.0 - h for a in alphas)

    if not ok(1e-9):
        return None
    lo, hi, d = 1e-9, None, 1e-6
    while d <= 2.0**20:
        if ok(d):
            lo = d
        else:
            hi = d
            break
        d *= 2.0
    if hi is None:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_delta_probe_matches_the_scalar_ladder():
    for family in FAMILIES:
        space = make_space(family)
        for p in (0.5, 4.0):
            for h in (0.1, 0.5, 0.9):
                rep = small_scalar_delta_probe(space, p, h)
                assert rep.delta == _ladder_delta(space, p, h), (family, p, h)
                assert rep.found == (rep.delta is not None)


def test_delta_probe_validates_h():
    with pytest.raises(ValueError):
        small_scalar_delta_probe(make_space("E19"), 1.0, 0.0)
    with pytest.raises(ValueError):
        small_scalar_delta_probe(make_space("E19"), 1.0, 1.0)


def test_ratio_family_convex_split_is_sharp():
    # under the dual-of-t2 inf-convolution, splitting p into lam*p and
    # (1-lam)*p reproduces nu_p exactly: the optimizer sits at s = lam*x,
    # which the candidate fractions contain for dyadic lam
    space = make_space("E25")
    for p in (1.0, 4.0):
        fp = space.norm_of(p)
        for lam in (0.25, 0.5, 0.75):
            rhs = space.tau_star(space.norm_of(lam * p), space.norm_of((1.0 - lam) * p))
            for x in (0.5, 1.0, 2.0, 8.0):
                assert rhs.eval(x) == pytest.approx(fp.eval(x), abs=1e-9), (p, lam, x)


# ------------------------------------------------------------ strengthened split

def test_scaling_families_satisfy_strengthened_split():
    # spaces passing the scaling identity also glue back exactly under
    # the sup-convolution with min
    tau_m = parse_triangle("sup:min")
    for spec in ("E19", "E19:l1,dim=2"):
        space = parse_space(spec)
        for p in default_samples(space).vectors:
            fp = space.norm_of(p)
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                lhs = tau_m(
                    space.norm_of(tuple(lam * c for c in p)),
                    space.norm_of(tuple((1.0 - lam) * c for c in p)),
                )
                assert distfn_equal(lhs, fp, 1e-12), (spec, p, lam)
