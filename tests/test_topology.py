"""Strong-topology probes: neighborhoods, convergence and Cauchy verdicts,
completeness, equivalence batteries, and the comparison constant."""

import functools
import math
import operator
import re

import numpy as np
import pytest

from pncalc import topology
from pncalc.distfn import compare_leq
from pncalc.pnspace import FAMILIES, as_vector, make_space, parse_space, vec_sub
from pncalc.topology import (
    DEFAULT_HORIZON,
    DEFAULT_LAMBDAS,
    MAX_HORIZON,
    ConvergenceReport,
    LambdaVerdict,
    SequenceSpec,
    cauchy_probe,
    check_probe_args,
    completeness_probe,
    convergence_probe,
    default_battery,
    default_coeff_samples,
    equivalence_probe,
    find_comparison_constant,
    linearly_independent,
    neighborhood_contains,
    parse_sequence,
)

HARMONIC = SequenceSpec("harmonic")
GEOMETRIC = SequenceSpec("geometric")
DECAY = SequenceSpec("geometric_decay")


# ------------------------------------------------------------ neighborhoods

def test_neighborhood_examples():
    e19 = make_space("E19")
    assert neighborhood_contains(e19, 0.0, 0.1, 0.5)  # eps(0.1)(0.5) = 1 > 0.5
    assert neighborhood_contains(e19, 0.7, 0.7, 0.01)  # q = p always inside
    e21 = make_space("E21")
    # plateau 1/2.1 = 0.476 < 0.75
    assert not neighborhood_contains(e21, 0.0, 0.1, 0.25)


def test_neighborhood_rejects_bad_level():
    with pytest.raises(ValueError):
        neighborhood_contains(make_space("E19"), 0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        neighborhood_contains(make_space("E19"), 0.0, 0.1, 1.0)


def test_neighborhood_monotone_in_level():
    space = make_space("E19b", a=1.0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = float(rng.uniform(-2.0, 2.0))
        l1, l2 = sorted(rng.uniform(0.01, 0.99, size=2))
        if neighborhood_contains(space, 0.0, q, l1):
            assert neighborhood_contains(space, 0.0, q, l2)


# ------------------------------------------------------------ convergence

def test_harmonic_convergence_index_in_step_space():
    rep = convergence_probe(make_space("E19"), HARMONIC, 0.0, (0.25,), 64)
    assert rep.per_lambda[0].n == 5  # first m with 1/m < 0.25


def test_harmonic_diverges_in_plateau_space():
    rep = convergence_probe(make_space("E21"), HARMONIC, 0.0, (0.25,), 64)
    v = rep.per_lambda[0]
    assert v.n is None
    assert v.worst_margin < 0.0  # fails at every index


def test_constant_sequence_converges_immediately():
    const = SequenceSpec("explicit", terms=((0.7,),) * 6)
    for family in ("E19", "E12", "E25"):
        rep = convergence_probe(make_space(family), const, 0.7, (0.25, 0.1), 10)
        assert all(v.n == 1 for v in rep.per_lambda)


def test_convergence_index_shrinks_as_level_grows():
    rep = convergence_probe(make_space("E19"), HARMONIC, 0.0, (0.05, 0.1, 0.25, 0.5), 64)
    ns = [v.n for v in rep.per_lambda]
    assert all(n is not None for n in ns)
    assert ns == sorted(ns, reverse=True)


def test_convergence_rejects_bad_inputs():
    with pytest.raises(ValueError):
        convergence_probe(make_space("E19"), HARMONIC, 0.0, (), 64)
    with pytest.raises(ValueError):
        convergence_probe(make_space("E19"), HARMONIC, 0.0, (1.5,), 64)


@pytest.mark.parametrize("horizon", [0, -1, MAX_HORIZON + 1])
def test_probes_reject_an_empty_horizon(horizon):
    # zero terms would otherwise yield a verdict read from nothing; past
    # the bound the work is refused before it starts
    with pytest.raises(ValueError, match="horizon"):
        convergence_probe(make_space("E19"), HARMONIC, 0.0, (0.25,), horizon)
    with pytest.raises(ValueError, match="horizon"):
        cauchy_probe(make_space("E19"), HARMONIC, (0.25,), horizon)


# ------------------------------------------------------------ cauchy

def test_harmonic_is_cauchy_in_step_space():
    rep = cauchy_probe(make_space("E19"), HARMONIC, (0.25, 0.1), 64)
    assert rep.converges
    # tail differences |1/n - 1/m| < lambda need roughly 1/lambda terms
    assert rep.verdict_at(0.25).n <= 8


def test_geometric_escape_is_not_cauchy():
    rep = cauchy_probe(make_space("E9", a=1.0), GEOMETRIC, (0.25,), 64)
    v = rep.per_lambda[0]
    assert v.n is None  # thresholds |d|/(1+|d|) >= 0.25 kill every tail
    assert not rep.converges


def test_cauchy_verdicts_follow_the_given_lambdas():
    # one verdict per given lambda, in order and with duplicates, each as
    # the probe gives it for that lambda alone
    space, lams = make_space("E19"), (0.25, 0.1, 0.25, 0.5)
    rep = cauchy_probe(space, HARMONIC, lams, 32)
    assert tuple(v.lam for v in rep.per_lambda) == lams
    for v in rep.per_lambda:
        assert v == cauchy_probe(space, HARMONIC, (v.lam,), 32).per_lambda[0]


def test_constant_sequence_is_cauchy_with_n_one():
    const = SequenceSpec("explicit", terms=((1.0,),) * 8)
    rep = cauchy_probe(make_space("E19"), const, (0.25,), 8)
    assert rep.verdict_at(0.25).n == 1


def test_convergence_implies_cauchy_on_battery():
    # empirical form: success at level lambda/2 toward a target implies the
    # pairwise check at lambda, via the triangle axiom of the space
    cases = [
        (make_space("E19"), HARMONIC, 0.0),
        (make_space("E19b", a=1.0), HARMONIC, 0.0),
        (make_space("E12"), DECAY, 0.0),
        (make_space("E25"), DECAY, 0.0),
    ]
    for space, seq, target in cases:
        for lam in (0.5, 0.25):
            conv = convergence_probe(space, seq, target, (lam / 2.0,), 64)
            if conv.converges:
                assert cauchy_probe(space, seq, (lam,), 64).converges, (space.family, lam)


def test_one_term_sequence_is_cauchy_like_its_repetition():
    # an explicit sequence repeats its last term through the horizon
    space = make_space("E9", a=1.0)
    once = cauchy_probe(space, SequenceSpec("explicit", terms=((1.0,),)), (0.25,))
    twice = cauchy_probe(space, SequenceSpec("explicit", terms=((1.0,), (1.0,))), (0.25,))
    assert once == twice
    assert once.verdict_at(0.25).n == 1
    assert once.horizon == DEFAULT_HORIZON


# ------------------------------------------------------------ reference scans

def _magnitude(space, p):
    """The base norm of the tuple p, folded over its components left to
    right as ``PNSpace.magnitudes`` folds its columns (a later |c| wins
    the max only when greater, as numpy's ``copyto`` keeps it there)."""
    if space.dim == 1 or space.base_norm == "linf":
        return max(map(abs, p))
    if space.base_norm == "l1":
        return functools.reduce(operator.add, map(abs, p))
    return math.hypot(*p)


def _margins(space, lambdas):
    """The membership margins nu(lambda) - (1 - lambda) at every lambda of
    the norm at a magnitude, memoized by magnitude."""

    @functools.cache
    def margins(m):
        f = space.norm_at_magnitude(m)
        return [f.eval(lam) - (1.0 - lam) for lam in lambdas]

    return margins


def _scan_convergence(space, seq, target, lambdas=DEFAULT_LAMBDAS, horizon=DEFAULT_HORIZON):
    """The per-term scan: the norm of every term's distance to the target
    is read at every lambda."""
    check_probe_args(lambdas, horizon)
    target = as_vector(target, space.dim)
    if seq.kind == "explicit":
        horizon = min(horizon, len(seq.terms))
    margins_at = _margins(space, lambdas)
    diffs = [margins_at(_magnitude(space, vec_sub(seq.term(m), target))) for m in range(1, horizon + 1)]
    verdicts = []
    for k, lam in enumerate(lambdas):
        margins = [row[k] for row in diffs]
        worst = min(margins)
        last_bad = max((i for i, m in enumerate(margins) if m <= 0.0), default=-1)
        if last_bad == horizon - 1:
            verdicts.append(LambdaVerdict(lam, None, worst))
        else:
            verdicts.append(LambdaVerdict(lam, last_bad + 2, worst))
    return ConvergenceReport(tuple(verdicts), horizon)


def _pair_scan_cauchy(space, seq, lambdas=DEFAULT_LAMBDAS, horizon=DEFAULT_HORIZON):
    """The pair scan: the norm of every pair's difference is read at
    every lambda."""
    check_probe_args(lambdas, horizon)
    if seq.kind == "explicit":
        horizon = min(horizon, len(seq.terms))
    terms = [seq.term(m) for m in range(1, horizon + 1)]
    # one pass over the pairs; each pair's norm is read at every lambda,
    # once per distinct magnitude, which the memo keeps
    margins_at = _margins(space, lambdas)
    worst = [math.inf] * len(lambdas)
    needed = [0] * len(lambdas)
    for i in range(horizon):
        for j in range(i + 1, horizon):
            for k, margin in enumerate(margins_at(_magnitude(space, vec_sub(terms[j], terms[i])))):
                worst[k] = min(worst[k], margin)
                if margin <= 0.0:
                    needed[k] = i + 1  # N must exclude index i+1 (1-based); i only grows
    verdicts = tuple(
        LambdaVerdict(lam, None if n >= horizon - 1 else max(n, 1), w)
        for lam, w, n in zip(lambdas, worst, needed)
    )
    return ConvergenceReport(verdicts, horizon)


def _uncut(seq, horizon):
    """The same sequence with its last term listed through the horizon,
    so that the scans' cut to the listed terms keeps the whole horizon."""
    if seq.kind != "explicit" or len(seq.terms) >= horizon:
        return seq
    return SequenceSpec("explicit", seq.direction, seq.terms + seq.terms[-1:] * (horizon - len(seq.terms)))


SCAN_SEQUENCES = (
    HARMONIC,
    GEOMETRIC,
    DECAY,
    SequenceSpec("explicit", terms=((1.0,),)),
    SequenceSpec("explicit", terms=((2.0,), (-0.5,), (0.3,), (0.3,), (0.02,), (-0.01,))),
    # distances past the largest float, to the target -1e308 and between terms
    SequenceSpec("explicit", terms=((1e308,), (-1.7976931348623157e308,), (1e308,), (-1e308,))),
)
# duplicates included; 0.01 and 0.9 reach past and short of every default level
SCAN_LAMBDAS = (0.5, 0.25, 0.1, 0.25, 0.05, 0.01, 0.9)


@pytest.mark.parametrize("horizon", [1, 2, 64, 512])
@pytest.mark.parametrize("family", FAMILIES)
def test_probes_match_the_scans(family, horizon):
    space = make_space(family)
    for seq in SCAN_SEQUENCES:
        ref = _uncut(seq, horizon)
        for target in (0.0, 1.0, -1e308):
            got = convergence_probe(space, seq, target, SCAN_LAMBDAS, horizon)
            assert got == _scan_convergence(space, ref, target, SCAN_LAMBDAS, horizon), (seq, target)
        got = cauchy_probe(space, seq, SCAN_LAMBDAS, horizon)
        assert got == _pair_scan_cauchy(space, ref, SCAN_LAMBDAS, horizon), seq


def _pair_scan_diameters(space, terms):
    """The tail diameters from one magnitude per pair of terms."""
    diam, d = [0.0] * (len(terms) - 1), 0.0
    for i in range(len(terms) - 2, -1, -1):
        d = diam[i] = max(d, *(_magnitude(space, vec_sub(terms[j], terms[i])) for j in range(i + 1, len(terms))))
    return diam


@pytest.mark.parametrize("spec", ["E19:l1,dim=2", "E19:l2,dim=2", "E19:linf,dim=2"])
def test_probes_match_the_scans_in_the_plane(spec, monkeypatch):
    # the Cauchy probe's numpy shortlist is settled exactly: generator
    # terms reach 2^256, the first differences of ``huge`` overflow, the
    # alternating terms tie at the farthest distance, and the other terms
    # give differences whose numpy norms are an ulp off; the step norms of
    # E19 hide an ulp in the reports, so the diameters are compared too
    space = parse_space(spec)
    spiral = tuple((math.cos(m) / m, math.sin(m) / m) for m in range(1, 41))
    scattered = tuple((math.cos(m) * m, math.sin(3 * m) / m) for m in range(1, 257))
    huge = ((2.0**1023, -(2.0**1023)), (-(2.0**1023), 2.0**1023), (1.0, 0.0))
    alternating = tuple(((1.0, 0.0), (0.0, 1.0))[m % 2] for m in range(30))
    # numpy orders the two differences from 0 the other way round than
    # ``space.magnitude`` does, in l2 and in l1 respectively
    reversed_l2 = ((0.0, 0.0), (0.3465137019613266, 0.09456954408971274), (0.3469321157930781, 0.09302285389955227))
    reversed_l1 = ((0.0, 0.0), (0.9303217135749122, 0.8964628503429072), (1.562240420416985, 0.2645441435008343))
    sequences = [SequenceSpec("harmonic", (1.0, -2.0))]
    sequences += [SequenceSpec(kind, (1.0, 0.5)) for kind in ("harmonic", "geometric", "geometric_decay")]
    sequences += [
        SequenceSpec("explicit", (1.0, 0.0), terms)
        for terms in (spiral, scattered, huge, alternating, reversed_l2, reversed_l1)
    ]
    diameters = []
    tail_report = topology._tail_report

    def recording(sp, suffix, *rest):
        diameters.append(suffix)
        return tail_report(sp, suffix, *rest)

    monkeypatch.setattr(topology, "_tail_report", recording)
    for seq in sequences:
        for horizon in (1, 2, 64, 256):
            ref = _uncut(seq, horizon)
            for target in ((0.0, 0.0), (0.5, -0.5), (-(2.0**1023), 2.0**1023)):
                got = convergence_probe(space, seq, target, SCAN_LAMBDAS, horizon)
                assert got == _scan_convergence(space, ref, target, SCAN_LAMBDAS, horizon), (seq.kind, target)
            got = cauchy_probe(space, seq, SCAN_LAMBDAS, horizon)
            assert got == _pair_scan_cauchy(space, ref, SCAN_LAMBDAS, horizon), (seq.kind, horizon)
            assert diameters[-1] == _pair_scan_diameters(space, [seq.term(m) for m in range(1, horizon + 1)])


# ------------------------------------------------------------ completeness

def test_completeness_statuses():
    r = completeness_probe(make_space("E19"), HARMONIC)
    assert r.status == "cauchy_and_converges"
    assert r.limit == (0.0,)

    r = completeness_probe(make_space("E9", a=1.0), GEOMETRIC, (0.25,))
    assert r.status == "not_cauchy"

    r = completeness_probe(make_space("E12"), DECAY)
    assert r.status == "cauchy_and_converges"
    assert r.limit == (0.0,)


def test_completeness_no_limit_for_unrecognized_explicit():
    # an explicit non-constant list has no recognizable classical limit
    terms = tuple((1.0 / m,) for m in range(1, 33))
    seq = SequenceSpec("explicit", terms=terms)
    r = completeness_probe(make_space("E19"), seq, (0.5,), 32)
    assert r.status == "cauchy_no_limit_detected"


def test_harmonic_not_cauchy_in_plateau_space():
    r = completeness_probe(make_space("E21"), HARMONIC, (0.25,))
    assert r.status == "not_cauchy"


# ------------------------------------------------------------ equivalence

def test_equivalent_step_families():
    rep = equivalence_probe(make_space("E19"), make_space("E19b", a=1.0))
    assert rep.equivalent_on_battery
    assert rep.witness is None


def test_plateau_vs_step_families_refuted_by_harmonic():
    rep = equivalence_probe(
        make_space("E21"), make_space("E19"), battery=[(HARMONIC, 0.0)]
    )
    assert not rep.equivalent_on_battery
    assert rep.witness == "harmonic"


def test_equivalence_reflexive_and_symmetric():
    a, b = make_space("E19"), make_space("E21")
    assert equivalence_probe(a, a).equivalent_on_battery
    assert (
        equivalence_probe(a, b).equivalent_on_battery
        == equivalence_probe(b, a).equivalent_on_battery
    )


EUCLIDEAN = ("E9", "E12", "E19", "E19b", "E25")


def test_equivalence_is_decided_by_the_topology_class():
    for i, fa in enumerate(FAMILIES):
        for fb in FAMILIES[i + 1:]:
            rep = equivalence_probe(make_space(fa), make_space(fb))
            assert rep.equivalent == ((fa in EUCLIDEAN) == (fb in EUCLIDEAN)), (fa, fb)
            assert "Euclidean" in rep.reason or "discrete" in rep.reason
    # the battery's horizon cannot see these tails settle; the class can
    for fa, fb in (("E9", "E12"), ("E9", "E25"), ("E12", "E19"), ("E12", "E19b"), ("E19", "E25"), ("E19b", "E25")):
        rep = equivalence_probe(make_space(fa), make_space(fb))
        assert rep.equivalent and not rep.equivalent_on_battery, (fa, fb)
    for fa in ("E21", "E27"):
        for fb in EUCLIDEAN:
            assert not equivalence_probe(make_space(fa), make_space(fb)).equivalent, (fa, fb)


def test_equivalence_requires_matching_dimension():
    with pytest.raises(ValueError):
        equivalence_probe(make_space("E19", dim=2), make_space("E19"))


# ------------------------------------------------------------ comparison constant

def test_comparison_constant_l2_sphere_minimum():
    space = make_space("E19", dim=2, base_norm="l2")
    rep = find_comparison_constant(space, [(1.0, 0.0), (0.0, 1.0)], make_space("E19"))
    assert rep.found
    assert rep.c == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)


def test_comparison_constant_linf_sphere_minimum():
    space = make_space("E19", dim=2, base_norm="linf")
    rep = find_comparison_constant(space, [(1.0, 0.0), (0.0, 1.0)], make_space("E19"))
    assert rep.c == pytest.approx(0.5, abs=0.01)


def test_comparison_constant_dim_one_is_identity():
    rep = find_comparison_constant(make_space("E19"), [(1.0,)], make_space("E19"))
    assert rep.c == pytest.approx(1.0, abs=1e-6)


def test_comparison_constant_scales_with_field_threshold():
    # doubling the field norm's a parameter reshapes feasibility
    # consistently: eps(c/(1+c)) ordering in c is preserved
    space = make_space("E19", dim=2, base_norm="l2")
    basis = [(1.0, 0.0), (0.0, 1.0)]
    c_plain = find_comparison_constant(space, basis, make_space("E19")).c
    scaled = make_space("E19b", a=1.0)  # field thresholds c/(1+c) < target
    c_soft = find_comparison_constant(space, basis, scaled).c
    # the softened field norm admits a larger constant since its
    # thresholds saturate below 1 while the sphere minimum is ~0.707
    assert c_soft > c_plain


def test_comparison_constant_scales_linearly_with_basis():
    # doubling the basis doubles every left side's threshold, so the
    # largest feasible constant doubles too
    field = make_space("E19")
    space = make_space("E19", dim=2, base_norm="l2")
    c1 = find_comparison_constant(space, [(1.0, 0.0), (0.0, 1.0)], field).c
    c2 = find_comparison_constant(space, [(2.0, 0.0), (0.0, 2.0)], field).c
    assert c2 == pytest.approx(2.0 * c1, rel=1e-6)


def test_comparison_constant_none_when_field_threshold_floors():
    # a field norm whose thresholds start above the sphere minimum admits
    # no positive constant; the search reports failure, not a refutation
    field = make_space("E27", a=1.0)  # thresholds (1 + |c|)/1 >= 1
    space = make_space("E19", dim=2, base_norm="l2")
    rep = find_comparison_constant(space, [(1.0, 0.0), (0.0, 1.0)], field)
    assert not rep.found
    assert rep.c is None


def _per_sample_c(space, basis, field_space, coeff_samples):
    """The per-sample search: each candidate c is compared with the norm
    of every sampled combination."""
    lhs = [
        space.norm_of(tuple(sum(b * p[i] for b, p in zip(beta, basis)) for i in range(space.dim)))
        for beta in coeff_samples
    ]

    def feasible(c):
        rhs = field_space.norm_of((c,))
        return all(compare_leq(f, rhs, 0.0).holds for f in lhs)

    if not feasible(1e-12):
        return None
    lo, hi, c = 1e-12, None, 1e-6
    while c <= 2.0**20:
        if feasible(c):
            lo = c
        else:
            hi = c
            break
        c *= 2.0
    if hi is None:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_comparison_constant_matches_the_per_sample_search():
    samples = default_coeff_samples(2, count=20)
    for base_norm in ("l1", "l2", "linf"):
        space = make_space("E19", dim=2, base_norm=base_norm)
        # the last basis gives l1 magnitudes past the largest float
        for basis in ([(1.0, 0.0), (0.0, 1.0)], [(1.0, 2.0), (0.0, 3.0)], [(1e308, 0.0), (1e308, 1e308)]):
            for field in (make_space("E19"), make_space("E19b", a=1.0), make_space("E27", a=0.5)):
                rep = find_comparison_constant(space, basis, field, samples)
                assert rep.c == _per_sample_c(space, basis, field, samples), (base_norm, basis, field.family)
                assert rep.n_samples == len(samples)


def test_comparison_constant_reads_combinations_past_the_largest_float():
    # p_1 - p_2 overflows in its first component, and so do both products of 1e10 p_1 - 1e10 p_2
    basis = [(1e308, 0.0), (-1e308, 1.0)]
    samples = [(1.0, -1.0), (0.5, 0.25), (1e10, -1e10), (-1.0, 1.0)]
    for base_norm in ("l1", "l2", "linf"):
        space = make_space("E19", dim=2, base_norm=base_norm)
        for field in (make_space("E19"), make_space("E27", a=0.5)):
            rep = find_comparison_constant(space, basis, field, samples)
            assert rep.c == _per_sample_c(space, basis, field, samples), (base_norm, field.family)


@pytest.mark.parametrize("samples", [[(1.0,), (0.5,)], [(0.2, 0.3, 0.5)], [(0.5, 0.5), (1.0,)]])
def test_coefficient_vectors_must_have_one_entry_per_basis_vector(samples):
    # zip would cut them to the basis, or read a basis vector as 0
    with pytest.raises(ValueError, match="needs 2 entries, one per basis vector"):
        find_comparison_constant(make_space("E19", dim=2), [(1.0, 0.0), (0.0, 1.0)], make_space("E19"), samples)


def test_dependent_basis_rejected():
    with pytest.raises(ValueError):
        find_comparison_constant(
            make_space("E19", dim=2), [(1.0, 1.0), (2.0, 2.0)], make_space("E19")
        )


def test_linear_independence_checker():
    assert linearly_independent([(1.0, 0.0), (0.0, 1.0)])
    assert not linearly_independent([(1.0, 1.0), (2.0, 2.0)])
    assert not linearly_independent([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    assert linearly_independent([(1e-6, 0.0), (0.0, 1e-6)])


def test_coeff_samples_lie_on_l1_sphere():
    for n in (1, 2, 3):
        for beta in default_coeff_samples(n, count=50):
            assert sum(abs(b) for b in beta) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ sequences

def test_sequence_generators():
    assert HARMONIC.term(4) == (0.25,)
    assert GEOMETRIC.term(3) == (8.0,)
    assert DECAY.term(3) == (0.125,)
    assert HARMONIC.classical_limit() == (0.0,)
    assert GEOMETRIC.classical_limit() is None


def test_parse_sequence():
    assert parse_sequence("harmonic").kind == "harmonic"
    s = parse_sequence("explicit:1;0.5;0.25")
    assert s.terms == ((1.0,), (0.5,), (0.25,))
    s2 = parse_sequence("explicit:1,0;0,1", dim=2)
    assert s2.terms == ((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        parse_sequence("fibonacci")


_PREFIX_DIRECTIONS = {
    1: [(1.0,), (-0.0,), (3.0,), (-1e308,), (math.inf,), (math.nan,), (7,)],
    2: [(1.0, -2.0), (0.0, 1e308), (-0.0, 5e-324), (math.pi, -math.e)],
    3: [(1.0, 0.5, -0.25), (1e-300, 1e300, -1.0)],
}


@pytest.mark.parametrize("horizon", [1, 2, 64, 1023, 4096])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_prefix_rows_equal_the_terms(dim, horizon):
    rng = np.random.default_rng(dim)
    explicit = tuple(tuple(rng.normal(size=dim).tolist()) for _ in range(40))
    sequences = [SequenceSpec("explicit", terms=explicit), SequenceSpec("explicit", terms=explicit[:1])]
    for direction in _PREFIX_DIRECTIONS[dim]:
        sequences += [SequenceSpec(kind, direction) for kind in ("harmonic", "geometric", "geometric_decay")]
    for seq in sequences:
        if seq.kind == "geometric" and horizon > 1023:
            continue
        want = np.array([seq.term(m) for m in range(1, horizon + 1)], dtype=float)
        got = seq.prefix(horizon, dim)
        assert got.shape == (horizon, dim) and got.tobytes() == want.tobytes(), (seq, horizon)


def test_geometric_prefix_past_the_float_range_raises_what_the_term_raises():
    with pytest.raises(ValueError) as want:
        GEOMETRIC.term(1024)
    for horizon in (1024, 4096):
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            GEOMETRIC.prefix(horizon, 1)
    assert GEOMETRIC.prefix(1023, 1)[-1, 0] == 2.0**1023


def test_prefix_checks_every_term_it_reads_as_as_vector_does():
    with pytest.raises(ValueError, match=re.escape("vector (1.0,) has length 1, expected 2")):
        HARMONIC.prefix(4, 2)
    with pytest.raises(ValueError, match="has length 1, expected 2"):
        SequenceSpec("explicit", terms=((1.0, 0.0), (2.0,))).prefix(2, 2)
    # terms past the horizon are not read, as before
    assert SequenceSpec("explicit", terms=((1.0, 0.0), (2.0,))).prefix(1, 2).tolist() == [[1.0, 0.0]]
