"""Probabilistic radius, classification, witnesses, the convergent-image
bound, and the compactness decision."""

import math

import numpy as np
import pytest

from pncalc.boundedness import (
    CERTAINLY_BOUNDED,
    MAX_SAMPLES,
    RadiusReport,
    SequenceBoundResult,
    SetSpec,
    all_reals,
    classify_set,
    compactness_probe,
    convergent_set_bound,
    dbounded_witness,
    finite_set,
    interval_rationals,
    prob_radius,
    sequence_image,
)
from pncalc.distfn import DPLUS_TOL, EPS0, Grid, Ratio, compare_leq, distfn_equal, eps, pointwise_min
from pncalc.pnspace import FAMILIES, as_vector, default_samples, make_space, parse_space, vec_sub
from pncalc.topology import SequenceSpec, convergence_probe

HARMONIC = SequenceSpec("harmonic")


# ------------------------------------------------------------ radius

def test_radius_of_whole_line_with_saturating_thresholds():
    assert prob_radius(make_space("E9", a=1.0), all_reals()) == eps(1.0)
    assert prob_radius(make_space("E19b", a=1.0), all_reals()) == eps(1.0)


def test_radius_of_whole_line_escaping_families():
    for family in ("E19", "E12", "E21", "E25", "E27"):
        r = prob_radius(make_space(family), all_reals())
        assert r.plateau == 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_whole_line_radius_is_the_large_magnitude_limit(family):
    # the limit is pointwise, not uniform: a step at 2**60 still rises past
    # 2**60, so the two are compared at fixed abscissae
    space = make_space(family)
    xs = np.array([0.5, 1.0, 2.0, 4.0])
    limit = prob_radius(space, all_reals()).eval_many(xs)
    far = space.norm_at_magnitude(2.0**60).eval_many(xs)
    assert np.allclose(far, limit, rtol=0.0, atol=1e-8)


def test_radius_of_interval_matches_closed_form():
    lo, hi = math.sqrt(2.0), math.sqrt(10.0)
    r = prob_radius(make_space("E25"), interval_rationals(lo, hi))
    beta = math.sqrt(hi)  # largest magnitude drives the infimum
    assert r == Ratio(beta)
    for t in (0.5, 1.0, 4.0, 50.0):
        assert r.eval(t) == pytest.approx(t / (t + beta), abs=1e-12)


def test_interval_radius_against_dense_sampling():
    # the closed form is the limit of pointwise minima over dense members
    lo, hi = math.sqrt(2.0), math.sqrt(10.0)
    space = make_space("E25")
    closed = prob_radius(space, interval_rationals(lo, hi))
    members = np.linspace(lo, hi, 400)
    for t in np.geomspace(0.1, 30.0, 25):
        sampled = min(space.norm_of(float(p)).eval(float(t)) for p in members)
        assert closed.eval(float(t)) <= sampled + 1e-12
        assert sampled - closed.eval(float(t)) < 5e-3


def test_radius_of_singleton_is_its_norm():
    space = make_space("E12")
    assert distfn_equal(prob_radius(space, finite_set([1.0])), space.norm_of(1.0))


def test_radius_lower_bounds_every_member():
    space = make_space("E27", a=1.0)
    aset = finite_set([-3.0, -1.0, 0.5, 2.0])
    r = prob_radius(space, aset)
    for p in aset.members(1):
        assert compare_leq(r, space.norm_of(p), 1e-12).holds


def test_finite_radius_is_the_pointwise_min_of_member_norms():
    rng = np.random.default_rng(5)
    for family in FAMILIES:
        space = make_space(family)
        for _ in range(5):
            members = [float(v) for v in rng.uniform(-20.0, 20.0, int(rng.integers(1, 8)))]
            r = prob_radius(space, finite_set(members))
            assert distfn_equal(r, pointwise_min([space.norm_of(p) for p in members]), 0.0), (family, members)


def test_adding_the_origin_keeps_a_ratio_set_bounded():
    space, aset = make_space("E25"), finite_set([0.0, 1.0])
    rep = classify_set(space, aset)
    assert rep.cls == "perhaps_bounded"
    assert rep.radius == Ratio(1.0)
    wit = dbounded_witness(space, aset)
    assert wit.found and wit.verified and wit.checked == 2


def test_radius_antitone_in_the_set():
    space = make_space("E19")
    small = finite_set([0.5, 1.0])
    large = finite_set([0.5, 1.0, 3.0])
    assert compare_leq(prob_radius(space, large), prob_radius(space, small), 1e-12).holds


def test_interval_requires_dim_one():
    with pytest.raises(ValueError):
        prob_radius(make_space("E19", dim=2), interval_rationals(0.0, 1.0))


def test_set_spec_validation():
    with pytest.raises(ValueError):
        SetSpec("finite")
    with pytest.raises(ValueError):
        SetSpec("interval_rationals", lo=2.0, hi=1.0)
    with pytest.raises(ValueError):
        SetSpec("bogus")
    for n in (0, MAX_SAMPLES + 1):
        with pytest.raises(ValueError, match="interval samples"):
            interval_rationals(0.0, 1.0, n)
    assert interval_rationals(0.0, 1.0, MAX_SAMPLES).n_samples == MAX_SAMPLES


# ------------------------------------------------------------ classification

def test_whole_line_certainly_bounded_with_threshold_witness():
    rep = classify_set(make_space("E9", a=1.0), all_reals())
    assert rep.cls == "certainly_bounded"
    assert rep.witness_x0 == 1.0  # jump threshold; R equals 1 just past it
    assert rep.d_bounded


def test_interval_perhaps_bounded():
    rep = classify_set(make_space("E25"), interval_rationals(math.sqrt(2.0), math.sqrt(10.0)))
    assert rep.cls == "perhaps_bounded"
    assert rep.d_bounded
    assert rep.plateau == 1.0


def test_plateau_singleton_perhaps_unbounded():
    rep = classify_set(make_space("E12"), finite_set([1.0]))
    assert rep.cls == "perhaps_unbounded"
    assert rep.plateau == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert not rep.d_bounded


def test_escaping_squares_certainly_unbounded():
    rep = classify_set(make_space("E12"), finite_set([float(m * m) for m in range(1, 51)]))
    assert rep.cls == "certainly_unbounded"
    assert rep.plateau <= 1e-9


def test_zero_singleton_certainly_bounded_everywhere():
    for family in ("E9", "E12", "E19", "E21", "E25", "E27"):
        rep = classify_set(make_space(family), finite_set([0.0]))
        assert rep.cls == "certainly_bounded"
        assert rep.witness_x0 == 0.0


def test_huge_interval_keeps_its_magnitude():
    # 1e200 squared overflows; the radius must read the magnitude itself
    rep = classify_set(make_space("E19"), interval_rationals(0.0, 1e200))
    assert rep.cls == "certainly_bounded"
    assert rep.witness_x0 == 1e200


def test_unbounded_interval_takes_the_family_limit():
    # the norm at an infinite magnitude is the limit as the magnitude grows
    rep = classify_set(make_space("E9", a=1.0), interval_rationals(0.0, math.inf))
    assert rep.cls == "certainly_bounded"
    assert rep.witness_x0 == 1.0
    for family in ("E12", "E19b", "E21", "E25"):
        space = make_space(family)
        rep = classify_set(space, interval_rationals(0.0, math.inf))
        assert rep.radius == prob_radius(space, all_reals())


def test_classically_bounded_set_in_shifted_step_family():
    # thresholds (1 + |p|)/1 cap at 1 + s on |p| <= s
    rep = classify_set(make_space("E27", a=1.0), finite_set([-3.0, 1.0, 3.0]))
    assert rep.cls == "certainly_bounded"
    assert rep.witness_x0 == pytest.approx(4.0)


# ------------------------------------------------------------ witnesses

BATTERY = [
    ("E9", all_reals()),
    ("E25", interval_rationals(math.sqrt(2.0), math.sqrt(10.0))),
    ("E12", finite_set([1.0])),
    ("E12", finite_set([float(m * m) for m in range(1, 51)])),
    ("E19", finite_set([0.5, 1.0, 2.0])),
    ("E27", finite_set([-3.0, -1.0, 0.5, 2.0, 3.0])),
    ("E21", finite_set([1.0, 2.0])),
]


def test_witness_exists_iff_d_bounded():
    for family, aset in BATTERY:
        space = make_space(family)
        rep = classify_set(space, aset)
        wit = dbounded_witness(space, aset)
        assert wit.found == rep.d_bounded, (family, aset.describe())
        if wit.found:
            assert wit.verified
            assert wit.g.in_d_plus()


def _reference_witness(space, aset, tol=1e-9):
    """The witness as it compared the radius with every member's norm."""
    rep = classify_set(space, aset, tol)
    if not rep.d_bounded:
        return None, False, 0
    members = default_samples(space).vectors if aset.kind == "all_reals" else aset.members(space.dim)
    return rep.radius, all(compare_leq(rep.radius, space.norm_of(p), tol).holds for p in members), len(members)


_WITNESS_SETS = [
    all_reals(),
    finite_set([0.0]),
    finite_set([-3.0, -1.0, 0.5, 2.0, 3.0, -0.0, 5e-324, 1e308]),
    interval_rationals(-2.0, 5.0, 101),
    sequence_image(HARMONIC, horizon=64),
    sequence_image(SequenceSpec("explicit", terms=((0.25,), (-4.0,), (0.25,)))),
]


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("spec", ["E9:a=1", "E12", "E19", "E19:l1,dim=2", "E19b:a=1,l2,dim=2", "E21", "E25", "E27:a=1"])
def test_witness_equals_the_per_member_check(spec, tol):
    space = parse_space(spec)
    for aset in _WITNESS_SETS:
        if space.dim > 1:
            if aset.kind in ("interval_rationals", "sequence_image"):
                continue
            if aset.kind == "finite":
                aset = finite_set([(c, -c / 3.0) for (c,) in aset.vectors])
        wit = dbounded_witness(space, aset, tol)
        assert (wit.g, wit.verified, wit.checked) == _reference_witness(space, aset, tol), (spec, aset.describe())


def test_witness_verification_fails_for_a_bound_above_a_member(monkeypatch):
    # eps_0 lies above every norm but the zero vector's, so the check fails
    # on the rows of a Step family as member by member
    from pncalc import boundedness

    members = finite_set([0.0, 1.0, -2.0])
    for family in ("E19", "E12", "E25"):
        space = make_space(family)
        monkeypatch.setattr(boundedness, "classify_set", lambda s, a, tol: RadiusReport(EPS0, CERTAINLY_BOUNDED, 0.0, 1.0))
        wit = dbounded_witness(space, members)
        monkeypatch.undo()
        assert wit.found and not wit.verified and wit.checked == 3
        assert not all(compare_leq(EPS0, space.norm_of(p)).holds for p in members.vectors)


def test_witness_for_zero_singleton_is_maximal():
    wit = dbounded_witness(make_space("E19"), finite_set([0.0]))
    assert wit.found
    assert distfn_equal(wit.g, EPS0)


# ------------------------------------------------------------ sequence bound

def test_bound_for_harmonic_image_in_step_space():
    rep = convergent_set_bound(make_space("E19"), HARMONIC, 0.0, lam=0.25, horizon=64)
    assert rep.succeeded and rep.verified
    assert rep.h == eps(1.0)  # the head term at m=1 dominates the min
    assert rep.n == 5


def test_bound_for_harmonic_image_in_ratio_space():
    # at lambda = 0.25 the tail enters only past the horizon, so use 0.5
    rep = convergent_set_bound(make_space("E25"), HARMONIC, 0.0, lam=0.5, horizon=64)
    assert rep.succeeded and rep.verified
    assert rep.h == Ratio(1.0)  # scale sqrt(|p_1|) = 1 dominates


def test_bound_fails_on_improper_norms():
    rep = convergent_set_bound(make_space("E21"), HARMONIC, 0.0, lam=0.25)
    assert rep.status == "premise_norms_not_proper"
    rep12 = convergent_set_bound(make_space("E12"), HARMONIC, 0.0, lam=0.25)
    assert rep12.status == "premise_norms_not_proper"


def test_bound_with_nonzero_target():
    # shifted harmonic toward 1: the tail bound convolves with the norm
    # of the target rather than collapsing through the unit law
    terms = tuple((1.0 + 1.0 / m,) for m in range(1, 65))
    seq = SequenceSpec("explicit", terms=terms)
    rep = convergent_set_bound(make_space("E19"), seq, 1.0, lam=0.25, horizon=64)
    assert rep.succeeded and rep.verified
    assert rep.h == eps(2.0)  # head term eps(1 + 1/1) dominates the min


@pytest.mark.parametrize("first,target", [(2.0, 1.0), (1.0, 2.0)], ids=["1+1/m", "2-1/m"])
def test_bound_toward_a_nonzero_target_reads_the_operand_plateaus(first, target):
    # tau(G, nu_target) is lazy in E25, so H is a sampled minimum, whose
    # last jump, at the largest float, rises to the operands' plateau 1
    terms = tuple((target + (first - target) / m,) for m in range(1, 65))
    seq = SequenceSpec("explicit", terms=terms)
    rep = convergent_set_bound(make_space("E25"), seq, target, lam=0.5, horizon=64)
    assert rep.succeeded and rep.verified
    assert rep.n == 5
    assert isinstance(rep.h, Grid) and rep.h.in_d_plus(0.0)


def test_tolerances_are_read_as_passed():
    # no floor under tol: at tol 0 the exact plateaus and order checks of
    # E25's bound toward a nonzero target and of its witness still hold
    terms = tuple((1.0 + 1.0 / m,) for m in range(1, 65))
    rep = convergent_set_bound(make_space("E25"), SequenceSpec("explicit", terms=terms), 1.0, lam=0.5,
                               horizon=64, tol=0.0)
    assert rep.succeeded and rep.verified and rep.h.plateau == 1.0
    wit = dbounded_witness(make_space("E25"), interval_rationals(1.0, 2.0, 50), tol=0.0)
    assert wit.found and wit.verified and wit.checked == 50


def _per_term_bound(space, seq, target, lam, horizon, tol=DPLUS_TOL):
    """The bound construction as it read one norm per term, target and sample."""
    target = as_vector(target, space.dim)
    terms = [seq.term(m) for m in range(1, horizon + 1)]
    norms = [space.norm_of(p) for p in (*terms, target, *default_samples(space).vectors)]
    if not all(f.in_d_plus(tol) for f in norms):
        return SequenceBoundResult("premise_norms_not_proper", None, None, False)
    if not all(space.tau(f, g).in_d_plus(tol) for f, g in zip(norms[:4], norms[1:5])):
        return SequenceBoundResult("premise_tau_not_proper", None, None, False)
    verdict = convergence_probe(space, seq, target, (lam,), horizon).per_lambda[0]
    if not verdict.succeeded:
        return SequenceBoundResult("premise_not_convergent", None, None, False)
    n = verdict.n
    g = space.norm_at_magnitude(max(space.magnitude(vec_sub(p, target)) for p in terms[n - 1:]))
    h = space.tau(g, space.norm_of(target))
    if n > 1:
        h = pointwise_min([space.norm_at_magnitude(max(map(space.magnitude, terms[:n - 1]))), h])
    ok = h.in_d_plus(tol) and all(compare_leq(h, space.norm_of(p), tol).holds for p in terms)
    return SequenceBoundResult("ok" if ok else "bound_unverified", h, n, ok)


@pytest.mark.parametrize("spec", ["E9:a=1", "E12", "E19", "E19:l1,dim=2", "E19b:a=1,l2,dim=2", "E21", "E25", "E27:a=1"])
def test_bound_equals_the_per_term_construction(spec):
    space = parse_space(spec)
    dim = space.dim
    one, zero = (1.0,) + (0.0,) * (dim - 1), (0.0,) * dim
    # the magnitudes fall, rise, or pass the largest float in their
    # distance to the target -1e308
    sequences = [
        (SequenceSpec("harmonic", one), zero),
        (SequenceSpec("geometric_decay", one), zero),
        (SequenceSpec("explicit", one, tuple(tuple(1.0 + 1.0 / m for _ in one) for m in range(1, 65))), (1.0,) * dim),
        (SequenceSpec("explicit", one, tuple(tuple(2.0 - 1.0 / m for _ in one) for m in range(1, 65))), (2.0,) * dim),
        (SequenceSpec("explicit", one, ((1e308,) * dim, (1.7976931348623157e308,) * dim, (0.5,) * dim,
                                         (0.5,) * dim, (-1e308,) * dim)), (-1e308,) * dim),
    ]
    for seq, target in sequences:
        for lam, horizon in ((0.25, 64), (0.5, 64), (0.25, 3)):
            got = convergent_set_bound(space, seq, target, lam=lam, horizon=horizon)
            assert got == _per_term_bound(space, seq, target, lam, horizon), (seq.kind, target, lam, horizon)


def test_bound_fails_without_convergence():
    geo = SequenceSpec("geometric")
    rep = convergent_set_bound(make_space("E19"), geo, 0.0, lam=0.25, horizon=16)
    assert rep.status == "premise_not_convergent"


def test_convergent_images_are_d_bounded_in_proper_spaces():
    # whenever the bound construction succeeds, the classifier agrees
    cases = [
        (make_space("E19"), HARMONIC, 0.25),
        (make_space("E25"), HARMONIC, 0.5),
        (make_space("E19b", a=1.0), HARMONIC, 0.25),
        (make_space("E25"), SequenceSpec("geometric_decay"), 0.5),
    ]
    for space, seq, lam in cases:
        rep = convergent_set_bound(space, seq, 0.0, lam=lam, horizon=64)
        assert rep.succeeded, space.family
        cls = classify_set(space, sequence_image(seq, 64))
        assert cls.d_bounded, space.family


# ------------------------------------------------------------ bounded magnitudes

def test_vanishing_norm_forces_bounded_magnitudes():
    # in the plateau family with vanishing norms, the only D-bounded sets
    # have bounded magnitudes; appending an escaping tail flips the class
    space = make_space("E12")
    assert classify_set(space, finite_set([0.0])).d_bounded
    base = [0.5, 1.0, 2.0]
    assert not classify_set(space, finite_set(base)).d_bounded
    escape = base + [float(m * m) for m in range(1, 51)]
    assert classify_set(space, finite_set(escape)).cls == "certainly_unbounded"


# ------------------------------------------------------------ compactness

def test_geometric_escape_refutes_compactness():
    rep = compactness_probe(make_space("E9", a=1.0), sequence_image(SequenceSpec("geometric")))
    assert rep.refuted


def test_separated_steps_refute_compactness_immediately():
    # thresholds (1 + |p - q|)/1 >= 1 keep every distinct pair outside
    # every neighborhood with level below 1, so the strong topology is
    # discrete; a finite set is compact there all the same
    aset = finite_set([float(x) for x in np.linspace(-3.0, 3.0, 25)])
    rep = compactness_probe(make_space("E27", a=1.0), aset)
    assert rep.compact and not rep.refuted
    assert rep.reason == "E27:a=1 is discrete-class and finite[25] is finite"


def test_interval_with_unreachable_accumulation_point_refuted():
    # members crowd toward points of the interval that are not rationals,
    # so the set is not closed
    rep = compactness_probe(make_space("E25"), interval_rationals(math.sqrt(2.0), math.sqrt(10.0)))
    assert rep.refuted
    assert rep.reason.endswith("is not closed: it misses the irrationals between its ends")


def test_rational_interval_is_decided_not_closed():
    # no level enters the verdict, so no level is coarse enough to hide
    # the missing irrationals
    for family in FAMILIES:
        rep = compactness_probe(make_space(family), interval_rationals(math.sqrt(2.0), math.sqrt(10.0)))
        assert not rep.compact, family


def test_harmonic_image_misses_its_limit():
    # the image {1/m} accumulates at 0, which it does not contain
    rep = compactness_probe(make_space("E19"), sequence_image(HARMONIC))
    assert not rep.compact
    assert rep.reason == "E19:l2 is Euclidean-class and image(harmonic) is not closed: it misses its limit [0.0]"


def _table_sets(dim):
    """Every set kind, keyed by whether it is compact: finite sets
    (singletons and sets holding 0), explicit and zero-direction images
    are; the whole line, intervals (also with an infinite end) and the
    generator images are not."""
    e, zero = (1.0,) + (0.0,) * (dim - 1), (0.0,) * dim
    sets = [
        (finite_set([e]), True),
        (finite_set([zero]), True),
        (finite_set([zero, e, tuple(-c for c in e)]), True),
        (sequence_image(SequenceSpec("explicit", e, (e, zero, e))), True),
        (all_reals(), False),
    ]
    for kind in ("harmonic", "geometric", "geometric_decay"):
        sets += [(sequence_image(SequenceSpec(kind, e)), False), (sequence_image(SequenceSpec(kind, zero)), True)]
    if dim == 1:
        sets += [
            (interval_rationals(lo, hi), False)
            for lo, hi in ((1.0, 2.0), (-1.0, 1.0), (0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf))
        ]
    return sets


TABLE_SPACES = [make_space(family) for family in FAMILIES] + [
    make_space("E19", dim=2),
    make_space("E19b", dim=2),
]


@pytest.mark.parametrize("space", TABLE_SPACES, ids=lambda s: s.describe())
def test_compactness_decision_table(space):
    cls = "discrete" if space.family in ("E21", "E27") else "Euclidean"
    for aset, compact in _table_sets(space.dim):
        rep = compactness_probe(space, aset)
        assert rep.compact is compact and rep.refuted is not compact, aset
        assert rep.reason.startswith(f"{space.describe()} is {cls}-class and {aset.describe()} is "), rep.reason
    if space.dim > 1:
        with pytest.raises(ValueError, match="interval sets are one-dimensional"):
            compactness_probe(space, interval_rationals(0.0, 1.0))


@pytest.mark.parametrize("family", FAMILIES)
def test_generator_image_radius_is_read_over_the_whole_image(family):
    # the decaying images are largest at their first term, so the radius
    # equals the pointwise min over any prefix; the geometric image is
    # unbounded, so its radius is the family's limit
    space = make_space(family)
    for kind in ("harmonic", "geometric_decay"):
        seq = SequenceSpec(kind)
        prefix = pointwise_min([space.norm_of(seq.term(m)) for m in range(1, 65)])
        assert distfn_equal(prob_radius(space, sequence_image(seq)), prefix, 0.0), kind
    geometric = prob_radius(space, sequence_image(SequenceSpec("geometric")))
    assert distfn_equal(geometric, space.norm_at_magnitude(math.inf), 0.0)
    zero = classify_set(space, sequence_image(SequenceSpec("geometric", (0.0,))))
    assert zero.cls == "certainly_bounded" and zero.witness_x0 == 0.0


def test_geometric_image_is_certainly_unbounded():
    # the image is unbounded, so the radius is the family's limit, which
    # vanishes in these families
    for spec in ("E19", "E27", "E25"):
        space = make_space(spec)
        assert classify_set(space, sequence_image(SequenceSpec("geometric"))).cls == "certainly_unbounded", spec
