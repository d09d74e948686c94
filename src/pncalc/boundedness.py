"""Probabilistic radius, four-way boundedness classification, lower-bound
witnesses, the convergent-sequence bound construction, and the decided
compactness of each set kind.

Each set kind states its geometry over the whole set in one place,
``SetSpec.geometry``: its largest member magnitude and whether it is
finite.  The radius is the norm at that magnitude (every built-in norm
is nonincreasing in it), and the set is compact exactly when it is
finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distfn import DPLUS_TOL, DistFn, Grid, Step, _distinct, check_tol, compare_leq, pointwise_min
from .pnspace import PNSpace, Vector, as_vector, default_samples
from .topology import DEFAULT_HORIZON, SequenceSpec, convergence_probe, strong_topology_class
from .triangle import _leq_rows, _pack

CERTAINLY_BOUNDED = "certainly_bounded"
PERHAPS_BOUNDED = "perhaps_bounded"
PERHAPS_UNBOUNDED = "perhaps_unbounded"
CERTAINLY_UNBOUNDED = "certainly_unbounded"

#: Largest interval sample: the lower-bound witness compares the norm at
#: each distinct sample magnitude with the radius, exactly, so 16384
#: samples take about 0.02 s in E9 (steps, on packed rows) and 0.04 s in
#: E25 (Ratios, one comparison each) on a 2-CPU x86 host
MAX_SAMPLES = 16384


@dataclass(frozen=True)
class SetSpec:
    """A subset of the carrier: an explicit finite list, the whole line,
    the rationals in a closed interval (dim 1), or a sequence image."""

    kind: str  # 'finite' | 'all_reals' | 'interval_rationals' | 'sequence_image'
    vectors: tuple[Vector, ...] = ()
    lo: float = 0.0
    hi: float = 0.0
    n_samples: int = 200
    seq: SequenceSpec | None = None
    horizon: int = DEFAULT_HORIZON  # terms of a generator image that ``members`` samples

    def __post_init__(self):
        if self.kind not in ("finite", "all_reals", "interval_rationals", "sequence_image"):
            raise ValueError(f"unknown set kind {self.kind!r}")
        if self.kind == "finite" and not self.vectors:
            raise ValueError("finite set must be nonempty")
        if self.kind == "interval_rationals" and not (self.lo < self.hi):
            raise ValueError("interval must be nondegenerate")
        if self.kind == "interval_rationals" and not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ValueError(f"interval samples must lie in [1, {MAX_SAMPLES}], got {self.n_samples}")
        if self.kind == "sequence_image" and self.seq is None:
            raise ValueError("sequence_image needs a sequence")

    def geometry(self, space: PNSpace) -> tuple[float, bool]:
        """The largest member magnitude in ``space`` and whether the set is
        finite, over the whole set.

        A finite set or an explicit image has its largest listed
        magnitude.  The rationals in [lo, hi] approach max(|lo|, |hi|).
        The whole line and the geometric image are unbounded.  A harmonic
        or geometric-decay image shrinks from its first term.  A generator
        image with a zero direction is {0}.
        """
        if self.kind == "all_reals":
            return math.inf, False
        if self.kind == "interval_rationals":
            if space.dim != 1:
                raise ValueError("interval sets are one-dimensional")
            return max(abs(self.lo), abs(self.hi)), False
        if self.kind == "finite" or self.seq.kind == "explicit":
            members = [as_vector(p, space.dim) for p in self.members(space.dim)]
            return max(space.magnitudes(members).tolist()), True
        first = space.magnitude(self.seq.term(1))
        if first == 0.0:
            return 0.0, True
        return (math.inf if self.seq.kind == "geometric" else first), False

    def members(self, dim: int = 1) -> tuple[Vector, ...]:
        """The members of a finite set or an explicit image; a sample of
        the others: the interval's ``n_samples`` evenly spaced points, the
        first ``horizon`` terms of a generator image."""
        if self.kind == "finite":
            return tuple(as_vector(v, dim) for v in self.vectors)
        if self.kind == "sequence_image":
            if self.seq.kind == "explicit":
                return self.seq.terms
            return tuple(self.seq.term(m) for m in range(1, self.horizon + 1))
        if self.kind == "interval_rationals":
            return tuple((float(x),) for x in np.linspace(self.lo, self.hi, self.n_samples))
        raise ValueError("the whole carrier cannot be enumerated")

    def describe(self) -> str:
        if self.kind == "finite":
            return f"finite[{len(self.vectors)}]"
        if self.kind == "interval_rationals":
            return f"interval_rationals[{self.lo:g},{self.hi:g}]"
        if self.kind == "sequence_image":
            return f"image({self.seq.describe()})"
        return "all_reals"


def finite_set(vectors) -> SetSpec:
    return SetSpec(
        "finite",
        vectors=tuple(
            (float(v),) if isinstance(v, (int, float)) else tuple(float(c) for c in v)
            for v in vectors
        ),
    )


def all_reals() -> SetSpec:
    return SetSpec("all_reals")


def interval_rationals(lo: float, hi: float, n_samples: int = 200) -> SetSpec:
    return SetSpec("interval_rationals", lo=float(lo), hi=float(hi), n_samples=n_samples)


def sequence_image(seq: SequenceSpec, horizon: int = DEFAULT_HORIZON) -> SetSpec:
    return SetSpec("sequence_image", seq=seq, horizon=horizon)


def prob_radius(space: PNSpace, a: SetSpec) -> DistFn:
    """Probabilistic radius: the left-regularized pointwise infimum of the
    member norms.

    The norm is nonincreasing in the magnitude (the contract on
    ``pnspace.Family``), so the infimum is the norm at the set's largest
    magnitude (``SetSpec.geometry``): left-regularization makes the limit
    exact where members only approach it, and an unbounded set reads the
    family's limit.
    """
    return space.norm_at_magnitude(a.geometry(space)[0])


@dataclass(frozen=True)
class RadiusReport:
    radius: DistFn
    cls: str
    witness_x0: float | None
    plateau: float

    @property
    def d_bounded(self) -> bool:
        return self.cls in (CERTAINLY_BOUNDED, PERHAPS_BOUNDED)

    def to_dict(self) -> dict:
        return {
            "class": self.cls,
            "x0": self.witness_x0,
            "plateau": self.plateau,
            "d_bounded": self.d_bounded,
        }


def _attainment_threshold(f: DistFn, level: float) -> float | None:
    """Smallest jump abscissa past which F >= level, for representations
    that attain their plateau at finite arguments; None otherwise."""
    if not isinstance(f, Step) or isinstance(f, Grid):
        return None  # Ratio never attains its plateau at finite x; a Grid estimates
    for k, v in enumerate(f.levels):
        if v >= level:
            return f.breakpoints[k - 1] if k > 0 else 0.0
    return None


def classify_set(space: PNSpace, a: SetSpec, tol: float = 1e-9) -> RadiusReport:
    """Four-way classification of the probabilistic radius R:

    * certainly bounded:   R(x0) reaches 1 at some finite x0,
    * perhaps bounded:     R < 1 at finite arguments but the plateau is 1,
    * perhaps unbounded:   the plateau lies strictly between 0 and 1,
    * certainly unbounded: the plateau vanishes (R is the minimal element).

    The witness x0 for the certain class is the jump threshold past which
    R equals 1 (the infimum of valid witnesses; the value AT the threshold
    is still the lower level by left-continuity).
    """
    check_tol(tol)
    radius = prob_radius(space, a)
    plateau = radius.plateau
    x0 = _attainment_threshold(radius, 1.0 - tol)
    if x0 is not None and plateau >= 1.0 - tol:
        return RadiusReport(radius, CERTAINLY_BOUNDED, x0, plateau)
    if plateau >= 1.0 - tol:
        return RadiusReport(radius, PERHAPS_BOUNDED, None, plateau)
    if plateau > tol:
        return RadiusReport(radius, PERHAPS_UNBOUNDED, None, plateau)
    return RadiusReport(radius, CERTAINLY_UNBOUNDED, None, plateau)


@dataclass(frozen=True)
class WitnessResult:
    g: DistFn | None
    verified: bool
    checked: int

    @property
    def found(self) -> bool:
        return self.g is not None


def _verification_members(space: PNSpace, a: SetSpec) -> tuple[Vector, ...]:
    if a.kind == "all_reals":
        return default_samples(space).vectors
    return a.members(space.dim)


def dbounded_witness(space: PNSpace, a: SetSpec, tol: float = 1e-9) -> WitnessResult:
    """A proper lower bound G with nu_p >= G for all members, when one
    exists.  The radius itself serves: it is a pointwise lower bound by
    construction and is proper exactly when the set is D-bounded."""
    report = classify_set(space, a, tol)
    if not report.d_bounded:
        return WitnessResult(None, False, 0)
    g = report.radius
    members = _verification_members(space, a)
    # each distinct member magnitude once
    ms = _distinct(space.magnitudes([as_vector(p, space.dim) for p in members]))
    if space.step_norms:  # G, a norm itself, is a Step too
        rows = tuple(np.broadcast_to(r, (len(ms), r.shape[1])) for r in _pack([g]))
        verified = bool(_leq_rows(rows, space.norm_rows(ms), tol).all())
    else:
        verified = all(compare_leq(g, space.norm_at_magnitude(m), tol).holds for m in ms.tolist())
    return WitnessResult(g, verified, len(members))


@dataclass(frozen=True)
class SequenceBoundResult:
    status: str  # 'ok' | 'premise_norms_not_proper' | 'premise_tau_not_proper' | 'premise_not_convergent'
    h: DistFn | None
    n: int | None
    verified: bool

    @property
    def succeeded(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {"status": self.status, "N": self.n, "verified": self.verified}


def convergent_set_bound(
    space: PNSpace,
    seq: SequenceSpec,
    target,
    lam: float = 0.25,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DPLUS_TOL,
) -> SequenceBoundResult:
    """Build a proper lower bound H for the image of a convergent sequence:
    take G = pointwise min of the tail difference norms, then
    H = min(nu_{p_1}, ..., nu_{p_{N-1}}, tau(G, nu_target)).  Under the
    ``pnspace.Family`` contract each of the two minima over norms is the
    norm at the largest magnitude, as for the radius.

    Premises checked on samples: the norm maps into the proper functions,
    tau preserves properness on sampled pairs, and the sequence enters the
    lambda-neighborhood of the target within the horizon.  ``tol`` is the
    plateau tolerance of the norms, of tau and of H, and that of H's checks;
    each distinct magnitude of a term, the target or a sample is checked once.
    """
    check_tol(tol)
    target = as_vector(target, space.dim)
    terms = np.array([as_vector(seq.term(m), space.dim) for m in range(1, horizon + 1)]).reshape(-1, space.dim)
    ms = space.magnitudes(np.concatenate((terms, [target], default_samples(space).vectors))).tolist()
    norm = functools.cache(space.norm_at_magnitude)
    # every norm is built, in order, before any is checked
    if not all([norm(m).in_d_plus(tol) for m in dict.fromkeys(ms)]):
        return SequenceBoundResult("premise_norms_not_proper", None, None, False)
    if not all(space.tau(norm(m), norm(k)).in_d_plus(tol) for m, k in zip(ms[:4], ms[1:5])):
        return SequenceBoundResult("premise_tau_not_proper", None, None, False)
    verdict = convergence_probe(space, seq, target, (lam,), horizon).per_lambda[0]
    if not verdict.succeeded:
        return SequenceBoundResult("premise_not_convergent", None, None, False)
    n, t = verdict.n, len(terms)
    with np.errstate(over="ignore", invalid="ignore"):  # a difference past the largest float, as on tuples
        g = norm(max(space.magnitudes(terms[n - 1:] - target).tolist()))
    h = space.tau(g, norm(ms[t]))
    if n > 1:
        h = pointwise_min([norm(max(ms[:n - 1])), h])
    ok = h.in_d_plus(tol) and all(compare_leq(h, norm(m), tol).holds for m in dict.fromkeys(ms[:t]))
    return SequenceBoundResult("ok" if ok else "bound_unverified", h, n, ok)


@dataclass(frozen=True)
class CompactnessResult:
    compact: bool
    reason: str

    @property
    def refuted(self) -> bool:
        return not self.compact

    def to_dict(self) -> dict:
        return {"compact": self.compact, "refuted": self.refuted, "reason": self.reason}


def compactness_probe(space: PNSpace, a: SetSpec) -> CompactnessResult:
    """Decided: the set is compact exactly when it is finite.

    Every built-in norm induces the Euclidean or the discrete strong
    topology (``strong_topology_class``).  In the discrete class only the
    finite sets are compact.  In the Euclidean class a set is compact
    exactly when it is closed and bounded in the base norm (Heine-Borel),
    and every infinite kind is unbounded (the whole line, the geometric
    image, an interval with an infinite end) or not closed (the rationals
    in [lo, hi] miss its irrationals, a harmonic or geometric-decay image
    misses its classical limit).  The reason names the class and the
    property that fails.
    """
    largest, finite = a.geometry(space)
    cls = strong_topology_class(space)
    if finite:
        why = "is finite"
    elif cls == "discrete":
        why = "is infinite"
    elif largest == math.inf:
        why = "is unbounded in the base norm"
    elif a.kind == "interval_rationals":
        why = "is not closed: it misses the irrationals between its ends"
    else:
        why = f"is not closed: it misses its limit {list(a.seq.classical_limit())}"
    return CompactnessResult(finite, f"{space.describe()} is {cls}-class and {a.describe()} {why}")
