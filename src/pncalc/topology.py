"""Strong-topology probes: neighborhoods, convergence, Cauchy tails,
completeness, norm equivalence, and the finite-dimensional comparison
constant between a space and a scalar-field norm.

Convergence and Cauchy verdicts are horizon-bounded, over a finite prefix
of the sequence; margins are reported so failures are diagnosable.
Equivalence is decided: it compares the strong-topology classes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from .distfn import _distinct, compare_leq
from .pnspace import PNSpace, Vector, _largest_feasible, as_vector, parse_vectors, strong_tvs_probe, vec_scale, vec_sub

DEFAULT_LAMBDAS = (0.5, 0.25, 0.1, 0.05)
DEFAULT_HORIZON = 64
#: the probes read O(horizon) magnitudes, the Cauchy probe in dim > 1 one
#: numpy row of pair magnitudes per term: at 4096 a Cauchy probe takes
#: about 10 ms in dim 1 and 0.2-0.6 s in dim 2 (on a 2-CPU x86 host)
MAX_HORIZON = 4096


@dataclass(frozen=True)
class SequenceSpec:
    """Deterministic vector sequence: an explicit list, or a generator
    (harmonic 1/m, geometric 2^m, geometric decay 2^-m) times a direction."""

    kind: str  # 'explicit' | 'harmonic' | 'geometric' | 'geometric_decay'
    direction: Vector = (1.0,)
    terms: tuple[Vector, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("explicit", "harmonic", "geometric", "geometric_decay"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "explicit" and not self.terms:
            raise ValueError("explicit sequence needs terms")

    def term(self, m: int) -> Vector:
        if m < 1:
            raise ValueError("terms are 1-indexed")
        if self.kind == "explicit":
            return self.terms[min(m, len(self.terms)) - 1]
        if self.kind == "harmonic":
            return vec_scale(1.0 / m, self.direction)
        if self.kind == "geometric":
            try:
                return vec_scale(2.0**m, self.direction)
            except OverflowError:
                raise ValueError(f"geometric term {m}: 2^{m} exceeds the float range") from None
        return vec_scale(2.0**-m, self.direction)

    def classical_limit(self) -> Vector | None:
        """Componentwise limit of the tuple sequence, when recognizable."""
        if self.kind in ("harmonic", "geometric_decay"):
            return tuple(0.0 for _ in self.direction)
        if self.kind == "explicit":
            if all(t == self.terms[0] for t in self.terms):
                return self.terms[0]
            return None
        return None  # geometric escapes

    def describe(self) -> str:
        if self.kind == "explicit":
            return f"explicit[{len(self.terms)}]"
        return self.kind


def parse_sequence(text: str, dim: int = 1) -> SequenceSpec:
    """Parse ``harmonic``, ``geometric``, ``geometric_decay`` or
    ``explicit:v1;v2;...`` (components comma-separated within a term)."""
    direction = (1.0,) + (0.0,) * (dim - 1)
    if text in ("harmonic", "geometric", "geometric_decay"):
        return SequenceSpec(text, direction)
    kind, _, rest = text.partition(":")
    if kind == "explicit" and rest:
        return SequenceSpec("explicit", direction, parse_vectors(rest))
    raise ValueError(f"malformed sequence spec {text!r}")


def check_probe_args(lambdas, horizon: int) -> None:
    """Reject levels outside (0, 1), a horizon with no term to probe and
    a horizon above ``MAX_HORIZON``."""
    if not lambdas:
        raise ValueError("lambda list must be nonempty")
    if not all(0.0 < lam < 1.0 for lam in lambdas):
        raise ValueError("lambda must lie in (0, 1)")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon must be <= {MAX_HORIZON}, got {horizon}")


def neighborhood_contains(space: PNSpace, p, q, lam: float) -> bool:
    """Strong lambda-neighborhood membership: nu_{p-q}(lambda) > 1 - lambda."""
    check_probe_args((lam,), 1)
    p = as_vector(p, space.dim)
    q = as_vector(q, space.dim)
    return space.norm_of(vec_sub(p, q)).eval(lam) > 1.0 - lam


@dataclass(frozen=True)
class LambdaVerdict:
    lam: float
    n: int | None  # least tail start, None on failure
    worst_margin: float  # most negative membership margin seen

    @property
    def succeeded(self) -> bool:
        return self.n is not None


@dataclass(frozen=True)
class ConvergenceReport:
    per_lambda: tuple[LambdaVerdict, ...]
    horizon: int

    @property
    def converges(self) -> bool:
        return all(v.succeeded for v in self.per_lambda)

    def verdict_at(self, lam: float) -> LambdaVerdict:
        for v in self.per_lambda:
            if v.lam == lam:
                return v
        raise KeyError(lam)

    def to_dict(self) -> dict:
        return {
            "converges": self.converges,
            "per_lambda": [
                {"lambda": v.lam, "N": v.n, "worst_margin": v.worst_margin} for v in self.per_lambda
            ],
            "horizon": self.horizon,
        }


def _tail_report(space: PNSpace, suffix, lambdas, horizon: int, offset: int) -> ConvergenceReport:
    """Per lambda, the first start k with ``suffix[k]`` inside the strong
    lambda-neighborhood of 0 gives N = max(k + offset, 1), or None when no
    start is inside; the worst margin is read at ``suffix[0]`` (inf when
    empty).  ``suffix`` does not grow with k and the norm is nonincreasing
    in the magnitude, so the starts inside form a final segment."""
    verdicts = []
    for lam in lambdas:

        def margin(m: float) -> float:
            return space.norm_at_magnitude(m).eval(lam) - (1.0 - lam)

        k = bisect_left(suffix, True, key=lambda m: margin(m) > 0.0)
        worst = margin(suffix[0]) if suffix else math.inf
        verdicts.append(LambdaVerdict(lam, None if k == len(suffix) else max(k + offset, 1), worst))
    return ConvergenceReport(tuple(verdicts), horizon)


def convergence_probe(
    space: PNSpace,
    seq: SequenceSpec,
    target,
    lambdas=DEFAULT_LAMBDAS,
    horizon: int = DEFAULT_HORIZON,
) -> ConvergenceReport:
    """Least N per lambda with the whole tail N..horizon inside the strong
    lambda-neighborhood of the target, or failure with the worst margin.
    A tail is inside exactly when its largest distance to the target is."""
    check_probe_args(lambdas, horizon)
    target = as_vector(target, space.dim)
    dists = [space.magnitude(vec_sub(as_vector(seq.term(m), space.dim), target)) for m in range(1, horizon + 1)]
    return _tail_report(space, list(accumulate(reversed(dists), max))[::-1], lambdas, horizon, 1)


def cauchy_probe(
    space: PNSpace,
    seq: SequenceSpec,
    lambdas=DEFAULT_LAMBDAS,
    horizon: int = DEFAULT_HORIZON,
) -> ConvergenceReport:
    """Pairwise tail check: least N with nu_{p_n - p_m}(lambda) > 1 - lambda
    for all N < m < n <= horizon.  The pairs from index i on are inside
    exactly when the largest distance between two of those terms is."""
    check_probe_args(lambdas, horizon)
    terms = [as_vector(seq.term(m), space.dim) for m in range(1, horizon + 1)]
    diam, d = [0.0] * (horizon - 1), 0.0
    if space.dim == 1:
        # the farthest later term is the largest or the smallest one
        hi = lo = terms[-1][0]
        for i in range(horizon - 2, -1, -1):
            x = terms[i][0]
            d = diam[i] = max(d, hi - x, x - lo)
            hi, lo = max(hi, x), min(lo, x)
    else:
        # numpy shortlists the later terms near the farthest one (scaled by
        # the largest component, so nothing overflows; one row per
        # component, so norms reduce over the short axis), and
        # ``space.magnitude`` settles each distinct difference exactly
        order = {"l1": 1, "l2": 2, "linf": np.inf}[space.base_norm]
        points = np.array(terms)
        _, first, ids = np.unique(points, axis=0, return_index=True, return_inverse=True)
        columns = np.ascontiguousarray(points.T)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(horizon - 2, -1, -1):
                diffs = columns[:, i + 1 :] - columns[:, i, None]
                near = ids[i + 1 :]
                scale = np.abs(diffs).max()
                if 0.0 < scale < math.inf:
                    row = np.linalg.norm(diffs / scale, ord=order, axis=0)
                    near = near[row >= row.max() * (1.0 - 1e-9)]
                shortlist = columns[:, first[_distinct(near)]] - columns[:, i, None]
                d = diam[i] = max(d, *map(space.magnitude, set(map(tuple, shortlist.T.tolist()))))
    return _tail_report(space, diam, lambdas, horizon, 0)


@dataclass(frozen=True)
class CompletenessResult:
    status: str  # 'cauchy_and_converges' | 'cauchy_no_limit_detected' | 'not_cauchy'
    limit: Vector | None
    cauchy: ConvergenceReport
    convergence: ConvergenceReport | None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "limit": list(self.limit) if self.limit is not None else None,
            "cauchy": self.cauchy.to_dict(),
            "convergence": self.convergence.to_dict() if self.convergence else None,
        }


def completeness_probe(
    space: PNSpace,
    seq: SequenceSpec,
    lambdas=DEFAULT_LAMBDAS,
    horizon: int = DEFAULT_HORIZON,
) -> CompletenessResult:
    """Run the Cauchy probe; on success propose the componentwise classical
    limit of the tuple sequence and re-run the convergence probe toward it."""
    cr = cauchy_probe(space, seq, lambdas, horizon)
    if not cr.converges:
        return CompletenessResult("not_cauchy", None, cr, None)
    limit = seq.classical_limit()
    if limit is None:
        return CompletenessResult("cauchy_no_limit_detected", None, cr, None)
    limit = as_vector(limit, space.dim)
    conv = convergence_probe(space, seq, limit, lambdas, horizon)
    if conv.converges:
        return CompletenessResult("cauchy_and_converges", limit, cr, conv)
    return CompletenessResult("cauchy_no_limit_detected", None, cr, conv)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    reason: str
    equivalent_on_battery: bool
    witness: str | None
    details: tuple[dict, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def default_battery(dim: int = 1):
    direction = (1.0,) + (0.0,) * (dim - 1)
    zero = (0.0,) * dim
    constant = SequenceSpec("explicit", direction, terms=(direction,) * 4)
    return [
        (SequenceSpec("harmonic", direction), zero),
        (SequenceSpec("geometric_decay", direction), zero),
        (constant, direction),
    ]


def strong_topology_class(space: PNSpace) -> str:
    """``"Euclidean"`` or ``"discrete"``, as ``strong_tvs_probe`` decides."""
    return "Euclidean" if strong_tvs_probe(space).ok else "discrete"


def equivalence_probe(
    space_a: PNSpace,
    space_b: PNSpace,
    battery=None,
    lambdas=DEFAULT_LAMBDAS,
    horizon: int = DEFAULT_HORIZON,
) -> EquivalenceResult:
    """Decided: every family induces the Euclidean or the discrete strong
    topology, and two norms are equivalent exactly when these match.  The
    battery's horizon-bounded convergence verdicts are kept as evidence,
    with the first item on which they differ as the witness."""
    if space_a.dim != space_b.dim:
        raise ValueError("spaces must share a dimension")
    if battery is None:
        battery = default_battery(space_a.dim)
    if not battery:
        raise ValueError("battery must be nonempty")
    details = []
    for seq, target in battery:
        va = convergence_probe(space_a, seq, target, lambdas, horizon).converges
        vb = convergence_probe(space_b, seq, target, lambdas, horizon).converges
        details.append({"sequence": seq.describe(), "a_converges": va, "b_converges": vb})
    witness = next((d["sequence"] for d in details if d["a_converges"] != d["b_converges"]), None)
    ca, cb = strong_topology_class(space_a), strong_topology_class(space_b)
    reason = f"{space_a.describe()} is {ca}-class and {space_b.describe()} is {cb}-class"
    return EquivalenceResult(ca == cb, reason, witness is None, witness, tuple(details))


def linearly_independent(vectors, tol: float = 1e-12) -> bool:
    """Gaussian elimination with partial pivoting; independent when the
    row-echelon rank (pivots above tol) equals the number of vectors."""
    rows = [list(map(float, v)) for v in vectors]
    n = len(rows)
    if n == 0:
        return True
    cols = len(rows[0])
    if any(len(r) != cols for r in rows) or n > cols:
        return False
    rank = 0
    for col in range(cols):
        piv = max(range(rank, n), key=lambda r: abs(rows[r][col]))
        if abs(rows[piv][col]) <= tol:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pval = rows[rank][col]
        for r in range(rank + 1, n):
            factor = rows[r][col] / pval
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n:
            return True
    return rank == n


def default_coeff_samples(n: int, count: int = 200, seed: int = 0) -> tuple[tuple[float, ...], ...]:
    """Coefficient vectors on the unit l1 sphere: a deterministic edge grid
    for n = 2, random simplex points with sign patterns otherwise."""
    out: set[tuple[float, ...]] = set()
    if n == 1:
        return ((1.0,), (-1.0,))
    if n == 2:
        for t in np.linspace(0.0, 1.0, count + 1):
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    out.add((s1 * t, s2 * (1.0 - t)))
        return tuple(sorted(out))
    rng = np.random.default_rng(seed)
    for i in range(n):
        for sgn in (1.0, -1.0):
            e = [0.0] * n
            e[i] = sgn
            out.add(tuple(e))
    while len(out) < count:
        w = rng.dirichlet(np.ones(n))
        signs = rng.choice((-1.0, 1.0), size=n)
        out.add(tuple(float(s * c) for s, c in zip(signs, w)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class ComparisonConstant:
    c: float | None
    n_samples: int

    @property
    def found(self) -> bool:
        return self.c is not None


def find_comparison_constant(
    space: PNSpace,
    basis,
    field_space: PNSpace,
    coeff_samples=None,
) -> ComparisonConstant:
    """Largest c > 0 with nu_{sum beta_j p_j} <= nu'_c for every sampled
    coefficient vector on the unit l1 sphere (nu' is the field norm).

    The norm is nonincreasing in the magnitude, so the pointwise largest
    left side is the one at the smallest sampled magnitude, and each
    feasibility test is one comparison against it.  Feasibility is
    monotone in c because the field norm shrinks as its argument grows;
    c is found by doubling then bisection from 1e-12.  A search failure
    is not a refutation of the comparison inequality's existence.
    """
    basis = [as_vector(b, space.dim) for b in basis]
    if not linearly_independent(basis):
        raise ValueError("basis vectors must be linearly independent")
    if field_space.dim != 1:
        raise ValueError("field norm must be one-dimensional")
    if coeff_samples is None:
        coeff_samples = default_coeff_samples(len(basis))
    magnitudes = [
        space.magnitude(tuple(sum(b * p[i] for b, p in zip(beta, basis)) for i in range(space.dim)))
        for beta in coeff_samples
    ]
    if not magnitudes:
        raise ValueError("coefficient samples must be nonempty")
    lhs = space.norm_at_magnitude(min(magnitudes))
    c = _largest_feasible(lambda c: compare_leq(lhs, field_space.norm_of((c,))).holds, 1e-12)
    return ComparisonConstant(c, len(magnitudes))
