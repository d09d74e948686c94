"""Probabilistic normed spaces: built-in norm families and axiom probes.

A space is a finite-dimensional real vector space together with a map
``nu`` from vectors into the distribution-function space and a pair of
triangle functions (tau, tau_star).  The built-in families, all driven
by the magnitude of the vector:

==========  ===========================================================
id          nu_p for p != 0                          (nu_theta = eps(0))
==========  ===========================================================
``E9``      unit step at |p| / (a + |p|)
``E12``     plateau at exp(-|p|^(1/2))
``E19``     unit step at ||p||           (base norm l1 / l2 / linf)
``E19b``    unit step at ||p|| / (a + ||p||)
``E21``     plateau at 1 / (|p| + 2)
``E25``     ratio with scale |p|^(1/2)
``E27``     unit step at (a + |p|) / a
==========  ===========================================================

Everything the code knows about a family lives in its ``Family`` record
in ``_FAMILIES``: its norm, as a shape (the column above: unit step,
plateau or ratio) and the one scalar map ``at`` from the magnitude to
the shape's parameter, its native triangle-function pair, the parameters
it reads and the limits of nu_p as the magnitude grows and as it shrinks
to 0.  ``norm_at_magnitude`` builds one norm from the record, and
``norm_rows`` the packed rows of many Step norms from the same floats,
on which the axiom battery, the scalar-monotonicity check and the
lower-bound witness of ``boundedness`` decide all their comparisons at
once.

The probes report violations as data rather than raising; every checker
is a pure function of immutable inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import types
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .distfn import (
    EPS0,
    EPS_INF,
    DistFn,
    Plateau,
    Ratio,
    _distinct,
    check_tol,
    compare_leq,
    distfn_equal,
    eps,
)
from .tnorms import LawCheck
from .triangle import TriangleFn, _leq_rows, _pack, parse_triangle

Vector = tuple[float, ...]

#: Largest carrier dimension: the default battery holds 10 * (dim + 1) + 1
#: vectors and N3 reads the magnitude of every pair of them, a block of p
#: at a time, so ``axioms --space E19:l2,dim=64`` takes about 0.9 s, most
#: of it ``math.hypot`` over the 423,801 sums, and its tracemalloc peak
#: is about 8 MB, mostly their magnitudes (2-CPU x86 host)
MAX_DIM = 64

#: Relative slack of N3's magnitude of p + q, 128 u (u = 2^-53): rounding
#: p + q moves a base norm by u, ``hypot`` errs by under 2u and an l1 sum
#: of d terms by (d - 1) u, so a finite |p + q| errs by (d + 2) u <= 66 u.
N3_SLACK = 2.0**-46

#: the base norms, which ``PNSpace.magnitudes`` alone computes
_BASE_NORMS = ("l1", "l2", "linf")


@dataclass(frozen=True)
class Family:
    """One built-in family of radial norms.

    nu_p for a vector of magnitude m > 0 is the ``shape`` (the unit step
    eps(t), Plateau(gamma) or Ratio(beta)) at the one parameter
    ``at(m, a)``; ``PNSpace.norm_at_magnitude`` builds it as a DistFn,
    and ``PNSpace.norm_rows`` builds the rows of many Step norms at once
    from the same floats.

    Contract: the norm is nonincreasing in the magnitude, so m <= m'
    gives nu(m') <= nu(m) pointwise, and ``limit`` is the
    (left-continuous) limit as m grows.  An infimum of norms over a set of
    vectors is therefore the norm at the largest magnitude, and a
    supremum the norm at the smallest; the radius, the comparison
    constant and the small-scalar and vanishing probes read one norm at
    such an extreme magnitude instead of scanning the set.
    """

    #: 'step', 'plateau' or 'ratio': the form of nu_p
    shape: str
    #: the form's parameter at magnitude m > 0, given the parameter a
    at: Callable[[float, float], float]
    #: native (tau, tau_star) pair, as ``parse_triangle`` specs
    taus: tuple[str, str]
    #: whether ``at`` reads the parameter a (which must then be positive)
    reads_a: bool = False
    #: whether the carrier may have dimension above 1 (where the base norm matters)
    multi_dim: bool = False
    #: limit of nu_p as the magnitude grows without bound, taken
    #: left-continuous (E9 and E19b: the step at 1, which reads 0 at x = 1
    #: although every nu_p reads 1 there)
    limit: DistFn = EPS_INF
    #: limit of nu_p as the magnitude shrinks to 0, taken left-continuous;
    #: eps_0 exactly when the strong topology is Euclidean
    limit0: DistFn = EPS0


_SHAPES = {"step": eps, "plateau": Plateau, "ratio": Ratio}

_FAMILIES = {
    "E9": Family("step", lambda m, a: m / (a + m), ("sup:prod", "max"), reads_a=True, limit=eps(1.0)),
    "E12": Family("plateau", lambda m, a: math.exp(-math.sqrt(m)), ("sup:prod", "inf:prod")),
    "E19": Family("step", lambda m, a: m, ("sup:prod", "max"), multi_dim=True),
    "E19b": Family("step", lambda m, a: m / (a + m), ("sup:prod", "max"), reads_a=True, multi_dim=True,
                   limit=eps(1.0)),
    "E21": Family("plateau", lambda m, a: 1.0 / (m + 2.0), ("sup:lukasiewicz", "sup:min"), limit0=Plateau(0.5)),
    "E25": Family("ratio", lambda m, a: math.sqrt(m), ("sup:prod", "inf:t2")),
    "E27": Family("step", lambda m, a: (a + m) / a, ("sup:prod", "max"), reads_a=True, limit0=eps(1.0)),
}

FAMILIES = tuple(_FAMILIES)


def as_vector(p, dim: int) -> Vector:
    if isinstance(p, (int, float)):
        p = (float(p),)
    v = tuple(float(c) for c in p)
    if len(v) != dim:
        raise ValueError(f"vector {v} has length {len(v)}, expected {dim}")
    return v


def as_vectors(ps, dim: int) -> np.ndarray:
    """The vectors ps as one (n, dim) float array, row by row as ``as_vector``
    reads them: one numpy conversion reads rows of reals of one length, and
    ``as_vector`` anything else (scalars, ragged rows, None), raising its errors."""
    try:
        vs = np.array(ps)
    except ValueError:  # ragged rows, or scalars among rows
        vs = None
    if vs is not None and vs.ndim == 2 and vs.shape[1] == dim and vs.dtype.kind in "biuf":
        return vs.astype(float, copy=False)
    return np.array([as_vector(p, dim) for p in ps], dtype=float).reshape(-1, dim)


def parse_vectors(text: str) -> tuple[Vector, ...]:
    """Parse the vector-list syntax ``1,0;0,1``: vectors separated by
    semicolons, components by commas."""
    return tuple(tuple(float(c) for c in t.split(",")) for t in text.split(";"))


def vec_sub(p: Vector, q: Vector) -> Vector:
    return tuple(a - b for a, b in zip(p, q))

def vec_scale(a: float, p: Vector) -> Vector:
    return tuple(a * c for c in p)

def is_zero(p: Vector) -> bool:
    return all(c == 0.0 for c in p)


@dataclass(frozen=True)
class PNSpace:
    family: str
    dim: int
    tau: TriangleFn
    tau_star: TriangleFn
    a: float = 1.0
    base_norm: str = "l2"

    def __post_init__(self):
        fam = _FAMILIES.get(self.family)
        if fam is None:
            raise ValueError(f"unknown space family {self.family!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.dim > MAX_DIM:
            raise ValueError(f"dimension must be <= {MAX_DIM}, got {self.dim}")
        if self.dim != 1 and not fam.multi_dim:
            raise ValueError(f"family {self.family} is one-dimensional")
        if fam.reads_a and not 0.0 < self.a < math.inf:
            raise ValueError("parameter a must be positive and finite")
        if self.base_norm not in _BASE_NORMS:
            raise ValueError(f"unknown base norm {self.base_norm!r}")

    @property
    def zero(self) -> Vector:
        return (0.0,) * self.dim

    def magnitude(self, p) -> float:
        """The base norm of the vector p, checked for its length, as one row of ``magnitudes``."""
        return self.magnitudes(as_vector(p, self.dim)).item()

    def magnitudes(self, vs) -> np.ndarray:
        """The base norm of each row of the (n, dim) array vs, the only
        definition of l1, l2 and linf.  l1 and linf fold the |c| column by
        column, left to right, as ``reduce`` would on a tuple (numpy's
        ``sum`` adds pairwise from 8 terms on and its ``max`` lets a NaN
        win), and l2 in dim > 1 is ``math.hypot`` per row.  Every battery
        and probe reads its vectors through one call."""
        vs = np.asarray(vs, dtype=float).reshape(-1, self.dim)
        if self.base_norm == "l2" and self.dim > 1:
            # one row of floats at a time, read from the array's buffer
            rows = struct.iter_unpack(f"{self.dim}d", np.ascontiguousarray(vs))
            return np.fromiter(itertools.starmap(math.hypot, rows), float, len(vs))
        out = np.abs(vs[:, 0])
        if self.dim > 1:
            with np.errstate(over="ignore"):  # an l1 sum past the largest float
                for col in np.abs(vs[:, 1:]).T:
                    if self.base_norm == "l1":
                        out += col
                    else:  # max keeps the first of equal values, and a NaN it meets first
                        np.copyto(out, col, where=col > out)
        return out

    def norm_of(self, p) -> DistFn:
        """The distribution-valued norm of the vector p."""
        return self.norm_at_magnitude(self.magnitude(p))

    def norm_at_magnitude(self, m: float) -> DistFn:
        """norm_of at any vector of magnitude m >= 0 (all families are
        radial); at m = inf, the limit of nu_p as the magnitude grows."""
        if m == 0.0:
            return EPS0
        fam = _FAMILIES[self.family]
        return fam.limit if m == math.inf else _SHAPES[fam.shape](fam.at(m, self.a))

    @property
    def step_norms(self) -> bool:
        """Whether every norm is a Step, so that ``norm_rows`` builds them."""
        return _FAMILIES[self.family].shape != "ratio"

    def norm_rows(self, ms) -> tuple[np.ndarray, np.ndarray]:
        """``norm_at_magnitude`` at each of the magnitudes ms, as the packed
        rows of ``triangle._pack`` (one jump a row), for a family whose
        norms are Steps.  The rows come from the floats ``at`` gives, and
        no Step is built: m = 0 gives eps_0's row and m = inf the limit's,
        and a threshold at +inf gives eps(inf)'s, whose levels are (0, 0),
        as the row kernels read the last level as the plateau."""
        fam = _FAMILIES[self.family]
        ms = np.asarray(ms, dtype=float)
        at = np.array([fam.at(m, self.a) for m in ms.tolist()], dtype=float)
        if fam.shape == "step":
            ok, jumps, top = at >= 0.0, at, (at < math.inf).astype(float)
        else:
            ok, jumps, top = (at >= 0.0) & (at <= 1.0), np.zeros(len(at)), at
        zero, limit = ms == 0.0, ms == math.inf
        if not (ok | zero | limit).all():  # a NaN magnitude: raise what the constructor raises
            self.norm_at_magnitude(float(ms[~(ok | zero | limit)][0]))
        limit_jumps, limit_levels = _pack([fam.limit])
        jumps[zero], top[zero] = 0.0, 1.0
        jumps[limit], top[limit] = limit_jumps[0, 0], limit_levels[0, 1]
        return jumps[:, None], np.stack((np.zeros(len(ms)), top), axis=1)

    def describe(self) -> str:
        fam = _FAMILIES[self.family]
        parts = [self.family]
        if fam.reads_a:
            parts.append(f"a={self.a:g}")
        if fam.multi_dim:
            parts.append(self.base_norm)
            if self.dim != 1:
                parts.append(f"dim={self.dim}")
        return ":".join([parts[0], ",".join(parts[1:])]) if len(parts) > 1 else parts[0]


def make_space(
    family: str,
    *,
    dim: int | None = None,
    a: float = 1.0,
    base_norm: str = "l2",
    tau: TriangleFn | str | None = None,
    tau_star: TriangleFn | str | None = None,
) -> PNSpace:
    if family not in _FAMILIES:
        raise ValueError(f"unknown space family {family!r}; choose from {FAMILIES}")
    if dim is None:
        dim = 1
    d_tau, d_star = _FAMILIES[family].taus
    tau = parse_triangle(tau) if isinstance(tau, str) else (tau or parse_triangle(d_tau))
    tau_star = (
        parse_triangle(tau_star) if isinstance(tau_star, str) else (tau_star or parse_triangle(d_star))
    )
    return PNSpace(family, dim, tau, tau_star, a, base_norm)


def parse_space(text: str, tau: str | None = None, tau_star: str | None = None) -> PNSpace:
    """Parse CLI space specs like ``E9:a=1``, ``E19:l2,dim=2``, ``E19b:a=1,l2``."""
    head, _, rest = text.partition(":")
    kwargs: dict = {}
    if rest:
        for tokraw in rest.split(","):
            tok = tokraw.strip()
            if not tok:
                continue
            if "=" in tok:
                key, val = tok.split("=", 1)
                if key == "a":
                    kwargs["a"] = float(val)
                elif key == "dim":
                    kwargs["dim"] = int(val)
                else:
                    raise ValueError(f"unknown space parameter {key!r} in {text!r}")
            elif tok in _BASE_NORMS:
                kwargs["base_norm"] = tok
            else:
                raise ValueError(f"unknown space token {tok!r} in {text!r}")
    return make_space(head, tau=tau, tau_star=tau_star, **kwargs)


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic probe battery: vectors, convex weights and scalars."""

    vectors: tuple[Vector, ...]
    lambdas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    alphas: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)


_MAGNITUDES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0, 8.0, -8.0)


def default_samples(space: PNSpace) -> SampleSpec:
    """Each of ``_MAGNITUDES`` times each unit vector and, in dim > 1, the
    all-ones vector; of equal vectors the first stays."""
    dirs = [tuple(float(i == j) for j in range(space.dim)) for i in range(space.dim)]
    if space.dim > 1:
        dirs.append((1.0,) * space.dim)
    return SampleSpec(vectors=tuple(dict.fromkeys(vec_scale(c, d) for c in _MAGNITUDES for d in dirs)))


@dataclass(frozen=True)
class AxiomReport:
    n1: LawCheck
    n2: LawCheck
    n3: LawCheck
    n4: LawCheck
    tau_le_tau_star: LawCheck

    @property
    def all_hold(self) -> bool:
        return all(c.ok for c in (self.n1, self.n2, self.n3, self.n4))

    def to_dict(self) -> dict:
        return {
            "N1": self.n1.ok,
            "N2": self.n2.ok,
            "N3": self.n3.ok,
            "N4": self.n4.ok,
            "tau_le_tau_star": self.tau_le_tau_star.ok,
        }


def _same(o, m, n):
    return o.norm(m), o.norm(n)


def _n3(o, m_p, m_q, m_sum):
    return o.tau(m_p, m_q), o.norm(m_sum * (1.0 - N3_SLACK))


def _n4(o, m_p, m_lam, m_rest):
    return o.norm(m_p), o.tau_star(m_lam, m_rest)


def _order(o, m, n):
    return o.tau(m, n), o.tau_star(m, n)


class _NormChecks:
    """Order checks F <= G + tol on norms, keyed by magnitudes.

    A law maps operands ``o`` and a key of magnitudes to its pair (F, G),
    built from ``o.norm`` at a magnitude and ``o.tau`` and ``o.tau_star``
    of the norms at two.  ``holds`` decides a law at each position of its
    key columns: where the norms are Steps, on packed rows, all at once
    (``norm_rows``, ``TriangleFn.on_rows`` and ``triangle._leq_rows``);
    else by one ``compare_leq`` per distinct key, on norms and
    convolutions built once per magnitude and pair.  ``witness`` reads one
    key with ``compare_leq``.  Nothing outlives the call that makes it.
    """

    def __init__(self, space: PNSpace, tol: float, ms):
        norm = functools.cache(space.norm_at_magnitude)
        objects = types.SimpleNamespace(
            norm=norm,
            tau=functools.cache(lambda m, n: space.tau(norm(m), norm(n))),
            tau_star=functools.cache(lambda m, n: space.tau_star(norm(m), norm(n))),
        )
        self.objects, self.tol, self.rows = objects, tol, None
        if space.step_norms:
            # the rows of every magnitude the laws read, in the arrays ms, built once
            table = _distinct(np.concatenate(ms))
            jumps, levels = space.norm_rows(table)

            def rows(m):
                i = np.searchsorted(table, m)
                return jumps[i], levels[i]

            self.rows = types.SimpleNamespace(
                norm=rows,
                tau=lambda m, n: space.tau.on_rows(rows(m), rows(n)),
                tau_star=lambda m, n: space.tau_star.on_rows(rows(m), rows(n)),
            )

    def holds(self, law, *cols: np.ndarray) -> np.ndarray:
        if self.rows is not None:
            return _leq_rows(*law(self.rows, *cols), self.tol)
        keys = list(zip(*(c.tolist() for c in cols)))
        verdicts = {key: compare_leq(*law(self.objects, *key), self.tol).holds for key in dict.fromkeys(keys)}
        return np.fromiter(map(verdicts.__getitem__, keys), bool, len(keys))

    def equal(self, m: np.ndarray, n: np.ndarray) -> np.ndarray:
        # the norm at one magnitude equals itself with no read
        ok, other = m == n, m != n
        if other.any():
            ok[other] = self.holds(_same, m[other], n[other]) & self.holds(_same, n[other], m[other])
        return ok

    def witness(self, law, *key: float) -> float:
        # Python floats, so that the norms built carry no numpy scalars
        return compare_leq(*law(self.objects, *map(float, key)), self.tol).witness


def _failing(ok: np.ndarray) -> list[int]:
    """The first three positions where a law fails: a report keeps those."""
    return [] if ok.all() else np.flatnonzero(~ok)[:3].tolist()


#: floats of vector sums that N3 reads at once: the pairs of a block of p
#: with every q, so that memory grows as n dim and not n^2 dim
_PAIR_BLOCK = 1 << 16


def axiom_suite(space: PNSpace, samples: SampleSpec | None = None, tol: float = 1e-9) -> AxiomReport:
    """Check N1-N4 pointwise on the sample battery.

    N1: nu_theta is the unit step at 0, and no other sampled vector maps to it.
    N2: nu_{-p} = nu_p.
    N3: nu_{p+q} >= tau(nu_p, nu_q), reading nu_{p+q} at m (1 - delta),
        m the computed |p + q| and delta = ``N3_SLACK``: at most the exact
        |p + q|, so by the ``Family`` contract the largest norm p + q can
        have.  Only a violation within a relative delta of m can hide.
    N4: nu_p <= tau_star(nu_{lambda p}, nu_{(1-lambda) p}).
    The tau <= tau_star requirement is probed on the sampled norm pairs.

    Every norm is radial, so each check reads its vectors only through
    their magnitudes, computed on arrays as ``magnitude`` computes them on
    tuples: N3 at (|p|, |q|, |p + q|) for every pair, N4 at (|p|,
    |lambda p|, |(1 - lambda) p|), the order check at consecutive
    magnitudes.  Where the norms are Steps, each law is decided on packed
    rows for all its positions at once; a Ratio family compares once per
    distinct key.  The report keeps the first three violations of each law
    in the order of the pairwise scan, and only those are read again, by
    ``compare_leq``, for their witnesses.
    """
    check_tol(tol)
    if samples is None:
        samples = default_samples(space)
    if not samples.vectors:
        raise ValueError("sample battery must be nonempty")

    # of equal vectors the first stays, -0.0 equal to 0.0 as tuples compare
    vectors = list(dict.fromkeys(map(tuple, as_vectors(samples.vectors, space.dim).tolist())))
    vs, n, lams = np.array(vectors), len(vectors), samples.lambdas
    with np.errstate(over="ignore", invalid="ignore"):  # sums and scalings past the largest float, as on tuples
        both = space.magnitudes(np.concatenate((vs, -1.0 * vs)))
        ms, neg = both[:n], both[n:]
        # lambda p and (1 - lambda) p, p first
        scales = np.array([*lams, *(1.0 - lam for lam in lams)], dtype=float)
        split = space.magnitudes(scales[:, None] * vs[:, None]).reshape(n, -1)
        m_lam, m_rest = split[:, :len(lams)].ravel(), split[:, len(lams):].ravel()
        # the pairs (p, q), p first, for a block of p at a time
        block = max(1, _PAIR_BLOCK // (n * space.dim))
        m_sum, distinct = np.empty(n * n), []
        for i in range(0, n, block):
            m_sum[i * n:(i + block) * n] = space.magnitudes(vs[i:i + block, None] + vs)
            if space.step_norms:  # the magnitudes that rows are built for
                distinct.append(_distinct(m_sum[i * n:(i + block) * n]))
    checks = _NormChecks(space, tol, [ms, neg, m_lam, m_rest, [0.0], *(m * (1.0 - N3_SLACK) for m in distinct)])
    # N3 by blocks of p too, as its rows would hold all n^2 pairs at once
    m_q = np.tile(ms, min(block, n))
    n3_ok = np.concatenate([
        checks.holds(_n3, ms[i:i + block].repeat(n), m_q[:len(ms[i:i + block]) * n], m_sum[i * n:(i + block) * n])
        for i in range(0, n, block)])

    unit = checks.equal(np.concatenate((space.magnitudes(space.zero), ms)), np.zeros(n + 1))
    n1_v = [] if unit[0] else [("theta", space.zero)]
    n1_v += [("nonzero maps to unit step", p) for p, u in zip(vectors, unit[1:]) if u and not is_zero(p)]
    n2_v = [(p,) for p, ok in zip(vectors, checks.equal(neg, ms)) if not ok]

    n3_v = [(vectors[k // n], vectors[k % n], checks.witness(_n3, ms[k // n], ms[k % n], m_sum[k]))
            for k in _failing(n3_ok)]
    n4_v = [(vectors[k // len(lams)], lams[k % len(lams)],
             checks.witness(_n4, ms[k // len(lams)], m_lam[k], m_rest[k]))
            for k in _failing(checks.holds(_n4, np.repeat(ms, len(lams)), m_lam, m_rest))]
    following = np.concatenate((ms[1:], ms[:1]))
    order_v = [(checks.witness(_order, ms[k], following[k]),) for k in _failing(checks.holds(_order, ms, following))]

    return AxiomReport(
        n1=LawCheck(not n1_v, tuple(n1_v[:3])),
        n2=LawCheck(not n2_v, tuple(n2_v[:3])),
        n3=LawCheck(bool(n3_ok.all()), tuple(n3_v)),
        n4=LawCheck(not n4_v, tuple(n4_v)),
        tau_le_tau_star=LawCheck(not order_v, tuple(order_v)),
    )


@dataclass(frozen=True)
class ScalingViolation:
    alpha: float
    p: Vector
    x: float
    lhs: DistFn
    rhs: DistFn


@dataclass(frozen=True)
class ScalingResult:
    holds: bool
    violations: tuple[ScalingViolation, ...]

    @property
    def witness(self) -> ScalingViolation | None:
        return self.violations[0] if self.violations else None


def serstnev_check(space: PNSpace, samples: SampleSpec | None = None, tol: float = 1e-9) -> ScalingResult:
    """Test the Serstnev scaling identity nu_{alpha p}(x) = nu_p(x / |alpha|)
    by comparing norm_of(alpha p) with the argument-scaled norm pointwise.

    Every norm is radial, so the magnitudes of every p and every alpha p
    are read at once, and within one call each comparison pair is
    evaluated once per key (m_{alpha p}, m_p, |alpha|) while the loops walk
    the battery in order: two comparisons per distinct key, not per
    (alpha, sign, p)."""
    check_tol(tol)
    if samples is None:
        samples = default_samples(space)

    vs = as_vectors(samples.vectors, space.dim)
    avs = [sgn * alpha for alpha in samples.alphas for sgn in (1.0, -1.0) if sgn * alpha != 0.0]
    with np.errstate(over="ignore", invalid="ignore"):  # alpha p past the largest float, as on tuples
        m_ap = space.magnitudes(np.array(avs)[:, None, None] * vs).reshape(len(avs), len(vs)).tolist()
    ps, m_p = list(map(tuple, vs.tolist())), space.magnitudes(vs).tolist()
    norm = functools.cache(space.norm_at_magnitude)

    @functools.cache
    def scaled(m_ap, m_p, s):
        lhs, rhs = norm(m_ap), norm(m_p).scale_arg(s)
        return lhs, rhs, compare_leq(lhs, rhs, tol), compare_leq(rhs, lhs, tol)

    violations = []
    for av, row in zip(avs, m_ap):
        for p, m_ap_p, m in zip(ps, row, m_p):
            lhs, rhs, fwd, bwd = scaled(m_ap_p, m, abs(av))
            if not (fwd.holds and bwd.holds):
                x = fwd.witness if fwd.witness is not None else bwd.witness
                violations.append(ScalingViolation(av, p, x, lhs, rhs))
    return ScalingResult(not violations, tuple(violations))


def scalar_monotonicity_check(space: PNSpace, trials, tol: float = 1e-9) -> LawCheck:
    """|alpha| <= |beta| forces nu_{beta p} <= nu_{alpha p} pointwise.

    ``trials`` is an iterable of (alpha, beta, p).  Every trial is decided
    at once, as ``axiom_suite`` decides a law, and the first three
    violations are read again for their witnesses.
    """
    check_tol(tol)
    trials = list(trials)
    vs = as_vectors([p for _, _, p in trials], space.dim)
    alphas, betas = (np.array([t[k] for t in trials], dtype=float).reshape(-1, 1) for k in (0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        m_beta, m_alpha = space.magnitudes(betas * vs), space.magnitudes(alphas * vs)
    checks = _NormChecks(space, tol, (m_beta, m_alpha))
    violations = [(*trials[k][:2], tuple(vs[k].tolist()), checks.witness(_same, m_beta[k], m_alpha[k]))
                  for k in _failing(checks.holds(_same, m_beta, m_alpha))]
    return LawCheck(not violations, tuple(violations))


def random_scalar_triples(n: int, seed: int, scale: float = 8.0):
    """n random (alpha, beta, p) trials with |alpha| <= |beta|, for dim-1 spaces."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x, y = rng.uniform(-scale, scale, size=2)
        alpha, beta = sorted((x, y), key=abs)
        p = (float(rng.uniform(-scale, scale)),)
        out.append((float(alpha), float(beta), p))
    return out


@dataclass(frozen=True)
class VanishingResult:
    """Outcome of the vanishing-at-infinity probe (nu_p -> 0 pointwise as
    |p| grows, i.e. the norm escapes to the minimal element)."""

    has_property: bool
    failures: tuple[tuple[float, float], ...]  # (x, tail value)
    tail_values: tuple[tuple[float, float], ...]


def lg_probe(
    space: PNSpace,
    x_probes: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    threshold: float = 1e-6,
) -> VanishingResult:
    """Check lim_{|p| -> inf} nu_p(x) = 0 at each probe x.  The norm is
    nonincreasing in the magnitude, so the limit is the family's
    ``limit`` record, read as ``norm_at_magnitude(inf)``."""
    limit = space.norm_at_magnitude(math.inf)
    tails = tuple((x, limit.eval(x)) for x in x_probes)
    failures = tuple((x, v) for x, v in tails if v >= threshold)
    return VanishingResult(not failures, failures, tails)


def _largest_feasible(ok: Callable[[float], bool], lo: float) -> float | None:
    """Largest t > 0 passing ``ok``, for a test that passes below some
    switch point and fails above it: None when ``ok(lo)`` fails, else
    doubling from 1e-6 brackets the switch (giving up at 2^20 with the
    last pass) and 60 bisection steps close in on it from below."""
    if not ok(lo):
        return None
    t = 1e-6
    while ok(t):
        lo = t
        t *= 2.0
        if t > 2.0**20:
            return lo
    hi = t
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class DeltaProbeResult:
    found: bool
    delta: float | None


def small_scalar_delta_probe(space: PNSpace, p, h: float) -> DeltaProbeResult:
    """Search for delta > 0 such that |alpha| < delta forces
    nu_{alpha p}(h) > 1 - h.  The norm is nonincreasing in the magnitude,
    so a candidate delta passes when alpha = delta does; the largest
    passing delta is found by doubling then bisection from 1e-9."""
    if not (0.0 < h < 1.0):
        raise ValueError("h must lie in (0, 1)")
    p = as_vector(p, space.dim)
    delta = _largest_feasible(lambda d: space.norm_of(vec_scale(d, p)).eval(h) > 1.0 - h, 1e-9)
    return DeltaProbeResult(delta is not None, delta)


def strong_tvs_probe(space: PNSpace) -> LawCheck:
    """Small enough scalars alpha give nu_{alpha p}(h) > 1 - h for every p
    and level h exactly when ``limit0`` is eps_0 (the norm is nonincreasing
    in the magnitude); the strong topology is then Euclidean.  Otherwise
    some h has limit0(h) <= 1 - h, the h-neighborhood of 0 is {0}, the
    strong topology is discrete, and the failure carries the record."""
    limit0 = _FAMILIES[space.family].limit0
    ok = distfn_equal(limit0, EPS0)
    return LawCheck(ok, () if ok else (("limit0", limit0),))
