"""Triangular norms on [0, 1], their dual conorms, and law-checking probes.

Each t-norm has one definition, an elementwise function over broadcast
arrays; a call on two floats reads the same function, so the exact step
kernel, the lazy kernel and the law suite compute the same values.  The
identities hold bit for bit: T(x, 1) = x and S(x, 0) = x, where the
closed form of t2, Lukasiewicz's x + 1 - 1 or the round trip 1 - (1 - x)
of a conorm would lose an ulp.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distfn import check_tol


def _t2(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # closed form on (0, 1]^2; at a = 0 (or a subnormal a) 1/a is inf and
    # the value 0
    with np.errstate(divide="ignore", over="ignore"):
        out = np.asarray(1.0 / (1.0 + np.hypot(1.0 / a - 1.0, 1.0 / b - 1.0)))
    # 1 / (1 + (1/a - 1)) can miss a by an ulp; 1 is the identity exactly
    np.copyto(out, a, where=b >= 1.0)
    np.copyto(out, b, where=a >= 1.0)
    return out


def _lukasiewicz(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.asarray(np.maximum(a + b - 1.0, 0.0))
    # x + 1 - 1 rounds x to a multiple of 2^-52; 1 is the identity exactly
    np.copyto(out, a, where=b >= 1.0)
    np.copyto(out, b, where=a >= 1.0)
    return out


@dataclass(frozen=True)
class TNorm:
    """A commutative, associative, monotone binary operation on [0, 1]
    with identity 1.  ``fn_np`` is its one definition, elementwise over
    broadcast arrays; calling the t-norm on two floats reads it."""

    name: str
    fn_np: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x: float, y: float) -> float:
        return float(self.fn_np(x, y))

    @functools.cached_property
    def conorm(self) -> "TConorm":
        return TConorm(self)


@dataclass(frozen=True)
class TConorm:
    """Dual of a t-norm via S(x, y) = 1 - T(1-x, 1-y); identity 0."""

    base: TNorm

    def __call__(self, x: float, y: float) -> float:
        return float(self.fn_np(x, y))

    def fn_np(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.asarray(1.0 - self.base.fn_np(1.0 - x, 1.0 - y))
        # the identity holds definitionally; 1 - (1 - x) can lose an ulp
        np.copyto(out, x, where=y == 0.0)
        np.copyto(out, y, where=x == 0.0)
        return out

    @property
    def name(self) -> str:
        return self.base.name + "*"


TNORMS: dict[str, TNorm] = {
    "min": TNorm("min", np.minimum),
    "prod": TNorm("prod", np.multiply),
    "lukasiewicz": TNorm("lukasiewicz", _lukasiewicz),
    "t2": TNorm("t2", _t2),
}


def get_tnorm(name: str) -> TNorm:
    try:
        return TNORMS[name]
    except KeyError:
        raise ValueError(f"unknown t-norm {name!r}; choose from {sorted(TNORMS)}") from None


def _check_unit(x: float) -> float:
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"argument {x!r} outside [0, 1]")
    return float(x)


def tnorm_eval(t: TNorm, x: float, y: float) -> float:
    return t(_check_unit(x), _check_unit(y))


def conorm_eval(t: TNorm, x: float, y: float) -> float:
    return t.conorm(_check_unit(x), _check_unit(y))


@dataclass(frozen=True)
class LawCheck:
    ok: bool
    violations: tuple = ()

    def describe(self) -> str:
        return "ok" if self.ok else f"{len(self.violations)} violation(s), first {self.violations[0]}"


@dataclass(frozen=True)
class TNormLawReport:
    name: str
    commutative: LawCheck
    associative: LawCheck
    identity: LawCheck
    monotone: LawCheck
    archimedean_conorm: bool

    @property
    def all_laws_hold(self) -> bool:
        return all(c.ok for c in (self.commutative, self.associative, self.identity, self.monotone))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "commutative": self.commutative.ok,
            "associative": self.associative.ok,
            "identity": self.identity.ok,
            "monotone": self.monotone.ok,
            "archimedean_conorm": self.archimedean_conorm,
            "violations": sum(
                len(c.violations)
                for c in (self.commutative, self.associative, self.identity, self.monotone)
            ),
        }


def _law(bad: np.ndarray, *cols: np.ndarray) -> LawCheck:
    """The check over whole sample arrays, with its first 3 violations as
    tuples of the offending columns' entries."""
    return LawCheck(not bad.any(), tuple(zip(*(c[bad][:3] for c in cols))))


def law_suite(t: TNorm, n_samples: int = 1000, seed: int = 7, tol: float = 1e-12) -> TNormLawReport:
    """Check the t-norm laws on random triples and flag whether the dual
    conorm is Archimedean in the operational sense S(x, x) > x on (0, 1)."""
    check_tol(tol)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.random(n_samples)
    ys = rng.random(n_samples)
    zs = rng.random(n_samples)

    op = t.fn_np
    lo, hi = np.minimum(xs, ys), np.maximum(xs, ys)
    interior = xs * 0.98 + 0.01  # keep strictly inside (0, 1)
    return TNormLawReport(
        name=t.name,
        commutative=_law(np.abs(op(xs, ys) - op(ys, xs)) > tol, xs, ys),
        associative=_law(np.abs(op(op(xs, ys), zs) - op(xs, op(ys, zs))) > tol, xs, ys, zs),
        identity=_law((np.abs(op(xs, 1.0) - xs) > tol) | (np.abs(op(1.0, xs) - xs) > tol), xs),
        monotone=_law(op(lo, zs) > op(hi, zs) + tol, lo, hi, zs),
        archimedean_conorm=bool(np.all(t.conorm.fn_np(interior, interior) > interior)),
    )
