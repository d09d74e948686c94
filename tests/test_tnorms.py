"""t-norm closed forms, duality, and the law-checking probe."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pncalc.tnorms import TNORMS, TNorm, conorm_eval, get_tnorm, law_suite, tnorm_eval

unit = st.floats(0.0, 1.0)


def test_closed_forms():
    assert tnorm_eval(get_tnorm("prod"), 0.5, 0.5) == 0.25
    assert tnorm_eval(get_tnorm("min"), 0.3, 0.7) == 0.3
    assert tnorm_eval(get_tnorm("lukasiewicz"), 0.5, 0.5) == 0.0  # max(0, 0)
    # (1/a - 1) = 1 at a = 0.5, so the root term is sqrt(2)
    assert tnorm_eval(get_tnorm("t2"), 0.5, 0.5) == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)))


def test_t2_boundary_extensions():
    t2 = get_tnorm("t2")
    assert t2(0.0, 0.7) == 0.0
    assert t2(0.7, 0.0) == 0.0
    assert t2(1.0, 0.7) == 0.7
    assert t2(0.7, 1.0) == pytest.approx(0.7)
    # the closed form already tends to the boundary values
    assert t2(1.0 - 1e-9, 0.7) == pytest.approx(0.7, abs=1e-6)


def test_conorm_closed_forms():
    assert conorm_eval(get_tnorm("lukasiewicz"), 0.3, 0.4) == pytest.approx(0.7)  # min(x+y, 1)
    assert conorm_eval(get_tnorm("prod"), 0.42, 0.0) == pytest.approx(0.42)  # 0 is identity
    assert conorm_eval(get_tnorm("min"), 0.3, 0.7) == pytest.approx(0.7)  # dual of min is max


def test_range_validation():
    with pytest.raises(ValueError):
        tnorm_eval(get_tnorm("prod"), 1.5, 0.5)
    with pytest.raises(ValueError):
        conorm_eval(get_tnorm("prod"), 0.5, -0.1)


def test_conorm_is_built_once_and_leaves_equality_and_hash_alone():
    for name, t in TNORMS.items():
        assert t.conorm is t.conorm and t.conorm.base is t, name
        twin = TNorm(name, t.fn_np)  # a fresh instance, with no conorm read yet
        assert twin == t and hash(twin) == hash(t), name
        assert twin.conorm == t.conorm and twin.conorm is not t.conorm, name
    assert TNorm("prod", np.multiply) != TNorm("min", np.minimum)


@given(unit, unit)
def test_duality_involution(x, y):
    for t in TNORMS.values():
        s = t.conorm
        again = 1.0 - s(1.0 - x, 1.0 - y)  # dual of the dual
        assert again == pytest.approx(t(x, y), abs=1e-12)


@given(unit, unit)
def test_tnorm_below_min_and_conorm_above_max(x, y):
    for t in TNORMS.values():
        assert t(x, y) <= min(x, y) + 1e-12
        assert t.conorm(x, y) >= max(x, y) - 1e-12


def test_identities_hold_bit_for_bit_on_arrays():
    # T(x, 1) = x and S(x, 0) = x exactly, where t2's closed form,
    # Lukasiewicz's x + 1 - 1 and the conorm round trip 1 - (1 - x) would
    # lose an ulp
    xs = np.random.default_rng(3).random(100_000)
    for name, t in TNORMS.items():
        assert np.array_equal(t.fn_np(xs, 1.0), xs), name
        assert np.array_equal(t.fn_np(1.0, xs), xs), name
        s = t.conorm
        assert np.array_equal(s.fn_np(xs, 0.0), xs), name
        assert np.array_equal(s.fn_np(0.0, xs), xs), name


def test_law_suite_on_builtins():
    rep = law_suite(get_tnorm("prod"), 1000, 7)
    assert rep.all_laws_hold
    assert rep.archimedean_conorm  # S(x,x) = 2x - x^2 > x on (0,1)

    rep = law_suite(get_tnorm("min"), 1000, 7)
    assert rep.all_laws_hold
    assert not rep.archimedean_conorm  # max(x,x) = x

    rep = law_suite(get_tnorm("lukasiewicz"), 1000, 7)
    assert rep.all_laws_hold
    assert rep.archimedean_conorm

    rep = law_suite(get_tnorm("t2"), 1000, 7)
    assert rep.commutative.ok
    assert rep.identity.ok  # closed form gives 1/(1 + (1/a - 1)) = a
    assert rep.monotone.ok
    # associativity is not assumed; the probe decides (the generator form
    # (1/t - 1)^2 makes it hold)
    assert rep.associative.ok
    assert rep.archimedean_conorm


def test_law_suite_flags_broken_operation():
    broken = TNorm("broken", np.maximum)  # 1 is not an identity, not below min
    rep = law_suite(broken, 200, 7)
    assert not rep.identity.ok
    assert rep.identity.violations


def test_law_suite_rejects_empty_sample():
    with pytest.raises(ValueError):
        law_suite(get_tnorm("prod"), 0, 7)
