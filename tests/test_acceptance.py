"""Acceptance battery: every criterion runs at its stated tolerance and
prints one pass/fail line.  ``pncalc suite paper-examples`` executes the
same checks from the command line."""

import pytest

from pncalc import acceptance
from pncalc.acceptance import CRITERIA, run_all
from pncalc.distfn import Step, eps


@pytest.mark.parametrize("fn", CRITERIA, ids=[f"criterion_{i+1:02d}" for i in range(len(CRITERIA))])
def test_criterion(fn):
    result = fn()
    print(result.line())
    assert result.passed, result.detail


def test_battery_is_complete():
    results = run_all()
    assert len(results) == 12
    assert [r.number for r in results] == list(range(1, 13))


class _ReadShifted(Step):
    """eps(3) by its jump, read as eps(3.5): only the oracle can see it."""

    def eval(self, x):
        return super().eval(x - 0.5)


@pytest.mark.parametrize("name", ["min", "prod", "lukasiewicz"])
def test_criterion_1_fails_on_a_wrong_convolution(monkeypatch, name):
    real = acceptance.sup_conv
    for wrong, detail in ((eps(3.5), f"{name}: got"), (_ReadShifted((3.0,), (0.0, 1.0)), "oracle gap 1.00e+00")):
        monkeypatch.setattr(acceptance, "sup_conv", lambda t, f, g: wrong if t.name == name else real(t, f, g))
        result = CRITERIA[0]()
        assert not result.passed
        assert result.detail.startswith(detail), result.detail
