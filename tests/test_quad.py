"""Quadrature building blocks: the refinement loop and the gamma mixing rule."""

import math

import numpy as np
import pytest

from multiarm import _quad
from multiarm.exceptions import NumericError


def test_refine_converges_on_worst_entry():
    calls = []

    def evaluate(n):
        calls.append(n)
        return np.array([1.0, 1.0 + 1.0 / n])

    value = _quad.refine(evaluate, tol=1e-3, start=128, limit=8192)
    assert calls == [128, 256, 512, 1024]
    assert value[1] == 1.0 + 1.0 / 1024


def test_refine_failure_messages():
    with pytest.raises(NumericError, match=r"^scalar did not reach tolerance 1e-12 within 512 nodes \(last=512\.0\)$"):
        _quad.refine(lambda n: float(n), tol=1e-12, start=128, limit=512, label="scalar")
    with pytest.raises(NumericError, match=r"^vector did not reach tolerance 1e-12 within 512 nodes$"):
        _quad.refine(lambda n: np.full(2, 1.0 / n), tol=1e-12, start=128, limit=512, label="vector")


@pytest.mark.parametrize("shape", [1e-3, 0.1, 1.0, 50.0, 1e7, 1e12])
def test_log_gamma_domain_is_finite(shape):
    lo, hi = _quad._log_gamma_domain(shape)
    assert math.isfinite(lo) and math.isfinite(hi) and lo < 0.0 < hi


@pytest.mark.parametrize("shape", [0.1, 2.0, 1e6])
def test_gamma_mix_has_unit_mass(shape):
    # Phi(0) everywhere: the normalised weights must return it exactly.
    value = _quad.gamma_sqrt_expect(np.zeros(3), np.zeros(3), shape, 3.0, tol=1e-12)
    assert value == pytest.approx(0.125, abs=1e-15)


def test_gamma_mix_repeated_arms_match_distinct_arms():
    slopes = np.array([0.4, 0.4, -1.1])
    offsets = np.array([0.7, 0.7, 1.3])
    nudged = offsets + np.array([0.0, 1e-13, 0.0])
    same = _quad.gamma_sqrt_expect(slopes, offsets, 3.0, 2.0, tol=1e-12)
    distinct = _quad.gamma_sqrt_expect(slopes, nudged, 3.0, 2.0, tol=1e-12)
    assert same == pytest.approx(distinct, abs=1e-12)


def test_gamma_mix_without_shared_control_is_a_precision_average():
    # Slope 0 drops U: E[Phi(c sqrt(V))] with V ~ Gamma(1, 1) has the
    # closed form 1/2 + c / (2 sqrt(2 + c**2)).
    c = 0.8
    value = _quad.gamma_sqrt_expect(np.zeros(1), np.full(1, c), 1.0, 1.0, tol=1e-12)
    assert value == pytest.approx(0.5 + c / (2.0 * math.sqrt(2.0 + c * c)), abs=1e-11)
