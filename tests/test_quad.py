"""Quadrature building blocks: the node rule, the refinement loop, the
shared-control normal kernel and the gamma mixing rule."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from multiarm import _quad
from multiarm.exceptions import NumericError


def test_rule_matches_numpy_and_is_read_only():
    x, w = _quad._leggauss(64)
    ref_x, ref_w = np.polynomial.legendre.leggauss(64)
    assert np.max(np.abs(x - ref_x)) < 1e-15
    assert np.max(np.abs(w - ref_w)) < 1e-14
    assert not x.flags.writeable and not w.flags.writeable
    assert _quad._leggauss(64)[0] is x


def test_refine_converges_on_worst_entry():
    calls = []

    def evaluate(n):
        calls.append(n)
        return np.array([1.0, 1.0 + 1.0 / n])

    value = _quad.refine(evaluate, tol=1e-3)
    assert calls == [64, 128, 256, 512, 1024]
    assert value[1] == 1.0 + 1.0 / 1024


def test_refine_failure_messages():
    with pytest.raises(NumericError, match=r"^scalar did not reach tolerance 1e-12 within 2048 nodes \(last=2048\.0\)$"):
        _quad.refine(lambda n: float(n), tol=1e-12, label="scalar")
    with pytest.raises(NumericError, match=r"^vector did not reach tolerance 1e-12 within 2048 nodes$"):
        _quad.refine(lambda n: np.full(2, 1.0 / n), tol=1e-12, label="vector")


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


def test_normal_expect_shapes():
    slopes = np.array([0.5, 1.2, 2.0])
    offsets = np.array([[0.3, -1.0, 2.0], [-2.0, 0.0, 1.0]])
    batch = _quad.normal_expect(slopes, offsets, tol=1e-12)
    assert batch.shape == (2,)
    for row, value in zip(offsets, batch):
        single = _quad.normal_expect(slopes, row, tol=1e-12)
        assert np.ndim(single) == 0
        assert single == pytest.approx(value, abs=1e-14)
    per_row = _quad.normal_expect(np.vstack([slopes, slopes]), offsets, tol=1e-12)
    assert per_row == pytest.approx(batch, abs=1e-15)


def test_normal_expect_closed_forms():
    # One factor: E[Phi(aU + c)] = Phi(c / sqrt(1 + a^2)); slope 0 drops U.
    for a, c in [(0.0, 0.7), (1.0, -3.0), (30.0, 1.0), (-2.0, -20.0)]:
        value = _quad.normal_expect(np.array([a]), np.array([c]), tol=1e-13)
        want = ndtr(c / math.sqrt(1.0 + a * a))
        assert value == pytest.approx(want, rel=1e-11, abs=1e-15)


def test_normal_expect_infinite_offsets():
    # +inf pins a factor at 1 and -inf at 0, with no NaN on the way:
    # E[Phi(-U + 0.3)] = Phi(0.3 / sqrt(2)).
    slopes = np.array([-1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _quad.normal_expect(slopes, np.array([math.inf, 0.3]), tol=1e-10)
        assert value == pytest.approx(ndtr(0.3 / math.sqrt(2.0)), rel=1e-12)
        assert _quad.normal_expect(slopes, np.array([-math.inf, 0.3]), tol=1e-10) == 0.0
        batch = _quad.normal_expect(
            np.array([2.0, 0.5]), np.array([[math.inf, math.inf], [0.4, -math.inf]]), tol=1e-10
        )
        assert batch[0] == pytest.approx(1.0, abs=1e-12) and batch[1] == 0.0


_SLOPES = np.array([0.4, 0.4, -1.1])
_OFFSETS = np.array([0.7, 0.7, 1.3])
_KERNELS = {
    "normal": _quad.normal_expect,
    "gamma": lambda a, c, **kw: _quad.gamma_sqrt_expect(a, c, 3.0, 2.0, **kw),
}


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_density_is_the_common_offset_derivative(name):
    # Two distinct arms, one repeated: the product rule runs across arms
    # and the repeated arm's power. Central differences with h = 1e-4 are
    # good to about 1e-9.
    kernel = _KERNELS[name]
    value, deriv, nodes = kernel(_SLOPES, _OFFSETS, tol=1e-12, density=True)
    assert value == pytest.approx(kernel(_SLOPES, _OFFSETS, tol=1e-12), abs=1e-15)
    h = 1e-4
    central = (kernel(_SLOPES, _OFFSETS + h, tol=1e-13) - kernel(_SLOPES, _OFFSETS - h, tol=1e-13)) / (2 * h)
    assert deriv == pytest.approx(central, abs=1e-8)
    assert kernel(_SLOPES, _OFFSETS, tol=1e-12, density=True, nodes=nodes) == (value, deriv, nodes)


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_fixed_rule_is_one_evaluation(name, monkeypatch):
    kernel = _KERNELS[name]
    rules, rule = [], _quad.legendre_rule
    monkeypatch.setattr(_quad, "legendre_rule", lambda a, b, n: rules.append(n) or rule(a, b, n))
    kernel(_SLOPES, _OFFSETS, tol=1e-12, nodes=128)
    assert set(rules) == {128}


# Correlations up to 1 - 1e-9: slopes of -sqrt(rho / (1 - rho)) up to 3e4.
_RHO = st.one_of(
    st.floats(0.0, 0.99),
    st.floats(1.0, 9.0).map(lambda e: 1.0 - 10.0 ** -e),
)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 50), rho=_RHO, x=st.floats(-8.0, 8.0))
def test_normal_expect_equicorrelated_against_mpmath(mp_normal_expect, k, rho, x):
    sq_comp = math.sqrt(1.0 - rho)
    slopes = np.full(k, -math.sqrt(rho) / sq_comp)
    offsets = np.full(k, x / sq_comp)
    value = _quad.normal_expect(slopes, offsets, tol=1e-12)
    assert value == pytest.approx(mp_normal_expect(slopes, offsets), abs=1e-12)


_ARM = st.tuples(st.floats(-10.0, 10.0), st.floats(-8.0, 8.0), st.integers(1, 16))


@settings(max_examples=20, deadline=None)
@given(arms=st.lists(_ARM, min_size=1, max_size=3))
def test_normal_expect_asymmetric_against_mpmath(mp_normal_expect, arms):
    # Up to three distinct (slope, offset) arms, each repeated up to 16
    # times: k up to 48 with slopes of either sign.
    slopes = np.repeat([a for a, _, _ in arms], [m for _, _, m in arms])
    offsets = np.repeat([c for _, c, _ in arms], [m for _, _, m in arms])
    value = _quad.normal_expect(slopes, offsets, tol=1e-12)
    assert value == pytest.approx(mp_normal_expect(slopes, offsets), abs=1e-12)
