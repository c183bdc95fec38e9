"""Quadrature building blocks: the node rule, the refinement loop, the
shared-control normal kernel and the gamma mixing rule."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, roots_legendre

from multiarm import _quad
from multiarm.exceptions import DomainError, NumericError

_SLOPES = np.array([0.4, 0.4, -1.1])
_OFFSETS = np.array([0.7, 0.7, 1.3])
# V ~ Gamma(3, 2) is 3/2 times the unit-mean Gamma(3, 3), so its mix at
# offsets c is the unit-mean mix at c sqrt(3/2); the derivative, taken in
# the scaled offsets, gains that factor back.
_GAMMA_SCALE = math.sqrt(1.5)


def _gamma_kernel(a, c, **kw):
    out = _quad.gamma_sqrt_expect(a, c * _GAMMA_SCALE, 3.0, **kw)
    return (out[0], out[1] * _GAMMA_SCALE) if kw.get("density") else out


_KERNELS = {"normal": _quad.normal_expect, "gamma": _gamma_kernel}


def _mp_jacobi_kronrod(n):
    """sqrt(b_k) of the Jacobi-Kronrod matrix in mpmath: Laurie's algorithm
    for a symmetric weight, one term at a time, laid out as
    ``_quad._jacobi_kronrod`` lays it out."""
    b = [mp.mpf(0)] * (2 * n + 2)
    b[0], b[2 * n + 1] = mp.mpf(2), mp.mpf(1)
    for k in range(1, (3 * n + 1) // 2 + 1):
        b[k] = mp.mpf(k * k) / (4 * k * k - 1)
    s = [mp.mpf(0)] * (n // 2 + 2)
    s[1] = b[n + 1]
    for m in range(1, n - 1, 2):
        u = 0
        for k in range((m + 1) // 2, -1, -1):
            u += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
    if n % 2 == 0:
        s[1:] = s[:-1]
    for m in range((n - 1) | 1, 2 * n - 2, 2):
        u = 0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + k
            u += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = u
        b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
    return [mp.sqrt(v) for v in b]


def _mp_orthonormal(x, sb, top):
    """p_k(x) and p_k'(x), k = 0..top, of the recurrence with off-diagonal sb."""
    p, d = [mp.mpf(0), 1 / sb[0]], [mp.mpf(0), mp.mpf(0)]
    for k in range(top):
        p.append((x * p[-1] - sb[k] * p[-2]) / sb[k + 1])
        d.append((p[-2] + x * d[-1] - sb[k] * d[-2]) / sb[k + 1])
    return p[1:], d[1:]


def _mp_weights(sb, n, start):
    """Gauss and Kronrod weights at the root of p_{2n+1} nearest ``start``,
    by Newton's method and the Christoffel sums at 30 digits."""
    x = mp.mpf(start)
    for _ in range(2):
        p, d = _mp_orthonormal(x, sb, 2 * n + 1)
        x -= p[-1] / d[-1]
    squares = [v * v for v in _mp_orthonormal(x, sb, 2 * n)[0]]
    return 1 / mp.fsum(squares[:n]), 1 / mp.fsum(squares)


@pytest.mark.parametrize("n", [64, 128, 1024])
def test_kronrod_rule(n):
    x, w = _quad._leggauss(n)
    assert x.shape == (2 * n + 1,) and w.shape == (2 * n + 1, 2)
    assert not x.flags.writeable and not w.flags.writeable
    assert _quad._leggauss(n)[0] is x
    # The Gauss rule sits at the odd positions, with weight 0 elsewhere.
    ref_x, _ = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x[1::2] - ref_x)) <= 1e-15
    assert np.all(w[1::2, 0] > 0.0) and np.all(w[0::2, 0] == 0.0) and np.all(w[:, 1] > 0.0)
    # Exactness: Legendre polynomials P_d integrate to 2 [d == 0], up to
    # degree 3n + 1 for Kronrod and 2n - 1 for Gauss.
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for d in range(3 * n + 2):
        want = 2.0 if d == 0 else 0.0
        assert abs(cur @ w[:, 1] - want) <= 1e-14, d
        if d < 2 * n:
            assert abs(cur @ w[:, 0] - want) <= 1e-14, d
        prev, cur = cur, ((2 * d + 1) * x * cur - d * prev) / (d + 1)
    # Weights at the endpoint, quarter and middle nodes against mpmath:
    # positions 1, n/2 + 1 and n + 1 are Gauss nodes, 0, n/2 and n not.
    with mp.workdps(30):
        sb = _mp_jacobi_kronrod(n)
        errors, scipy_errors = [], []
        for i in (0, 1, n // 2, n // 2 + 1, n, n + 1):
            gauss, kronrod = _mp_weights(sb, n, x[i])
            errors.append(abs(w[i, 1] / kronrod - 1))
            if i % 2:
                errors.append(abs(w[i, 0] / gauss - 1))
                scipy_errors.append(abs(roots_legendre(n)[1][i // 2] / gauss - 1))
    assert max(errors) <= (1e-12 if n <= 128 else max(scipy_errors)), (errors, scipy_errors)


def test_refine_converges_on_worst_entry():
    # Entry 0's pair always agrees; entry 1's differs by 1/n - 1/(2n + 1),
    # within 1e-3 first at n = 512.
    calls = []

    def evaluate(n):
        calls.append(n)
        return np.array([[1.0, 1.0 + 1.0 / n], [1.0, 1.0 + 1.0 / (2 * n + 1)]])

    value = _quad.refine(evaluate, tol=1e-3)
    assert calls == [64, 128, 256, 512]
    assert value[1] == 1.0 + 1.0 / 1025


def test_refine_failure_messages():
    with pytest.raises(NumericError, match=r"^scalar did not reach tolerance 1e-12 within 2049 nodes \(last=1024\.0\)$"):
        _quad.refine(lambda n: np.array([0.0, float(n)]), tol=1e-12, label="scalar")
    with pytest.raises(NumericError, match=r"^vector did not reach tolerance 1e-12 within 2049 nodes$"):
        _quad.refine(lambda n: np.array([np.full(2, 1.0 / n), np.full(2, 2.0 / n)]), tol=1e-12, label="vector")


@pytest.mark.parametrize("shape", [1e-3, 0.1, 1.0, 50.0, 1e7, 1e12])
def test_log_gamma_domain_is_finite(shape):
    lo, hi = _quad._log_gamma_domain(shape)
    assert math.isfinite(lo) and math.isfinite(hi) and lo < 0.0 < hi


@pytest.mark.parametrize("shape", [0.1, 2.0, 1e6])
def test_gamma_mix_has_unit_mass(shape):
    # Phi(0) everywhere: the normalised weights must return it exactly.
    value = _quad.gamma_sqrt_expect(np.zeros(3), np.zeros(3), shape, tol=1e-12)
    assert value == pytest.approx(0.125, abs=1e-15)


def test_gamma_mix_repeated_arms_match_distinct_arms():
    # Both kernels merge equal arms; a nudge keeps them apart.
    nudged = _OFFSETS + np.array([0.0, 1e-13, 0.0])
    for kernel in _KERNELS.values():
        same = kernel(_SLOPES, _OFFSETS, tol=1e-12)
        distinct = kernel(_SLOPES, nudged, tol=1e-12)
        assert same == pytest.approx(distinct, abs=1e-12)


def test_gamma_mix_takes_one_row():
    one = _quad.gamma_sqrt_expect(_SLOPES, _OFFSETS, 3.0, tol=1e-12)
    assert _quad.gamma_sqrt_expect(_SLOPES, _OFFSETS[None], 3.0, tol=1e-12) == one
    with pytest.raises(DomainError, match="one row"):
        _quad.gamma_sqrt_expect(_SLOPES, np.vstack([_OFFSETS, _OFFSETS]), 3.0, tol=1e-12)


def test_gamma_mix_narrower_than_double_precision_is_the_normal_kernel():
    # Shapes above about 1e35 leave a log-precision domain that rounds to
    # a point: V = 1.
    assert _quad._log_gamma_domain(1e40)[0] == _quad._log_gamma_domain(1e40)[1]
    for density in (False, True):
        gamma = _quad.gamma_sqrt_expect(_SLOPES, _OFFSETS, 1e40, tol=1e-12, density=density)
        assert gamma == _quad.normal_expect(_SLOPES, _OFFSETS, tol=1e-12, density=density)


def test_student_mix_says_so_in_its_errors():
    with pytest.raises(NumericError, match=r"^joint shortfall probability \(Student\) did not reach"):
        _quad.shared_control_expect(_SLOPES, _OFFSETS, 6.0, tol=1e-300, label="joint shortfall probability")


def test_gamma_mix_without_shared_control_is_a_precision_average():
    # Slope 0 drops U: E[Phi(c sqrt(V))] with V ~ Gamma(1, 1) has the
    # closed form 1/2 + c / (2 sqrt(2 + c**2)).
    c = 0.8
    value = _quad.gamma_sqrt_expect(np.zeros(1), np.full(1, c), 1.0, tol=1e-12)
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


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_density_is_the_common_offset_derivative(name):
    # Two distinct arms, one repeated: the product rule runs across arms
    # and the repeated arm's power. Central differences with h = 1e-4 are
    # good to about 1e-9.
    kernel = _KERNELS[name]
    value, deriv = kernel(_SLOPES, _OFFSETS, tol=1e-12, density=True)
    assert value == pytest.approx(kernel(_SLOPES, _OFFSETS, tol=1e-12), abs=1e-15)
    h = 1e-4
    central = (kernel(_SLOPES, _OFFSETS + h, tol=1e-13) - kernel(_SLOPES, _OFFSETS - h, tol=1e-13)) / (2 * h)
    assert deriv == pytest.approx(central, abs=1e-8)


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


@settings(max_examples=10, deadline=None)
@given(arms=st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-8.0, 8.0)), min_size=2, max_size=8, unique=True))
def test_accepted_value_is_within_tol_of_mpmath(mp_normal_expect, arms):
    # Distinct arms with slopes up to 50, so the steep-panel path runs:
    # the value refine accepts lies within tol of the integral itself, not
    # only of its own Gauss estimate.
    slopes, offsets = np.array(arms).T
    assume(np.abs(slopes).max() > _quad._STEEP)
    want = mp_normal_expect(slopes, offsets)
    for tol in (1e-12, 1e-13):
        assert abs(_quad.normal_expect(slopes, offsets, tol=tol) - want) <= tol
