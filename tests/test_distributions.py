"""Equicorrelated maximum distribution against independent routes.

The frozen quantiles below were cross-checked against the matrix-form
multivariate normal CDF and plain Monte Carlo before being committed.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr, stdtr

from multiarm import _quad
from multiarm.distributions import (
    EquicorrSpec,
    beta_quantile,
    equicorr_max_cdf,
    equicorr_max_quantile,
    normal_quantile,
    t_quantile,
)
from multiarm.exceptions import DomainError

RHO_TWO = 1.0 / (1.0 + math.sqrt(2.0))


def test_frozen_design_quantiles():
    x2 = equicorr_max_quantile(EquicorrSpec(k=2, rho=RHO_TWO), 0.90)
    x4 = equicorr_max_quantile(EquicorrSpec(k=4, rho=1.0 / 3.0), 0.90)
    assert x2 == pytest.approx(1.5914778896348063, abs=1e-9)
    assert x4 == pytest.approx(1.8885695590266416, abs=1e-9)


@pytest.mark.parametrize("k,rho", [(2, 0.0), (2, 0.5), (3, 0.3), (4, 1.0 / 3.0), (5, 0.8)])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.9, 0.99])
def test_quantile_cdf_round_trip(k, rho, p):
    spec = EquicorrSpec(k=k, rho=rho)
    x = equicorr_max_quantile(spec, p)
    assert equicorr_max_cdf(spec, x) == pytest.approx(p, abs=1e-7)


@pytest.mark.parametrize("df", [2.0, 5.0, 30.0])
@pytest.mark.parametrize("p", [0.5, 0.9, 0.975])
def test_student_round_trip(df, p):
    spec = EquicorrSpec(k=3, rho=0.4, df=df)
    x = equicorr_max_quantile(spec, p)
    assert equicorr_max_cdf(spec, x) == pytest.approx(p, abs=1e-7)


def test_matrix_form_cross_check():
    # Independent oracle: scipy's matrix-form MVN CDF on the explicit
    # equicorrelated covariance. Its randomised rule stops at an absolute
    # error estimate of 1e-5 by default, and at k = 3 it then strays up to
    # 9e-6 from the exact value, so it is asked for 1e-8.
    for k, rho, x in [(2, 0.3, 0.7), (2, 0.7, -0.4), (3, 0.5, 1.2), (3, 0.2, 0.0)]:
        cov = np.full((k, k), rho)
        np.fill_diagonal(cov, 1.0)
        oracle = stats.multivariate_normal(mean=np.zeros(k), cov=cov, abseps=1e-8, releps=0.0)
        want = oracle.cdf(np.full(k, x))
        got = equicorr_max_cdf(EquicorrSpec(k=k, rho=rho), x)
        assert got == pytest.approx(want, abs=5e-6)


def test_positive_root_convention_matches_reflection():
    # The CDF is insensitive to the sign convention of the shared factor:
    # integrating Phi(x - sqrt(rho) u) against phi(u) must agree.
    spec = EquicorrSpec(k=4, rho=0.45)
    x = 0.9
    u, w = np.polynomial.legendre.leggauss(400)
    u = u * 8.5
    w = w * 8.5
    phi = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    integrand = ndtr((x - math.sqrt(0.45) * u) / math.sqrt(0.55)) ** 4
    want = float(np.sum(w * phi * integrand))
    assert equicorr_max_cdf(spec, x) == pytest.approx(want, abs=1e-9)


def test_independence_reduces_to_marginal_power():
    spec = EquicorrSpec(k=3, rho=0.0)
    for x in (-1.0, 0.0, 0.8, 2.5):
        assert equicorr_max_cdf(spec, x) == pytest.approx(ndtr(x) ** 3, abs=1e-12)


def test_k_one_matches_marginals():
    assert equicorr_max_cdf(EquicorrSpec(k=1, rho=0.0), 1.3) == pytest.approx(
        ndtr(1.3), abs=1e-14
    )
    assert equicorr_max_cdf(EquicorrSpec(k=1, rho=0.0, df=7.0), 1.3) == pytest.approx(
        stdtr(7.0, 1.3), abs=1e-12
    )
    assert equicorr_max_quantile(EquicorrSpec(k=1, rho=0.0), 0.95) == pytest.approx(
        normal_quantile(0.95), abs=1e-12
    )


def test_cdf_monotone_in_x_and_bounded():
    spec = EquicorrSpec(k=4, rho=0.35)
    xs = np.linspace(-4.0, 4.0, 33)
    vals = [equicorr_max_cdf(spec, x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
    assert equicorr_max_cdf(spec, math.inf) == 1.0
    assert equicorr_max_cdf(spec, -math.inf) == 0.0


def test_cdf_increases_with_correlation():
    # Slepian: positive dependence makes the joint event more likely.
    vals = [equicorr_max_cdf(EquicorrSpec(k=3, rho=r), 1.0) for r in (0.0, 0.2, 0.5, 0.8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_quantile_between_marginal_and_independence():
    for k, rho, p in [(3, 0.4, 0.9), (5, 0.25, 0.8), (2, 0.7, 0.95)]:
        q = equicorr_max_quantile(EquicorrSpec(k=k, rho=rho), p)
        assert normal_quantile(p) <= q <= normal_quantile(p ** (1.0 / k)) + 1e-12


def test_student_approaches_gaussian():
    spec_t = EquicorrSpec(k=3, rho=0.4, df=2_000_000.0)
    spec_n = EquicorrSpec(k=3, rho=0.4)
    for x in (0.5, 1.5):
        assert equicorr_max_cdf(spec_t, x) == pytest.approx(
            equicorr_max_cdf(spec_n, x), abs=1e-3
        )


@pytest.mark.parametrize(
    "df,want",
    # mpmath references at 40 digits: the normal max CDF at x sqrt(V)
    # integrated against the Gamma(df/2, df/2) density of V, whose
    # log-density is summed at that precision so it does not cancel.
    # In double precision the uncentred log-density cancels to about 1e-9
    # at each node at these df.
    [(1e7, 0.6777795174376526), (1e5, 0.677777979699968)],
)
def test_student_large_df_is_accurate_and_fast(df, want):
    start = time.perf_counter()
    got = equicorr_max_cdf(EquicorrSpec(k=3, rho=0.5, df=df), 1.0)
    assert time.perf_counter() - start < 1.0
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize(
    "df,want",
    # mpmath references (20 digits) over the whole gamma support: with
    # V ~ Gamma(df/2, df/2) and Y = V**(df/2), Y has the bounded density
    # a**a exp(-a Y**(1/a)) / Gamma(a + 1), a = df/2, on [0, inf), which
    # was integrated against the normal max CDF at x sqrt(V). At df = 0.3
    # the mass beyond sqrt(V) = 10 is 4.7e-9, so no truncation is allowed.
    [(0.2, 0.415084568585290966), (0.3, 0.452818448366250027)],
)
def test_student_small_df_matches_reference_without_warnings(df, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = equicorr_max_cdf(EquicorrSpec(k=3, rho=0.5, df=df), 1.0)
    assert got == pytest.approx(want, abs=1e-10)


def test_student_heavy_tails_widen_quantiles():
    q_t = equicorr_max_quantile(EquicorrSpec(k=4, rho=1.0 / 3.0, df=3.0), 0.95)
    q_n = equicorr_max_quantile(EquicorrSpec(k=4, rho=1.0 / 3.0), 0.95)
    assert q_t > q_n


def test_spec_validation():
    with pytest.raises(DomainError):
        EquicorrSpec(k=0, rho=0.3)
    with pytest.raises(DomainError):
        EquicorrSpec(k=2, rho=1.0)
    with pytest.raises(DomainError):
        EquicorrSpec(k=2, rho=-0.1)
    with pytest.raises(DomainError):
        EquicorrSpec(k=2, rho=0.3, df=0.0)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, math.nan])
def test_quantile_rejects_bad_probability(p):
    with pytest.raises(DomainError):
        equicorr_max_quantile(EquicorrSpec(k=2, rho=0.3), p)


def test_scalar_quantiles_match_scipy():
    assert normal_quantile(0.95) == pytest.approx(stats.norm.ppf(0.95), abs=1e-14)
    assert t_quantile(11.0, 0.9) == pytest.approx(stats.t.ppf(0.9, 11.0), abs=1e-12)
    assert beta_quantile(2.0, 3.0, 0.7) == pytest.approx(
        stats.beta.ppf(0.7, 2.0, 3.0), abs=1e-12
    )
    with pytest.raises(DomainError):
        normal_quantile(1.0)
    with pytest.raises(DomainError):
        t_quantile(-1.0, 0.5)


@pytest.mark.parametrize("rho", [0.9999, 0.999999])
def test_extreme_correlation_against_mpmath(rho, mp_normal_expect):
    # The steep factor's transition gets its own panel, so correlations
    # near 1 need no more nodes than moderate ones.
    spec = EquicorrSpec(3, rho)
    start = time.perf_counter()
    value = equicorr_max_cdf(spec, 1.0)
    elapsed = time.perf_counter() - start
    sq_comp = math.sqrt(1.0 - rho)
    want = mp_normal_expect([-math.sqrt(rho) / sq_comp] * 3, [1.0 / sq_comp] * 3)
    assert value == pytest.approx(want, abs=1e-12)
    assert elapsed < 1.0


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 8),
    rho=st.floats(0.0, 0.95),
    df=st.just(math.inf) | st.floats(0.0, 6.0).map(lambda e: 10.0 ** e),
    p=st.floats(0.5, 0.99),
)
def test_quantile_solves_to_rounding(k, rho, df, p):
    spec = EquicorrSpec(k, rho, df)
    x = equicorr_max_quantile(spec, p)
    assert equicorr_max_cdf(spec, x, tol=1e-13) == pytest.approx(p, abs=1e-12)


def test_quantile_beyond_the_old_root_tolerance():
    # A root accurate only to 1e-10 in x (1.4663213607712244) leaves a
    # CDF residual of 6.8e-12 here.
    spec = EquicorrSpec(8, 0.7657305928791425, 1216.54549319425)
    x = equicorr_max_quantile(spec, 0.8)
    assert x == pytest.approx(1.4663213607487326, abs=1e-14)
    assert equicorr_max_cdf(spec, x, tol=1e-13) == pytest.approx(0.8, abs=1e-13)


@pytest.mark.parametrize("df", [math.inf, 12.0])
def test_quantile_ignores_its_start(df):
    spec = EquicorrSpec(5, 0.4, df)
    x = equicorr_max_quantile(spec, 0.9)
    for start in (x - 0.05, x + 1e-6, 100.0, -100.0):
        assert equicorr_max_quantile(spec, 0.9, start=start) == pytest.approx(x, abs=1e-14)


@pytest.mark.parametrize("df", [math.inf, 7.0])
@pytest.mark.parametrize("k,rho,x", [(3, 0.4, 1.2), (6, 0.8, 0.3), (2, 0.1, -0.5)])
def test_density_matches_central_difference(k, rho, df, x):
    spec = EquicorrSpec(k, rho, df)
    cdf, pdf, nodes = equicorr_max_cdf(spec, x, density=True)
    assert cdf == pytest.approx(equicorr_max_cdf(spec, x), abs=1e-15)
    assert nodes in _quad._LEVELS
    h = 1e-4
    central = (equicorr_max_cdf(spec, x + h, tol=1e-13) - equicorr_max_cdf(spec, x - h, tol=1e-13)) / (2 * h)
    assert pdf == pytest.approx(central, abs=1e-8)


@pytest.mark.parametrize("df", [math.inf, 0.5, 7.0, 1e6])
def test_density_closed_forms(df):
    for x in (-2.0, 0.3, 1.7):
        cdf, pdf, nodes = equicorr_max_cdf(EquicorrSpec(1, 0.6, df), x, density=True)
        assert nodes is None
        assert pdf == pytest.approx(stats.t.pdf(x, df) if math.isfinite(df) else stats.norm.pdf(x), rel=1e-12)
    for x in (-2.0, 0.3, 1.7):
        _, pdf, _ = equicorr_max_cdf(EquicorrSpec(4, 0.0), x, density=True)
        assert pdf == pytest.approx(4.0 * stats.norm.pdf(x) * ndtr(x) ** 3, rel=1e-11)
    assert equicorr_max_cdf(EquicorrSpec(3, 0.2, df), math.inf, density=True) == (1.0, 0.0, None)
