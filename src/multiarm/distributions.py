"""Quantiles and the distribution of the largest of k correlated statistics.

The recurring object is a vector of k exchangeable statistics with common
correlation ``rho``,

    X_j = sqrt(rho) * U + sqrt(1 - rho) * Z_j,      j = 1..k,

where U and the Z_j are independent standard normals. Conditioning on U
makes the components independent, so the CDF of ``max_j X_j`` reduces to a
one-dimensional integral of ``Phi((x - sqrt(rho) u) / sqrt(1 - rho))**k``
against the normal density. The Student variant divides every component by
the same ``sqrt(W / df)`` with W ~ chi-square(df), handled by mixing the
normal answer over a gamma law. Quantiles come from bracketed root finding:
the max of k dependent statistics is stochastically larger than one of them
and (for nonnegative correlation) smaller than the independent max, which
pins the root between the marginal and independence quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import betaincinv, ndtr, ndtri, stdtr, stdtrit

from ._quad import gamma_sqrt_expect, normal_expect
from .exceptions import DomainError, NumericError

__all__ = [
    "EquicorrSpec",
    "normal_quantile",
    "t_quantile",
    "beta_quantile",
    "equicorr_max_cdf",
    "equicorr_max_quantile",
]

@dataclass(frozen=True)
class EquicorrSpec:
    """Shape of an equicorrelated max distribution.

    ``df = inf`` (the default) gives the normal case; finite ``df`` the
    Student case with a shared variance estimate.
    """

    k: int
    rho: float
    df: float = math.inf

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise DomainError(f"k must be an integer >= 1, got {self.k!r}")
        if not (0.0 <= self.rho < 1.0):
            raise DomainError(f"rho must lie in [0, 1), got {self.rho!r}")
        if math.isnan(self.df) or not (self.df > 0.0):
            raise DomainError(f"df must be positive (inf for normal), got {self.df!r}")


def _check_open_unit(name: str, p: float) -> None:
    if not (0.0 < p < 1.0):
        raise DomainError(f"{name} must lie strictly in (0, 1), got {p!r}")


def normal_quantile(p: float) -> float:
    """Standard normal quantile."""
    _check_open_unit("p", p)
    return float(ndtri(p))


def t_quantile(df: float, p: float) -> float:
    """Student t quantile; df may be any positive real, inf for normal."""
    _check_open_unit("p", p)
    if math.isnan(df) or not (df > 0.0):
        raise DomainError(f"df must be positive, got {df!r}")
    if math.isinf(df):
        return float(ndtri(p))
    return float(stdtrit(df, p))


def beta_quantile(a: float, b: float, p: float) -> float:
    """Quantile of a Beta(a, b) law."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta shapes must be positive, got a={a!r}, b={b!r}")
    _check_open_unit("p", p)
    return float(betaincinv(a, b, p))


def equicorr_max_cdf(spec: EquicorrSpec, x: float, tol: float = 1e-10) -> float:
    """CDF of the largest of the k statistics at threshold ``x``."""
    x = float(x)
    if math.isnan(x):
        raise DomainError("threshold must not be NaN")
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol!r}")
    if spec.k == 1:
        return float(ndtr(x) if math.isinf(spec.df) else stdtr(spec.df, x))

    # Given U, each component is below x S when
    # Z_j < (x S - sqrt(rho) U) / sqrt(1 - rho), where S = 1 in the normal
    # case and S = sqrt(W/df), W/df ~ Gamma(df/2, df/2), in the Student case.
    sq_comp = math.sqrt(1.0 - spec.rho)
    slopes = np.full(spec.k, -math.sqrt(spec.rho) / sq_comp)
    offsets = np.full(spec.k, x / sq_comp)
    if math.isinf(spec.df):
        value = normal_expect(slopes, offsets, tol=tol, label="equicorrelated max CDF")
    else:
        half_df = 0.5 * spec.df
        value = gamma_sqrt_expect(
            slopes, offsets, half_df, half_df, tol=tol,
            label="equicorrelated max CDF (Student)",
        )
    return min(max(float(value), 0.0), 1.0)


def equicorr_max_quantile(spec: EquicorrSpec, p: float, tol: float = 1e-10) -> float:
    """p-quantile of the largest statistic.

    The root is bracketed between the marginal quantile and the
    independence quantile at ``p**(1/k)``; positive exchangeable
    dependence guarantees the CDF crosses ``p`` inside that interval.
    """
    _check_open_unit("p", p)
    if spec.k == 1:
        return t_quantile(spec.df, p)
    if spec.rho == 0.0 and math.isinf(spec.df):
        return float(ndtri(p ** (1.0 / spec.k)))

    p_single = p ** (1.0 / spec.k)
    if math.isinf(spec.df):
        lo, hi = float(ndtri(p)), float(ndtri(p_single))
    else:
        lo, hi = float(stdtrit(spec.df, p)), float(stdtrit(spec.df, p_single))
    pad = 1e-8 * max(1.0, abs(lo), abs(hi))
    lo -= pad
    hi += pad

    def objective(x: float) -> float:
        return equicorr_max_cdf(spec, x, tol=tol) - p

    try:
        root, info = brentq(objective, lo, hi, xtol=1e-10, rtol=4.0 * np.finfo(float).eps,
                            maxiter=200, full_output=True)
    except ValueError as exc:
        raise NumericError(
            f"quantile bracket [{lo!r}, {hi!r}] failed for {spec!r} at p={p!r}: {exc}"
        ) from exc
    if not info.converged:
        raise NumericError(f"quantile root finding did not converge for {spec!r} at p={p!r}")
    return float(root)
