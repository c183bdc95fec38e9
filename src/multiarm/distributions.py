"""Quantiles and the distribution of the largest of k correlated statistics.

The recurring object is a vector of k exchangeable statistics with common
correlation ``rho``,

    X_j = sqrt(rho) * U + sqrt(1 - rho) * Z_j,      j = 1..k,

where U and the Z_j are independent standard normals. Conditioning on U
makes the components independent, so the CDF of ``max_j X_j`` reduces to a
one-dimensional integral of ``Phi((x - sqrt(rho) u) / sqrt(1 - rho))**k``
against the normal density. The Student variant divides every component by
the same ``sqrt(W / df)`` with W ~ chi-square(df), handled by mixing the
normal answer over a gamma law. Quantiles come from a safeguarded Newton
solve: the max of k dependent statistics is stochastically larger than one
of them and (for nonnegative correlation) smaller than the independent
max, which pins the root between the marginal and independence quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, ndtr, ndtri, poch, stdtr, stdtrit

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

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Newton on the max quantile: the relative step that ends it, and the most
# steps it may take.
_NEWTON_STOP = 1e-8
_NEWTON_STEPS = 60


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


def _student_density(df: float, x: float) -> float:
    """Density of a Student t law at x; df = inf for the standard normal."""
    if math.isinf(df):
        return math.exp(-0.5 * x * x) / _SQRT_2PI
    # Gamma((df + 1) / 2) / Gamma(df / 2) as a Pochhammer symbol keeps its
    # digits at large df, where a difference of log-gammas cancels.
    scale = float(poch(0.5 * df, 0.5)) / math.sqrt(0.5 * df) / _SQRT_2PI
    return scale * math.exp(-0.5 * (df + 1.0) * math.log1p(x * x / df))


def equicorr_max_cdf(
    spec: EquicorrSpec,
    x: float,
    tol: float = 1e-10,
    *,
    density: bool = False,
    nodes: int | None = None,
) -> float | tuple[float, float, int | None]:
    """CDF of the largest of the k statistics at threshold ``x``.

    With ``density`` the result is (cdf, density, nodes): the density of
    the max at ``x`` comes from the same nodes as the CDF, and ``nodes``
    is the quadrature level used (None for the closed forms). Given
    ``nodes``, the level is fixed instead of refined; the level comes back
    only when its own error estimate meets tol at ``x``, and None
    otherwise.
    """
    x = float(x)
    if math.isnan(x):
        raise DomainError("threshold must not be NaN")
    if math.isinf(x):
        cdf = 1.0 if x > 0 else 0.0
        return (cdf, 0.0, None) if density else cdf
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol!r}")
    if spec.k == 1:
        cdf = float(ndtr(x) if math.isinf(spec.df) else stdtr(spec.df, x))
        return (cdf, _student_density(spec.df, x), None) if density else cdf

    # Given U, each component is below x S when
    # Z_j < (x S - sqrt(rho) U) / sqrt(1 - rho), where S = 1 in the normal
    # case and S = sqrt(W/df), W/df ~ Gamma(df/2, df/2), in the Student case.
    # A shift h of x shifts every offset by h / sqrt(1 - rho).
    sq_comp = math.sqrt(1.0 - spec.rho)
    slopes = np.full(spec.k, -math.sqrt(spec.rho) / sq_comp)
    offsets = np.full(spec.k, x / sq_comp)
    if math.isinf(spec.df):
        out = normal_expect(
            slopes, offsets, tol=tol, label="equicorrelated max CDF", density=density, nodes=nodes,
        )
    else:
        half_df = 0.5 * spec.df
        out = gamma_sqrt_expect(
            slopes, offsets, half_df, half_df, tol=tol,
            label="equicorrelated max CDF (Student)", density=density, nodes=nodes,
        )
    if not density:
        return min(max(float(out), 0.0), 1.0)
    value, deriv, used = out
    return min(max(float(value), 0.0), 1.0), float(deriv) / sq_comp, used


def equicorr_max_quantile(
    spec: EquicorrSpec,
    p: float,
    tol: float = 1e-10,
    *,
    start: float | None = None,
) -> float:
    """p-quantile of the largest statistic.

    The root is bracketed between the marginal quantile and the
    independence quantile at ``p**(1/k)``; positive exchangeable
    dependence guarantees the CDF crosses ``p`` inside that interval.
    Newton's method runs from ``start`` (when inside the bracket; a
    nearby root, say) on one rule: the first iterate refines its node
    count, later iterates reuse it, so the CDF they solve is smooth in x,
    and each gives CDF and density in one pass. Convergence is
    quadratic, so once a Newton step falls below ``_NEWTON_STOP``
    relative the next would be below rounding: the step is the root when
    the fixed rule's own error estimate meets tol at the last iterate,
    and otherwise the rule is refined afresh there and Newton goes on. A
    larger step that would leave the bracket bisects it instead, and a
    bisection never ends the solve. Without ``start`` it sets out from
    lo + (1 - rho)**(1/4) * (hi - lo), an empirical fit to where the root
    sits in the bracket (0.034 off at the median over k = 2..8).
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

    x = start if start is not None and lo < start < hi else lo + (1.0 - spec.rho) ** 0.25 * (hi - lo)
    nodes = None
    for _ in range(_NEWTON_STEPS):
        cdf, pdf, held = equicorr_max_cdf(spec, x, tol=tol, density=True, nodes=nodes)
        nodes = nodes or held
        if cdf == p:
            return x
        if cdf < p:
            lo = x
        else:
            hi = x
        new = x + (p - cdf) / pdf if pdf > 0.0 else math.nan
        if abs(new - x) <= _NEWTON_STOP * max(1.0, abs(x)):
            if held is not None:
                return new
            nodes = None
        elif not (lo < new < hi):
            new = 0.5 * (lo + hi)
        x = new
    raise NumericError(f"quantile Newton solve did not converge for {spec!r} at p={p!r}")
