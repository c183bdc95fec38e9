"""Deterministic quadrature helpers.

Everything numerical in this package that is not a closed form runs
through the building blocks here: a cached Gauss-Legendre rule mapped
onto an arbitrary interval, and a refinement loop that doubles the node
count until two successive evaluations agree. Integrands are smooth
(products of normal CDFs and densities), so doubling converges fast and
gives a usable error estimate for free.

Mixing over a precision V ~ Gamma(shape, rate) is one tensor rule on
(t, u), where t = log(rate * V / shape) is the log-precision centred on
the log of its mean and u the standard normal variable the arms share. The density of t is bounded and smooth
for every shape, so one truncated Gauss-Legendre rule per axis serves
all shapes; its log-density is taken relative to the mode and the
weights are normalised to unit mass, which keeps it accurate for very
large shapes too. Both axes double together under one error estimate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gammainccinv, gammaincinv, gammaln, ndtr

from .exceptions import NumericError

# Standard normal density at 8.5 is ~1e-17, below every tolerance used
# in this package, so phi-weighted integrands are truncated there.
GAUSS_TAIL = 8.5

# Mass allowed outside a truncated gamma mixing domain, on each side.
_GAMMA_TAIL_MASS = 1e-16

# Entries of the buffer the gamma mixing rule accumulates its arm product in.
_BLOCK = 1 << 16


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def legendre_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for an n-point Gauss-Legendre rule on [a, b]."""
    if not (b > a):
        raise NumericError(f"empty quadrature interval [{a!r}, {b!r}]")
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def refine(
    evaluate: Callable[[int], float | np.ndarray],
    *,
    tol: float,
    start: int = 128,
    limit: int = 8192,
    label: str = "integral",
) -> float | np.ndarray:
    """Evaluate at doubling node counts until two runs agree within tol.

    ``evaluate`` maps a node count to a value or an array of values; the
    largest difference between successive refinements serves as the
    error estimate.
    """
    n = start
    prev = evaluate(n)
    while n < limit:
        n *= 2
        cur = evaluate(n)
        if np.max(np.abs(cur - prev)) <= tol:
            return cur
        prev = cur
    last = f" (last={prev!r})" if np.ndim(prev) == 0 else ""
    raise NumericError(
        f"{label} did not reach tolerance {tol:g} within {limit} nodes{last}"
    )


def _log_gamma_domain(shape: float) -> tuple[float, float]:
    """Interval of t = log(V / shape), V ~ Gamma(shape, 1), carrying all but
    ``_GAMMA_TAIL_MASS`` on each side.

    For small shapes the lower quantile underflows; P(V < v) is at most
    v**shape / Gamma(shape + 1), which bounds it in closed form instead.
    """
    lo = float(gammaincinv(shape, _GAMMA_TAIL_MASS))
    if lo > 0.0:
        t_lo = math.log(lo / shape)
    else:
        t_lo = (math.log(_GAMMA_TAIL_MASS) + float(gammaln(shape + 1.0))) / shape - math.log(shape)
    t_hi = math.log(float(gammainccinv(shape, _GAMMA_TAIL_MASS)) / shape)
    return t_lo, t_hi


def gamma_sqrt_expect(
    slopes: np.ndarray,
    offsets: np.ndarray,
    shape: float,
    rate: float,
    *,
    tol: float,
    label: str = "gamma expectation",
) -> float:
    """E[prod_j Phi(slopes_j * U + offsets_j * sqrt(V))] for U ~ N(0, 1)
    independent of V ~ Gamma(shape, rate).

    The rule at node count n takes n nodes on each axis, from 64 up to
    2048 (building the 4096-node rule alone takes seconds). Arms that
    share a (slope, offset) pair are evaluated once and raised to their
    multiplicity; the product over arms accumulates in one buffer of at
    most ``_BLOCK`` entries, filled a block of t rows at a time.
    """
    pairs, counts = np.unique(
        np.column_stack([np.ravel(slopes), np.ravel(offsets)]), axis=0, return_counts=True
    )
    t_lo, t_hi = _log_gamma_domain(shape)
    scale = math.sqrt(shape / rate)

    def evaluate(n: int) -> float:
        t, w_t = legendre_rule(t_lo, t_hi, n)
        w_t = w_t * np.exp(-shape * (np.expm1(t) - t))
        u, w_u = legendre_rule(-GAUSS_TAIL, GAUSS_TAIL, n)
        w_u = w_u * np.exp(-0.5 * u * u)
        s = scale * np.exp(0.5 * t)
        rows = min(n, _BLOCK // n)
        prod = np.empty((rows, n))
        term = np.empty_like(prod)
        total = 0.0
        for r in range(0, n, rows):
            block = s[r:r + rows]
            acc, tmp = prod[:block.size], term[:block.size]
            for j, ((a, c), m) in enumerate(zip(pairs, counts)):
                out = acc if j == 0 else tmp
                np.add.outer(c * block, a * u, out=out)
                ndtr(out, out=out)
                if m > 1:
                    np.power(out, m, out=out)
                if j > 0:
                    acc *= tmp
            total += w_t[r:r + rows] @ acc @ w_u
        return float(total / (w_t.sum() * w_u.sum()))

    return refine(evaluate, tol=tol, start=64, limit=2048, label=label)
