"""Deterministic quadrature helpers.

Every probability in this package that is not a closed form is one of
two integrals over the shared control, both evaluated here with a cached
Gauss-Legendre rule and a refinement loop that doubles the node count,
from 64 up to 2048, until two successive evaluations agree. Integrands
are smooth (products of normal CDFs and densities), so doubling
converges fast and gives a usable error estimate for free.
``normal_expect`` is E[prod_j Phi(a_j U + c_j)] for U ~ N(0, 1), and
``gamma_sqrt_expect`` mixes the same product over a gamma precision.
Either can also return, from the same nodes, the derivative with respect
to a common shift of every offset, and either can run once on a fixed
node count instead of refining (what a Newton solve on a smooth rule
needs).

Mixing over V ~ Gamma(shape, rate) is one tensor rule on (t, u), where
t = log(rate * V / shape) is the log-precision centred on the log of its
mean and u the standard normal variable the arms share. The density of t
is bounded and smooth for every shape, so one truncated Gauss-Legendre
rule per axis serves all shapes; its log-density is taken relative to
the mode and the weights are normalised to unit mass, which keeps it
accurate for very large shapes too. Both axes double together under one
error estimate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gammainccinv, gammaincinv, gammaln, ndtr, roots_legendre

from .exceptions import NumericError

# Standard normal density at 8.5 is ~1e-17, below every tolerance used
# in this package, so phi-weighted integrands are truncated there.
GAUSS_TAIL = 8.5

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_WINDOW = np.array([-GAUSS_TAIL, GAUSS_TAIL])

# Slope above which the steepest factor's transition gets its own panel.
_STEEP = 4.0

# The one node schedule of every rule here: 64 nodes, doubling to 2048.
_FIRST_NODES = 64
_MAX_NODES = 2048

# Mass allowed outside a truncated gamma mixing domain, on each side.
_GAMMA_TAIL_MASS = 1e-16

# Entries in the largest array of arm factors a rule builds at once.
_BLOCK = 1 << 16


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(n)
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
    label: str = "integral",
) -> float | np.ndarray:
    """Evaluate at doubling node counts, from ``_FIRST_NODES`` up to
    ``_MAX_NODES``, until two runs agree within tol.

    ``evaluate`` maps a node count to a value or an array of values; the
    largest difference between successive refinements serves as the
    error estimate.
    """
    n = _FIRST_NODES
    prev = evaluate(n)
    while n < _MAX_NODES:
        n *= 2
        cur = evaluate(n)
        if np.abs(cur - prev).max() <= tol:
            return cur
        prev = cur
    last = f" (last={prev!r})" if np.ndim(prev) == 0 else ""
    raise NumericError(
        f"{label} did not reach tolerance {tol:g} within {_MAX_NODES} nodes{last}"
    )


def _integrate(
    evaluate: Callable[[int], np.ndarray],
    *,
    tol: float,
    label: str,
    density: bool,
    nodes: int | None,
) -> float | np.ndarray | tuple:
    """Refine ``evaluate``, or run it once on the fixed ``nodes``-point rule.

    With ``density``, ``evaluate`` stacks the value and its derivative on
    the first axis: the error estimate judges the value alone, and the
    result is (value, derivative, node count of the rule used).
    """
    if nodes is not None:
        out = evaluate(nodes)
    elif not density:
        return refine(evaluate, tol=tol, label=label)
    else:
        out = None

        def value(n: int) -> np.ndarray:
            nonlocal nodes, out
            nodes, out = n, evaluate(n)
            return out[0]

        refine(value, tol=tol, label=label)
    return (out[0], out[1], nodes) if density else out


def _product_rule(factors: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Derivative of the product of ``factors`` over axis 1, given each
    factor's own derivative in ``slopes``."""
    prod, deriv = factors[:, 0], slopes[:, 0]
    for j in range(1, factors.shape[1]):
        deriv = deriv * factors[:, j] + prod * slopes[:, j]
        prod = prod * factors[:, j]
    return deriv


def normal_expect(
    slopes: np.ndarray,
    offsets: np.ndarray,
    *,
    tol: float,
    label: str = "normal expectation",
    density: bool = False,
    nodes: int | None = None,
) -> float | np.ndarray | tuple:
    """E[prod_j Phi(slopes_j * U + offsets_j)] for U ~ N(0, 1).

    ``offsets`` is (k,), giving one value, or (rows, k), giving one value
    per row; ``slopes`` broadcasts against it. The integrand is
    log-concave, so it falls at least like exp(-(u - m)**2 / 2) away from
    its mode m, and each row is integrated over m +- ``GAUSS_TAIL``, which
    keeps tiny values relatively accurate. The mode is estimated by taking
    every factor with c_j < 0 as its Gaussian tail
    exp(-(a_j u + c_j)**2 / 2) and every other factor as 1. When some slope
    exceeds ``_STEEP``, each row's window is cut into three panels at the
    transition u* = -c/a of its steepest factor, u* +- GAUSS_TAIL / |a|
    (clipped to the window), with n nodes in each panel.

    An infinite offset pins its factor at 1 (+inf) or 0 (-inf) for every
    u; a flat factor at offset +-40 rounds to exactly that. ``density``
    and ``nodes`` are those of ``_integrate``; the derivative is with
    respect to h in Phi(slopes_j * U + offsets_j + h), at h = 0.
    """
    c = np.asarray(offsets, dtype=float)
    scalar = c.ndim == 1
    c = c.reshape(-1, c.shape[-1])
    a = np.empty_like(c)
    a[...] = slopes
    pinned = np.isinf(c)
    if pinned.any():
        a[pinned] = 0.0
        c = np.where(pinned, np.copysign(40.0, c), c)
    rows, k = c.shape
    tail = a * (c < 0.0)
    mode = (tail * c).sum(axis=1) / -(1.0 + (tail * tail).sum(axis=1))
    # Panel p of row r maps x in [-1, 1] to u = mid[r, p] + half[r, p] * x.
    mid, half = mode[:, None, None], GAUSS_TAIL
    if np.abs(a).max() > _STEEP:
        j = np.abs(a).argmax(axis=1)[:, None]
        a_j = np.take_along_axis(a, j, axis=1)
        u_star = -np.take_along_axis(c, j, axis=1) / a_j
        lo, hi = mode[:, None] - GAUSS_TAIL, mode[:, None] + GAUSS_TAIL
        inner = np.clip(u_star + _WINDOW / np.abs(a_j), lo, hi)
        edges = np.hstack([lo, inner, hi])
        mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None]
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])[:, :, None]
    mass = half / _SQRT_2PI
    a, c = a[:, :, None], c[:, :, None]

    def evaluate(n: int) -> np.ndarray:
        x, w = legendre_rule(-1.0, 1.0, n)
        u = (mid + half * x).reshape(rows, -1)
        weight = (mass * w).reshape(-1, u.shape[1]) * np.exp(-0.5 * u * u)
        out = np.empty((1 + density, rows))
        step = max(1, _BLOCK // (k * u.shape[1]))
        for r in range(0, rows, step):
            s = slice(r, r + step)
            if not density:
                out[0, s] = np.einsum("rn,rn->r", ndtr(a[s] * u[s, None] + c[s]).prod(axis=1), weight[s])
                continue
            z = a[s] * u[s, None] + c[s]
            factors = ndtr(z)
            out[0, s] = np.einsum("rn,rn->r", factors.prod(axis=1), weight[s])
            pdf = np.exp(-0.5 * z * z) / _SQRT_2PI
            out[1, s] = np.einsum("rn,rn->r", _product_rule(factors, pdf), weight[s])
        return out if density else out[0]

    result = _integrate(evaluate, tol=tol, label=label, density=density, nodes=nodes)
    if not scalar:
        return result
    return (result[0][0], result[1][0], result[2]) if density else result[0]


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
    density: bool = False,
    nodes: int | None = None,
) -> float | tuple[float, float, int]:
    """E[prod_j Phi(slopes_j * U + offsets_j * sqrt(V))] for U ~ N(0, 1)
    independent of V ~ Gamma(shape, rate).

    The rule at node count n takes n nodes on each axis. Arms that
    share a (slope, offset) pair are evaluated once and raised to their
    multiplicity; the product over arms accumulates in one buffer of at
    most ``_BLOCK`` entries, filled a block of t rows at a time.
    ``density`` and ``nodes`` are those of ``_integrate``; the derivative
    is with respect to h in Phi(slopes_j * U + (offsets_j + h) * sqrt(V)),
    at h = 0. A pair of multiplicity m contributes m phi Phi**(m-1)
    sqrt(V) to it, so Phi**(m-1) is formed once and gives Phi**m too; the
    derivative of the product accumulates by the product rule in buffers
    of the same size.
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
        # Value and derivative accumulators, a term of each, and Phi**(m-1);
        # without the density the last three are never touched.
        buffers = np.empty((5, rows, n))
        total = np.zeros(2)
        for r in range(0, n, rows):
            block = s[r:r + rows]
            acc, tmp, dacc, dtmp, lower = buffers[:, :block.size]
            for j, ((a, c), m) in enumerate(zip(pairs, counts)):
                out = acc if j == 0 else tmp
                np.add.outer(c * block, a * u, out=out)
                if density:
                    dout = dacc if j == 0 else dtmp
                    np.multiply(out, -0.5 * out, out=dout)
                    np.exp(dout, out=dout)
                    dout *= (m / _SQRT_2PI) * block[:, None]
                ndtr(out, out=out)
                if m > 1 and density:
                    np.power(out, m - 1, out=lower)
                    dout *= lower
                    out *= lower
                elif m > 1:
                    np.power(out, m, out=out)
                if j > 0:
                    if density:
                        dacc *= tmp
                        dtmp *= acc
                        dacc += dtmp
                    acc *= tmp
            total[0] += w_t[r:r + rows] @ acc @ w_u
            if density:
                total[1] += w_t[r:r + rows] @ dacc @ w_u
        total /= w_t.sum() * w_u.sum()
        return total if density else float(total[0])

    return _integrate(evaluate, tol=tol, label=label, density=density, nodes=nodes)
