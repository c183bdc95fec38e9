"""Deterministic quadrature helpers.

Every probability in this package that is not a closed form is one of
two integrals over the shared control, both evaluated here with cached
pairs of the n-point Gauss-Legendre rule G_n and its Kronrod extension
K_2n+1, which reuses the n Gauss nodes (Kronrod 1965; D. P. Laurie, Math.
Comp. 66 (1997) 1133-1145). One pass over the 2n + 1 nodes gives K_2n+1
and its error estimate |K_2n+1 - G_n|; n doubles from 64 up to 1024
until the estimate meets the tolerance. ``normal_expect`` is
E[prod_j Phi(a_j U + c_j)] for U ~ N(0, 1), and ``gamma_sqrt_expect``
mixes the same product over a gamma precision. Either can also return,
from the same nodes, the derivative with respect to a common shift of
every offset, and either can run once on a fixed level instead of
refining (what a Newton solve needs), still with its error estimate.

Mixing over V ~ Gamma(shape, rate) is one tensor rule on (t, u), where
t = log(rate * V / shape) is the log-precision centred on the log of its
mean and u the standard normal variable the arms share. The density of t
is bounded and smooth for every shape, so one truncated Gauss-Kronrod
rule per axis serves all shapes; its log-density is taken relative to
the mode and the weights are normalised to unit mass, which keeps it
accurate for very large shapes too.
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

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_WINDOW = np.array([-GAUSS_TAIL, GAUSS_TAIL])

# Slope above which the steepest factor's transition gets its own panel.
_STEEP = 4.0

# The one schedule of every rule here: the pairs (G_n, K_2n+1), n = 64
# doubling to 1024.
_LEVELS = (64, 128, 256, 512, 1024)

# Mass allowed outside a truncated gamma mixing domain, on each side.
_GAMMA_TAIL_MASS = 1e-16

# Entries in the largest array of arm factors a rule builds at once.
_BLOCK = 1 << 16


def _jacobi_kronrod(n: int) -> np.ndarray:
    """sqrt(b_k), k = 1..2n, of the order-(2n + 1) Jacobi-Kronrod matrix of
    the Legendre weight, with sqrt(2) (its mass) at 0 and 1 at 2n + 1, by
    Laurie's algorithm (Gautschi's ``r_kronrod``). The weight is symmetric,
    so one work array stays 0 and only the other's sweeps run; b_k is a
    ratio of its entries, and rescaling it keeps large n finite."""
    b = np.zeros(2 * n + 2)
    k = np.arange(1, (3 * n + 1) // 2 + 1)
    b[0], b[2 * n + 1], b[k] = 2.0, 1.0, k * k / (4.0 * k * k - 1.0)
    s = np.zeros(n // 2 + 2)
    s[1] = b[n + 1]
    for m in range(1, n - 1, 2):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s /= np.abs(s).max()
    if n % 2 == 0:
        s[1:] = s[:-1].copy()
    for m in range((n - 1) | 1, 2 * n - 2, 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s /= np.abs(s).max()
    return np.sqrt(b)


def _recurrence(x: np.ndarray, sb: np.ndarray, top: int):
    """Yield p_k(x) and p_k'(x) for k = 0..top, where p_0 = 1/sb[0] and
    sb[k + 1] p_{k+1} = x p_k - sb[k] p_{k-1}."""
    p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / sb[0])
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    yield p, d
    for k in range(top):
        p_prev, p = p, (x * p - sb[k] * p_prev) / sb[k + 1]
        d_prev, d = d, (p_prev + x * d - sb[k] * d_prev) / sb[k + 1]
        yield p, d


def _roots(sb: np.ndarray, top: int, base: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The roots of p_top / p_base, one in each [lo, hi], by Newton's method
    kept in its bracket by the ratio's sign, (-1)**(roots - j) left of root
    j. The error after a step h is about (roots * h)**2 / 4 at the ends,
    so the solve stops after every step is below 1e-8 / roots."""
    count = top - base
    left_sign = (-1.0) ** (count - np.arange(count))
    x = np.cos(0.5 * (np.arccos(lo) + np.arccos(hi)))
    for _ in range(50):
        for k, (p, d) in enumerate(_recurrence(x, sb, top)):
            if k == base:
                q, e = p, d
        left = np.sign(p * q) == left_sign
        lo[left], hi[~left] = x[left], x[~left]
        new = x - p * q / (d * q - p * e)
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        x, step = new, np.abs(new - x).max()
        if step <= 1e-8 / count:
            return x
    raise NumericError(f"Gauss-Kronrod nodes did not converge at degree {top}")


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair (G_n, K_2n+1) on [-1, 1]: the 2n + 1 nodes, ascending with
    the Gauss nodes at odd positions, and (2n + 1, 2) weights, Gauss (0 at
    the extension nodes) then Kronrod.

    Gauss node k from the top lies in Bruns' bracket arccos x in
    ((k - 1/2) h, k h), h = pi / (n + 1/2); one extension node lies
    between each two neighbours among -1, the Gauss nodes and 1. The
    weights are Christoffel sums 1 / sum p_k(x)**2 over k < n and k <= 2n,
    taken to first order from the rounded node to the exact root.
    """
    sb = _jacobi_kronrod(n)
    theta = (np.arange(n, 0, -1) - np.array([[0.0], [0.5]])) * (np.pi / (n + 0.5))
    gauss = _roots(sb, n, 0, *np.cos(theta))
    edges = np.concatenate([[-1.0], gauss, [1.0]])
    extension = _roots(sb, 2 * n + 1, n, edges[:-1].copy(), edges[1:].copy())
    nodes = np.insert(gauss, np.arange(n + 1), extension)
    sums = np.zeros((2, nodes.size, 2))
    for k, (p, d) in enumerate(_recurrence(nodes, sb, 2 * n + 1)):
        if k == n:
            sums[:, :, 0] = sums[:, :, 1]
        if k <= 2 * n:
            sums[:, :, 1] += p * p, p * d
    weights = (1.0 + 2.0 * (p / d)[:, None] * sums[1] / sums[0]) / sums[0]
    weights[0::2, 0] = 0.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def legendre_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and (Gauss, Kronrod) weights of the level-n pair on [a, b]."""
    if not (b > a):
        raise NumericError(f"empty quadrature interval [{a!r}, {b!r}]")
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def refine(
    evaluate: Callable[[int], np.ndarray],
    *,
    tol: float,
    label: str = "integral",
) -> float | np.ndarray:
    """The fine value of the first level in ``_LEVELS`` whose coarse and
    fine values agree within tol. ``evaluate`` maps a level to (coarse,
    fine) stacked on axis 0, each a value or an array of values."""
    for n in _LEVELS:
        coarse, fine = evaluate(n)
        if np.abs(fine - coarse).max() <= tol:
            return fine
    last = f" (last={float(fine)!r})" if np.ndim(fine) == 0 else ""
    raise NumericError(f"{label} did not reach tolerance {tol:g} within {2 * n + 1} nodes{last}")


def _integrate(
    evaluate: Callable[[int], np.ndarray],
    *,
    tol: float,
    label: str,
    density: bool,
    nodes: int | None,
) -> float | np.ndarray | tuple:
    """Refine ``evaluate``, or run it once on the fixed level ``nodes``.

    ``evaluate`` stacks (coarse, fine) on the first axis, and with
    ``density`` the value and its derivative on the second: the error
    estimate judges the value alone, and the result is (value, derivative,
    level), the level None when a fixed level misses its own estimate.
    """
    if nodes is not None:
        out = evaluate(nodes)
        if density and np.abs(out[1, 0] - out[0, 0]).max() > tol:
            nodes = None
    elif not density:
        return refine(evaluate, tol=tol, label=label)
    else:
        out = None

        def value(n: int) -> np.ndarray:
            nonlocal nodes, out
            nodes, out = n, evaluate(n)
            return out[:, 0]

        refine(value, tol=tol, label=label)
    return (out[1, 0], out[1, 1], nodes) if density else out[1]


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
    (clipped to the window), with the level's 2n + 1 nodes in each panel.

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
    mid, half = mode[:, None, None], np.full((rows, 1, 1), GAUSS_TAIL)
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
        out = np.empty((2, 1 + density, rows))
        step = max(1, _BLOCK // (k * mid.shape[1] * x.size))
        # Reused: a fresh array of this size costs a page fault per page.
        buffers = np.empty((2, min(step, rows), k, mid.shape[1] * x.size))
        for r in range(0, rows, step):
            s = slice(r, r + step)
            grid = mid[s] + half[s] * x
            u = grid.reshape(len(grid), -1)
            z, factors = buffers[:, :len(u)]
            np.add(np.multiply(a[s], u[:, None], out=z), c[s], out=z)
            ndtr(z, out=factors)
            parts = [factors.prod(axis=1)]
            if density:
                parts.append(_product_rule(factors, np.exp(-0.5 * z * z) / _SQRT_2PI))
            for i, f in enumerate(parts):
                f = (f * np.exp(-0.5 * u * u)).reshape(grid.shape)
                out[:, i, s] = ((f @ w) * mass[s]).sum(axis=1).T
        return out if density else out[:, 0]

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

    Level n takes the 2n + 1 Kronrod nodes on each axis and weighs one
    tensor of integrand values by K_2n+1 and by G_n on both axes. Arms
    that share a (slope, offset) pair are evaluated once and raised to their
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

    def evaluate(n: int) -> np.ndarray:
        t, w_t = legendre_rule(t_lo, t_hi, n)
        w_t = w_t * np.exp(-shape * (np.expm1(t) - t))[:, None]
        u, w_u = legendre_rule(-GAUSS_TAIL, GAUSS_TAIL, n)
        w_u = w_u * np.exp(-0.5 * u * u)[:, None]
        s = scale * np.exp(0.5 * t)
        rows = min(t.size, _BLOCK // t.size)
        # Value and derivative accumulators, a term of each, and Phi**(m-1);
        # without the density the last three are never touched.
        buffers = np.empty((5, rows, t.size))
        total = np.zeros((1 + density, 2))
        for r in range(0, t.size, rows):
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
            total[0] += (w_t[r:r + rows] * (acc @ w_u)).sum(axis=0)
            if density:
                total[1] += (w_t[r:r + rows] * (dacc @ w_u)).sum(axis=0)
        total /= w_t.sum(axis=0) * w_u.sum(axis=0)
        return total.T if density else total[0]

    result = _integrate(evaluate, tol=tol, label=label, density=density, nodes=nodes)
    return result if density else float(result)
