"""Deterministic quadrature helpers.

Every probability in this package that is not a closed form is one
integral over the shared control, E[prod_j Phi(a_j U + c_j)] for
U ~ N(0, 1), taken at a known precision or mixed over a gamma law on it;
``shared_control_expect`` is the one place that picks between them. Both
kernels use cached pairs of the n-point Gauss-Legendre rule G_n and its
Kronrod extension K_2n+1, which reuses the n Gauss nodes (Kronrod 1965;
D. P. Laurie, Math. Comp. 66 (1997) 1133-1145). One pass over the 2n + 1
nodes gives K_2n+1 and its error estimate |K_2n+1 - G_n|; ``refine``
doubles n from 64 up to 1024 until the estimate meets the tolerance.
Both kernels form the arms' product in one core, ``_product``, and can
return, from the same nodes, its derivative with respect to a common
shift of every offset; the error estimate then judges the value alone.

Mixing over V ~ Gamma(shape, shape) is one tensor rule on (t, u), where
t = log V is the log-precision centred on the log of its mean and u the
standard normal variable the arms share. The density of t is bounded and
smooth for every shape, so one truncated Gauss-Kronrod rule per axis
serves all shapes; its log-density is taken relative to the mode and the
weights are normalised to unit mass, which keeps it accurate for very
large shapes too.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gammainccinv, gammaincinv, gammaln, ndtr

from .exceptions import DomainError, NumericError

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


def _merge_arms(a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arms of (rows, k) slopes ``a`` and offsets ``c`` equal in every row
    merged, as (arms, rows) slopes and offsets and each one's number, by a
    k x k test (``np.unique`` sorts); an arm with a NaN stays its own."""
    arms = np.concatenate([a, c]).T.copy()
    k = len(arms)
    first = ((arms[:, None] == arms).all(axis=2) | np.eye(k, dtype=bool)).argmax(axis=0)
    keep = first == np.arange(k)
    arms = arms[keep]
    return arms[:, :len(a)], arms[:, len(a):], np.bincount(first, minlength=k)[keep]


def _product(z: np.ndarray, counts: np.ndarray, density: bool, buffers: list[np.ndarray]) -> tuple:
    """prod_j Phi(z_j)**m_j over the arms on axis 0 of ``z``, m = ``counts``,
    and with ``density`` its derivative in a common shift of every z_j:
    the product rule over the arms, m_j phi(z_j) Phi(z_j)**(m_j - 1) within
    each. In place: ``buffers`` holds two arrays of z's shape, for the
    factors and their derivatives, ``z`` takes the powers Phi**(m_j - 1),
    and the results are views of the buffers' first arm."""
    cdf, pdf = buffers
    if density:
        np.square(z, out=pdf)
        pdf *= -0.5
        np.exp(pdf, out=pdf)
        pdf *= (counts / _SQRT_2PI).reshape((-1,) + (1,) * (z.ndim - 1))
    ndtr(z, out=cdf)
    for j, m in enumerate(counts.tolist()):
        if m > 1:
            lower = np.power(cdf[j], m - 1, out=z[j])
            cdf[j] *= lower
            if density:
                pdf[j] *= lower
    value, deriv = cdf[0], pdf[0]
    for j in range(1, len(counts)):
        if density:
            deriv *= cdf[j]
            pdf[j] *= value
            deriv += pdf[j]
        value *= cdf[j]
    return (value, deriv) if density else (value,)


def normal_expect(
    slopes: np.ndarray,
    offsets: np.ndarray,
    *,
    tol: float,
    label: str = "normal expectation",
    density: bool = False,
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
    Arms equal in every row are evaluated once, raised to their number.

    An infinite offset pins its factor at 1 (+inf) or 0 (-inf) for every
    u; a flat factor at offset +-40 rounds to exactly that. With
    ``density`` the result is (value, derivative), the derivative with
    respect to h in Phi(slopes_j * U + offsets_j + h), at h = 0, from the
    same nodes.
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
    rows = len(c)
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
    a, c, counts = _merge_arms(a, c)
    a, c = a[:, :, None], c[:, :, None]

    def evaluate(n: int) -> np.ndarray:
        x, w = legendre_rule(-1.0, 1.0, n)
        out = np.empty((2, 1 + density, rows))
        step = max(1, _BLOCK // (len(counts) * mid.shape[1] * x.size))
        # Reused: a fresh array of this size costs a page fault per page.
        buffers = np.empty((3, len(counts), min(step, rows), mid.shape[1] * x.size))
        for r in range(0, rows, step):
            s = slice(r, r + step)
            grid = mid[s] + half[s] * x
            u = grid.reshape(len(grid), -1)
            z, *work = buffers[:, :, :len(u)]
            np.add(np.multiply(a[:, s], u, out=z), c[:, s], out=z)
            weight = np.exp(-0.5 * u * u)
            for i, f in enumerate(_product(z, counts, density, work)):
                f = (f * weight).reshape(grid.shape)
                out[:, i, s] = ((f @ w) * mass[s]).sum(axis=1).T
        # The error estimate judges the value alone.
        out[0, 1:] = out[1, 1:]
        return out

    result = refine(evaluate, tol=tol, label=label)
    result = result[:, 0] if scalar else result
    return tuple(result) if density else result[0]


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
    *,
    tol: float,
    label: str = "gamma expectation",
    density: bool = False,
) -> float | tuple[float, float]:
    """E[prod_j Phi(slopes_j * U + offsets_j * sqrt(V))] for U ~ N(0, 1)
    independent of V ~ Gamma(shape, shape), the gamma law of unit mean,
    for one row of offsets, (k,) or (1, k).

    Level n takes the 2n + 1 Kronrod nodes on each axis and weighs one
    tensor of integrand values by K_2n+1 and by G_n on both axes. Equal
    arms are evaluated once and raised to their number, and the arms'
    product fills buffers of at most ``_BLOCK`` entries a block of t rows
    at a time. With ``density`` the result is (value, derivative), the
    derivative with respect to h in
    Phi(slopes_j * U + (offsets_j + h) * sqrt(V)), at h = 0. A law so
    narrow that its domain rounds to a point is V = 1, ``normal_expect``.
    """
    c = np.asarray(offsets, dtype=float)
    if c.ndim > 1 and len(c) > 1:
        raise DomainError(f"{label}: the gamma mix takes one row of offsets, got {len(c)}")
    c = c.reshape(1, -1)
    t_lo, t_hi = _log_gamma_domain(shape)
    if not t_hi > t_lo:
        return normal_expect(slopes, c[0], tol=tol, label=label, density=density)
    a, c, counts = _merge_arms(np.broadcast_to(slopes, c.shape), c)
    a, c = a[:, 0], c[:, 0]

    def evaluate(n: int) -> np.ndarray:
        t, w_t = legendre_rule(t_lo, t_hi, n)
        w_t = w_t * np.exp(-shape * (np.expm1(t) - t))[:, None]
        u, w_u = legendre_rule(-GAUSS_TAIL, GAUSS_TAIL, n)
        w_u = w_u * np.exp(-0.5 * u * u)[:, None]
        s = np.exp(0.5 * t)
        # The derivative carries the sqrt(V) = s of each offset's shift.
        w_ts = (w_t, w_t * s[:, None])
        step = max(1, _BLOCK // (len(counts) * u.size))
        buffers = np.empty((3, len(counts), min(step, t.size), u.size))
        total = np.zeros((1 + density, 2))
        for r in range(0, t.size, step):
            block = s[r:r + step]
            z, *work = buffers[:, :, :block.size]
            np.add((c[:, None] * block)[:, :, None], (a[:, None] * u)[:, None], out=z)
            for i, f in enumerate(_product(z, counts, density, work)):
                total[i] += (w_ts[i][r:r + step] * (f @ w_u)).sum(axis=0)
        total /= w_t.sum(axis=0) * w_u.sum(axis=0)
        # The error estimate judges the value alone.
        total[1:, 0] = total[1:, 1]
        return total.T

    result = refine(evaluate, tol=tol, label=label)
    return (float(result[0]), float(result[1])) if density else float(result[0])


def shared_control_expect(
    slopes: np.ndarray,
    offsets: np.ndarray,
    df: float,
    *,
    tol: float,
    label: str,
    density: bool = False,
) -> float | np.ndarray | tuple:
    """``normal_expect`` at a known precision, df = inf; otherwise
    ``gamma_sqrt_expect`` over V ~ Gamma(df/2, df/2), the precision behind
    Student tails of df degrees of freedom, its errors labelled Student.
    The one place where a finite df becomes that gamma law."""
    if math.isinf(df):
        return normal_expect(slopes, offsets, tol=tol, label=label, density=density)
    return gamma_sqrt_expect(
        slopes, offsets, 0.5 * df, tol=tol, label=f"{label} (Student)", density=density
    )
