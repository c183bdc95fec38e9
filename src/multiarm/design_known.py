"""Sample size determination with a known response precision.

Both criteria reduce to a target ``V`` on the pairwise posterior
information between each experimental arm and control: the square of
(promising quantile at ``eta`` + ``zeta`` quantile of the largest of the
correlated effect estimates) / ``delta_star``.

* the stronger criterion guarantees that when the trial is abandoned,
  a truly worthwhile treatment would still have looked promising, so its
  max runs over all k arms;
* the weaker one only controls each comparison marginally, which is the
  same rule with the max over one arm.

Known precision is the df = inf case of that rule; an uncertain
precision (:mod:`multiarm.design_unknown`) evaluates it at Student
degrees of freedom. Sample sizes then follow from splitting the required
information between control and experimental arms in a chosen ratio,
subtracting what the priors already contribute, and rounding up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri, stdtr

from ._quad import gamma_sqrt_expect, normal_expect
from .distributions import (
    _NEWTON_STEPS,
    _NEWTON_STOP,
    EquicorrSpec,
    equicorr_max_quantile,
    normal_quantile,
    t_quantile,
)
from .exceptions import DomainError, NumericError, UnsupportedConfigurationError
from .model import Criterion, DesignConfig, DesignResult
from .posterior import _joint_below_given_control

__all__ = [
    "information_target",
    "optimal_design",
    "integer_search",
    "borderline_threshold",
    "BoundaryCurve",
    "boundary_curve",
]


# The worst-case kernel's tolerance, and the quadrature error a check forgives.
_TOL = 1e-10
_SLACK = 1e-9


def _ceil_count(x: float) -> int:
    """Round a fractional patient count up, forgiving float dust."""
    return max(0, math.ceil(x - 1e-9))


def _criterion_arms(config: DesignConfig, criterion: Criterion) -> int:
    """Number of arms the criterion's max runs over: all k for the
    stronger criterion, one for the weaker."""
    if criterion == Criterion.ALL_PROMISING:
        return config.k
    if criterion == Criterion.ANY_PROMISING:
        return 1
    raise DomainError(f"unknown criterion {criterion!r}")


def _standard_target(
    config: DesignConfig, criterion: Criterion, df: float, start: float | None = None
) -> float:
    """Pairwise information target in standardised units (patients times
    the response precision) when effect tails have ``df`` degrees of
    freedom, inf for normal tails; ``start`` is a first guess at the max
    quantile."""
    spec = EquicorrSpec(k=_criterion_arms(config, criterion), rho=config.rho, df=df)
    reach = t_quantile(df, config.eta) + equicorr_max_quantile(spec, config.zeta, start=start)
    return (reach / config.delta_star) ** 2


def information_target(config: DesignConfig, criterion: Criterion) -> float:
    """Required pairwise posterior information ``V`` in standardised units
    (multiply by 1/v to get patient-equivalents)."""
    return _standard_target(config, criterion, math.inf)


def _pairwise_information(q_control: float, q_experimental: float) -> float:
    """Information on the difference of two arm means; none when neither
    arm has any."""
    total = q_experimental + q_control
    return q_experimental * q_control / total if total > 0.0 else 0.0


def _shares(config: DesignConfig, information: float) -> list[float]:
    """Posterior information each arm needs, control first, for
    ``information`` on every comparison with control carrying ``r`` times
    an experimental arm's weight."""
    r = config.allocation_ratio
    return [information * (1.0 + r)] + [information * (1.0 + r) / r] * config.k


def _allocate(config: DesignConfig, criterion: Criterion, target: float, v: float) -> DesignResult:
    """Smallest design giving every comparison ``target`` pairwise
    information at response precision ``v`` and the configured allocation.

    The target is split so that control carries ``r`` times the
    experimental weight; arms whose priors already exceed their share
    recruit nobody, which can only help the remaining comparisons.
    """
    q0 = [p.information for p in config.priors]
    fractional = [max(q - q0[j], 0.0) for j, q in enumerate(_shares(config, target / v))]
    n = [_ceil_count(x) for x in fractional]

    # Rounding up and clamping only add information, but a share within
    # the float dust ``_ceil_count`` forgives rounds to nobody, and no
    # comparison exceeds control's own information; repair both here.
    for _ in range(100):
        q1 = [q0[j] + n[j] for j in range(config.k + 1)]
        deficits = [
            j
            for j in range(1, config.k + 1)
            if _pairwise_information(q1[0], q1[j]) * v < target * (1.0 - 1e-12)
        ]
        if not deficits:
            break
        for j in deficits:
            n[j] += 1
        if q1[0] * v <= target:
            n[0] += 1
    else:
        raise NumericError("design repair loop failed to terminate")

    achieved = min(
        _pairwise_information(q1[0], q1[j]) * v for j in range(1, config.k + 1)
    )
    return DesignResult(
        criterion=criterion,
        n=tuple(n),
        information_target=target,
        achieved_information=achieved,
        fractional_n=tuple(fractional),
    )


def _worst_case_shortfall(
    q1: np.ndarray, config: DesignConfig, criterion: Criterion, df: float, variance: float
) -> float | np.ndarray:
    """Abandonment probability P(all effects < delta_star) at the worst
    data on which no arm is promising, for posterior information ``q1``
    (control first; one design or a batch of rows) at response
    ``variance`` and effect tails of ``df`` degrees of freedom.

    It falls as any estimate rises, so the worst data put each estimate
    at its promising threshold t_df(eta) sqrt(variance / pair_j): one
    kernel call with slopes sqrt(q1_j / q1_0) and offsets
    delta_star sqrt(q1_j / variance) - t_df(eta) sqrt(1 + q1_j / q1_0).
    A max over one arm, or no control information (the effects then move
    as one statistic), leaves the smallest marginal: the Student CDF at
    delta_star sqrt(pair_j / variance) - t_df(eta).
    """
    rows = np.atleast_2d(np.asarray(q1, dtype=float))
    q_ctl, q_exp = rows[:, :1], rows[:, 1:]
    t_eta = t_quantile(df, config.eta)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = q_exp / q_ctl
        pair = np.where(q_ctl + q_exp > 0.0, q_exp * q_ctl / (q_ctl + q_exp), 0.0)
    least = (config.delta_star * np.sqrt(pair / variance) - t_eta).min(axis=1)
    out = ndtr(least) if math.isinf(df) else stdtr(df, least)
    joint = np.isfinite(ratio).all(axis=1) & (_criterion_arms(config, criterion) > 1)
    if joint.any():
        slopes, ratio = np.sqrt(ratio[joint]), ratio[joint]
        offsets = config.delta_star * np.sqrt(q_exp[joint] / variance) - t_eta * np.sqrt(1.0 + ratio)
        label = "worst-case abandonment probability"
        if math.isinf(df):
            out[joint] = normal_expect(slopes, offsets, tol=_TOL, label=label)
        else:
            out[joint] = [
                gamma_sqrt_expect(a, c, 0.5 * df, 0.5 * df, tol=_TOL, label=label)
                for a, c in zip(slopes, offsets)
            ]
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if np.ndim(q1) == 1 else out


def optimal_design(config: DesignConfig, criterion: Criterion) -> DesignResult:
    """Smallest design meeting the criterion at the configured allocation."""
    v = config.known_v()
    return _allocate(config, criterion, information_target(config, criterion), v)


def integer_search(
    config: DesignConfig,
    criterion: Criterion,
    max_total: int,
) -> tuple[DesignResult, ...]:
    """All feasible designs of minimal total size, for symmetric priors.

    Enumerates splits of the total between control and equally sized
    experimental arms, keeping those whose worst-case abandonment
    probability, at their own effect correlation, meets the criterion.
    Returns every design at the smallest feasible total not exceeding
    ``max_total``, ordered by control group size; empty when nothing
    feasible fits.
    """
    if not isinstance(max_total, int) or max_total < 0:
        raise DomainError(f"max_total must be a nonnegative integer, got {max_total!r}")
    q0 = [p.information for p in config.priors]
    if len(set(q0[1:])) != 1:
        raise UnsupportedConfigurationError(
            "integer search assumes equal prior information on all experimental arms"
        )
    v = config.known_v()
    target = information_target(config, criterion)
    k = config.k

    # Each arm alone must meet the one-arm target, whatever the split, so no
    # total below that target's fractional optimum at the best split works.
    need = information_target(config, Criterion.ANY_PROMISING) / v
    start = max(0, _ceil_count((1.0 + math.sqrt(k)) ** 2 * need - sum(q0)))

    for total in range(start, max_total + 1):
        per_arm = np.arange(0, total // k + 1)
        n_control = total - k * per_arm
        q1 = np.column_stack([q0[0] + n_control] + [q0[1] + per_arm] * k)
        shortfall = _worst_case_shortfall(q1, config, criterion, math.inf, 1.0 / v)
        feasible = np.flatnonzero(shortfall >= config.zeta - _SLACK)
        if feasible.size:
            return tuple(
                DesignResult(
                    criterion=criterion,
                    n=(int(n_control[i]),) + (int(per_arm[i]),) * k,
                    information_target=target,
                    achieved_information=float(_pairwise_information(q1[i, 0], q1[i, 1]) * v),
                )
                for i in feasible[::-1]
            )
    return ()


def borderline_threshold(config: DesignConfig, pair_information: float) -> float:
    """Smallest posterior effect estimate that still counts as promising,
    given pairwise information in patient-equivalents."""
    if not (pair_information > 0.0):
        raise DomainError(f"pair_information must be positive, got {pair_information!r}")
    return normal_quantile(config.eta) / math.sqrt(pair_information * config.known_v())


@dataclass(frozen=True)
class BoundaryCurve:
    """Stop/go geometry of a two-treatment design in the plane of
    posterior effect estimates.

    ``points`` trace the abandonment boundary (joint shortfall probability
    equal to ``zeta``); estimates above either ``promising_threshold``
    make that treatment promising.
    """

    delta_star: float
    zeta: float
    promising_thresholds: tuple[float, float]
    points: tuple[tuple[float, float], ...]


def boundary_curve(
    config: DesignConfig,
    design: DesignResult,
    grid: Sequence[float] | None = None,
    use_fractional: bool = False,
    tol: float = 1e-9,
) -> BoundaryCurve:
    """Trace the abandonment boundary of a two-treatment design.

    For each first-arm effect estimate in ``grid``, solves for the second
    arm's estimate putting the joint shortfall probability exactly at
    ``zeta``. Grid values beyond the boundary's reach (where even an
    arbitrarily poor second arm cannot raise the shortfall probability to
    ``zeta``) are skipped.

    The shortfall is the bivariate normal CDF Phi_2(h, t; rho) of arm 1's
    standardised offset h and arm 2's t = (delta_star - d2) / sd2, with
    rho >= 0. As t grows it rises to arm 1's marginal P1 = Phi(h), so a
    grid value is reached exactly when P1 > zeta. Arm 2's marginal caps
    it, so at t = z_zeta it is at most zeta; by Slepian's inequality it is
    at least P1 Phi(t), so where Phi(t) = zeta / P1 it is at least zeta.
    In u = Phi(t) it is concave, with the closed-form slope
    Phi((h - rho t) / sqrt(1 - rho**2)), so Newton's method in u from the
    lower end climbs to the root without overshooting it. All rows run
    that solve together, one kernel call per step on the rows still
    moving. Rounding that carries a step past the bracket stops it at the
    end; a slope that underflows to zero bisects the bracket instead.
    """
    if config.k != 2:
        raise UnsupportedConfigurationError("the boundary curve is defined for k = 2 designs")
    if design.k != config.k:
        raise DomainError(f"design has k={design.k} but config has k={config.k}")
    v = config.known_v()
    q0 = [p.information for p in config.priors]
    if use_fractional:
        if design.fractional_n is None:
            raise DomainError("design carries no fractional sizes")
        q1 = [q0[j] + design.fractional_n[j] for j in range(3)]
    else:
        q1 = [q0[j] + design.n[j] for j in range(3)]
    pair = [_pairwise_information(q1[0], q1[j]) for j in (1, 2)]
    thresholds = tuple(borderline_threshold(config, d) for d in pair)
    sd1, sd2 = (1.0 / math.sqrt(d * v) for d in pair)

    if grid is None:
        grid = np.linspace(thresholds[0] - 6.0 * sd1, thresholds[0], 41)
    d1 = np.asarray(grid, dtype=float)
    if np.isnan(d1).any():
        raise DomainError("grid values must not be NaN")
    zeta = config.zeta
    p1 = ndtr((config.delta_star - d1) / sd1)
    reached = p1 > zeta
    d1, p1 = d1[reached], p1[reached]

    # The kernel takes slopes a_j and offsets c1, s2 t, where s_j^2 = 1 + a_j^2;
    # then h = c1 / s1, rho = a1 a2 / (s1 s2), and the slope in u is Phi(g),
    # g = (c1 - a1 a2 t / s2) / sqrt(1 + a1^2 / s2^2).
    a1, a2 = np.sqrt(np.asarray(q1[1:]) / q1[0])
    s2 = math.hypot(1.0, a2)
    c1 = (config.delta_star - d1) * math.sqrt(q1[1] * v)
    lo = np.full(d1.shape, normal_quantile(zeta))
    hi = -ndtri((p1 - zeta) / p1)
    t = lo.copy()
    active = np.arange(d1.size)
    for _ in range(_NEWTON_STEPS):
        if not active.size:
            break
        x = t[active]
        offsets = np.column_stack([c1[active], s2 * x])
        f = _joint_below_given_control(np.array([a1, a2]), offsets, tol) - zeta
        lo[active] = np.where(f < 0.0, x, lo[active])
        hi[active] = np.where(f < 0.0, hi[active], x)
        slope = ndtr((c1[active] - a1 * a2 / s2 * x) / math.hypot(1.0, a1 / s2))
        du = -np.divide(f, slope, out=np.full_like(f, np.inf), where=slope > 0.0)
        # u + du, taken through the smaller tail of t so that it keeps
        # its precision far out in either tail.
        sign = np.where(x > 0.0, -1.0, 1.0)
        new = sign * ndtri(ndtr(sign * x) + sign * du)
        new = np.where(
            np.isnan(new), 0.5 * (lo[active] + hi[active]), np.clip(new, lo[active], hi[active])
        )
        t[active] = new
        active = active[np.abs(new - x) > _NEWTON_STOP * np.maximum(1.0, np.abs(new))]
    if active.size:
        raise NumericError(
            f"abandonment boundary Newton solve did not converge at d1={d1[active].tolist()}"
        )
    d2 = config.delta_star - sd2 * t
    return BoundaryCurve(
        delta_star=config.delta_star,
        zeta=zeta,
        promising_thresholds=thresholds,
        points=tuple(zip(d1.tolist(), d2.tolist())),
    )
