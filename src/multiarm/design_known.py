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
from scipy.optimize import brentq

from .distributions import EquicorrSpec, equicorr_max_quantile, normal_quantile, t_quantile
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
    experimental arms, keeping those whose pairwise information meets the
    criterion target. Returns every design at the smallest feasible total
    not exceeding ``max_total``, ordered by control group size; empty when
    nothing feasible fits.
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
    need = target / v

    # No total below the fractional optimum at the best split can work.
    start = max(0, _ceil_count((1.0 + math.sqrt(k)) ** 2 * need - sum(q0)))

    for total in range(start, max_total + 1):
        per_arm = np.arange(0, total // k + 1)
        n_control = total - k * per_arm
        q_ctl = q0[0] + n_control
        q_exp = q0[1] + per_arm
        with np.errstate(divide="ignore", invalid="ignore"):
            pair = np.where(
                q_ctl + q_exp > 0, q_exp * q_ctl / (q_ctl + q_exp), 0.0
            )
        feasible = np.flatnonzero(pair >= need)
        if feasible.size:
            results = []
            for i in feasible:
                arms = (int(n_control[i]),) + (int(per_arm[i]),) * k
                results.append(
                    DesignResult(
                        criterion=criterion,
                        n=arms,
                        information_target=target,
                        achieved_information=float(pair[i] * v),
                    )
                )
            results.sort(key=lambda d: d.n[0])
            return tuple(results)
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

    slopes = np.sqrt(np.asarray(q1[1:]) / q1[0])
    scale = np.sqrt(np.asarray(q1[1:]) * v)

    def shortfall(d1: float, d2: float) -> float:
        offsets = (config.delta_star - np.asarray([d1, d2])) * scale
        return float(_joint_below_given_control(slopes, offsets, tol))

    sd2 = 1.0 / math.sqrt(pair[1] * v)
    asymptote = config.delta_star - normal_quantile(config.zeta) * sd2

    if grid is None:
        sd1 = 1.0 / math.sqrt(pair[0] * v)
        grid = np.linspace(thresholds[0] - 6.0 * sd1, thresholds[0], 41)
    lo = asymptote - 30.0 * sd2
    hi = asymptote + sd2
    points = []
    for d1 in grid:
        d1 = float(d1)
        if math.isnan(d1):
            raise DomainError("grid values must not be NaN")
        ends = (config.delta_star - np.array([[d1, lo], [d1, hi]])) * scale
        f_lo, f_hi = _joint_below_given_control(slopes, ends, tol) - config.zeta
        if f_lo < 0.0:
            # Even a hopeless second arm cannot reach the abandonment
            # probability here; the boundary does not extend this far.
            continue
        if f_hi > 0.0:
            raise NumericError(f"abandonment boundary bracket failed at d1={d1!r}")
        # brentq starts by evaluating both ends, which are known already.
        known = {lo: f_lo, hi: f_hi}
        root = brentq(
            lambda d2: known[d2] if d2 in known else shortfall(d1, d2) - config.zeta,
            lo, hi, xtol=1e-9,
        )
        points.append((d1, float(root)))
    return BoundaryCurve(
        delta_star=config.delta_star,
        zeta=config.zeta,
        promising_thresholds=thresholds,
        points=tuple(points),
    )
