"""Conjugate posterior updating and posterior decision probabilities.

Given normal arm priors weighted in patient-equivalents and per-arm
summary data, the posterior of each arm mean is normal with information
``q1 = q0 + n``. Three precision models are supported downstream: a
known common precision, known arm-specific precisions, and a gamma
posterior on an unknown common precision (which turns normal tails into
Student tails).

The decision quantities are the per-arm probability of a worthwhile
effect, the joint probability that every effect falls short of a
threshold, and its complement. The joint probability is a
one-dimensional integral: conditioning on the control mean makes the
experimental arms independent, leaving a product of normal CDFs under a
normal weight.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import ndtr, stdtr

from ._quad import gamma_sqrt_expect, normal_expect
from .exceptions import DomainError
from .model import (
    ArmPrior,
    Decision,
    DesignConfig,
    GammaPrecision,
    KnownPrecision,
    Outcome,
    PerArmPrecision,
    PosteriorSummary,
    PrecisionModel,
    TrialData,
)

__all__ = [
    "update_posterior",
    "prob_superior",
    "prob_all_below",
    "prob_any_superior",
    "prob_pairwise_better",
    "decide",
]

def update_posterior(priors: Sequence[ArmPrior], data: TrialData) -> PosteriorSummary:
    """Combine arm priors with summary data into a posterior summary."""
    priors = tuple(priors)
    if len(priors) != len(data.n):
        raise DomainError(
            f"got {len(priors)} priors but data for {len(data.n)} arms"
        )
    mean = []
    information = []
    for j, (prior, nj, ybar) in enumerate(zip(priors, data.n, data.mean)):
        q1 = prior.information + nj
        if q1 <= 0.0:
            raise DomainError(f"arm {j} has neither prior information nor data")
        mean.append((prior.information * prior.mean + nj * ybar) / q1)
        information.append(q1)
    effects = tuple(mean[j] - mean[0] for j in range(1, len(mean)))
    pair_information = tuple(
        information[j] * information[0] / (information[j] + information[0])
        for j in range(1, len(information))
    )
    return PosteriorSummary(
        mean=tuple(mean),
        information=tuple(information),
        effects=effects,
        pair_information=pair_information,
    )


def _check_precision(summary: PosteriorSummary, precision: PrecisionModel) -> None:
    if isinstance(precision, PerArmPrecision) and len(precision.v) != summary.k + 1:
        raise DomainError(
            f"per-arm precision has {len(precision.v)} entries, expected {summary.k + 1}"
        )
    if not isinstance(precision, (KnownPrecision, PerArmPrecision, GammaPrecision)):
        raise DomainError(f"unsupported precision model {precision!r}")


def _pair_scale(summary: PosteriorSummary, precision: PrecisionModel, arm: int) -> float:
    """Standard deviation scale of (mu_arm - mu_0) under the posterior,
    with the gamma model evaluated at its mean precision."""
    if isinstance(precision, KnownPrecision):
        return 1.0 / math.sqrt(summary.pair_information[arm - 1] * precision.v)
    if isinstance(precision, PerArmPrecision):
        var = (
            1.0 / (summary.information[arm] * precision.v[arm])
            + 1.0 / (summary.information[0] * precision.v[0])
        )
        return math.sqrt(var)
    return 1.0 / math.sqrt(summary.pair_information[arm - 1] * precision.mean)


def prob_superior(summary: PosteriorSummary, precision: PrecisionModel, arm: int) -> float:
    """Posterior probability that experimental arm ``arm`` beats control."""
    _check_precision(summary, precision)
    if not (1 <= arm <= summary.k):
        raise DomainError(f"arm must name an experimental arm in 1..{summary.k}, got {arm}")
    standardised = summary.effects[arm - 1] / _pair_scale(summary, precision, arm)
    if isinstance(precision, GammaPrecision):
        return float(stdtr(2.0 * precision.alpha, standardised))
    return float(ndtr(standardised))


def _joint_below_given_control(
    slopes: np.ndarray,
    offsets: np.ndarray,
    tol: float,
) -> float | np.ndarray:
    """Joint shortfall probability for one row of offsets or a batch; traced
    benchmark runs report it as the ``posterior.kernel`` layer."""
    return normal_expect(slopes, offsets, tol=tol, label="joint shortfall probability")


def prob_all_below(
    summary: PosteriorSummary,
    precision: PrecisionModel,
    threshold: float,
    tol: float = 1e-9,
) -> float:
    """Posterior probability that every experimental effect is below
    ``threshold``; the abandonment quantity when the threshold is the
    clinically worthwhile improvement."""
    _check_precision(summary, precision)
    threshold = float(threshold)
    if math.isnan(threshold):
        raise DomainError("threshold must not be NaN")
    if math.isinf(threshold):
        return 1.0 if threshold > 0 else 0.0

    # Arm j's effect is below the threshold when, given the standardised
    # control mean U, its own standardised mean falls below a_j U + c_j.
    # A gamma precision scales every c_j by sqrt(V).
    gamma = isinstance(precision, GammaPrecision)
    qv = np.asarray(summary.information, dtype=float) * (1.0 if gamma else np.asarray(precision.v))
    slopes = np.sqrt(qv[1:] / qv[0])
    offsets = (threshold - np.asarray(summary.effects)) * np.sqrt(qv[1:])
    if gamma:
        value = gamma_sqrt_expect(
            slopes, offsets, precision.alpha, precision.beta,
            tol=tol, label="joint shortfall probability",
        )
    else:
        value = float(_joint_below_given_control(slopes, offsets, tol))
    return min(max(value, 0.0), 1.0)


def prob_any_superior(
    summary: PosteriorSummary,
    precision: PrecisionModel,
    tol: float = 1e-9,
) -> float:
    """Posterior probability that at least one effect is positive;
    the exact complement of the joint shortfall at threshold zero."""
    return 1.0 - prob_all_below(summary, precision, 0.0, tol=tol)


def prob_pairwise_better(
    summary: PosteriorSummary,
    precision: PrecisionModel,
    arm: int,
    other: int,
) -> float:
    """Posterior probability that ``arm``'s mean exceeds ``other``'s."""
    _check_precision(summary, precision)
    k = summary.k
    for name, idx in (("arm", arm), ("other", other)):
        if not (0 <= idx <= k):
            raise DomainError(f"{name} must name an arm in 0..{k}, got {idx}")
    if arm == other:
        raise DomainError("pairwise comparison needs two distinct arms")
    diff = summary.mean[arm] - summary.mean[other]
    qa, qb = summary.information[arm], summary.information[other]
    if isinstance(precision, KnownPrecision):
        scale = math.sqrt((1.0 / qa + 1.0 / qb) / precision.v)
        return float(ndtr(diff / scale))
    if isinstance(precision, PerArmPrecision):
        scale = math.sqrt(
            1.0 / (qa * precision.v[arm]) + 1.0 / (qb * precision.v[other])
        )
        return float(ndtr(diff / scale))
    scale = math.sqrt((1.0 / qa + 1.0 / qb) / precision.mean)
    return float(stdtr(2.0 * precision.alpha, diff / scale))


def decide(
    summary: PosteriorSummary,
    precision: PrecisionModel,
    config: DesignConfig,
    boundary_tol: float = 1e-9,
) -> Decision:
    """Classify an analysis against the promising and abandonment rules.

    Values within ``boundary_tol`` of a threshold count as meeting it, so
    a dataset engineered to sit exactly on both boundaries classifies as
    ``BOTH`` instead of flapping on the last floating point bit.
    """
    if summary.k != config.k:
        raise DomainError(f"summary has k={summary.k} but config has k={config.k}")
    probs = tuple(prob_superior(summary, precision, j) for j in range(1, config.k + 1))
    all_below = prob_all_below(summary, precision, config.delta_star)
    any_superior = 1.0 - prob_all_below(summary, precision, 0.0)
    promising = tuple(j for j, p in enumerate(probs, start=1) if p >= config.eta - boundary_tol)
    abandon = all_below >= config.zeta - boundary_tol
    if promising and abandon:
        outcome = Outcome.BOTH
    elif promising:
        outcome = Outcome.PROCEED
    elif abandon:
        outcome = Outcome.ABANDON
    else:
        outcome = Outcome.NEITHER
    return Decision(
        prob_superior=probs,
        prob_all_below=all_below,
        prob_any_superior=any_superior,
        promising=promising,
        abandon=abandon,
        outcome=outcome,
    )
