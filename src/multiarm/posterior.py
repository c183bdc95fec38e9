"""Conjugate posterior updating and posterior decision probabilities.

Given normal arm priors weighted in patient-equivalents and per-arm
summary data, the posterior of each arm mean is normal with information
``q1 = q0 + n``. Three precision models are supported downstream: a
known common precision, known arm-specific precisions, and a gamma
posterior on an unknown common precision (which turns normal tails into
Student tails). Each reduces to two things: the per-arm information
scaled by the response precision (the gamma law at its mean) and the
degrees of freedom of the effect tails, inf for a known precision and
2 alpha for a gamma one.

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

from ._quad import shared_control_expect
from .distributions import _student_cdf
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


def _scaled_information(
    summary: PosteriorSummary, precision: PrecisionModel
) -> tuple[np.ndarray, float]:
    """Per-arm posterior information times the response precision, and the
    degrees of freedom of the effect tails.

    A gamma precision is taken at its mean; the actual precision is that
    mean times a Gamma(df/2, df/2) variable, which turns normal tails into
    Student ones with df = 2 alpha.
    """
    if isinstance(precision, KnownPrecision):
        v, df = precision.v, math.inf
    elif isinstance(precision, PerArmPrecision):
        if len(precision.v) != summary.k + 1:
            raise DomainError(
                f"per-arm precision has {len(precision.v)} entries, expected {summary.k + 1}"
            )
        v, df = np.asarray(precision.v), math.inf
    elif isinstance(precision, GammaPrecision):
        v, df = precision.mean, 2.0 * precision.alpha
    else:
        raise DomainError(f"unsupported precision model {precision!r}")
    return np.asarray(summary.information, dtype=float) * v, df


def _difference_cdf(df: float, mean: float, qv: np.ndarray, a: int, b: int) -> float:
    """P(mu_a - mu_b > 0) for a posterior difference with mean ``mean``."""
    standardised = mean / math.sqrt(1.0 / qv[a] + 1.0 / qv[b])
    return float(_student_cdf(df, standardised))


def prob_superior(summary: PosteriorSummary, precision: PrecisionModel, arm: int) -> float:
    """Posterior probability that experimental arm ``arm`` beats control."""
    qv, df = _scaled_information(summary, precision)
    if not (1 <= arm <= summary.k):
        raise DomainError(f"arm must name an experimental arm in 1..{summary.k}, got {arm}")
    return _difference_cdf(df, summary.effects[arm - 1], qv, arm, 0)


def _joint_below_given_control(
    slopes: np.ndarray,
    offsets: np.ndarray,
    tol: float,
    df: float = math.inf,
) -> float | np.ndarray:
    """Joint shortfall probability for one row of offsets or, at a known
    precision (df = inf), a batch; traced benchmark runs report it as the
    ``posterior.kernel`` layer."""
    return shared_control_expect(slopes, offsets, df, tol=tol, label="joint shortfall probability")


def prob_all_below(
    summary: PosteriorSummary,
    precision: PrecisionModel,
    threshold: float,
    tol: float = 1e-9,
) -> float:
    """Posterior probability that every experimental effect is below
    ``threshold``; the abandonment quantity when the threshold is the
    clinically worthwhile improvement."""
    qv, df = _scaled_information(summary, precision)
    threshold = float(threshold)
    if math.isnan(threshold):
        raise DomainError("threshold must not be NaN")
    if math.isinf(threshold):
        return 1.0 if threshold > 0 else 0.0

    # Arm j's effect is below the threshold when, given the standardised
    # control mean U, its own standardised mean falls below a_j U + c_j.
    # Finite df scales every c_j by sqrt(W), W ~ Gamma(df/2, df/2).
    slopes = np.sqrt(qv[1:] / qv[0])
    offsets = (threshold - np.asarray(summary.effects)) * np.sqrt(qv[1:])
    value = float(_joint_below_given_control(slopes, offsets, tol, df))
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
    qv, df = _scaled_information(summary, precision)
    k = summary.k
    for name, idx in (("arm", arm), ("other", other)):
        if not (0 <= idx <= k):
            raise DomainError(f"{name} must name an arm in 0..{k}, got {idx}")
    if arm == other:
        raise DomainError("pairwise comparison needs two distinct arms")
    return _difference_cdf(df, summary.mean[arm] - summary.mean[other], qv, arm, other)


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
