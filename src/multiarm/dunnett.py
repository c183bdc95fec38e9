"""Frequentist many-to-one comparisons used as a benchmark.

Sizing a trial so that the largest of k standardised contrasts against a
shared control exceeds a critical value with controlled error rates is
the classical alternative to the posterior criteria in this package. The
statistics are equicorrelated through the common control arm, so the
critical value is a quantile of the same max distribution used
elsewhere. Also here: the end-of-trial p-value for the observed maximum
under arm-specific variance estimates, and the naive design that treats
each comparison as its own two-arm trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._quad import normal_expect
from .design_known import _allocate, _standard_target
from .distributions import EquicorrSpec, equicorr_max_quantile, normal_quantile
from .exceptions import (
    DataInconsistencyError,
    DomainError,
    UnsupportedConfigurationError,
)
from .model import ArmPrior, Criterion, DesignConfig, DesignResult, TrialData

__all__ = [
    "DunnettConfig",
    "FrequentistDesign",
    "dunnett_critical",
    "dunnett_design",
    "z_statistics",
    "pooled_pair_sd",
    "z_statistics_pooled",
    "dunnett_pvalue",
    "per_pair_frequentist",
]

@dataclass(frozen=True)
class DunnettConfig:
    """Inputs for the frequentist benchmark design.

    ``alpha`` is the one-sided familywise error under no effect;
    ``power`` the chance of advancing a treatment whose true advantage is
    ``delta_star`` while the others are null. ``allocation`` is "equal",
    "sqrt_k", or an explicit control-to-experimental ratio.
    """

    k: int
    alpha: float
    power: float
    delta_star: float
    sigma: float
    allocation: str | float = "equal"

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise DomainError(f"k must be an integer >= 1, got {self.k!r}")
        # The posterior criteria hold their probabilities at 1/2 or more.
        if not (0.0 < self.alpha <= 0.5):
            raise DomainError(f"alpha must lie in (0, 0.5], got {self.alpha!r}")
        if not (0.5 <= self.power < 1.0):
            raise DomainError(f"power must lie in [0.5, 1), got {self.power!r}")
        if not (self.delta_star > 0.0):
            raise DomainError(f"delta_star must be positive, got {self.delta_star!r}")
        if not (1e-154 < self.sigma < 1e154):
            raise DomainError(f"sigma must lie in (1e-154, 1e154), got {self.sigma!r}")
        if isinstance(self.allocation, str):
            if self.allocation not in ("equal", "sqrt_k"):
                raise DomainError(
                    f'allocation must be "equal", "sqrt_k" or a positive ratio, got {self.allocation!r}'
                )
        elif not (self.allocation > 0.0):
            raise DomainError(f"allocation ratio must be positive, got {self.allocation!r}")

    @property
    def allocation_ratio(self) -> float:
        if self.allocation == "equal":
            return 1.0
        if self.allocation == "sqrt_k":
            return math.sqrt(self.k)
        return float(self.allocation)


@dataclass(frozen=True)
class FrequentistDesign:
    """Solved benchmark design with its critical value."""

    critical: float
    n: tuple[int, ...]
    fractional_n: tuple[float, ...]
    rho: float

    @property
    def total(self) -> int:
        return sum(self.n)

    @property
    def k(self) -> int:
        return len(self.n) - 1


def _vague_design(config: DunnettConfig, criterion: Criterion) -> DesignResult:
    """``config`` sized by the posterior rule with vague priors: eta =
    power, zeta = 1 - alpha and precision 1 / sigma**2. A familywise test
    is the stronger criterion, k separate tests the weaker."""
    vague = DesignConfig(
        k=config.k, delta_star=config.delta_star, eta=config.power, zeta=1.0 - config.alpha,
        priors=(ArmPrior(0.0),) * (config.k + 1), v=config.sigma ** -2,
        allocation=config.allocation_ratio,
    )
    return _allocate(vague, criterion, _standard_target(vague, criterion, math.inf), vague.v)


def dunnett_critical(
    k: int,
    alpha: float,
    sizes: Sequence[int],
    sigmas: Sequence[float] | None = None,
) -> float:
    """Critical value for the largest of k contrasts against control.

    ``sizes`` are arm sample sizes, control first. The statistics must be
    exchangeable, i.e. sigma**2/n equal across experimental arms.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    sizes = tuple(int(x) for x in sizes)
    if len(sizes) != k + 1:
        raise DomainError(f"expected {k + 1} arm sizes, got {len(sizes)}")
    if any(x < 1 for x in sizes):
        raise DomainError("all arms need at least one observation")
    if sigmas is None:
        sigmas = (1.0,) * (k + 1)
    sigmas = tuple(float(s) for s in sigmas)
    if len(sigmas) != k + 1:
        raise DomainError(f"expected {k + 1} sigmas, got {len(sigmas)}")
    variances = [s * s / n for s, n in zip(sigmas, sizes)]
    spread = max(variances[1:]) - min(variances[1:])
    if spread > 1e-9 * max(variances[1:]):
        raise UnsupportedConfigurationError(
            "critical value requires equal sigma**2/n on all experimental arms"
        )
    rho = variances[0] / (variances[0] + variances[1])
    return equicorr_max_quantile(EquicorrSpec(k=k, rho=rho), 1.0 - alpha)


def dunnett_design(config: DunnettConfig) -> FrequentistDesign:
    """Smallest design meeting the error and power targets.

    Power is evaluated at the least favourable configuration where the
    advantaged treatment alone carries the full effect, which reduces it
    to the marginal probability of its own contrast clearing the critical
    value.
    """
    design = _vague_design(config, Criterion.ALL_PROMISING)
    # The critical value is the max quantile behind the target.
    critical = config.delta_star * math.sqrt(design.information_target) - normal_quantile(config.power)
    rho = 1.0 / (1.0 + config.allocation_ratio)
    return FrequentistDesign(critical=critical, n=design.n, fractional_n=design.fractional_n, rho=rho)


def z_statistics(
    data: TrialData,
    sigma: float,
    sizes: Sequence[int] | None = None,
) -> tuple[float, ...]:
    """Standardised contrasts of each experimental arm against control,
    using a fixed response standard deviation.

    ``sizes`` substitutes planned arm sizes into the scaling (the
    design-stage convention); by default the achieved sizes are used.
    """
    if not (sigma > 0.0):
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    if sizes is None:
        sizes = data.n
    sizes = tuple(int(x) for x in sizes)
    if len(sizes) != len(data.n):
        raise DomainError(f"expected {len(data.n)} sizes, got {len(sizes)}")
    if any(x < 1 for x in sizes):
        raise DomainError("all arms need at least one observation")
    out = []
    for j in range(1, len(data.n)):
        weight = math.sqrt(sizes[0] * sizes[j] / (sizes[0] + sizes[j]))
        out.append(weight * (data.mean[j] - data.mean[0]) / sigma)
    return tuple(out)


def pooled_pair_sd(data: TrialData, arm: int) -> float:
    """Standard deviation pooled over one experimental arm and control."""
    if not (1 <= arm <= data.k):
        raise DomainError(f"arm must name an experimental arm in 1..{data.k}, got {arm}")
    n0, nj = data.n[0], data.n[arm]
    if n0 + nj < 3:
        raise DomainError("pooling needs at least three observations across the pair")
    pooled_var = (
        (n0 - 1) * data.sample_variance(0) + (nj - 1) * data.sample_variance(arm)
    ) / (n0 + nj - 2)
    if pooled_var <= 0.0:
        raise DataInconsistencyError(f"arm {arm}: pooled variance is zero")
    return math.sqrt(pooled_var)


def z_statistics_pooled(data: TrialData) -> tuple[float, ...]:
    """Contrasts scaled by the per-pair pooled standard deviations and the
    achieved sample sizes; the end-of-trial analogue of
    :func:`z_statistics`."""
    out = []
    for j in range(1, len(data.n)):
        out.append(
            z_statistics(data, sigma=pooled_pair_sd(data, j))[j - 1]
        )
    return tuple(out)


def dunnett_pvalue(
    data: TrialData,
    z_star: float,
    sds: Sequence[float] | None = None,
) -> float:
    """Null probability that the best-looking arm's contrast reaches
    ``z_star``, treating per-arm standard deviations as fixed at ``sds``.

    "Best-looking" means the experimental arm with the highest sample
    mean; its contrast against control is scaled by that arm's own
    standard deviation. Summing over which arm wins gives one term per
    arm: conditional on the winner's standardised mean, the other arms
    fall below it independently and the control falls far enough behind.
    The k terms go to the shared-control kernel as one batch. Defaults to
    the arms' sample standard deviations.
    """
    z_star = float(z_star)
    if math.isnan(z_star):
        raise DomainError("z_star must not be NaN")
    k = data.k
    if sds is None:
        sds = tuple(data.sample_sd(j) for j in range(k + 1))
    sds = tuple(float(s) for s in sds)
    if len(sds) != k + 1:
        raise DomainError(f"expected {k + 1} standard deviations, got {len(sds)}")
    if any(s <= 0.0 for s in sds):
        raise DataInconsistencyError("standard deviations must be positive")
    if any(n < 1 for n in data.n):
        raise DomainError("all arms need at least one observation")
    if math.isinf(z_star):
        return 0.0 if z_star > 0 else 1.0

    # Row j is arm j's term, over u, arm j's standardised sample mean under
    # the null. The other arms fall below it with probability
    # Phi(r_ji * u), r_ji = (s_j / s_i) sqrt(n_i / n_j); the control falls
    # behind with Phi(a_j * u - b_j), put on the diagonal.
    s = np.asarray(sds)
    n = np.asarray(data.n, dtype=float)
    ratio = (s[1:, None] / s[None, :]) * np.sqrt(n[None, :] / n[1:, None])
    slopes = ratio[:, 1:].copy()
    np.fill_diagonal(slopes, ratio[:, 0])
    offsets = np.diag(-z_star * (s[1:] / s[0]) * np.sqrt((n[0] + n[1:]) / n[1:]))
    total = float(np.sum(normal_expect(slopes, offsets, tol=1e-13, label="selection p-value")))
    return min(max(total, 0.0), 1.0)


@dataclass(frozen=True)
class PairwiseDesign:
    """Design sizing each comparison as its own two-arm trial."""

    n: tuple[int, ...]
    fractional_n: tuple[float, ...]

    @property
    def total(self) -> int:
        return sum(self.n)


def per_pair_frequentist(
    k: int,
    alpha: float,
    power: float,
    delta_star: float,
    sigma: float = 1.0,
    control_ratio: float | None = None,
) -> PairwiseDesign:
    """Size k separate one-sided two-arm comparisons sharing a control,
    with no multiplicity adjustment; ``control_ratio`` defaults to
    sqrt(k). Matches the weaker posterior criterion with vague priors."""
    allocation = "sqrt_k" if control_ratio is None else float(control_ratio)
    config = DunnettConfig(k, alpha, power, delta_star, sigma, allocation)
    design = _vague_design(config, Criterion.ANY_PROMISING)
    return PairwiseDesign(n=design.n, fractional_n=design.fractional_n)
