"""Sample size determination when the response precision is unknown.

The common precision gets a conjugate gamma prior. Two things change
against the known-precision case: posterior effect tails become Student,
and the design must hold not for one precision value but with a chosen
assurance probability over the precision's own posterior, which brings
in a beta quantile of the variance-reduction fraction. The sizing rule
is the known-precision one (:mod:`multiarm.design_known`) at df = 2 alpha1
instead of df = inf, with the precision the assurance level guarantees in
place of the known one. The required pairwise information then depends on
the total sample size through the Student degrees of freedom and the beta
quantile, so the design is the fixed point of "sample size needed at
sample size n".
"""

from __future__ import annotations

import math
from typing import Sequence

from scipy.special import gammainc

from .design_known import (
    _allocate,
    _criterion_arms,
    _pairwise_information,
    _shares,
    _standard_target,
)
from .distributions import EquicorrSpec, beta_quantile, equicorr_max_cdf, t_quantile
from .exceptions import (
    DataInconsistencyError,
    DomainError,
    InfeasibleDesignError,
    NumericError,
    UnsupportedConfigurationError,
)
from .model import (
    ArmPrior,
    Criterion,
    DesignConfig,
    DesignResult,
    GammaPrecision,
    GammaUpdate,
    PrecisionPrior,
    PrecisionSummary,
    TrialData,
)

__all__ = [
    "update_precision",
    "precision_summary",
    "assured_information_target",
    "assured_design",
    "assured_criterion_met",
]

# The assurance fixed point: the relative step that ends it, and the most
# steps it may take.
_FIXED_POINT_RTOL = 1e-9
_FIXED_POINT_STEPS = 100


def update_precision(
    priors: Sequence[ArmPrior],
    precision: PrecisionPrior | GammaPrecision,
    data: TrialData,
) -> GammaUpdate:
    """Gamma posterior for the common precision given all arms' data.

    Each arm contributes its within-arm sum of squares plus a shrinkage
    term from the disagreement between prior mean and sample mean; the
    contributions are returned for reporting. The shape grows by half the
    total number of observations.
    """
    priors = tuple(priors)
    if len(priors) != len(data.n):
        raise DomainError(f"got {len(priors)} priors but data for {len(data.n)} arms")
    contributions = []
    for j, (prior, nj, ybar, ss) in enumerate(zip(priors, data.n, data.mean, data.ss)):
        if nj == 0:
            contributions.append(0.0)
            continue
        within = ss - nj * ybar * ybar
        q0 = prior.information
        shift = q0 * nj * (ybar - prior.mean) ** 2 / (q0 + nj)
        h = within + shift
        if h < -1e-8 * max(1.0, abs(ss)):
            raise DataInconsistencyError(
                f"arm {j}: negative precision contribution {h!r}"
            )
        contributions.append(h)
    alpha = precision.alpha + 0.5 * data.total
    beta = precision.beta + 0.5 * sum(contributions)
    return GammaUpdate(alpha=alpha, beta=beta, contributions=tuple(contributions))


def precision_summary(
    model: GammaPrecision | GammaUpdate | PrecisionPrior,
    threshold: float | None = None,
) -> PrecisionSummary:
    """Moments of a gamma precision law, reported alongside the response
    standard deviation it implies, plus an optional lower tail probability
    (useful as "chance the precision is below 1/c**2", i.e. sd above c)."""
    mean = model.alpha / model.beta
    prob = None
    if threshold is not None:
        if not (threshold > 0.0):
            raise DomainError(f"threshold must be positive, got {threshold!r}")
        prob = float(gammainc(model.alpha, model.beta * threshold))
    return PrecisionSummary(
        mean=mean,
        sd_equivalent=1.0 / math.sqrt(mean),
        threshold=threshold,
        prob_below=prob,
    )


def _assured_variance(n_total: float, prior: PrecisionPrior) -> tuple[float, float]:
    """Response variance the design may count on once ``n_total``
    observations are in, and the Student degrees of freedom 2 alpha1 of
    the posterior effect tails.

    The share of the posterior precision owed to the data is a
    Beta(n/2, alpha0) variable; the design counts on its assurance quantile.
    The rest of the precision, one minus that share, is a Beta(alpha0, n/2)
    variable, and its lower quantile is taken directly: one minus a share
    near 1 would lose digits to cancellation (about 1e-12 relative at
    n = 4000, 1e-10 at n = 2e5) and make the target jitter with n.
    """
    if not (0.0 <= n_total < math.inf):
        raise DomainError(f"n_total must be a finite nonnegative number, got {n_total!r}")
    rest = beta_quantile(prior.alpha, 0.5 * n_total, 1.0 - prior.assurance) if n_total > 2e-12 else 1.0
    if rest < 1e-12:
        raise InfeasibleDesignError(
            f"assurance {prior.assurance!r} leaves no precision budget at n={n_total!r}: "
            f"with prior shape alpha={prior.alpha!r} the share of the precision not owed "
            f"to the data is only {rest:.3g} at that assurance"
        )
    alpha1 = prior.alpha + 0.5 * n_total
    return prior.beta / (alpha1 * rest), 2.0 * alpha1


def assured_information_target(
    n_total: float,
    config: DesignConfig,
    prior: PrecisionPrior,
    criterion: Criterion,
    *,
    start: float | None = None,
) -> float:
    """Pairwise information (patient-equivalents) required if the trial
    ends up with ``n_total`` observations in all.

    Unlike the known-precision target this is already in patient units;
    the prior's scale substitutes for the unknown precision and the
    assurance level inflates it through a beta quantile. ``start`` is a
    first guess at the Student max quantile behind the target.
    """
    variance, df = _assured_variance(n_total, prior)
    return variance * _standard_target(config, criterion, df, start=start)


def assured_design(
    config: DesignConfig,
    prior: PrecisionPrior,
    criterion: Criterion,
) -> DesignResult:
    """Solve the self-consistent sample size under precision uncertainty.

    The total n solves n = R(n), R(n) being the total "required at total
    n". R is nearly flat (the target moves with n only through the
    Student df and the beta quantile), so the solve starts at the
    known-precision total under the prior-mean precision, where the df is
    already usable, and takes one plain step R(n) to find the other side
    of the root. Secant steps on n - R(n) follow inside the bracket,
    bisecting it when a step would leave it, until a step falls below
    ``_FIXED_POINT_RTOL`` relative, far above the rounding noise of R.
    The target of that last iterate sizes the design. Each step passes
    the previous Student max quantile on as the next quantile solve's
    start. The fractional solution is then split across
    arms at the configured allocation and rounded up per arm, and resized
    at the enrolled total should that total need more.
    """
    q0 = [p.information for p in config.priors]
    quantile = None

    def enrolled(target: float) -> float:
        # Arms whose priors exceed their share recruit nobody.
        return sum(max(s - q, 0.0) for s, q in zip(_shares(config, target), q0))

    def required_total(n: float) -> tuple[float, float]:
        # The Student max quantile behind each target, read back from it,
        # starts the next step's quantile solve: df moves little per step.
        nonlocal quantile
        target = assured_information_target(n, config, prior, criterion, start=quantile)
        variance, df = _assured_variance(n, prior)
        quantile = config.delta_star * math.sqrt(target / variance) - t_quantile(df, config.eta)
        return enrolled(target), target

    n = enrolled(_standard_target(config, criterion, math.inf) * prior.beta / prior.alpha)
    lo, hi, previous = 0.0, math.inf, None
    for _ in range(_FIXED_POINT_STEPS):
        total, target = required_total(n)
        # n - R(n) is negative below the root and positive above it.
        gap = n - total
        if gap <= 0.0:
            lo = n
        if gap >= 0.0:
            hi = n
        if previous is None or gap == previous[1]:
            proposal = total
        else:
            proposal = n - gap * (n - previous[0]) / (gap - previous[1])
        if not (lo < proposal < hi):
            proposal = 0.5 * (lo + hi) if hi < math.inf else total
        if abs(proposal - n) <= _FIXED_POINT_RTOL * max(1.0, n):
            break
        previous, n = (n, gap), proposal
    else:
        raise NumericError(f"assured design: no fixed point within {_FIXED_POINT_STEPS} steps")

    # Rounding up enrols more than the fractional total, which at small
    # totals needs more information, and moves the effect correlation off
    # the allocation's; add patients until the design meets its criterion.
    for _ in range(100):
        design = _allocate(config, criterion, target, 1.0)
        q1 = [p.information + nj for p, nj in zip(config.priors, design.n)]
        if _design_met(q1, design.total, config, prior, criterion):
            return design
        target = max(
            assured_information_target(design.total, config, prior, criterion),
            design.achieved_information * (1.0 + 1e-9),
        )
    raise NumericError("assured design: the rounded design never met its criterion")


def _design_met(
    q1: Sequence[float],
    n_total: float,
    config: DesignConfig,
    prior: PrecisionPrior,
    criterion: Criterion,
    slack: float = 1e-9,
) -> bool:
    """Whether posterior information ``q1`` (control first) meets the
    assured criterion once ``n_total`` observations are in, judged at the
    least-informed experimental arm: its pairwise information and effect
    correlation are the smallest, so exact for equal arms and conservative
    otherwise."""
    pair = _pairwise_information(q1[0], min(q1[1:]))
    variance, df = _assured_variance(float(n_total), prior)
    reach = config.delta_star * math.sqrt(pair / variance) - t_quantile(df, config.eta)
    arms = _criterion_arms(config, criterion)
    rho = pair / q1[0] if q1[0] > 0.0 else 1.0
    if rho >= 1.0:
        # Without control information the effect estimates move together,
        # so their max is a single statistic.
        arms, rho = 1, 0.0
    return equicorr_max_cdf(EquicorrSpec(k=arms, rho=rho, df=df), reach) >= config.zeta - slack


def assured_criterion_met(
    arm_sizes: Sequence[int],
    config: DesignConfig,
    prior: PrecisionPrior,
    criterion: Criterion,
    slack: float = 1e-9,
) -> bool:
    """Directly verify a concrete design against the assured criterion.

    Independent of the fixed-point route: plugs the achieved allocation
    into the defining probability statement and checks it reaches
    ``zeta``. Experimental arms must carry equal information for the
    correlation structure to stay exchangeable.
    """
    arm_sizes = tuple(int(x) for x in arm_sizes)
    if len(arm_sizes) != config.k + 1:
        raise DomainError(f"expected {config.k + 1} arm sizes, got {len(arm_sizes)}")
    if any(x < 0 for x in arm_sizes):
        raise DomainError("arm sizes must be >= 0")
    q0 = [p.information for p in config.priors]
    q1 = [q0[j] + arm_sizes[j] for j in range(config.k + 1)]
    exp_info = set(q1[1:])
    if len(exp_info) != 1:
        raise UnsupportedConfigurationError(
            "direct verification assumes equal information on experimental arms"
        )
    return _design_met(q1, sum(arm_sizes), config, prior, criterion, slack)
