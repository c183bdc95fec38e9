"""Core value types shared across the package.

All types are immutable. Arm vectors are ordered control first, so a
trial with ``k`` experimental treatments uses tuples of length ``k + 1``
indexed ``0..k``; quantities that only exist per comparison (effects,
pairwise information) use tuples of length ``k`` indexed by experimental
arm ``1..k`` at position ``j - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence, Union

from .exceptions import DataInconsistencyError, DomainError

__all__ = [
    "ArmPrior",
    "Criterion",
    "DesignConfig",
    "DesignResult",
    "TrialData",
    "PosteriorSummary",
    "KnownPrecision",
    "PerArmPrecision",
    "GammaPrecision",
    "PrecisionModel",
    "PrecisionPrior",
    "GammaUpdate",
    "PrecisionSummary",
    "Outcome",
    "Decision",
]


def _check_prob(name: str, p: float, *, allow_half: bool = False) -> None:
    lo = 0.5 if allow_half else 0.0
    if not (lo <= p < 1.0) or (not allow_half and p <= 0.0):
        bound = "[0.5, 1)" if allow_half else "(0, 1)"
        raise DomainError(f"{name} must lie in {bound}, got {p!r}")


def _check_positive(name: str, x: float) -> None:
    if not (x > 0.0) or math.isinf(x) or math.isnan(x):
        raise DomainError(f"{name} must be a positive finite number, got {x!r}")


class Criterion(IntEnum):
    """Which sample size criterion a design should satisfy.

    ``ALL_PROMISING`` requires every truly effective treatment to be
    promising after a null-looking trial is abandoned; ``ANY_PROMISING``
    only requires some treatment to look promising when all are
    effective, which is weaker and needs fewer patients.
    """

    ALL_PROMISING = 1
    ANY_PROMISING = 2


@dataclass(frozen=True)
class ArmPrior:
    """Conjugate normal opinion about one arm's mean response.

    ``information`` is the prior weight expressed in patient-equivalents
    (observations of unit precision); zero means vague.
    """

    mean: float
    information: float = 0.0

    def __post_init__(self) -> None:
        if math.isnan(self.mean) or math.isinf(self.mean):
            raise DomainError(f"prior mean must be finite, got {self.mean!r}")
        if not (self.information >= 0.0) or math.isinf(self.information):
            raise DomainError(
                f"prior information must be finite and >= 0, got {self.information!r}"
            )


@dataclass(frozen=True)
class DesignConfig:
    """Inputs that define a design problem.

    Attributes:
        k: number of experimental arms compared with the shared control.
        delta_star: clinically worthwhile improvement over control (> 0).
        eta: posterior probability a promising treatment must reach.
        zeta: posterior probability required to abandon (all effects
            judged below ``delta_star``).
        priors: arm priors, control first, length ``k + 1``.
        v: common response precision when it is treated as known.
        allocation: target ratio of control to experimental information,
            ``None`` for the variance-minimising default ``sqrt(k)``.
    """

    k: int
    delta_star: float
    eta: float
    zeta: float
    priors: tuple[ArmPrior, ...]
    v: float | None = None
    allocation: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise DomainError(f"k must be an integer >= 1, got {self.k!r}")
        _check_positive("delta_star", self.delta_star)
        _check_prob("eta", self.eta, allow_half=True)
        _check_prob("zeta", self.zeta, allow_half=True)
        object.__setattr__(self, "priors", tuple(self.priors))
        if len(self.priors) != self.k + 1:
            raise DomainError(
                f"expected {self.k + 1} arm priors (control first), got {len(self.priors)}"
            )
        for p in self.priors:
            if not isinstance(p, ArmPrior):
                raise DomainError("priors must be ArmPrior instances")
        if self.v is not None:
            _check_positive("v", self.v)
        if self.allocation is not None:
            _check_positive("allocation", self.allocation)

    @property
    def allocation_ratio(self) -> float:
        """Control-to-experimental information ratio actually used."""
        return math.sqrt(self.k) if self.allocation is None else self.allocation

    @property
    def rho(self) -> float:
        """Common correlation of the posterior effect estimates implied
        by the allocation ratio."""
        return 1.0 / (1.0 + self.allocation_ratio)

    def known_v(self) -> float:
        if self.v is None:
            raise DomainError("this operation requires the known-precision field v")
        return self.v


@dataclass(frozen=True)
class DesignResult:
    """A solved design: per-arm sample sizes, control first."""

    criterion: Criterion
    n: tuple[int, ...]
    information_target: float
    achieved_information: float
    fractional_n: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", tuple(int(x) for x in self.n))
        if any(x < 0 for x in self.n):
            raise DomainError("arm sizes must be >= 0")
        if self.fractional_n is not None:
            object.__setattr__(self, "fractional_n", tuple(float(x) for x in self.fractional_n))

    @property
    def total(self) -> int:
        return sum(self.n)

    @property
    def k(self) -> int:
        return len(self.n) - 1


@dataclass(frozen=True)
class TrialData:
    """Per-arm response summaries, control first.

    ``within_ss`` holds each arm's sum of squared deviations from its own
    mean, free of the cancellation that raw sums suffer at large means;
    :meth:`from_sums` builds it from raw sums of squared responses. Arms
    with ``n == 0`` contribute nothing and must have zero mean and within_ss.
    """

    n: tuple[int, ...]
    mean: tuple[float, ...]
    within_ss: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", tuple(int(x) for x in self.n))
        object.__setattr__(self, "mean", tuple(float(x) for x in self.mean))
        object.__setattr__(self, "within_ss", tuple(float(x) for x in self.within_ss))
        if not (len(self.n) == len(self.mean) == len(self.within_ss)):
            raise DomainError("n, mean and within_ss must have equal length")
        if len(self.n) < 2:
            raise DomainError("data must cover a control and at least one experimental arm")
        for j, (nj, mj, wj) in enumerate(zip(self.n, self.mean, self.within_ss)):
            if not math.isfinite(mj):
                raise DomainError(f"arm {j}: mean must be finite, got {mj!r}")
            if not (0.0 <= wj < math.inf):
                raise DomainError(f"arm {j}: within_ss must be finite and >= 0, got {wj!r}")
            if nj < 0:
                raise DomainError(f"arm {j}: sample size must be >= 0")
            if nj == 0 and (mj != 0.0 or wj != 0.0):
                raise DomainError(f"arm {j}: empty arm must have zero mean and within_ss")

    @classmethod
    def from_sums(
        cls,
        n: Sequence[int],
        mean: Sequence[float],
        ss: Sequence[float],
    ) -> "TrialData":
        """Build from raw (uncentred) sums of squared responses."""
        n = tuple(int(x) for x in n)
        mean = tuple(float(x) for x in mean)
        ss = tuple(float(x) for x in ss)
        if not (len(n) == len(mean) == len(ss)):
            raise DomainError("n, mean and ss must have equal length")
        within = []
        for j, (nj, mj, sj) in enumerate(zip(n, mean, ss)):
            if not math.isfinite(sj):
                raise DomainError(f"arm {j}: ss must be finite, got {sj!r}")
            # Cauchy-Schwarz floor: sum of squares can never fall below n * mean^2.
            floor = nj * mj * mj
            if floor - sj > 1e-9 * max(1.0, sj) and math.isfinite(mj):
                raise DataInconsistencyError(
                    f"arm {j}: ss={sj!r} is below the minimum {floor!r} implied by the mean"
                )
            within.append(max(sj - floor, 0.0))
        return cls(n=n, mean=mean, within_ss=tuple(within))

    @classmethod
    def from_moments(
        cls,
        n: Sequence[int],
        mean: Sequence[float],
        sd: Sequence[float],
    ) -> "TrialData":
        """Build from per-arm sample standard deviations (ddof=1)."""
        n = tuple(int(x) for x in n)
        sd = tuple(float(x) for x in sd)
        if not (len(n) == len(mean) == len(sd)):
            raise DomainError("n, mean and sd must have equal length")
        within = []
        for j, (nj, sj) in enumerate(zip(n, sd)):
            within.append((nj - 1) * sj * sj if nj > 0 else 0.0)
            if not (0.0 <= sj < math.inf and within[-1] < math.inf):
                raise DomainError(
                    f"arm {j}: sd must be finite, >= 0 and give a finite sum of squares, got {sj!r}"
                )
        return cls(n=n, mean=mean, within_ss=tuple(within))

    @property
    def k(self) -> int:
        return len(self.n) - 1

    @property
    def total(self) -> int:
        return sum(self.n)

    def sample_variance(self, arm: int) -> float:
        """Unbiased within-arm variance; needs at least two observations."""
        nj = self.n[arm]
        if nj < 2:
            raise DomainError(f"arm {arm}: variance needs n >= 2, got {nj}")
        return self.within_ss[arm] / (nj - 1)

    def sample_sd(self, arm: int) -> float:
        return math.sqrt(self.sample_variance(arm))


@dataclass(frozen=True)
class PosteriorSummary:
    """Conjugate normal posterior for all arm means.

    ``effects`` are posterior mean differences from control and
    ``pair_information`` the corresponding pairwise precisions
    (both length ``k``, experimental arms only).
    """

    mean: tuple[float, ...]
    information: tuple[float, ...]
    effects: tuple[float, ...]
    pair_information: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", tuple(float(x) for x in self.mean))
        object.__setattr__(self, "information", tuple(float(x) for x in self.information))
        object.__setattr__(self, "effects", tuple(float(x) for x in self.effects))
        object.__setattr__(
            self, "pair_information", tuple(float(x) for x in self.pair_information)
        )
        k = len(self.mean) - 1
        if k < 1 or len(self.information) != k + 1:
            raise DomainError("posterior mean/information must have length k + 1 >= 2")
        if len(self.effects) != k or len(self.pair_information) != k:
            raise DomainError("effects and pair_information must have length k")
        for q in self.information:
            _check_positive("posterior information", q)

    @property
    def k(self) -> int:
        return len(self.mean) - 1


@dataclass(frozen=True)
class KnownPrecision:
    """Common response precision treated as a known constant."""

    v: float

    def __post_init__(self) -> None:
        _check_positive("v", self.v)


@dataclass(frozen=True)
class PerArmPrecision:
    """Known but arm-specific response precisions, control first."""

    v: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        if len(self.v) < 2:
            raise DomainError("per-arm precision needs k + 1 >= 2 entries")
        for x in self.v:
            _check_positive("v", x)


@dataclass(frozen=True)
class GammaPrecision:
    """Gamma(alpha, beta) opinion about a common unknown precision,
    rate parameterisation (mean alpha / beta)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _check_positive("alpha", self.alpha)
        _check_positive("beta", self.beta)

    @property
    def mean(self) -> float:
        return self.alpha / self.beta


PrecisionModel = Union[KnownPrecision, PerArmPrecision, GammaPrecision]


@dataclass(frozen=True)
class PrecisionPrior:
    """Design-stage gamma prior on the common precision plus the
    assurance level ``xi`` the design must hold despite not knowing it."""

    alpha: float
    beta: float
    assurance: float

    def __post_init__(self) -> None:
        _check_positive("alpha", self.alpha)
        _check_positive("beta", self.beta)
        _check_prob("assurance", self.assurance, allow_half=True)

    @property
    def mean(self) -> float:
        return self.alpha / self.beta


@dataclass(frozen=True)
class GammaUpdate:
    """Posterior gamma parameters for the precision after observing data,
    with the per-arm contributions to the rate retained for reporting."""

    alpha: float
    beta: float
    contributions: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_positive("alpha", self.alpha)
        _check_positive("beta", self.beta)
        object.__setattr__(self, "contributions", tuple(float(x) for x in self.contributions))


@dataclass(frozen=True)
class PrecisionSummary:
    """Moments of a gamma precision law plus an optional tail probability."""

    mean: float
    sd_equivalent: float
    threshold: float | None = None
    prob_below: float | None = None


class Outcome(Enum):
    """Joint reading of the promising and abandonment criteria."""

    PROCEED = "proceed"
    ABANDON = "abandon"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class Decision:
    """Posterior decision quantities for one analysis.

    ``promising`` lists experimental arms (1-based) whose superiority
    probability reaches ``eta``. ``abandon`` is True when the posterior
    probability that every effect falls short of ``delta_star`` reaches
    ``zeta``. Both can hold at once on boundary cases; the ``outcome``
    field reports the four-way classification.
    """

    prob_superior: tuple[float, ...]
    prob_all_below: float
    prob_any_superior: float
    promising: tuple[int, ...]
    abandon: bool
    outcome: Outcome
