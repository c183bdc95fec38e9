"""Bundled example: the bendrofluazide dose-finding trial.

Summary data from Carlsen et al. (BMJ 1990), a five-arm study of four
bendrofluazide doses against placebo with mean fall in systolic blood
pressure (mm Hg) as the endpoint. The trial reported per-arm sample
sizes, means and standard errors; within-arm sums of squares are
reconstructed from the unrounded standard deviations ``se * sqrt(n)``,
which reproduces the published derived statistics. Alongside the data
sit the design settings used in this package's worked analyses and
regression tests, plus the published reference designs they reproduce.
"""

from __future__ import annotations

import math

from .dunnett import DunnettConfig
from .model import ArmPrior, DesignConfig, PrecisionPrior, TrialData

__all__ = [
    "DOSES_MG",
    "case_study_data",
    "case_study_config",
    "case_study_precision_prior",
    "case_study_frequentist_config",
    "two_treatment_frequentist_config",
    "two_treatment_config",
    "REFERENCE_COMPARATIVE_DESIGNS",
    "REFERENCE_ASSURED_DESIGNS",
]

DOSES_MG = (0.0, 1.25, 2.5, 5.0, 10.0)

_N = (52, 50, 52, 52, 51)
_MEAN = (2.8, 12.7, 14.3, 13.4, 17.0)
_SE = (1.7, 2.0, 1.6, 2.0, 2.1)

# Anticipated response sd of 7 mm Hg, so precision 1/49.
CASE_STUDY_V = 1.0 / 49.0


def case_study_data() -> TrialData:
    """Observed per-arm summaries, placebo first."""
    sd = tuple(se * math.sqrt(n) for se, n in zip(_SE, _N))
    return TrialData.from_moments(n=_N, mean=_MEAN, sd=sd)


def case_study_config() -> DesignConfig:
    """Design settings for the dose-finding example: worthwhile effect
    5 mm Hg, promising and abandonment levels 0.95 and 0.90, vague-ish
    priors centred at 9 mm Hg improvement."""
    priors = (ArmPrior(mean=0.0, information=10.0),) + tuple(
        ArmPrior(mean=9.0, information=2.0) for _ in range(4)
    )
    return DesignConfig(
        k=4,
        delta_star=5.0,
        eta=0.95,
        zeta=0.90,
        priors=priors,
        v=CASE_STUDY_V,
    )


def case_study_precision_prior() -> PrecisionPrior:
    """Gamma prior matching the anticipated precision 1/49 in mean, broad
    enough to put probability 0.196 on sd above 15."""
    return PrecisionPrior(alpha=1.0, beta=49.0, assurance=0.95)


def case_study_frequentist_config() -> DunnettConfig:
    """Many-to-one comparator settings for the dose-finding example:
    one-sided 5% familywise error, 90% power at the worthwhile effect,
    response sd 7 mm Hg, equal allocation."""
    return DunnettConfig(
        k=4,
        alpha=0.05,
        power=0.90,
        delta_star=5.0,
        sigma=7.0,
        allocation="equal",
    )


def two_treatment_frequentist_config() -> DunnettConfig:
    """Comparator for the two-treatment example, with the control arm
    oversized by the same root-k rule the posterior designs use."""
    return DunnettConfig(
        k=2,
        alpha=0.05,
        power=0.90,
        delta_star=0.5,
        sigma=1.0,
        allocation="sqrt_k",
    )


def two_treatment_config() -> DesignConfig:
    """Smaller worked example: two experimental treatments, unit response
    precision, informative control prior."""
    priors = (
        ArmPrior(mean=0.0, information=16.0),
        ArmPrior(mean=0.25, information=4.0),
        ArmPrior(mean=0.25, information=4.0),
    )
    return DesignConfig(
        k=2,
        delta_star=0.5,
        eta=0.95,
        zeta=0.90,
        priors=priors,
        v=1.0,
    )


# Published designs for the dose-finding setting, known precision.
# Fields: label, n per experimental arm, n on control, total. The first
# row transcribes the conducted trial rather than a computed design.
REFERENCE_COMPARATIVE_DESIGNS = (
    ("conducted_trial", "50-52", "52", 257),
    ("frequentist_equal", 47, 47, 235),
    ("criterion_1", 35, 64, 204),
    ("criterion_2", 24, 41, 137),
)

# Published designs under precision uncertainty. Fields: prior alpha,
# prior beta, assurance, then per-criterion (experimental, control,
# total) triples.
REFERENCE_ASSURED_DESIGNS = (
    (1.0, 49.0, 0.95, (714, 1422, 4278), (489, 972, 2928)),
    (1.0, 49.0, 0.80, (163, 320, 972), (111, 216, 660)),
    (1.0, 49.0, 0.50, (52, 97, 305), (35, 63, 203)),
    (2.0, 98.0, 0.95, (205, 403, 1223), (140, 274, 834)),
    (2.0, 98.0, 0.80, (88, 169, 521), (59, 112, 348)),
    (3.0, 147.0, 0.95, (133, 259, 791), (91, 175, 539)),
    (3.0, 147.0, 0.80, (70, 134, 414), (48, 89, 281)),
)
