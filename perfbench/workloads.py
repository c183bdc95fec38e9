"""Seeded inputs and operations of the in-process workloads.

Every generator draws from ``random.Random`` seeded by the benchmark
seed, so the same seed always yields the same inputs. Operations call
the library through module attributes (``posterior.decide``, not a name
bound at import) so that the tracer's wrappers, installed on those
attributes, see every call.

A round is a fixed sequence of operation shapes (``k`` cycles through
its range); the values inside each shape are drawn afresh per operation.
Runs measure whole rounds, so every run has the same mix of shapes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

from multiarm import (
    design_known,
    design_unknown,
    dunnett,
    model,
    montecarlo,
    posterior,
)

ETA_LEVELS = (0.8, 0.9, 0.95, 0.975)
ZETA_LEVELS = (0.8, 0.9, 0.95)
# None selects the variance-minimising default sqrt(k).
ALLOCATIONS = (None, 1.0, 2.0)
# Shape 0.5 is left out: with assurance 0.95 and a small effect its
# fixed point contracts so slowly that one solve costs ten others, and the
# share of such draws made runs unsteady (see CHANGES.md).
PRIOR_SHAPES = (1.0, 2.0, 4.0)
ASSURANCES = (0.5, 0.8, 0.9, 0.95)

SWEEP_KS = tuple(range(2, 9))
AUDIT_KS = tuple(range(2, 7))
STREAM_KS = tuple(range(2, 7))
AUDIT_POINTS = 4096

# Operations of the first round run at set-up to warm each kind: the
# first shape is k = 2, the only one with a boundary curve, and the audit
# needs both criteria. Warm-up inputs come from their own stream, so the
# timed inputs do not depend on how much warm-up there is.
WARMUP_ITEMS = {"design-sweep": 1, "design-audit": 2, "analysis-stream": 1}
WARMUP_SEED = -1


def _design_config(rng: random.Random, k: int) -> model.DesignConfig:
    """A design problem with equal experimental priors (needed by the
    direct assured-criterion check) and priors small against the
    required information, so every arm recruits."""
    sd = rng.uniform(0.5, 10.0)
    delta = sd * rng.uniform(0.3, 1.0)
    control = model.ArmPrior(mean=0.0, information=rng.uniform(0.0, 10.0))
    exp_info = rng.uniform(0.0, 3.0)
    exp_mean = delta * rng.uniform(0.0, 1.5)
    priors = (control,) + (model.ArmPrior(mean=exp_mean, information=exp_info),) * k
    return model.DesignConfig(
        k=k,
        delta_star=delta,
        eta=rng.choice(ETA_LEVELS),
        zeta=rng.choice(ZETA_LEVELS),
        priors=priors,
        v=1.0 / (sd * sd),
        allocation=rng.choice(ALLOCATIONS),
    )


@dataclass(frozen=True)
class SweepInput:
    config: model.DesignConfig
    prior: model.PrecisionPrior
    frequentist: dunnett.DunnettConfig


def sweep_input(rng: random.Random, k: int) -> SweepInput:
    config = _design_config(rng, k)
    sd = 1.0 / math.sqrt(config.v)
    shape = rng.choice(PRIOR_SHAPES)
    prior = model.PrecisionPrior(
        alpha=shape, beta=shape * sd * sd, assurance=rng.choice(ASSURANCES)
    )
    frequentist = dunnett.DunnettConfig(
        k=k,
        alpha=rng.choice((0.025, 0.05, 0.1)),
        power=rng.choice((0.8, 0.9)),
        delta_star=config.delta_star,
        sigma=sd,
        allocation=rng.choice(("equal", "sqrt_k", 2.0)),
    )
    return SweepInput(config=config, prior=prior, frequentist=frequentist)


def solve_sweep(item: SweepInput) -> dict[str, Any]:
    """One design-sweep operation: solve the configuration fully."""
    out: dict[str, Any] = {"known": {}, "assured": {}}
    for criterion in model.Criterion:
        out["known"][criterion] = design_known.optimal_design(item.config, criterion)
        out["assured"][criterion] = design_unknown.assured_design(
            item.config, item.prior, criterion
        )
    out["dunnett"] = dunnett.dunnett_design(item.frequentist)
    if item.config.k == 2:
        out["boundary"] = design_known.boundary_curve(
            item.config, out["known"][model.Criterion.ALL_PROMISING]
        )
    return out


@dataclass(frozen=True)
class AuditInput:
    config: model.DesignConfig
    design: model.DesignResult
    mc: montecarlo.McConfig


def audit_input(rng: random.Random, k: int, criterion: model.Criterion) -> AuditInput:
    """The design is solved here, while inputs are made; the operation
    is the sweep alone."""
    config = _design_config(rng, k)
    design = design_known.optimal_design(config, criterion)
    return AuditInput(config=config, design=design, mc=montecarlo.McConfig(seed=rng.randrange(2**63)))


def run_audit(item: AuditInput) -> montecarlo.GuaranteeReport:
    """One design-audit operation: a fixed-size guarantee sweep."""
    return montecarlo.design_guarantee(item.design, item.config, AUDIT_POINTS, item.mc)


@dataclass(frozen=True)
class TrialInput:
    config: model.DesignConfig
    prior: model.GammaPrecision
    data: model.TrialData
    thresholds: tuple[float, float]


def trial_input(rng: random.Random, k: int) -> TrialInput:
    """A synthetic finished trial with effects near the null, so the
    decisions and the selection p-value are not all at their limits."""
    sd_true = rng.uniform(1.0, 10.0)
    sd_plan = sd_true * rng.uniform(0.8, 1.25)
    delta = sd_true * rng.uniform(0.3, 0.8)
    n = [rng.randint(10, 120) for _ in range(k + 1)]
    effects = [0.0] + [sd_true * rng.gauss(0.0, 0.25) for _ in range(k)]
    base = rng.uniform(-5.0, 5.0)
    mean = [base + e + rng.gauss(0.0, sd_true / math.sqrt(nj)) for e, nj in zip(effects, n)]
    sd = [sd_true * math.sqrt(rng.gammavariate(0.5 * (nj - 1), 2.0) / (nj - 1)) for nj in n]
    priors = (model.ArmPrior(mean=base, information=rng.uniform(0.0, 5.0)),) + tuple(
        model.ArmPrior(mean=base + delta * rng.uniform(0.0, 1.0), information=rng.uniform(0.0, 2.0))
        for _ in range(k)
    )
    config = model.DesignConfig(
        k=k, delta_star=delta, eta=0.95, zeta=0.9, priors=priors, v=1.0 / (sd_plan * sd_plan)
    )
    shape = rng.uniform(1.0, 3.0)
    return TrialInput(
        config=config,
        prior=model.GammaPrecision(alpha=shape, beta=shape * sd_plan * sd_plan),
        data=model.TrialData.from_moments(n=n, mean=mean, sd=sd),
        thresholds=(0.5 * delta, 2.0 * delta),
    )


def analyse_trial(item: TrialInput) -> dict[str, Any]:
    """One analysis-stream operation: the end-of-trial analysis."""
    config, data = item.config, item.data
    summary = posterior.update_posterior(config.priors, data)
    update = design_unknown.update_precision(config.priors, item.prior, data)
    per_arm = tuple(1.0 / data.sample_variance(j) for j in range(config.k + 1))
    variants = {
        "known": model.KnownPrecision(config.v),
        "per_arm": model.PerArmPrecision(per_arm),
        "gamma": model.GammaPrecision(update.alpha, update.beta),
    }
    best = max(range(1, config.k + 1), key=lambda j: summary.effects[j - 1])
    out: dict[str, Any] = {"summary": summary, "variants": {}}
    for name, precision in variants.items():
        out["variants"][name] = {
            "precision": precision,
            "decision": posterior.decide(summary, precision, config),
            "below": {c: posterior.prob_all_below(summary, precision, c) for c in item.thresholds},
            "better": {
                j: posterior.prob_pairwise_better(summary, precision, j, best)
                for j in range(1, config.k + 1)
                if j != best
            },
        }
    z_star = max(dunnett.z_statistics_pooled(data))
    out["z_star"] = z_star
    out["p_value"] = dunnett.dunnett_pvalue(data, z_star)
    return out


def steep_trial() -> TrialInput:
    """A fixed trial whose arms range from 11 to 120 patients, so the
    selection p-value refines to 1024 nodes and builds that rule. About
    one generated trial in a few thousand does so too; warming up on this one
    makes every run's peak memory include that rule, not only the runs
    whose seed draws such a trial."""
    prior = model.ArmPrior(mean=4.5, information=1.0)
    return TrialInput(
        config=model.DesignConfig(k=6, delta_star=0.49, eta=0.95, zeta=0.9, priors=(prior,) * 7,
                                  v=1.0 / 1.6**2),
        prior=model.GammaPrecision(alpha=2.0, beta=5.2),
        data=model.TrialData.from_moments(n=(14, 88, 11, 91, 66, 72, 120),
                                          mean=(4.72, 4.76, 3.81, 4.66, 4.41, 4.91, 4.35),
                                          sd=(1.69, 1.2, 1.88, 1.32, 1.34, 1.39, 1.31)),
        thresholds=(0.245, 0.98),
    )


def warmup_items(workload: str) -> list[Any]:
    """The operations run at set-up, before the timed phase."""
    items = Stream(workload, WARMUP_SEED).next_round()[: WARMUP_ITEMS[workload]]
    if workload == "analysis-stream":
        items.append(steep_trial())
    return items


class Stream:
    """Endless seeded sequence of one workload's operations, in rounds."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")

    def next_round(self) -> list[Any]:
        rng = self.rng
        if self.workload == "design-sweep":
            return [sweep_input(rng, k) for k in SWEEP_KS]
        if self.workload == "design-audit":
            return [audit_input(rng, k, c) for k in AUDIT_KS for c in model.Criterion]
        if self.workload == "analysis-stream":
            return [trial_input(rng, k) for k in STREAM_KS]
        raise ValueError(f"unknown in-process workload {self.workload!r}")


OPERATIONS = {
    "design-sweep": solve_sweep,
    "design-audit": run_audit,
    "analysis-stream": analyse_trial,
}
