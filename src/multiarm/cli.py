"""Command line front end.

Six subcommands wrap the library: ``design-known`` and ``design-unknown``
size a trial (fixed or gamma-distributed response precision), ``analyze``
runs the posterior decision analysis on observed arm summaries,
``dunnett`` computes the frequentist many-to-one comparator, ``boundary``
traces the stop/go geometry of a two-treatment design, and
``reproduce-tables`` regenerates the reference designs bundled in
:mod:`multiarm.datasets`.

All numeric inputs arrive through a single JSON configuration file (the
schema is documented in the README and enforced here; unknown keys are
rejected). Reports are plain text rounded to four decimal places and
echo the fully resolved configuration; CSV outputs carry full-precision
``repr`` values so repeated runs with the same config and seed are
byte-identical.

Exit status: 0 on success, 2 on any configuration or validation error,
3 when a computation fails numerically or the requested design is
infeasible.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import jsonschema

from . import datasets
from .design_known import boundary_curve, optimal_design
from .design_unknown import (
    assured_criterion_met,
    assured_design,
    precision_summary,
    update_precision,
)
from .distributions import normal_quantile
from .dunnett import (
    DunnettConfig,
    dunnett_design,
    dunnett_pvalue,
    pooled_pair_sd,
    z_statistics,
    z_statistics_pooled,
)
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
    KnownPrecision,
    PerArmPrecision,
    PrecisionPrior,
    TrialData,
)
from .montecarlo import McConfig, posterior_probs
from .posterior import decide, prob_all_below, prob_pairwise_better, update_posterior

_PRIOR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["mean"],
    "properties": {
        "mean": {"type": "number"},
        "information": {"type": "number", "minimum": 0},
    },
}

# Structural validation only; value constraints live in the dataclasses
# so the library and the CLI cannot drift apart.
_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "design": {
            "type": "object",
            "additionalProperties": False,
            "required": ["k", "delta_star", "eta", "zeta", "priors"],
            "properties": {
                "k": {"type": "integer", "minimum": 1},
                "delta_star": {"type": "number"},
                "eta": {"type": "number"},
                "zeta": {"type": "number"},
                "priors": {"type": "array", "minItems": 2, "items": _PRIOR_SCHEMA},
                "v": {"type": "number"},
                "sd": {"type": "number"},
                "allocation": {"type": "number"},
            },
        },
        "precision_prior": {
            "type": "object",
            "additionalProperties": False,
            "required": ["alpha", "beta"],
            "properties": {
                "alpha": {"type": "number"},
                "beta": {"type": "number"},
                "assurance": {"type": "number"},
            },
        },
        "data": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n", "mean"],
            "properties": {
                "n": {"type": "array", "minItems": 2, "items": {"type": "integer", "minimum": 0}},
                "mean": {"type": "array", "items": {"type": "number"}},
                "ss": {"type": "array", "items": {"type": "number"}},
                "sd": {"type": "array", "items": {"type": "number"}},
                "se": {"type": "array", "items": {"type": "number"}},
            },
        },
        "dunnett": {
            "type": "object",
            "additionalProperties": False,
            "required": ["alpha", "power", "sigma"],
            "properties": {
                "alpha": {"type": "number"},
                "power": {"type": "number"},
                "sigma": {"type": "number"},
                "allocation": {
                    "oneOf": [
                        {"type": "string", "enum": ["equal", "sqrt_k"]},
                        {"type": "number"},
                    ]
                },
                "z_star": {"type": "number"},
            },
        },
        "analysis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "thresholds": {"type": "array", "items": {"type": "number"}},
                "sd_threshold": {"type": "number"},
            },
        },
        "boundary": {
            "type": "object",
            "additionalProperties": False,
            "required": ["start", "stop", "points"],
            "properties": {
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "points": {"type": "integer", "minimum": 2},
            },
        },
        "monte_carlo": {
            "type": "object",
            "additionalProperties": False,
            "required": ["seed"],
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "n_draws": {"type": "integer", "minimum": 2},
                "antithetic": {"type": "boolean"},
            },
        },
    },
}


def load_config(path: Path) -> dict:
    """Read and schema-validate a JSON run configuration."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    jsonschema.validate(doc, _SCHEMA)
    return doc


def _require(doc: dict, key: str, command: str) -> dict:
    if key not in doc:
        raise DomainError(f"{command} requires a '{key}' section in the config")
    return doc[key]


def _design_from(section: dict, *, need_v: bool) -> DesignConfig:
    if "v" in section and "sd" in section:
        raise DomainError("design: give either 'v' or 'sd', not both")
    v = None
    if "v" in section:
        v = float(section["v"])
    elif "sd" in section:
        sd = float(section["sd"])
        if not (sd > 0.0):
            raise DomainError(f"design: sd must be > 0, got {sd!r}")
        v = 1.0 / (sd * sd)
    elif need_v:
        raise DomainError("design: a known precision is required here; set 'v' or 'sd'")
    priors = tuple(
        ArmPrior(mean=p["mean"], information=p.get("information", 0.0))
        for p in section["priors"]
    )
    return DesignConfig(
        k=section["k"],
        delta_star=section["delta_star"],
        eta=section["eta"],
        zeta=section["zeta"],
        priors=priors,
        v=v,
        allocation=section.get("allocation"),
    )


def _data_from(section: dict) -> TrialData:
    n = section["n"]
    mean = section["mean"]
    given = [key for key in ("ss", "sd", "se") if key in section]
    if len(given) != 1:
        raise DomainError("data: give exactly one of 'ss', 'sd' or 'se'")
    key = given[0]
    spread = section[key]
    if not (len(n) == len(mean) == len(spread)):
        raise DomainError("data: 'n', 'mean' and the spread array must have equal length")
    if key == "ss":
        return TrialData(n=n, mean=mean, ss=spread)
    if key == "se":
        spread = [s * math.sqrt(nj) for s, nj in zip(spread, n)]
    return TrialData.from_moments(n=n, mean=mean, sd=spread)


def _precision_prior_from(section: dict, *, need_assurance: bool) -> PrecisionPrior:
    if need_assurance and "assurance" not in section:
        raise DomainError("precision_prior: 'assurance' is required for design-unknown")
    return PrecisionPrior(
        alpha=section["alpha"],
        beta=section["beta"],
        assurance=section.get("assurance", 0.5),
    )


def _mc_from(doc: dict, seed_override: int | None) -> McConfig | None:
    section = doc.get("monte_carlo")
    if section is None and seed_override is None:
        return None
    section = section or {}
    seed = seed_override if seed_override is not None else section["seed"]
    return McConfig(
        seed=seed,
        n_draws=section.get("n_draws", 1_000_000),
        antithetic=section.get("antithetic", False),
    )


def _resolved_design(config: DesignConfig) -> dict:
    return {
        "k": config.k,
        "delta_star": config.delta_star,
        "eta": config.eta,
        "zeta": config.zeta,
        "v": config.v,
        "allocation": config.allocation_ratio,
        "priors": [
            {"mean": p.mean, "information": p.information} for p in config.priors
        ],
    }


def _resolved_data(data: TrialData) -> dict:
    return {"n": list(data.n), "mean": list(data.mean), "ss": list(data.ss)}


def _resolved_mc(mc: McConfig | None) -> dict | None:
    if mc is None:
        return None
    return {"seed": mc.seed, "n_draws": mc.n_draws, "antithetic": mc.antithetic}


def _fmt_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _r(value: float) -> str:
    return f"{float(value):.4f}"


def _rseq(values: Sequence[float]) -> str:
    return ", ".join(_r(x) for x in values)


class _Emitter:
    """Writes the per-command CSV and report files honouring --format."""

    def __init__(self, outdir: Path, fmt: str) -> None:
        outdir.mkdir(parents=True, exist_ok=True)
        self.outdir = outdir
        self.fmt = fmt
        self.written: list[Path] = []

    def csv(
        self,
        name: str,
        header: Sequence[str],
        rows: Sequence[Sequence[Any]],
        preamble: Sequence[str] = (),
    ) -> None:
        if self.fmt == "report":
            return
        path = self.outdir / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for line in preamble:
                fh.write(line + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt_cell(cell) for cell in row])
        self.written.append(path)

    def report(self, name: str, title: str, resolved: dict, body: Sequence[str]) -> None:
        if self.fmt == "csv":
            return
        path = self.outdir / name
        lines = [title, "=" * len(title), "", "resolved configuration:"]
        lines.extend(
            "  " + line
            for line in json.dumps(resolved, indent=2, sort_keys=True).splitlines()
        )
        lines.append("")
        lines.extend(body)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        self.written.append(path)

    def announce(self) -> None:
        for path in self.written:
            print(f"wrote {path}")


def _pair_sigmas(config: DesignConfig, design: DesignResult) -> tuple[float, ...]:
    """Posterior sd of each effect estimate once the design is enrolled."""
    v = config.known_v()
    q0 = [p.information for p in config.priors]
    q1 = [q + n for q, n in zip(q0, design.n)]
    out = []
    for j in range(1, config.k + 1):
        pair = q1[j] * q1[0] / (q1[j] + q1[0])
        out.append(1.0 / math.sqrt(pair * v))
    return tuple(out)


def _cmd_design_known(args: argparse.Namespace) -> int:
    doc = load_config(Path(args.config))
    config = _design_from(_require(doc, "design", "design-known"), need_v=True)
    criterion = Criterion(args.criterion)
    design = optimal_design(config, criterion)
    sigmas = _pair_sigmas(config, design)
    z_eta = normal_quantile(config.eta)
    thresholds = tuple(z_eta * s for s in sigmas)

    rows: list[tuple[Any, ...]] = [
        ("criterion", "", criterion.value),
        ("information_target", "", design.information_target),
        ("achieved_information", "", design.achieved_information),
        ("total", "", design.total),
    ]
    rows.extend(("n", j, design.n[j]) for j in range(config.k + 1))
    if design.fractional_n is not None:
        rows.extend(
            ("fractional_n", j, design.fractional_n[j]) for j in range(config.k + 1)
        )
    rows.extend(
        ("posterior_information", j, config.priors[j].information + design.n[j])
        for j in range(config.k + 1)
    )
    rows.extend(("promising_threshold", j, thresholds[j - 1]) for j in range(1, config.k + 1))

    resolved = {
        "command": "design-known",
        "criterion": criterion.value,
        "design": _resolved_design(config),
    }
    body = [
        f"criterion: {criterion.value} ({criterion.name})",
        f"information target (standardised): {_r(design.information_target)}",
        f"achieved information (standardised): {_r(design.achieved_information)}",
        f"arm sizes, control first: {design.n}",
        f"total sample size: {design.total}",
    ]
    if design.fractional_n is not None:
        body.insert(3, f"fractional arm sizes: {_rseq(design.fractional_n)}")
    body.append(f"promising thresholds per treatment: {_rseq(thresholds)}")

    emitter = _Emitter(Path(args.out), args.format)
    emitter.csv("design_known.csv", ("quantity", "arm", "value"), rows)
    emitter.report("design_known_report.txt", "trial design, known precision", resolved, body)
    emitter.announce()
    return 0


def _cmd_design_unknown(args: argparse.Namespace) -> int:
    doc = load_config(Path(args.config))
    config = _design_from(_require(doc, "design", "design-unknown"), need_v=False)
    prior = _precision_prior_from(
        _require(doc, "precision_prior", "design-unknown"), need_assurance=True
    )
    criterion = Criterion(args.criterion)
    design = assured_design(config, prior, criterion)
    try:
        met = assured_criterion_met(design.n, config, prior, criterion)
    except UnsupportedConfigurationError:
        met = None

    rows: list[tuple[Any, ...]] = [
        ("criterion", "", criterion.value),
        ("information_target", "", design.information_target),
        ("achieved_information", "", design.achieved_information),
        ("total", "", design.total),
        ("criterion_met", "", met),
    ]
    rows.extend(("n", j, design.n[j]) for j in range(config.k + 1))
    if design.fractional_n is not None:
        rows.extend(
            ("fractional_n", j, design.fractional_n[j]) for j in range(config.k + 1)
        )

    resolved = {
        "command": "design-unknown",
        "criterion": criterion.value,
        "design": _resolved_design(config),
        "precision_prior": {
            "alpha": prior.alpha,
            "beta": prior.beta,
            "assurance": prior.assurance,
        },
    }
    body = [
        f"criterion: {criterion.value} ({criterion.name})",
        f"assurance level: {_r(prior.assurance)}",
        f"pairwise information target (patients): {_r(design.information_target)}",
        f"achieved pairwise information (patients): {_r(design.achieved_information)}",
        f"arm sizes, control first: {design.n}",
        f"total sample size: {design.total}",
    ]
    if design.fractional_n is not None:
        body.insert(4, f"fractional arm sizes: {_rseq(design.fractional_n)}")
    if met is None:
        body.append("direct criterion check: skipped (unequal treatment priors)")
    else:
        body.append(f"direct criterion check: {'met' if met else 'NOT met'}")

    emitter = _Emitter(Path(args.out), args.format)
    emitter.csv("design_unknown.csv", ("quantity", "arm", "value"), rows)
    emitter.report(
        "design_unknown_report.txt", "trial design, uncertain precision", resolved, body
    )
    emitter.announce()
    return 0


def _analysis_variants(
    config: DesignConfig,
    data: TrialData,
    doc: dict,
) -> tuple[list[tuple[str, Any]], Any, list[str]]:
    """Assemble the precision models the config supports.

    Returns (variants, gamma update or None, notes for the report).
    """
    variants: list[tuple[str, Any]] = []
    notes: list[str] = []
    if config.v is not None:
        variants.append(("common", KnownPrecision(config.v)))
    if all(nj >= 2 for nj in data.n):
        sample_v = []
        degenerate = False
        for j in range(config.k + 1):
            var = data.sample_variance(j)
            if not (var > 0.0):
                degenerate = True
                break
            sample_v.append(1.0 / var)
        if degenerate:
            notes.append("per-arm variant skipped: an arm has zero sample variance")
        else:
            variants.append(("per_arm", PerArmPrecision(tuple(sample_v))))
    else:
        notes.append("per-arm variant skipped: every arm needs n >= 2")
    update = None
    if "precision_prior" in doc:
        prior = _precision_prior_from(doc["precision_prior"], need_assurance=False)
        update = update_precision(config.priors, prior, data)
        variants.append(("gamma", GammaPrecision(update.alpha, update.beta)))
    if not variants:
        raise DomainError(
            "analyze: no precision model available; set design.v (or design.sd), "
            "provide data with n >= 2 on every arm, or add a precision_prior section"
        )
    return variants, update, notes


def _cmd_analyze(args: argparse.Namespace) -> int:
    doc = load_config(Path(args.config))
    config = _design_from(_require(doc, "design", "analyze"), need_v=False)
    data = _data_from(_require(doc, "data", "analyze"))
    summary = update_posterior(config.priors, data)
    analysis = doc.get("analysis", {})
    extra_thresholds = [float(c) for c in analysis.get("thresholds", [])]
    sd_threshold = analysis.get("sd_threshold")
    mc = _mc_from(doc, args.seed)
    variants, update, notes = _analysis_variants(config, data, doc)

    header = ("quantity", "variant", "index", "value", "se")
    rows: list[tuple[Any, ...]] = []
    for j in range(config.k + 1):
        rows.append(("posterior_information", "", j, summary.information[j], None))
    for j in range(config.k + 1):
        rows.append(("posterior_mean", "", j, summary.mean[j], None))
    for j in range(1, config.k + 1):
        rows.append(("effect", "", j, summary.effects[j - 1], None))
    for j in range(1, config.k + 1):
        rows.append(("pair_information", "", j, summary.pair_information[j - 1], None))

    best = max(range(1, config.k + 1), key=lambda j: summary.effects[j - 1])
    rows.append(("best_arm", "", "", best, None))

    body = [
        f"arms: control and {config.k} treatments",
        "posterior information, control first: " + _rseq(summary.information),
        "posterior means, control first: " + _rseq(summary.mean),
        "effects vs control: " + _rseq(summary.effects),
        f"treatment with the largest posterior effect: arm {best}",
    ]
    body.extend(notes)

    for name, precision in variants:
        decision = decide(summary, precision, config)
        for j in range(1, config.k + 1):
            rows.append(("prob_superior", name, j, decision.prob_superior[j - 1], None))
        rows.append(("prob_any_superior", name, "", decision.prob_any_superior, None))
        rows.append(
            ("prob_all_below", name, repr(float(config.delta_star)), decision.prob_all_below, None)
        )
        below = [(c, prob_all_below(summary, precision, c)) for c in extra_thresholds]
        for c, p in below:
            rows.append(("prob_all_below", name, repr(float(c)), p, None))
        for j in range(1, config.k + 1):
            rows.append(("promising", name, j, j in decision.promising, None))
        rows.append(("abandon", name, "", decision.abandon, None))
        rows.append(("outcome", name, "", decision.outcome.name, None))
        better = {
            j: prob_pairwise_better(summary, precision, j, best)
            for j in range(1, config.k + 1)
            if j != best
        }
        rows.extend(
            ("prob_better_than_best", name, j, p, None) for j, p in better.items()
        )

        body.append("")
        body.append(f"precision model '{name}':")
        body.append("  P(treatment beats control): " + _rseq(decision.prob_superior))
        body.append(f"  P(any treatment beats control): {_r(decision.prob_any_superior)}")
        body.append(
            f"  P(all effects below {_r(config.delta_star)}): {_r(decision.prob_all_below)}"
        )
        for c, p in below:
            body.append(f"  P(all effects below {_r(c)}): {_r(p)}")
        body.append(
            f"  P(arm j beats arm {best}): "
            + ", ".join(f"arm {j} {_r(p)}" for j, p in sorted(better.items()))
        )
        promising = " ".join(str(j) for j in decision.promising) or "none"
        body.append(f"  promising treatments (eta = {_r(config.eta)}): {promising}")
        body.append(f"  abandon indicated (zeta = {_r(config.zeta)}): {'yes' if decision.abandon else 'no'}")
        body.append(f"  outcome: {decision.outcome.name}")

    if update is not None:
        stats = precision_summary(
            update, threshold=None if sd_threshold is None else 1.0 / float(sd_threshold) ** 2
        )
        rows.append(("precision_alpha", "gamma", "", update.alpha, None))
        rows.append(("precision_beta", "gamma", "", update.beta, None))
        rows.append(("precision_mean", "gamma", "", stats.mean, None))
        rows.append(("sd_equivalent", "gamma", "", stats.sd_equivalent, None))
        for j in range(config.k + 1):
            rows.append(("sum_squares_contribution", "gamma", j, update.contributions[j], None))
        body.append("")
        body.append("gamma precision posterior:")
        body.append(f"  shape {_r(update.alpha)}, rate {_r(update.beta)}")
        body.append(
            f"  mean precision {stats.mean:.6f} (sd equivalent {_r(stats.sd_equivalent)})"
        )
        if sd_threshold is not None:
            prior = _precision_prior_from(doc["precision_prior"], need_assurance=False)
            prior_stats = precision_summary(prior, threshold=1.0 / float(sd_threshold) ** 2)
            rows.append(("prob_sd_above", "gamma_posterior", repr(float(sd_threshold)), stats.prob_below, None))
            rows.append(("prob_sd_above", "gamma_prior", repr(float(sd_threshold)), prior_stats.prob_below, None))
            body.append(
                f"  P(response sd above {_r(sd_threshold)}): {_r(stats.prob_below)}"
                f" (prior {_r(prior_stats.prob_below)})"
            )

    if mc is not None:
        all_thresholds = [float(config.delta_star)] + extra_thresholds
        for name, precision in variants:
            draws = posterior_probs(summary, precision, all_thresholds, mc)
            for j in range(1, config.k + 1):
                est = draws.superior[j - 1]
                rows.append(("prob_superior", name + "_mc", j, est.estimate, est.se))
            rows.append(
                ("prob_any_superior", name + "_mc", "", draws.any_superior.estimate, draws.any_superior.se)
            )
            for c, est in zip(all_thresholds, draws.all_below):
                rows.append(("prob_all_below", name + "_mc", repr(float(c)), est.estimate, est.se))
        body.append("")
        body.append(
            f"Monte Carlo cross-check: {mc.n_draws} draws, seed {mc.seed}"
            f"{', antithetic' if mc.antithetic else ''} (see CSV for estimates)"
        )

    resolved = {
        "command": "analyze",
        "design": _resolved_design(config),
        "data": _resolved_data(data),
        "precision_prior": None
        if "precision_prior" not in doc
        else {
            "alpha": float(doc["precision_prior"]["alpha"]),
            "beta": float(doc["precision_prior"]["beta"]),
        },
        "analysis": {"thresholds": extra_thresholds, "sd_threshold": sd_threshold},
        "monte_carlo": _resolved_mc(mc),
    }

    emitter = _Emitter(Path(args.out), args.format)
    emitter.csv("analysis.csv", header, rows)
    emitter.report("analysis_report.txt", "posterior decision analysis", resolved, body)
    emitter.announce()
    return 0


def _cmd_dunnett(args: argparse.Namespace) -> int:
    doc = load_config(Path(args.config))
    design_sec = _require(doc, "design", "dunnett")
    dn = _require(doc, "dunnett", "dunnett")
    config = DunnettConfig(
        k=design_sec["k"],
        alpha=dn["alpha"],
        power=dn["power"],
        delta_star=design_sec["delta_star"],
        sigma=dn["sigma"],
        allocation=dn.get("allocation", "equal"),
    )
    design = dunnett_design(config)

    rows: list[tuple[Any, ...]] = [
        ("critical", "", design.critical),
        ("rho", "", design.rho),
        ("total", "", design.total),
    ]
    rows.extend(("n", j, design.n[j]) for j in range(config.k + 1))
    rows.extend(("fractional_n", j, design.fractional_n[j]) for j in range(config.k + 1))

    body = [
        f"one-sided familywise error: {_r(config.alpha)}",
        f"power at the worthwhile effect: {_r(config.power)}",
        f"critical value: {_r(design.critical)}",
        f"contrast correlation: {_r(design.rho)}",
        f"arm sizes, control first: {design.n}",
        f"fractional arm sizes: {_rseq(design.fractional_n)}",
        f"total sample size: {design.total}",
    ]

    resolved: dict[str, Any] = {
        "command": "dunnett",
        "design": {"k": config.k, "delta_star": config.delta_star},
        "dunnett": {
            "alpha": config.alpha,
            "power": config.power,
            "sigma": config.sigma,
            "allocation": config.allocation,
        },
    }

    if "data" in doc:
        data = _data_from(doc["data"])
        if data.k != config.k:
            raise DomainError(f"data covers {data.k} treatments but design.k = {config.k}")
        z_planned = z_statistics(data, sigma=config.sigma)
        z_pooled = z_statistics_pooled(data)
        pooled_sds = tuple(pooled_pair_sd(data, j) for j in range(1, config.k + 1))
        z_star = float(dn.get("z_star", max(z_pooled)))
        p_value = dunnett_pvalue(data, z_star)
        rows.extend(("z_fixed_sd", j, z_planned[j - 1]) for j in range(1, config.k + 1))
        rows.extend(("pooled_sd", j, pooled_sds[j - 1]) for j in range(1, config.k + 1))
        rows.extend(("z_pooled", j, z_pooled[j - 1]) for j in range(1, config.k + 1))
        rows.append(("z_star", "", z_star))
        rows.append(("p_value", "", p_value))
        body.extend(
            [
                "",
                f"contrasts at the planning sd: {_rseq(z_planned)}",
                f"per-pair pooled sds: {_rseq(pooled_sds)}",
                f"contrasts at the pooled sds: {_rseq(z_pooled)}",
                f"observed maximum: {_r(z_star)}"
                if "z_star" not in dn
                else f"reference statistic: {_r(z_star)}",
                f"p-value for the best-looking treatment: {p_value:.4e}",
            ]
        )
        resolved["data"] = _resolved_data(data)
        resolved["dunnett"]["z_star"] = z_star

    emitter = _Emitter(Path(args.out), args.format)
    emitter.csv("dunnett.csv", ("quantity", "arm", "value"), rows)
    emitter.report("dunnett_report.txt", "frequentist comparator", resolved, body)
    emitter.announce()
    return 0


def _cmd_boundary(args: argparse.Namespace) -> int:
    doc = load_config(Path(args.config))
    config = _design_from(_require(doc, "design", "boundary"), need_v=True)
    if config.k != 2:
        raise UnsupportedConfigurationError(
            "boundary curves are only available for k = 2; for other k use the "
            "per-treatment promising thresholds reported by design-known"
        )
    criterion = Criterion(args.criterion)
    design = optimal_design(config, criterion)
    grid = None
    bsec = doc.get("boundary")
    if bsec is not None:
        start, stop, count = bsec["start"], bsec["stop"], bsec["points"]
        grid = [start + (stop - start) * i / (count - 1) for i in range(count)]
    curve = boundary_curve(config, design, grid=grid)
    t1, t2 = curve.promising_thresholds
    s1, s2 = _pair_sigmas(config, design)
    z_zeta = normal_quantile(config.zeta)
    asymptotes = (config.delta_star - z_zeta * s1, config.delta_star - z_zeta * s2)

    # The proceed region's edge is an L through the threshold corner;
    # criterion 1 needs both treatments promising, criterion 2 any one.
    span1, span2 = 6.0 * s1, 6.0 * s2
    if criterion is Criterion.ALL_PROMISING:
        proceed = ((t1, t2 + span2), (t1, t2), (t1 + span1, t2))
    else:
        proceed = ((t1, t2 - span2), (t1, t2), (t1 - span1, t2))

    rows: list[tuple[Any, ...]] = [("Proceed", x, y) for x, y in proceed]
    rows.extend(("Abandon", x, y) for x, y in curve.points)

    body = [
        f"criterion: {criterion.value} ({criterion.name})",
        f"arm sizes, control first: {design.n}",
        f"promising thresholds: {_r(t1)}, {_r(t2)}",
        f"abandonment asymptotes: {_r(asymptotes[0])}, {_r(asymptotes[1])}",
        f"abandonment curve points: {len(curve.points)}",
    ]
    resolved = {
        "command": "boundary",
        "criterion": criterion.value,
        "design": _resolved_design(config),
        "boundary": None if bsec is None else dict(bsec),
    }

    emitter = _Emitter(Path(args.out), args.format)
    emitter.csv(
        "boundary.csv",
        ("boundary", "delta11", "delta12"),
        rows,
        preamble=(f"# criterion={criterion.value}",),
    )
    emitter.report("boundary_report.txt", "stop/go boundary", resolved, body)
    emitter.announce()
    return 0


def _cmd_reproduce_tables(args: argparse.Namespace) -> int:
    data = datasets.case_study_data()
    config = datasets.case_study_config()

    exp_ns = data.n[1:]
    exp_label = (
        str(exp_ns[0])
        if len(set(exp_ns)) == 1
        else f"{min(exp_ns)}-{max(exp_ns)}"
    )
    computed: dict[str, tuple[str, str, str]] = {
        "conducted_trial": (exp_label, str(data.n[0]), str(data.total))
    }
    freq = dunnett_design(datasets.case_study_frequentist_config())
    computed["frequentist_equal"] = (str(freq.n[1]), str(freq.n[0]), str(freq.total))
    for label, criterion in (
        ("criterion_1", Criterion.ALL_PROMISING),
        ("criterion_2", Criterion.ANY_PROMISING),
    ):
        d = optimal_design(config, criterion)
        computed[label] = (str(d.n[1]), str(d.n[0]), str(d.total))

    comp_header = (
        "label",
        "n_experimental",
        "n_control",
        "total",
        "expected_experimental",
        "expected_control",
        "expected_total",
        "match",
    )
    comp_rows = []
    comp_pass = 0
    for label, exp_e, ctl_e, total_e in datasets.REFERENCE_COMPARATIVE_DESIGNS:
        got = computed[label]
        want = (str(exp_e), str(ctl_e), str(total_e))
        ok = got == want
        comp_pass += ok
        comp_rows.append((label, *got, *want, "pass" if ok else "fail"))

    assured_header = (
        "prior_alpha",
        "prior_beta",
        "assurance",
        "criterion",
        "n_experimental",
        "n_control",
        "total",
        "expected_experimental",
        "expected_control",
        "expected_total",
        "match",
    )
    assured_rows = []
    assured_pass = 0
    for alpha, beta, assurance, want_c1, want_c2 in datasets.REFERENCE_ASSURED_DESIGNS:
        prior = PrecisionPrior(alpha=alpha, beta=beta, assurance=assurance)
        for criterion, want in (
            (Criterion.ALL_PROMISING, want_c1),
            (Criterion.ANY_PROMISING, want_c2),
        ):
            d = assured_design(config, prior, criterion)
            got = (d.n[1], d.n[0], d.total)
            ok = got == want
            assured_pass += ok
            assured_rows.append(
                (alpha, beta, assurance, criterion.value, *got, *want, "pass" if ok else "fail")
            )

    resolved = {"command": "reproduce-tables"}
    body = [
        f"comparative designs: {comp_pass}/{len(comp_rows)} rows match",
        f"assurance designs: {assured_pass}/{len(assured_rows)} rows match",
    ]
    for row in comp_rows + assured_rows:
        if row[-1] == "fail":
            body.append(f"  mismatch: {row}")

    emitter = _Emitter(Path(args.out), args.format)
    emitter.csv("comparative_designs.csv", comp_header, comp_rows)
    emitter.csv("assured_designs.csv", assured_header, assured_rows)
    emitter.report("reproduce_tables_report.txt", "reference design tables", resolved, body)
    emitter.announce()
    return 0


_COMMANDS = {
    "design-known": _cmd_design_known,
    "design-unknown": _cmd_design_unknown,
    "analyze": _cmd_analyze,
    "dunnett": _cmd_dunnett,
    "boundary": _cmd_boundary,
    "reproduce-tables": _cmd_reproduce_tables,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiarm",
        description="Bayesian sample sizes and decision analysis for "
        "multi-arm trials with a shared control.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--criterion",
        type=int,
        choices=(1, 2),
        default=1,
        help="1: every treatment must be decidable; 2: at least one (default 1)",
    )
    common.add_argument(
        "--seed", type=int, default=None, help="override the Monte Carlo seed"
    )
    common.add_argument(
        "--out", default=".", help="output directory, created if missing (default .)"
    )
    common.add_argument(
        "--format",
        choices=("csv", "report", "both"),
        default="both",
        help="which outputs to write (default both)",
    )

    specs = (
        ("design-known", "size a trial with known response precision", True),
        ("design-unknown", "size a trial under a gamma precision prior", True),
        ("analyze", "posterior decision analysis of observed arm summaries", True),
        ("dunnett", "frequentist many-to-one comparator", True),
        ("boundary", "stop/go boundary polylines for a two-treatment design", True),
        ("reproduce-tables", "regenerate the bundled reference design tables", False),
    )
    for name, help_text, needs_config in specs:
        sub = subparsers.add_parser(name, parents=[common], help=help_text)
        if needs_config:
            sub.add_argument("--config", required=True, help="JSON run configuration")
        else:
            sub.add_argument("--config", required=False, help=argparse.SUPPRESS)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NumericError, InfeasibleDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, UnsupportedConfigurationError, DataInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except jsonschema.ValidationError as exc:
        where = "/".join(str(part) for part in exc.absolute_path) or "(top level)"
        print(f"error: config {where}: {exc.message}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
