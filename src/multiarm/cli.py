"""Command line front end.

Six subcommands wrap the library: ``design-known`` and ``design-unknown``
size a trial (fixed or gamma-distributed response precision), ``analyze``
runs the posterior decision analysis on observed arm summaries,
``dunnett`` computes the frequentist many-to-one comparator, ``boundary``
traces the stop/go geometry of a two-treatment design, and
``reproduce-tables`` regenerates the reference designs bundled in
:mod:`multiarm.datasets`.

Each subcommand takes only the flags it reads. All take ``--out`` and
``--format``; ``design-known``, ``design-unknown`` and ``boundary`` add
``--config`` and ``--criterion``, ``analyze`` adds ``--config`` and
``--seed``, ``dunnett`` adds ``--config``, and ``reproduce-tables`` adds
nothing.

All numeric inputs arrive through a single JSON configuration file (the
schema is documented in the README and enforced here; unknown keys are
rejected). A subcommand computes its result without touching the file
system; :func:`main` alone loads the configuration, writes the outputs and
maps errors to exit codes, so a command that fails writes nothing.
Reports are plain text rounded to four decimal places and echo the fully
resolved configuration; CSV outputs carry full-precision ``repr`` values
so repeated runs with the same config and seed are byte-identical.

Exit status: 0 on success, 2 on any configuration or validation error,
3 when a computation fails numerically or the requested design is
infeasible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NoReturn, Sequence

from . import datasets
from .design_known import (
    _pairwise_information,
    borderline_threshold,
    boundary_curve,
    optimal_design,
)
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


def _object(required: Sequence[str] = (), **properties: dict) -> dict:
    """Schema of a JSON object; keys it does not name are rejected."""
    schema: dict[str, Any] = {"type": "object", "additionalProperties": False}
    if required:
        schema["required"] = list(required)
    schema["properties"] = properties
    return schema


_NUMBER = {"type": "number"}
_NUMBERS = {"type": "array", "items": _NUMBER}

# Structural validation only; value constraints live in the dataclasses
# so the library and the CLI cannot drift apart.
_SCHEMA = _object(
    design=_object(
        ("k", "delta_star", "eta", "zeta", "priors"),
        k={"type": "integer", "minimum": 1},
        delta_star=_NUMBER,
        eta=_NUMBER,
        zeta=_NUMBER,
        priors={
            "type": "array",
            "minItems": 2,
            "items": _object(("mean",), mean=_NUMBER, information={"type": "number", "minimum": 0}),
        },
        v=_NUMBER,
        sd=_NUMBER,
        allocation=_NUMBER,
    ),
    precision_prior=_object(("alpha", "beta"), alpha=_NUMBER, beta=_NUMBER, assurance=_NUMBER),
    data=_object(
        ("n", "mean"),
        n={"type": "array", "minItems": 2, "items": {"type": "integer", "minimum": 0}},
        mean=_NUMBERS,
        ss=_NUMBERS,
        sd=_NUMBERS,
        se=_NUMBERS,
    ),
    dunnett=_object(
        ("alpha", "power", "sigma"),
        alpha=_NUMBER,
        power=_NUMBER,
        sigma=_NUMBER,
        allocation={"oneOf": [{"type": "string", "enum": ["equal", "sqrt_k"]}, _NUMBER]},
        z_star=_NUMBER,
    ),
    analysis=_object(thresholds=_NUMBERS, sd_threshold=_NUMBER),
    boundary=_object(
        ("start", "stop", "points"),
        start=_NUMBER,
        stop=_NUMBER,
        points={"type": "integer", "minimum": 2},
    ),
    monte_carlo=_object(
        ("seed",),
        seed={"type": "integer", "minimum": 0},
        n_draws={"type": "integer", "minimum": 2},
        antithetic={"type": "boolean"},
    ),
)


# JSON Schema 2020-12's types: a bool is neither a number nor an integer,
# and a float with no fractional part is an integer.
_IS_TYPE = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool)
    or isinstance(x, float) and x.is_integer(),
}


def _validate(node: Any, schema: dict, where: str = "") -> None:
    """Check a parsed config against ``schema`` in one pass, with the JSON
    Schema 2020-12 meaning of the keywords ``_SCHEMA`` uses, and reject
    integers too large to become floats. Raises ``DomainError`` naming the
    path of the first fault found."""

    def fail(reason: str) -> NoReturn:
        raise DomainError(f"config {where or '(top level)'}: {reason}")

    if isinstance(node, int) and abs(node) > sys.float_info.max:
        fail("integer beyond the float range")
    if "type" in schema and not _IS_TYPE[schema["type"]](node):
        fail(f"{node!r} is not of type {schema['type']!r}")
    if "enum" in schema and node not in schema["enum"]:
        fail(f"{node!r} is not one of {schema['enum']!r}")
    if "minimum" in schema and _IS_TYPE["number"](node) and node < schema["minimum"]:
        fail(f"{node!r} is less than the minimum of {schema['minimum']!r}")
    if "oneOf" in schema:
        matches = 0
        for branch in schema["oneOf"]:
            try:
                _validate(node, branch, where)
                matches += 1
            except DomainError:
                pass
        if matches != 1:
            fail(f"{node!r} matches {matches} of the allowed forms, not exactly one")
    prefix = f"{where}/" if where else ""
    if isinstance(node, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in node:
                fail(f"{key!r} is a required property")
        for key, value in node.items():
            if key in properties:
                _validate(value, properties[key], f"{prefix}{key}")
            elif schema.get("additionalProperties") is False:
                fail(f"unknown key {key!r}")
    if isinstance(node, list):
        if len(node) < schema.get("minItems", 0):
            fail(f"needs at least {schema['minItems']} items, got {len(node)}")
        for i, item in enumerate(node):
            _validate(item, schema.get("items", {}), f"{prefix}{i}")


def load_config(path: Path) -> dict:
    """Read and schema-validate a JSON run configuration."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    _validate(doc, _SCHEMA)
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
        square = sd * sd
        v = 1.0 / square if square > 0.0 else math.inf
        if not (sd > 0.0 and 0.0 < v < math.inf):
            raise DomainError(
                f"design: sd must be > 0 with 1 / sd**2 a finite nonzero precision, got {sd!r}"
            )
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


def _data_from(section: dict) -> tuple[TrialData, dict]:
    """The trial data and its echo for the report, which gives raw sums of
    squared responses as the ``ss`` key takes them."""
    n, mean = section["n"], section["mean"]
    given = [key for key in ("ss", "sd", "se") if key in section]
    if len(given) != 1:
        raise DomainError("data: give exactly one of 'ss', 'sd' or 'se'")
    key, spread = given[0], section[given[0]]
    if not (len(n) == len(mean) == len(spread)):
        raise DomainError("data: 'n', 'mean' and the spread array must have equal length")
    if key == "se":
        spread = [s * math.sqrt(nj) for s, nj in zip(spread, n)]
    if key == "ss":
        data = TrialData.from_sums(n=n, mean=mean, ss=spread)
    else:
        data = TrialData.from_moments(n=n, mean=mean, sd=spread)
    ss = [w + nj * m * m for nj, m, w in zip(data.n, data.mean, data.within_ss)]
    for j, (m, total) in enumerate(zip(data.mean, ss)):
        if math.isinf(total):
            raise DomainError(f"data: arm {j}: mean {m!r} overflows the sum of squares")
    return data, {"n": list(data.n), "mean": list(data.mean), "ss": ss}


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


@dataclass(frozen=True)
class _Output:
    """What a subcommand computed: the report's title, resolved-config echo
    (without the command name) and body lines, and the CSV tables as
    ``{file name: rows in file order}``."""

    title: str
    resolved: dict
    lines: list[str]
    tables: dict[str, list[Sequence[Any]]]


_ARM_HEADER = ("quantity", "arm", "value")


def _arms(quantity: str, values: Sequence, first: int = 0, variant: str | None = None) -> list:
    """One CSV row per arm, numbered from ``first``: (quantity, arm, value),
    or (quantity, variant, arm, value, se) with no se when ``variant`` is
    given."""
    if variant is None:
        return [(quantity, j, x) for j, x in enumerate(values, first)]
    return [(quantity, variant, j, x, None) for j, x in enumerate(values, first)]


def _sizing(criterion: Criterion, design: DesignResult, info: str, unit: str, *,
            rows: Sequence[tuple] = (), lines: Sequence[str] = ()) -> tuple[list, list[str]]:
    """CSV rows and report lines both sizing commands share; ``rows`` go
    after the total and ``lines`` after the criterion."""
    out_rows = [
        ("criterion", "", criterion.value),
        ("information_target", "", design.information_target),
        ("achieved_information", "", design.achieved_information),
        ("total", "", design.total),
        *rows,
        *_arms("n", design.n),
    ]
    out_lines = [
        f"criterion: {criterion.value} ({criterion.name})",
        *lines,
        f"{info} target ({unit}): {_r(design.information_target)}",
        f"achieved {info} ({unit}): {_r(design.achieved_information)}",
    ]
    if design.fractional_n is not None:
        out_rows += _arms("fractional_n", design.fractional_n)
        out_lines.append(f"fractional arm sizes: {_rseq(design.fractional_n)}")
    out_lines += [f"arm sizes, control first: {design.n}", f"total sample size: {design.total}"]
    return out_rows, out_lines


def _pair_information(config: DesignConfig, design: DesignResult) -> list[float]:
    """Posterior information on each effect once the design is enrolled,
    in patient-equivalents; none for an arm that has no information."""
    q = [p.information + n for p, n in zip(config.priors, design.n)]
    return [_pairwise_information(q[0], qj) for qj in q[1:]]


def _design_known(doc: dict, args: argparse.Namespace) -> _Output:
    config = _design_from(_require(doc, "design", "design-known"), need_v=True)
    criterion = Criterion(args.criterion)
    design = optimal_design(config, criterion)
    thresholds = []
    for j, pair in enumerate(_pair_information(config, design), 1):
        try:
            thresholds.append(borderline_threshold(config, pair))
        except DomainError as exc:
            raise DomainError(f"arm {j}: {exc}") from None

    rows, lines = _sizing(criterion, design, "information", "standardised")
    rows += _arms(
        "posterior_information", [p.information + n for p, n in zip(config.priors, design.n)]
    )
    rows += _arms("promising_threshold", thresholds, 1)
    lines.append(f"promising thresholds per treatment: {_rseq(thresholds)}")
    resolved = {"criterion": criterion.value, "design": _resolved_design(config)}
    return _Output(
        "trial design, known precision", resolved, lines, {"design_known.csv": [_ARM_HEADER, *rows]}
    )


def _design_unknown(doc: dict, args: argparse.Namespace) -> _Output:
    config = _design_from(_require(doc, "design", "design-unknown"), need_v=False)
    prior = _precision_prior_from(
        _require(doc, "precision_prior", "design-unknown"), need_assurance=True
    )
    criterion = Criterion(args.criterion)
    design = assured_design(config, prior, criterion)
    met = assured_criterion_met(design.n, config, prior, criterion)

    rows, lines = _sizing(criterion, design, "pairwise information", "patients",
                          rows=[("criterion_met", "", met)],
                          lines=[f"assurance level: {_r(prior.assurance)}"])
    lines.append(f"direct criterion check: {'met' if met else 'NOT met'}")
    resolved = {
        "criterion": criterion.value,
        "design": _resolved_design(config),
        "precision_prior": {
            "alpha": prior.alpha,
            "beta": prior.beta,
            "assurance": prior.assurance,
        },
    }
    return _Output(
        "trial design, uncertain precision",
        resolved,
        lines,
        {"design_unknown.csv": [_ARM_HEADER, *rows]},
    )


def _analysis_variants(
    config: DesignConfig,
    data: TrialData,
    prior: PrecisionPrior | None,
) -> tuple[list[tuple[str, Any]], Any, list[str]]:
    """Assemble the precision models the config supports.

    Returns (variants, gamma update or None, notes for the report).
    """
    variants: list[tuple[str, Any]] = []
    notes: list[str] = []
    if config.v is not None:
        variants.append(("common", KnownPrecision(config.v)))
    if all(nj >= 2 for nj in data.n):
        variances = [data.sample_variance(j) for j in range(config.k + 1)]
        if all(var > 0.0 for var in variances):
            variants.append(("per_arm", PerArmPrecision(tuple(1.0 / var for var in variances))))
        else:
            notes.append("per-arm variant skipped: an arm has zero sample variance")
    else:
        notes.append("per-arm variant skipped: every arm needs n >= 2")
    update = None
    if prior is not None:
        update = update_precision(config.priors, prior, data)
        variants.append(("gamma", GammaPrecision(update.alpha, update.beta)))
    if not variants:
        raise DomainError(
            "analyze: no precision model available; set design.v (or design.sd), "
            "provide data with n >= 2 on every arm, or add a precision_prior section"
        )
    return variants, update, notes


def _analyze(doc: dict, args: argparse.Namespace) -> _Output:
    config = _design_from(_require(doc, "design", "analyze"), need_v=False)
    data, data_echo = _data_from(_require(doc, "data", "analyze"))
    summary = update_posterior(config.priors, data)
    analysis = doc.get("analysis", {})
    extra_thresholds = [float(c) for c in analysis.get("thresholds", [])]
    sd_threshold = analysis.get("sd_threshold")
    if sd_threshold is not None and not (0.0 < sd_threshold < math.inf):
        raise DomainError(
            f"analysis.sd_threshold must be positive and finite, got {sd_threshold!r}"
        )
    mc = _mc_from(doc, args.seed)
    prior = None
    if "precision_prior" in doc:
        prior = _precision_prior_from(doc["precision_prior"], need_assurance=False)
    variants, update, notes = _analysis_variants(config, data, prior)
    k = config.k

    rows = [
        ("quantity", "variant", "index", "value", "se"),
        *_arms("posterior_information", summary.information, 0, ""),
        *_arms("posterior_mean", summary.mean, 0, ""),
        *_arms("effect", summary.effects, 1, ""),
        *_arms("pair_information", summary.pair_information, 1, ""),
    ]
    best = max(range(1, k + 1), key=lambda j: summary.effects[j - 1])
    rows.append(("best_arm", "", "", best, None))

    lines = [
        f"arms: control and {k} treatments",
        "posterior information, control first: " + _rseq(summary.information),
        "posterior means, control first: " + _rseq(summary.mean),
        "effects vs control: " + _rseq(summary.effects),
        f"treatment with the largest posterior effect: arm {best}",
        *notes,
    ]

    for name, precision in variants:
        decision = decide(summary, precision, config)
        below = [(c, prob_all_below(summary, precision, c)) for c in extra_thresholds]
        better = {
            j: prob_pairwise_better(summary, precision, j, best)
            for j in range(1, k + 1)
            if j != best
        }
        rows += _arms("prob_superior", decision.prob_superior, 1, name)
        rows.append(("prob_any_superior", name, "", decision.prob_any_superior, None))
        rows += [
            ("prob_all_below", name, repr(float(c)), p, None)
            for c, p in [(config.delta_star, decision.prob_all_below), *below]
        ]
        rows += _arms("promising", [j in decision.promising for j in range(1, k + 1)], 1, name)
        rows.append(("abandon", name, "", decision.abandon, None))
        rows.append(("outcome", name, "", decision.outcome.name, None))
        rows += [("prob_better_than_best", name, j, p, None) for j, p in better.items()]

        promising = " ".join(str(j) for j in decision.promising) or "none"
        abandon = "yes" if decision.abandon else "no"
        lines += [
            "",
            f"precision model '{name}':",
            "  P(treatment beats control): " + _rseq(decision.prob_superior),
            f"  P(any treatment beats control): {_r(decision.prob_any_superior)}",
            f"  P(all effects below {_r(config.delta_star)}): {_r(decision.prob_all_below)}",
            *(f"  P(all effects below {_r(c)}): {_r(p)}" for c, p in below),
            f"  P(arm j beats arm {best}): "
            + ", ".join(f"arm {j} {_r(p)}" for j, p in sorted(better.items())),
            f"  promising treatments (eta = {_r(config.eta)}): {promising}",
            f"  abandon indicated (zeta = {_r(config.zeta)}): {abandon}",
            f"  outcome: {decision.outcome.name}",
        ]

    if update is not None:
        threshold = None
        if sd_threshold is not None:
            # 1 / sd**2 can leave the float range; the tail is then 1 or 0.
            square = sd_threshold * sd_threshold
            threshold = math.inf if square == 0.0 else max(1.0 / square, math.ulp(0.0))
        stats = precision_summary(update, threshold=threshold)
        rows += [
            ("precision_alpha", "gamma", "", update.alpha, None),
            ("precision_beta", "gamma", "", update.beta, None),
            ("precision_mean", "gamma", "", stats.mean, None),
            ("sd_equivalent", "gamma", "", stats.sd_equivalent, None),
            *_arms("sum_squares_contribution", update.contributions, 0, "gamma"),
        ]
        lines += [
            "",
            "gamma precision posterior:",
            f"  shape {_r(update.alpha)}, rate {_r(update.beta)}",
            f"  mean precision {stats.mean:.6f} (sd equivalent {_r(stats.sd_equivalent)})",
        ]
        if sd_threshold is not None:
            prior_stats = precision_summary(prior, threshold=threshold)
            index = repr(float(sd_threshold))
            rows.append(("prob_sd_above", "gamma_posterior", index, stats.prob_below, None))
            rows.append(("prob_sd_above", "gamma_prior", index, prior_stats.prob_below, None))
            lines.append(
                f"  P(response sd above {_r(sd_threshold)}): {_r(stats.prob_below)}"
                f" (prior {_r(prior_stats.prob_below)})"
            )

    if mc is not None:
        all_thresholds = [float(config.delta_star)] + extra_thresholds
        for name, precision in variants:
            draws = posterior_probs(summary, precision, all_thresholds, mc)
            for j, est in enumerate(draws.superior, 1):
                rows.append(("prob_superior", name + "_mc", j, est.estimate, est.se))
            est = draws.any_superior
            rows.append(("prob_any_superior", name + "_mc", "", est.estimate, est.se))
            for c, est in zip(all_thresholds, draws.all_below):
                rows.append(("prob_all_below", name + "_mc", repr(float(c)), est.estimate, est.se))
        lines += [
            "",
            f"Monte Carlo cross-check: {mc.n_draws} draws, seed {mc.seed}"
            f"{', antithetic' if mc.antithetic else ''} (see CSV for estimates)",
        ]

    resolved = {
        "design": _resolved_design(config),
        "data": data_echo,
        "precision_prior": None
        if prior is None
        else {"alpha": float(prior.alpha), "beta": float(prior.beta)},
        "analysis": {"thresholds": extra_thresholds, "sd_threshold": sd_threshold},
        "monte_carlo": None
        if mc is None
        else {"seed": mc.seed, "n_draws": mc.n_draws, "antithetic": mc.antithetic},
    }
    return _Output("posterior decision analysis", resolved, lines, {"analysis.csv": rows})


def _dunnett(doc: dict, args: argparse.Namespace) -> _Output:
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

    rows = [
        _ARM_HEADER,
        ("critical", "", design.critical),
        ("rho", "", design.rho),
        ("total", "", design.total),
        *_arms("n", design.n),
        *_arms("fractional_n", design.fractional_n),
    ]
    lines = [
        f"one-sided familywise error: {_r(config.alpha)}",
        f"power at the worthwhile effect: {_r(config.power)}",
        f"critical value: {_r(design.critical)}",
        f"contrast correlation: {_r(design.rho)}",
        f"arm sizes, control first: {design.n}",
        f"fractional arm sizes: {_rseq(design.fractional_n)}",
        f"total sample size: {design.total}",
    ]
    resolved: dict[str, Any] = {
        "design": {"k": config.k, "delta_star": config.delta_star},
        "dunnett": {
            "alpha": config.alpha,
            "power": config.power,
            "sigma": config.sigma,
            "allocation": config.allocation,
        },
    }

    if "data" in doc:
        data, data_echo = _data_from(doc["data"])
        if data.k != config.k:
            raise DomainError(f"data covers {data.k} treatments but design.k = {config.k}")
        z_planned = z_statistics(data, sigma=config.sigma)
        z_pooled = z_statistics_pooled(data)
        pooled_sds = tuple(pooled_pair_sd(data, j) for j in range(1, config.k + 1))
        z_star = float(dn.get("z_star", max(z_pooled)))
        p_value = dunnett_pvalue(data, z_star)
        rows += [
            *_arms("z_fixed_sd", z_planned, 1),
            *_arms("pooled_sd", pooled_sds, 1),
            *_arms("z_pooled", z_pooled, 1),
            ("z_star", "", z_star),
            ("p_value", "", p_value),
        ]
        star = "reference statistic" if "z_star" in dn else "observed maximum"
        lines += [
            "",
            f"contrasts at the planning sd: {_rseq(z_planned)}",
            f"per-pair pooled sds: {_rseq(pooled_sds)}",
            f"contrasts at the pooled sds: {_rseq(z_pooled)}",
            f"{star}: {_r(z_star)}",
            f"p-value for the best-looking treatment: {p_value:.4e}",
        ]
        resolved["data"] = data_echo
        resolved["dunnett"]["z_star"] = z_star

    return _Output("frequentist comparator", resolved, lines, {"dunnett.csv": rows})


def _boundary(doc: dict, args: argparse.Namespace) -> _Output:
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
        start, stop, count = bsec["start"], bsec["stop"], int(bsec["points"])
        grid = [start + (stop - start) * i / (count - 1) for i in range(count)]
    curve = boundary_curve(config, design, grid=grid)
    t1, t2 = curve.promising_thresholds
    s1, s2 = (1.0 / math.sqrt(pair * config.v) for pair in _pair_information(config, design))
    z_zeta = normal_quantile(config.zeta)
    asymptotes = (config.delta_star - z_zeta * s1, config.delta_star - z_zeta * s2)

    # The proceed region's edge is an L through the threshold corner;
    # criterion 1 needs both treatments promising, criterion 2 any one.
    span1, span2 = 6.0 * s1, 6.0 * s2
    if criterion is Criterion.ALL_PROMISING:
        proceed = ((t1, t2 + span2), (t1, t2), (t1 + span1, t2))
    else:
        proceed = ((t1, t2 - span2), (t1, t2), (t1 - span1, t2))

    rows = [
        (f"# criterion={criterion.value}",),
        ("boundary", "delta11", "delta12"),
        *(("Proceed", x, y) for x, y in proceed),
        *(("Abandon", x, y) for x, y in curve.points),
    ]
    lines = [
        f"criterion: {criterion.value} ({criterion.name})",
        f"arm sizes, control first: {design.n}",
        f"promising thresholds: {_r(t1)}, {_r(t2)}",
        f"abandonment asymptotes: {_r(asymptotes[0])}, {_r(asymptotes[1])}",
        f"abandonment curve points: {len(curve.points)}",
    ]
    resolved = {
        "criterion": criterion.value,
        "design": _resolved_design(config),
        "boundary": None if bsec is None else dict(bsec),
    }
    return _Output("stop/go boundary", resolved, lines, {"boundary.csv": rows})


def _match_row(lead: tuple, got: tuple, want: tuple) -> tuple:
    return (*lead, *got, *want, "pass" if got == want else "fail")


def _reproduce_tables(doc: dict, args: argparse.Namespace) -> _Output:
    data = datasets.case_study_data()
    config = datasets.case_study_config()

    exp_ns = data.n[1:]
    exp_label = str(exp_ns[0]) if len(set(exp_ns)) == 1 else f"{min(exp_ns)}-{max(exp_ns)}"
    freq = dunnett_design(datasets.case_study_frequentist_config())
    computed = {
        "conducted_trial": (exp_label, data.n[0], data.total),
        "frequentist_equal": (freq.n[1], freq.n[0], freq.total),
    }
    for criterion in Criterion:
        d = optimal_design(config, criterion)
        computed[f"criterion_{criterion.value}"] = (d.n[1], d.n[0], d.total)
    comp_rows = [
        _match_row((label,), tuple(map(str, computed[label])), tuple(map(str, want)))
        for label, *want in datasets.REFERENCE_COMPARATIVE_DESIGNS
    ]

    assured_rows = []
    for alpha, beta, assurance, *wants in datasets.REFERENCE_ASSURED_DESIGNS:
        prior = PrecisionPrior(alpha=alpha, beta=beta, assurance=assurance)
        for criterion, want in zip(Criterion, wants):
            d = assured_design(config, prior, criterion)
            lead = (alpha, beta, assurance, criterion.value)
            assured_rows.append(_match_row(lead, (d.n[1], d.n[0], d.total), want))

    lines = [
        f"{what} designs: {sum(r[-1] == 'pass' for r in rows)}/{len(rows)} rows match"
        for what, rows in (("comparative", comp_rows), ("assurance", assured_rows))
    ]
    lines += [f"  mismatch: {row}" for row in comp_rows + assured_rows if row[-1] == "fail"]

    sizes = ("n_experimental", "n_control", "total")
    expected = ("expected_experimental", "expected_control", "expected_total")
    tables = {
        "comparative_designs.csv": [("label", *sizes, *expected, "match"), *comp_rows],
        "assured_designs.csv": [
            ("prior_alpha", "prior_beta", "assurance", "criterion", *sizes, *expected, "match"),
            *assured_rows,
        ],
    }
    return _Output("reference design tables", {}, lines, tables)


def _write(args: argparse.Namespace, result: _Output) -> None:
    """Write the outputs ``--format`` selects, then name each file written."""
    texts = {}
    if args.format != "report":
        for name, rows in result.tables.items():
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(
                [_fmt_cell(cell) for cell in row] for row in rows
            )
            texts[name] = buf.getvalue()
    if args.format != "csv":
        resolved = {"command": args.command, **result.resolved}
        lines = [result.title, "=" * len(result.title), "", "resolved configuration:"]
        echo = json.dumps(resolved, indent=2, sort_keys=True).splitlines()
        lines += ["  " + line for line in echo]
        lines += ["", *result.lines]
        texts[f"{args.stem}_report.txt"] = "\n".join(lines) + "\n"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    for name in texts:
        print(f"wrote {out / name}")


_FLAGS: dict[str, dict[str, Any]] = {
    "--config": {"required": True, "help": "JSON run configuration"},
    "--criterion": {
        "type": int,
        "choices": (1, 2),
        "default": 1,
        "help": "1: every treatment must be decidable; 2: at least one (default 1)",
    },
    "--seed": {"type": int, "default": None, "help": "override the Monte Carlo seed"},
    "--out": {"default": ".", "help": "output directory, created if missing (default .)"},
    "--format": {
        "choices": ("csv", "report", "both"),
        "default": "both",
        "help": "which outputs to write (default both)",
    },
}

_SIZING_FLAGS = ("--config", "--criterion")

# (subcommand, compute, report stem, help, flags besides --out and --format)
_COMMANDS = (
    ("design-known", _design_known, "design_known",
     "size a trial with known response precision", _SIZING_FLAGS),
    ("design-unknown", _design_unknown, "design_unknown",
     "size a trial under a gamma precision prior", _SIZING_FLAGS),
    ("analyze", _analyze, "analysis",
     "posterior decision analysis of observed arm summaries", ("--config", "--seed")),
    ("dunnett", _dunnett, "dunnett", "frequentist many-to-one comparator", ("--config",)),
    ("boundary", _boundary, "boundary",
     "stop/go boundary polylines for a two-treatment design", _SIZING_FLAGS),
    ("reproduce-tables", _reproduce_tables, "reproduce_tables",
     "regenerate the bundled reference design tables", ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiarm",
        description="Bayesian sample sizes and decision analysis for "
        "multi-arm trials with a shared control.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, compute, stem, help_text, flags in _COMMANDS:
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(compute=compute, stem=stem)
        for flag in (*flags, "--out", "--format"):
            sub.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = load_config(Path(args.config)) if "config" in args else {}
        _write(args, args.compute(doc, args))
        return 0
    except (NumericError, InfeasibleDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, UnsupportedConfigurationError, DataInconsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
