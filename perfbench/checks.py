"""Independent checks of the library's outputs, run after the timed phase.

Oracles:

* Probabilities of the equicorrelated max and joint posterior shortfall
  probabilities are recomputed as multivariate normal or Student CDFs by
  Genz's randomised quasi-Monte Carlo method, the routines behind
  ``scipy.stats.multivariate_normal.cdf`` and ``multivariate_t.cdf``.
  Those public functions drop the error estimate, so the routines are
  called directly. The estimate is three standard errors of the batch
  means; a check passes when the program is within three estimates
  (about nine standard errors) plus ``PROGRAM_TOL``, an allowance just
  above the program's own declared quadrature and root tolerances.
  Probabilities above one half are estimated through their complement
  (see ``genz_cdf``).
* Designs must meet their target, and must stop meeting it with one
  fewer patient on every arm, so they are also minimal (when every arm
  recruits).
* The selection p-value is compared with a seeded numpy simulation, and
  Monte Carlo estimates with quadrature, both within ``MC_SIGMAS``
  standard errors.
* ``reproduce-tables`` is compared with the published reference tables
  in ``multiarm.datasets``.

Every check returns a list of messages, empty when the check passes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Any, Sequence

import numpy as np
from scipy.special import betaincinv, ndtr, ndtri, stdtr, stdtrit
from scipy.stats._qmvnt import _qauto, _qmvn, _qmvt

from multiarm import datasets, design_unknown, model, montecarlo

ORACLE_ERROR = 1e-5
ORACLE_LIMIT = 400_000
# Random lattice shifts per Genz estimate; scipy's default of ten gives an
# error estimate that now and then falls several times short of the truth.
ORACLE_BATCHES = 40
PROGRAM_TOL = 1e-8
MC_SIGMAS = 4.0
PVALUE_DRAWS = 4_000_000

# Oracle checks run on the first operations of a run; the cheap
# invariants run on every operation.
ORACLE_OPS = {"design-sweep": 7, "design-audit": 10, "analysis-stream": 3}


def _equicorrelated(k: int, rho: float) -> np.ndarray:
    cov = np.full((k, k), rho)
    np.fill_diagonal(cov, 1.0)
    return cov


def _genz_direct(cov: np.ndarray, high: np.ndarray, df: float, rng: np.random.Generator) -> tuple[float, float]:
    if len(high) == 1:
        z = float(high[0]) / math.sqrt(cov[0, 0])
        return (float(ndtr(z)) if math.isinf(df) else float(stdtr(df, z))), 0.0
    low = np.full_like(high, -np.inf)
    if math.isinf(df):
        value, err, _ = _qauto(_qmvn, cov, low, high, rng, error=ORACLE_ERROR, limit=ORACLE_LIMIT,
                               n_batches=ORACLE_BATCHES)
        return float(value), float(err)
    # _qauto would route two dimensions to the bivariate normal whatever
    # the degrees of freedom, so the Student rule is refined here.
    points = 100 * ORACLE_BATCHES * len(high)
    while True:
        value, err, _ = _qmvt(points, df, cov, low, high, rng, n_batches=ORACLE_BATCHES)
        if err <= ORACLE_ERROR or points >= ORACLE_LIMIT:
            return float(value), float(err)
        points *= 2


def genz_cdf(cov: np.ndarray, upper: Sequence[float], df: float = math.inf) -> tuple[float, float]:
    """P(X <= upper) for X ~ N(0, cov), or multivariate t with ``df``
    degrees of freedom and shape ``cov``; returns (value, error).

    Above one half the direct estimate is not used: its shortfall from 1
    comes from rare lattice points, so its batch error can understate the
    true error many times over (at 1 - 7e-7 it read 9e-9 against a true
    6e-8). The value is then 1 minus P(some X_j > upper_j), summed over
    the first j that exceeds: P(X_j > upper_j, X_i <= upper_i for i < j)
    is a CDF of the first j components with the sign of X_j flipped, a
    small probability whose estimate and error the rule gets right. The
    errors of the terms are added."""
    cov = np.asarray(cov, dtype=float)
    high = np.asarray(upper, dtype=float)
    rng = np.random.default_rng(0)
    direct = _genz_direct(cov, high, df, rng)
    if direct[0] <= 0.5:
        return direct
    total = err = 0.0
    for j in range(len(high)):
        sub = cov[: j + 1, : j + 1].copy()
        sub[j, :j] *= -1.0
        sub[:j, j] *= -1.0
        bound = high[: j + 1].copy()
        bound[j] = -bound[j]
        term, term_err = _genz_direct(sub, bound, df, rng)
        total += term
        err += term_err
    return 1.0 - total, err


def compare(label: str, value: float, oracle: tuple[float, float]) -> list[str]:
    expected, err = oracle
    tol = 3.0 * err + PROGRAM_TOL
    if abs(value - expected) <= tol:
        return []
    return [f"{label}: program {value!r}, oracle {expected!r} (tolerance {tol:.2e})"]


def check_max_quantile(label: str, k: int, rho: float, df: float, p: float, q: float) -> list[str]:
    """``q`` must be the p-quantile of the max of k equicorrelated
    normal (or Student) statistics."""
    return compare(label, p, genz_cdf(_equicorrelated(k, rho), [q] * k, df))


def _pair_information(q: Sequence[float]) -> list[float]:
    return [q[0] * qj / (q[0] + qj) for qj in q[1:]]


def _fewer(n: Sequence[int]) -> tuple[int, ...]:
    return tuple(x - 1 for x in n)


def _recruits_all(n: Sequence[int]) -> bool:
    """Minimality holds only when every arm recruits: when a prior already
    exceeds an arm's share, that arm recruits nobody and its surplus lets
    the others fall below their share and still reach the target."""
    return all(x >= 1 for x in n)


def check_known_design(label: str, config: model.DesignConfig, criterion: model.Criterion,
                       n: Sequence[int], target: float) -> list[str]:
    """Known precision: the target's quantile is right, the design
    reaches the target, and one fewer patient per arm does not."""
    z_eta = float(ndtri(config.eta)) if config.eta > 0.5 else 0.0
    upper = config.delta_star * math.sqrt(target) - z_eta
    if criterion == model.Criterion.ALL_PROMISING:
        out = check_max_quantile(f"{label} max quantile", config.k, config.rho, math.inf, config.zeta, upper)
    else:
        want = config.zeta if config.zeta > 0.5 else 0.5
        out = compare(f"{label} normal quantile", want, (float(ndtr(upper)), 0.0))
    q0 = [p.information for p in config.priors]
    reached = min(_pair_information([a + b for a, b in zip(q0, n)])) * config.v
    if reached < target * (1.0 - 1e-12):
        out.append(f"{label}: design {tuple(n)} reaches {reached!r} < target {target!r}")
    if _recruits_all(n):
        short = min(_pair_information([a + b for a, b in zip(q0, _fewer(n))])) * config.v
        if short >= target:
            out.append(f"{label}: design {tuple(n)} is not minimal (one fewer per arm reaches {short!r})")
    return out


def check_assured_design(label: str, config: model.DesignConfig, prior: model.PrecisionPrior,
                         criterion: model.Criterion, n: Sequence[int], target: float,
                         fractional: Sequence[float]) -> list[str]:
    """Precision uncertainty: the design passes the direct criterion
    check and one fewer patient per arm fails it; for the stronger
    criterion the Student max quantile behind the target is checked
    against the Genz Student oracle."""
    out = []
    if not design_unknown.assured_criterion_met(n, config, prior, criterion):
        out.append(f"{label}: design {tuple(n)} fails the direct assured criterion")
    if _recruits_all(n) and design_unknown.assured_criterion_met(_fewer(n), config, prior, criterion):
        out.append(f"{label}: design {tuple(n)} is not minimal under the assured criterion")
    if criterion == model.Criterion.ALL_PROMISING and min(fractional) > 0.0:
        # With no arm clamped at zero the fractional sizes sum to the fixed point.
        total = math.fsum(fractional)
        alpha1 = prior.alpha + 0.5 * total
        df = 2.0 * alpha1
        fraction = float(betaincinv(0.5 * total, prior.alpha, prior.assurance))
        scale = prior.beta / (alpha1 * (1.0 - fraction))
        t_eta = float(stdtrit(df, config.eta)) if config.eta > 0.5 else 0.0
        upper = config.delta_star * math.sqrt(target / scale) - t_eta
        out += check_max_quantile(f"{label} Student max quantile", config.k, config.rho, df, config.zeta, upper)
    return out


def check_dunnett_design(label: str, k: int, alpha: float, rho: float, critical: float) -> list[str]:
    return check_max_quantile(f"{label} critical value", k, rho, math.inf, 1.0 - alpha, critical)


def _effect_cov(q: Sequence[float], v: Sequence[float]) -> np.ndarray:
    """Posterior covariance of the effects mu_j - mu_0 given arm
    informations ``q`` and precisions ``v`` (control first)."""
    var = [1.0 / (qj * vj) for qj, vj in zip(q, v)]
    cov = np.full((len(q) - 1, len(q) - 1), var[0])
    cov[np.diag_indices_from(cov)] += var[1:]
    return cov


def check_boundary(label: str, config: model.DesignConfig, n: Sequence[int],
                   points: Sequence[tuple[float, float]]) -> list[str]:
    """Every abandonment boundary point must carry shortfall probability zeta."""
    q1 = [p.information + nj for p, nj in zip(config.priors, n)]
    cov = _effect_cov(q1, [config.v] * 3)
    out = []
    for d1, d2 in points:
        upper = [config.delta_star - d1, config.delta_star - d2]
        out += compare(f"{label} point ({d1!r}, {d2!r})", config.zeta, genz_cdf(cov, upper))
    return out


def joint_below_oracle(information: Sequence[float], effects: Sequence[float],
                       precision: Any, threshold: float) -> tuple[float, float]:
    """Genz value of P(every effect < threshold) under the posterior."""
    gap = [threshold - e for e in effects]
    if isinstance(precision, model.KnownPrecision):
        return genz_cdf(_effect_cov(information, [precision.v] * len(information)), gap)
    if isinstance(precision, model.PerArmPrecision):
        return genz_cdf(_effect_cov(information, precision.v), gap)
    shape = _effect_cov(information, [precision.alpha / precision.beta] * len(information))
    return genz_cdf(shape, gap, df=2.0 * precision.alpha)


def check_joint(label: str, information: Sequence[float], effects: Sequence[float],
                precision: Any, threshold: float, value: float) -> list[str]:
    return compare(label, value, joint_below_oracle(information, effects, precision, threshold))


def simulate_selection_pvalue(data: model.TrialData, z_star: float, draws: int, seed: int) -> float:
    """Null frequency with which the arm with the highest sample mean
    beats control by z_star of its own standard errors of the contrast,
    with arm means drawn from N(0, sd_j**2 / n_j)."""
    n = np.asarray(data.n, dtype=float)
    sd = np.asarray([data.sample_sd(j) for j in range(data.k + 1)])
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 1 << 18
    for start in range(0, draws, chunk):
        m = min(chunk, draws - start)
        means = rng.standard_normal((m, data.k + 1)) * (sd / np.sqrt(n))
        best = 1 + np.argmax(means[:, 1:], axis=1)
        contrast = means[np.arange(m), best] - means[:, 0]
        needed = z_star * sd[best] * np.sqrt(1.0 / n[0] + 1.0 / n[best])
        hits += int(np.count_nonzero(contrast >= needed))
    return hits / draws


def check_pvalue(label: str, data: model.TrialData, z_star: float, value: float,
                 seed: int = 0, draws: int = PVALUE_DRAWS) -> list[str]:
    """The simulated frequency must lie within MC_SIGMAS binomial standard
    errors of the program's p-value (kept one draw away from 0 and 1)."""
    estimate = simulate_selection_pvalue(data, z_star, draws, seed)
    p = min(max(value, 1.0 / draws), 1.0 - 1.0 / draws)
    tol = MC_SIGMAS * math.sqrt(p * (1.0 - p) / draws)
    if abs(estimate - value) <= tol:
        return []
    return [f"{label}: program {value!r}, simulation {estimate!r} (tolerance {tol:.2e})"]


def check_mc_estimate(label: str, quadrature: float, estimate: float, se: float, draws: int) -> list[str]:
    """A Monte Carlo estimate must lie within MC_SIGMAS standard errors of
    the quadrature value; the binomial error at the quadrature value
    stands in when the sample put every draw on one side."""
    sigma = max(se, math.sqrt(quadrature * (1.0 - quadrature) / draws))
    if abs(estimate - quadrature) <= MC_SIGMAS * sigma:
        return []
    return [f"{label}: quadrature {quadrature!r}, Monte Carlo {estimate!r} +- {se!r}"]


def check_audit(label: str, config: model.DesignConfig, information: Sequence[float],
                report: Any, oracle: bool) -> list[str]:
    """The audit must find no undecidable point, and its worst shortfall
    probability must match the oracle at the worst point."""
    out = []
    if report.n_violations != 0:
        out.append(f"{label}: {report.n_violations} undecidable points")
    if not report.min_all_below >= config.zeta:
        out.append(f"{label}: min shortfall probability {report.min_all_below!r} < zeta {config.zeta!r}")
    if oracle and math.isfinite(report.min_all_below):
        out += compare(f"{label} worst point", report.min_all_below,
                       joint_below_oracle(information, report.worst_point, model.KnownPrecision(config.v),
                                          config.delta_star))
    return out


# -- in-process workloads --------------------------------------------------


def _check_sweep(i: int, item: Any, out: dict, oracle: bool) -> list[str]:
    errors = []
    config = item.config
    for criterion, design in out["assured"].items():
        label = f"sweep op {i} assured criterion {criterion.value}"
        if oracle:
            errors += check_assured_design(label, config, item.prior, criterion, design.n,
                                           design.information_target, design.fractional_n)
        elif not design_unknown.assured_criterion_met(design.n, config, item.prior, criterion):
            errors.append(f"{label}: design {design.n} fails the direct assured criterion")
    if not oracle:
        return errors
    for criterion, design in out["known"].items():
        errors += check_known_design(f"sweep op {i} known criterion {criterion.value}", config,
                                     criterion, design.n, design.information_target)
    freq = out["dunnett"]
    errors += check_dunnett_design(f"sweep op {i} dunnett", config.k, item.frequentist.alpha,
                                   freq.rho, freq.critical)
    if "boundary" in out:
        design = out["known"][model.Criterion.ALL_PROMISING]
        errors += check_boundary(f"sweep op {i} boundary", config, design.n, out["boundary"].points)
    return errors


def _check_trial(i: int, item: Any, out: dict, oracle: bool) -> list[str]:
    if not oracle:
        return []
    errors = []
    summary = out["summary"]
    for name, result in out["variants"].items():
        label = f"trial op {i} {name}"
        precision, decision = result["precision"], result["decision"]
        args = (summary.information, summary.effects, precision)
        errors += check_joint(f"{label} all below delta", *args, item.config.delta_star, decision.prob_all_below)
        errors += check_joint(f"{label} all below 0", *args, 0.0, 1.0 - decision.prob_any_superior)
        for c, value in result["below"].items():
            errors += check_joint(f"{label} all below {c!r}", *args, c, value)
    errors += check_pvalue(f"trial op {i} selection p-value", item.data, out["z_star"], out["p_value"], seed=i)
    return errors


def _check_audit_op(i: int, item: Any, report: Any, oracle: bool) -> list[str]:
    q1 = [p.information + n for p, n in zip(item.config.priors, item.design.n)]
    return check_audit(f"audit op {i}", item.config, q1, report, oracle)


_CHECKERS = {"design-sweep": _check_sweep, "design-audit": _check_audit_op, "analysis-stream": _check_trial}


def check_workload(workload: str, kept: Sequence[tuple[Any, Any]]) -> list[str]:
    checker = _CHECKERS[workload]
    errors = []
    for i, (item, out) in enumerate(kept):
        errors += checker(i, item, out, i < ORACLE_OPS[workload])
    if not kept:
        errors.append("no operation completed")
    return errors


# -- cli-cold ----------------------------------------------------------------


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")][1:]


def _design_config(doc: dict) -> model.DesignConfig:
    d = doc["design"]
    v = d["v"] if "v" in d else 1.0 / d["sd"] ** 2
    priors = tuple(model.ArmPrior(mean=p["mean"], information=p.get("information", 0.0)) for p in d["priors"])
    return model.DesignConfig(k=d["k"], delta_star=d["delta_star"], eta=d["eta"], zeta=d["zeta"],
                              priors=priors, v=v)


def _trial_data(doc: dict) -> model.TrialData:
    d = doc["data"]
    n = d["n"]
    if "sd" in d:
        sd = d["sd"]
    else:
        sd = [se * math.sqrt(nj) for se, nj in zip(d["se"], n)]
    return model.TrialData.from_moments(n=n, mean=d["mean"], sd=sd)


def _keyed(rows: list[list[str]]) -> dict[tuple[str, str], str]:
    return {(r[0], r[1]): r[2] for r in rows}


def _sizes(table: dict[tuple[str, str], str], name: str, k: int) -> list[float]:
    return [float(table[(name, str(j))]) for j in range(k + 1)]


def check_cli_design_known(out: Path, doc: dict) -> tuple[list[str], tuple[int, ...]]:
    config = _design_config(doc)
    table = _keyed(read_rows(out / "design_known.csv"))
    n = tuple(int(x) for x in _sizes(table, "n", config.k))
    criterion = model.Criterion(int(table[("criterion", "")]))
    errors = check_known_design(f"cli design-known {out.name}", config, criterion, n,
                                float(table[("information_target", "")]))
    return errors, n


def check_cli_design_unknown(out: Path, doc: dict) -> list[str]:
    config = _design_config(doc)
    pp = doc["precision_prior"]
    prior = model.PrecisionPrior(alpha=pp["alpha"], beta=pp["beta"], assurance=pp["assurance"])
    table = _keyed(read_rows(out / "design_unknown.csv"))
    n = tuple(int(x) for x in _sizes(table, "n", config.k))
    criterion = model.Criterion(int(table[("criterion", "")]))
    return check_assured_design("cli design-unknown", config, prior, criterion, n,
                                float(table[("information_target", "")]),
                                _sizes(table, "fractional_n", config.k))


def check_cli_dunnett(out: Path, doc: dict) -> list[str]:
    table = _keyed(read_rows(out / "dunnett.csv"))
    k = doc["design"]["k"]
    errors = check_dunnett_design("cli dunnett", k, doc["dunnett"]["alpha"], float(table[("rho", "")]),
                                  float(table[("critical", "")]))
    errors += check_pvalue("cli dunnett p-value", _trial_data(doc), float(table[("z_star", "")]),
                           float(table[("p_value", "")]))
    return errors


def check_cli_boundary(out: Path, doc: dict, n: Sequence[int]) -> list[str]:
    points = [(float(r[1]), float(r[2])) for r in read_rows(out / "boundary.csv") if r[0] == "Abandon"]
    if not points:
        return ["cli boundary: no abandonment points"]
    return check_boundary("cli boundary", _design_config(doc), n, points)


def check_cli_analyze(out: Path, doc: dict, seeded: bool) -> list[str]:
    """Joint shortfall probabilities against Genz, and with a seed the
    Monte Carlo rows against their quadrature rows."""
    config = _design_config(doc)
    data = _trial_data(doc)
    rows = read_rows(out / "analysis.csv")
    values = {(r[0], r[1], r[2]): float(r[3]) for r in rows if _is_number(r[3])}
    ses = {(r[0], r[1], r[2]): float(r[4]) for r in rows if r[4]}
    k = config.k
    info = [values[("posterior_information", "", str(j))] for j in range(k + 1)]
    effects = [values[("effect", "", str(j))] for j in range(1, k + 1)]
    variants = {
        "common": model.KnownPrecision(config.v),
        "per_arm": model.PerArmPrecision(tuple(1.0 / data.sample_variance(j) for j in range(k + 1))),
        "gamma": model.GammaPrecision(values[("precision_alpha", "gamma", "")],
                                      values[("precision_beta", "gamma", "")]),
    }
    errors = []
    for name, precision in variants.items():
        for (quantity, variant, index), value in values.items():
            if variant != name:
                continue
            if quantity == "prob_all_below":
                errors += check_joint(f"cli analyze {name} all below {index}", info, effects, precision,
                                      float(index), value)
            elif quantity == "prob_any_superior":
                errors += check_joint(f"cli analyze {name} all below 0", info, effects, precision,
                                      0.0, 1.0 - value)
    if seeded:
        draws = doc.get("monte_carlo", {}).get("n_draws", montecarlo.McConfig.n_draws)
        mc_rows = [key for key in values if key[1].endswith("_mc")]
        if not mc_rows:
            errors.append("cli analyze --seed: no Monte Carlo rows")
        for key in mc_rows:
            quadrature = values[(key[0], key[1][: -len("_mc")], key[2])]
            errors += check_mc_estimate(f"cli analyze {key}", quadrature, values[key], ses[key], draws)
    return errors


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_cli_tables(out: Path) -> list[str]:
    """Each regenerated design must equal its published row."""
    errors = []
    comparative = read_rows(out / "comparative_designs.csv")
    want = {label: (str(e), str(c), str(t)) for label, e, c, t in datasets.REFERENCE_COMPARATIVE_DESIGNS}
    if len(comparative) != len(want):
        errors.append(f"reproduce-tables: {len(comparative)} comparative rows, expected {len(want)}")
    for row in comparative:
        if tuple(row[1:4]) != want.get(row[0]):
            errors.append(f"reproduce-tables: {row[0]} gives {tuple(row[1:4])}, published {want.get(row[0])}")
    assured = read_rows(out / "assured_designs.csv")
    published = {}
    for alpha, beta, assurance, c1, c2 in datasets.REFERENCE_ASSURED_DESIGNS:
        published[(alpha, beta, assurance, 1)] = c1
        published[(alpha, beta, assurance, 2)] = c2
    if len(assured) != len(published):
        errors.append(f"reproduce-tables: {len(assured)} assured rows, expected {len(published)}")
    for row in assured:
        key = (float(row[0]), float(row[1]), float(row[2]), int(row[3]))
        got = tuple(int(x) for x in row[4:7])
        if got != published.get(key):
            errors.append(f"reproduce-tables: assured {key} gives {got}, published {published.get(key)}")
    return errors
