"""Numbered acceptance checks against the package's reference results.

Each test prints one verdict line ("ACCEPTANCE CRITERION n: PASS/FAIL",
visible under ``pytest -s``) followed by its sub-checks, then asserts,
so a FAIL also fails the suite. The expected numbers are the published
reference values this package is required to reproduce; sub-checks that
cannot be met are reported with the computed value and an explanation
rather than being weakened.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from multiarm import datasets
from multiarm.design_known import (
    _worst_case_shortfall,
    information_target,
    integer_search,
    optimal_design,
)
from multiarm.design_unknown import assured_design, precision_summary, update_precision
from multiarm.distributions import (
    EquicorrSpec,
    equicorr_max_cdf,
    equicorr_max_quantile,
    normal_quantile,
)
from multiarm.dunnett import (
    dunnett_critical,
    dunnett_design,
    dunnett_pvalue,
    per_pair_frequentist,
    pooled_pair_sd,
    z_statistics,
    z_statistics_pooled,
)
from multiarm.model import (
    ArmPrior,
    Criterion,
    DesignConfig,
    GammaPrecision,
    KnownPrecision,
    PerArmPrecision,
    PrecisionPrior,
    TrialData,
)
from multiarm._quad import normal_expect
from multiarm.montecarlo import McConfig, design_guarantee, max_prob, posterior_probs
from multiarm.posterior import (
    prob_all_below,
    prob_pairwise_better,
    prob_superior,
    update_posterior,
)

C1 = Criterion.ALL_PROMISING
C2 = Criterion.ANY_PROMISING

_SUITE_START = time.perf_counter()


def report(number, checks):
    ok = all(good for _, good, _ in checks)
    print(f"\nACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'}")
    for label, good, detail in checks:
        tag = "ok  " if good else "FAIL"
        print(f"  [{tag}] {label}: {detail}")
    assert ok, "; ".join(label for label, good, _ in checks if not good)


def check(label, good, detail):
    return (label, bool(good), detail)


def test_criterion_1():
    checks = []
    for k, rho, want in ((2, 0.4142, 1.5915), (4, 0.3333, 1.8886)):
        t0 = time.perf_counter()
        got = equicorr_max_quantile(EquicorrSpec(k=k, rho=rho), 0.90)
        elapsed = time.perf_counter() - t0
        checks.append(check(
            f"max quantile k={k} rho={rho}",
            abs(got - want) <= 5e-4,
            f"{got:.6f} vs {want} (tol 5e-4)",
        ))
        checks.append(check(
            f"runtime k={k}",
            elapsed < 0.1,
            f"{elapsed * 1000:.1f} ms (< 100 ms)",
        ))
    report(1, checks)


def test_criterion_2(two_config):
    checks = []
    t0 = time.perf_counter()

    d1 = optimal_design(two_config, C1)
    checks.append(check(
        "first-criterion design",
        d1.n == (86, 68, 68) and d1.total == 222,
        f"{d1.n} total {d1.total} vs (86, 68, 68) total 222",
    ))
    d2 = optimal_design(two_config, C2)
    checks.append(check(
        "second-criterion design",
        d2.n == (67, 55, 55) and d2.total == 177,
        f"{d2.n} total {d2.total} vs (67, 55, 55) total 177",
    ))

    documented = {(85, 68, 68), (81, 70, 70), (83, 69, 69), (87, 67, 67), (89, 66, 66)}
    found = {d.n for d in integer_search(two_config, C1, 222)}
    checks.append(check(
        "all designs at total 221 are feasible splits of 221",
        all(sum(n) == 221 for n in found),
        f"{len(found)} designs found",
    ))
    checks.append(check(
        "the five documented 221 splits are found",
        documented <= found,
        f"missing: {sorted(documented - found)}" if not documented <= found else "all five present",
    ))
    extras = sorted(found - documented)

    def margin(n):
        q1 = [p.information + x for p, x in zip(two_config.priors, n)]
        corner = _worst_case_shortfall(q1, two_config, C1, math.inf, 1.0 / two_config.v)
        return corner - two_config.zeta

    margins = ", ".join(f"{margin(n):+.3e}" for n in extras)
    checks.append(check(
        "no feasible 221 splits beyond the documented five",
        not extras,
        "exact search also finds "
        f"{extras}; each meets criterion 1 at its own effect correlation "
        f"(worst-case abandonment probability minus zeta: {margins}), so the "
        "documented list of five is incomplete rather than the search being wrong"
        if extras else "exactly five",
    ))
    checks.append(check(
        "total 220 is infeasible",
        integer_search(two_config, C1, 220) == (),
        "empty result",
    ))
    elapsed = time.perf_counter() - t0
    checks.append(check("runtime", elapsed < 1.0, f"{elapsed:.2f} s (< 1 s)"))
    report(2, checks)


def test_criterion_3():
    checks = []
    d = dunnett_design(datasets.two_treatment_frequentist_config())
    checks.append(check(
        "many-to-one design",
        d.n == (100, 71, 71) and d.total == 242,
        f"{d.n} total {d.total} vs (100, 71, 71) total 242",
    ))
    pp = per_pair_frequentist(k=2, alpha=0.05, power=0.90, delta_star=0.5, sigma=1.0)
    m0, m = pp.fractional_n[0], pp.fractional_n[1]
    ok = abs(m0 - 82.74) <= 0.02 and abs(m - 58.50) <= 0.02
    checks.append(check(
        "per-comparison fractional solution",
        ok,
        f"computed ({m0:.4f}, {m:.4f}) vs (82.74, 58.50) tol 0.02; "
        "the reference pair follows from normal quantiles rounded to 3 dp "
        "(1.645 + 1.282 gives 34.2693 per-pair information, hence 82.7437 "
        "and 58.5062), while full-precision quantiles give the values "
        "computed here",
    ))
    report(3, checks)


def test_criterion_4(dose_config, case_data, case_summary):
    checks = []

    checks.append(check(
        "posterior information",
        case_summary.information == (62.0, 52.0, 54.0, 54.0, 53.0),
        f"{case_summary.information}",
    ))

    mu_want = (2.35, 12.56, 14.10, 13.24, 16.70)
    mu_ok = all(abs(a - b) <= 0.01 for a, b in zip(case_summary.mean, mu_want))
    checks.append(check(
        "posterior means (tol 0.01)", mu_ok,
        f"{tuple(round(x, 4) for x in case_summary.mean)} vs {mu_want}",
    ))

    eff_want = (10.21, 11.76, 10.89, 14.35)
    eff_ok = all(abs(a - b) <= 0.01 for a, b in zip(case_summary.effects, eff_want))
    checks.append(check(
        "posterior effects (tol 0.01)", eff_ok,
        f"{tuple(round(x, 4) for x in case_summary.effects)} vs {eff_want}",
    ))

    z = z_statistics(case_data, sigma=7.0)
    z_want = (7.14, 8.38, 7.72, 10.29)
    checks.append(check(
        "planning-sd contrasts (tol 0.01)",
        all(abs(a - b) <= 0.01 for a, b in zip(z, z_want)),
        f"{tuple(round(x, 3) for x in z)} vs {z_want}",
    ))

    zp = z_statistics_pooled(case_data)
    zp_want = (3.78, 4.93, 4.04, 5.27)
    checks.append(check(
        "pooled-sd contrasts (tol 0.01)",
        all(abs(a - b) <= 0.01 for a, b in zip(zp, zp_want)),
        f"{tuple(round(x, 3) for x in zp)} vs {zp_want}",
    ))

    s = tuple(pooled_pair_sd(case_data, j) for j in range(1, 5))
    s_want = (13.2, 11.9, 13.4, 13.7)
    checks.append(check(
        "pooled pair sds (tol 0.1)",
        all(abs(a - b) <= 0.1 for a, b in zip(s, s_want)),
        f"{tuple(round(x, 3) for x in s)} vs {s_want}",
    ))

    upd = update_precision(dose_config.priors, datasets.case_study_precision_prior(), case_data)
    h_want = (7730.0, 9826.0, 6843.0, 10645.0, 11369.0)
    checks.append(check(
        "sum-of-squares contributions (tol 1)",
        all(abs(a - b) <= 1.0 for a, b in zip(upd.contributions, h_want)),
        f"{tuple(round(x, 1) for x in upd.contributions)} vs {h_want}",
    ))
    checks.append(check("precision shape", upd.alpha == 129.5, f"{upd.alpha}"))
    checks.append(check(
        "precision rate (tol 0.5)",
        abs(upd.beta - 23255.77) <= 0.5,
        f"{upd.beta:.4f} vs 23255.77",
    ))
    report(4, checks)


def test_criterion_5(dose_config, case_data, case_summary):
    checks = []
    common = KnownPrecision(dose_config.v)
    per_arm = PerArmPrecision(
        tuple(1.0 / case_data.sample_variance(j) for j in range(5))
    )
    upd = update_precision(dose_config.priors, datasets.case_study_precision_prior(), case_data)
    gamma = GammaPrecision(upd.alpha, upd.beta)

    expected = {
        "common precision": (common, 0.000253, 0.689),
        "per-arm precision": (per_arm, 0.0168, 0.562),
        "gamma-mixed precision": (gamma, 0.0197, 0.563),
    }
    for label, (model, g10, g15) in expected.items():
        got10 = prob_all_below(case_summary, model, 10.0)
        got15 = prob_all_below(case_summary, model, 15.0)
        checks.append(check(
            f"{label} shortfall at 10/15 (tol 0.002)",
            abs(got10 - g10) <= 0.002 and abs(got15 - g15) <= 0.002,
            f"({got10:.6f}, {got15:.4f}) vs ({g10}, {g15})",
        ))

    pairwise = tuple(
        prob_pairwise_better(case_summary, per_arm, j, 4) for j in range(1, 4)
    )
    pw_want = (0.073, 0.158, 0.112)
    checks.append(check(
        "superiority over the best arm (tol 0.002)",
        all(abs(a - b) <= 0.002 for a, b in zip(pairwise, pw_want)),
        f"{tuple(round(x, 4) for x in pairwise)} vs {pw_want}",
    ))

    post = precision_summary(upd, threshold=1.0 / 225.0)
    prior = precision_summary(datasets.case_study_precision_prior(), threshold=1.0 / 225.0)
    checks.append(check(
        "posterior precision mean (tol 1e-4)",
        abs(post.mean - 0.00557) <= 1e-4,
        f"{post.mean:.6f} vs 0.00557",
    ))
    checks.append(check(
        "posterior P(sd above 15) (tol 3e-4)",
        abs(post.prob_below - 0.00729) <= 3e-4,
        f"{post.prob_below:.6f} vs 0.00729",
    ))
    checks.append(check(
        "prior P(sd above 15) (tol 2e-3)",
        abs(prior.prob_below - 0.196) <= 2e-3,
        f"{prior.prob_below:.6f} vs 0.196",
    ))
    report(5, checks)


def test_criterion_6(case_data):
    checks = []
    c = dunnett_critical(4, 0.05, (47,) * 5)
    checks.append(check(
        "critical value (tol 0.01)", abs(c - 2.16) <= 0.01, f"{c:.6f} vs 2.16"
    ))
    d = dunnett_design(datasets.case_study_frequentist_config())
    checks.append(check(
        "equal-allocation design",
        d.n == (47,) * 5 and d.total == 235,
        f"{d.n} total {d.total}",
    ))
    p = dunnett_pvalue(case_data, z_star=5.21)
    z_best = max(z_statistics_pooled(case_data))
    p_best = dunnett_pvalue(case_data, z_star=z_best)
    checks.append(check(
        "selection p-value at 5.21 (tol 0.05e-7)",
        abs(p - 1.84e-7) <= 0.05e-7,
        f"computed {p:.4e} vs 1.84e-07; the reference value corresponds to "
        f"the unrounded winning statistic {z_best:.4f} (displayed as 5.27), "
        f"at which this implementation gives {p_best:.4e}, inside the band; "
        "5.21 appears to transcribe that statistic incorrectly",
    ))
    report(6, checks)


def test_criterion_7(dose_config):
    checks = []

    data = datasets.case_study_data()
    exp_lo, exp_hi = min(data.n[1:]), max(data.n[1:])
    conducted = (f"{exp_lo}-{exp_hi}", str(data.n[0]), data.total)
    ref = datasets.REFERENCE_COMPARATIVE_DESIGNS[0]
    checks.append(check(
        "conducted-trial row",
        conducted == (ref[1], str(ref[2]), ref[3]),
        f"{conducted}; the dataset's own control size (52) is used, as the "
        "published comparison row is inconsistent with the data listing",
    ))

    d = dunnett_design(datasets.case_study_frequentist_config())
    ref = datasets.REFERENCE_COMPARATIVE_DESIGNS[1]
    checks.append(check(
        "frequentist row",
        (d.n[1], d.n[0], d.total) == ref[1:],
        f"({d.n[1]}, {d.n[0]}, {d.total}) vs {ref[1:]}",
    ))
    for criterion, ref in ((C1, datasets.REFERENCE_COMPARATIVE_DESIGNS[2]),
                           (C2, datasets.REFERENCE_COMPARATIVE_DESIGNS[3])):
        d = optimal_design(dose_config, criterion)
        checks.append(check(
            f"known-precision row, criterion {int(criterion)}",
            (d.n[1], d.n[0], d.total) == ref[1:],
            f"({d.n[1]}, {d.n[0]}, {d.total}) vs {ref[1:]}",
        ))

    worst = 0
    exact = 0
    rows = 0
    for alpha, beta, assurance, want1, want2 in datasets.REFERENCE_ASSURED_DESIGNS:
        prior = PrecisionPrior(alpha, beta, assurance)
        for criterion, want in ((C1, want1), (C2, want2)):
            d = assured_design(dose_config, prior, criterion)
            got = (d.n[1], d.n[0], d.total)
            rows += 1
            dev = max(abs(a - b) for a, b in zip(got, want))
            worst = max(worst, dev)
            exact += got == want
    checks.append(check(
        "assurance table, every cell within 1 patient",
        worst <= 1,
        f"{rows} rows, {exact} exact, worst cell deviation {worst}",
    ))
    report(7, checks)


def _equicorr_below(mu, rho, t):
    """P(all coords of an equicorrelated Gaussian with mean mu are < t)."""
    mu = np.asarray(mu, dtype=float)
    if rho == 0.0:
        return float(np.prod(ndtr(t - mu)))
    slopes = np.full(mu.size, -math.sqrt(rho / (1.0 - rho)))
    offsets = (t - mu) / math.sqrt(1.0 - rho)
    return float(normal_expect(slopes, offsets, tol=1e-11))


def _random_posterior_instances(count):
    rng = np.random.default_rng(20260819)
    out = []
    while len(out) < count:
        k = int(rng.integers(2, 6))
        priors = tuple(
            ArmPrior(float(rng.normal(0, 2)), float(rng.uniform(0, 20)))
            for _ in range(k + 1)
        )
        n = tuple(int(x) for x in rng.integers(5, 120, k + 1))
        mean = tuple(float(x) for x in rng.normal(0, 3, k + 1))
        sd = tuple(float(x) for x in rng.uniform(0.5, 4, k + 1))
        data = TrialData.from_moments(n=n, mean=mean, sd=sd)
        summary = update_posterior(priors, data)
        precision = KnownPrecision(float(rng.uniform(0.1, 2.0)))
        threshold = float(rng.normal(0, 2))
        truth = prob_all_below(summary, precision, threshold)
        # Keep the comparison informative: skip cases the simulation
        # would resolve to all-zeros or all-ones.
        if 0.02 <= truth <= 0.98:
            out.append((summary, precision, threshold, truth))
    return out


def test_criterion_8(two_config, dose_config):
    checks = []

    rng = np.random.default_rng(424242)
    worst_rt = 0.0
    for _ in range(60):
        k = int(rng.integers(1, 7))
        rho = float(rng.uniform(0.0, 0.95))
        df = math.inf if rng.random() < 0.5 else float(rng.uniform(2.5, 100.0))
        p = float(rng.uniform(0.02, 0.98))
        spec = EquicorrSpec(k=k, rho=rho, df=df)
        back = equicorr_max_cdf(spec, equicorr_max_quantile(spec, p))
        worst_rt = max(worst_rt, abs(back - p))
    checks.append(check(
        "quantile/CDF round trips (60 random specs)",
        worst_rt < 1e-7,
        f"worst |error| {worst_rt:.2e} (< 1e-7)",
    ))

    rng = np.random.default_rng(77)
    order_ok = True
    for _ in range(200):
        k = int(rng.integers(2, 7))
        priors = (ArmPrior(float(rng.normal(0, 1)), float(rng.uniform(0, 30))),)
        shared = float(rng.uniform(0, 10))
        priors += tuple(ArmPrior(float(rng.normal(0, 1)), shared) for _ in range(k))
        cfg = DesignConfig(
            k=k,
            delta_star=float(rng.uniform(0.2, 4.0)),
            eta=float(rng.uniform(0.55, 0.99)),
            zeta=float(rng.uniform(0.55, 0.99)),
            priors=priors,
            v=float(rng.uniform(0.05, 2.0)),
        )
        v1 = information_target(cfg, C1)
        v2 = information_target(cfg, C2)
        t1 = optimal_design(cfg, C1).total
        t2 = optimal_design(cfg, C2).total
        if not (v1 > v2 and t1 >= t2):
            order_ok = False
            break
    checks.append(check(
        "criterion ordering on 200 random configs",
        order_ok,
        "first-criterion target and total never below the second's",
    ))

    for label, cfg in (("two-treatment", two_config), ("dose-finding", dose_config)):
        design = optimal_design(cfg, C1)
        rep = design_guarantee(design, cfg, n_points=100_000, mc=McConfig(seed=7, n_draws=10_000))
        checks.append(check(
            f"no-indecision sweep, {label} design",
            rep.n_violations == 0,
            f"{rep.n_checked} points, min shortfall probability "
            f"{rep.min_all_below:.4f} (needs >= {cfg.zeta})",
        ))

    instances = _random_posterior_instances(50)
    worst_dev = 0.0
    mc_ok = True
    for i, (summary, precision, threshold, truth) in enumerate(instances):
        est = posterior_probs(
            summary, precision, (threshold,), McConfig(seed=2 + i, n_draws=1_000_000)
        ).all_below[0]
        dev = abs(est.estimate - truth) / est.se
        worst_dev = max(worst_dev, dev)
        if dev > 3.0:
            mc_ok = False
    checks.append(check(
        "quadrature vs simulation on 50 random posteriors",
        mc_ok,
        f"worst deviation {worst_dev:.2f} standard errors (<= 3)",
    ))

    from scipy.optimize import brentq

    rng = np.random.default_rng(314159)
    worst_margin = math.inf
    dom_ok = True
    for i in range(100):
        k = int(rng.integers(2, 6))
        rho = float(rng.uniform(0.0, 0.95))
        kappa = float(rng.uniform(0.2, 0.95))
        zeta = float(rng.uniform(kappa + 0.01, 0.99))
        mu = rng.normal(0.0, 1.5, k)
        shift = brentq(
            lambda s: _equicorr_below(mu + s, rho, 0.0) - kappa, -30.0, 30.0, xtol=1e-12
        )
        t = normal_quantile(zeta) - normal_quantile(kappa)
        concl = _equicorr_below(mu + shift, rho, t)
        margin = concl - zeta
        worst_margin = min(worst_margin, margin)
        if margin < -1e-9:
            dom_ok = False
        if i % 10 == 0:
            est = max_prob(
                EquicorrSpec(k=k, rho=rho), mu + shift, t,
                McConfig(seed=1000 + i, n_draws=200_000),
            )
            if est.estimate + 3.0 * est.se <= zeta:
                dom_ok = False
    checks.append(check(
        "shifted-max dominance on 100 random tuples",
        dom_ok,
        f"calibrated so P(all < 0) = kappa; worst conclusion margin "
        f"{worst_margin:.2e} (allowing -1e-9 quadrature slack), simulation "
        "spot checks consistent",
    ))

    rng = np.random.default_rng(99)
    h_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 6))
        priors = tuple(
            ArmPrior(float(rng.normal(0, 3)), float(rng.uniform(0, 15)))
            for _ in range(k + 1)
        )
        n = tuple(int(x) for x in rng.integers(2, 80, k + 1))
        mean = tuple(float(x) for x in rng.normal(0, 5, k + 1))
        sd = tuple(float(x) for x in rng.uniform(0.1, 6, k + 1))
        upd = update_precision(
            priors, PrecisionPrior(1.0, 49.0, 0.9), TrialData.from_moments(n=n, mean=mean, sd=sd)
        )
        if any(h < -1e-8 for h in upd.contributions):
            h_ok = False
    checks.append(check(
        "sum-of-squares contributions nonnegative on 100 random datasets",
        h_ok,
        "all contributions >= -1e-8",
    ))

    elapsed = time.perf_counter() - _SUITE_START
    checks.append(check(
        "property battery runtime",
        elapsed < 300.0,
        f"{elapsed:.1f} s into this module (< 300 s)",
    ))
    report(8, checks)
