"""Each output check of the benchmark passes on the library's own output
and rejects a perturbed copy of it: one fewer patient per arm, a
probability moved by 1e-4, or a boundary point moved off zeta.

Run from the root of the repository:

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from multiarm import cli, datasets, design_known, design_unknown, dunnett, model, montecarlo, posterior  # noqa: E402
from multiarm.distributions import EquicorrSpec, equicorr_max_quantile  # noqa: E402

SHIFT = 1e-4
ALL = model.Criterion.ALL_PROMISING
ANY = model.Criterion.ANY_PROMISING


def fewer(n):
    return tuple(x - 1 for x in n)


@pytest.mark.parametrize("criterion", [ALL, ANY])
@pytest.mark.parametrize("config", [datasets.case_study_config(), datasets.two_treatment_config()])
def test_known_design(config, criterion):
    design = design_known.optimal_design(config, criterion)
    target = design.information_target
    assert checks.check_known_design("d", config, criterion, design.n, target) == []
    assert checks.check_known_design("d", config, criterion, fewer(design.n), target)


def test_max_quantile_rejects_moved_probability():
    config = datasets.case_study_config()
    q = equicorr_max_quantile(EquicorrSpec(k=4, rho=config.rho), config.zeta)
    assert checks.check_max_quantile("q", 4, config.rho, float("inf"), config.zeta, q) == []
    assert checks.check_max_quantile("q", 4, config.rho, float("inf"), config.zeta + SHIFT, q)
    t = equicorr_max_quantile(EquicorrSpec(k=4, rho=config.rho, df=20.0), config.zeta)
    assert checks.check_max_quantile("t", 4, config.rho, 20.0, config.zeta, t) == []
    assert checks.check_max_quantile("t", 4, config.rho, 20.0, config.zeta + SHIFT, t)


@pytest.mark.parametrize("criterion", [ALL, ANY])
def test_assured_design(criterion):
    config = datasets.two_treatment_config()
    prior = model.PrecisionPrior(alpha=2.0, beta=2.0, assurance=0.8)
    design = design_unknown.assured_design(config, prior, criterion)
    args = (config, prior, criterion)
    good = checks.check_assured_design("a", *args, design.n, design.information_target, design.fractional_n)
    assert good == []
    bad = checks.check_assured_design("a", *args, fewer(design.n), design.information_target, design.fractional_n)
    assert any("direct assured criterion" in line for line in bad)


def test_assured_quantile_rejects_moved_target():
    config = datasets.two_treatment_config()
    prior = model.PrecisionPrior(alpha=2.0, beta=2.0, assurance=0.8)
    design = design_unknown.assured_design(config, prior, ALL)
    moved = dataclasses.replace(config, zeta=config.zeta + SHIFT)
    out = checks.check_assured_design("a", moved, prior, ALL, design.n, design.information_target,
                                      design.fractional_n)
    assert any("Student max quantile" in line for line in out)


def test_dunnett_critical():
    design = dunnett.dunnett_design(datasets.case_study_frequentist_config())
    assert checks.check_dunnett_design("c", 4, 0.05, design.rho, design.critical) == []
    assert checks.check_dunnett_design("c", 4, 0.05 + SHIFT, design.rho, design.critical)


def test_boundary_point_moved_off_zeta():
    config = datasets.two_treatment_config()
    design = design_known.optimal_design(config, ALL)
    points = list(design_known.boundary_curve(config, design).points)
    assert checks.check_boundary("b", config, design.n, points) == []
    d1, d2 = points[len(points) // 2]
    points[len(points) // 2] = (d1, d2 + 0.01)
    assert checks.check_boundary("b", config, design.n, points)


@pytest.fixture(scope="module")
def trial():
    item = workloads.Stream("analysis-stream", 3).next_round()[2]
    return item, workloads.analyse_trial(item)


@pytest.mark.parametrize("variant", ["known", "per_arm", "gamma"])
def test_joint_probability_moved(trial, variant):
    item, out = trial
    summary = out["summary"]
    result = out["variants"][variant]
    value = result["decision"].prob_all_below
    args = ("j", summary.information, summary.effects, result["precision"], item.config.delta_star)
    assert checks.check_joint(*args, value) == []
    assert checks.check_joint(*args, value + SHIFT)


def test_joint_probability_near_one():
    """A gamma-precision shortfall probability of 1 - 7e-7 (Student df
    311), where the direct Genz estimate read 6e-8 high with a batch error
    of 9e-9; the complement route must accept the program's value."""
    item = workloads.Stream("analysis-stream", 1822161983).next_round()[1]
    out = workloads.analyse_trial(item)
    result = out["variants"]["gamma"]
    threshold = max(result["below"])
    value = result["below"][threshold]
    assert 1.0 - 1e-6 < value < 1.0
    args = ("j", out["summary"].information, out["summary"].effects, result["precision"], threshold)
    assert checks.check_joint(*args, value) == []
    assert checks.check_joint(*args, value - SHIFT)


def test_selection_pvalue_moved():
    data = model.TrialData.from_moments(n=(40, 60, 50), mean=(0.0, 0.3, 0.1), sd=(1.0, 1.3, 0.8))
    p = dunnett.dunnett_pvalue(data, 3.3)
    assert 2e-4 < p < 2e-3
    assert checks.check_pvalue("p", data, 3.3, p) == []
    assert checks.check_pvalue("p", data, 3.3, p + SHIFT)


def test_monte_carlo_against_quadrature():
    config = datasets.case_study_config()
    summary = posterior.update_posterior(config.priors, datasets.case_study_data())
    precision = model.KnownPrecision(config.v)
    mc = montecarlo.McConfig(seed=5, n_draws=200_000)
    draws = montecarlo.posterior_probs(summary, precision, [config.delta_star], mc)
    quadrature = posterior.prob_all_below(summary, precision, config.delta_star)
    est = draws.all_below[0]
    assert checks.check_mc_estimate("m", quadrature, est.estimate, est.se, mc.n_draws) == []
    # Near 1 the binomial error is small enough to expose a 1e-4 move.
    assert checks.check_mc_estimate("m", 0.9995, 0.9995 - SHIFT, 2.2e-5, 1_000_000)


def test_audit():
    config = datasets.two_treatment_config()
    design = design_known.optimal_design(config, ALL)
    report = montecarlo.design_guarantee(design, config, 4096, montecarlo.McConfig(seed=3))
    q1 = [p.information + n for p, n in zip(config.priors, design.n)]
    assert checks.check_audit("a", config, q1, report, oracle=True) == []
    moved = dataclasses.replace(report, min_all_below=report.min_all_below + SHIFT)
    assert checks.check_audit("a", config, q1, moved, oracle=True)
    assert checks.check_audit("a", config, q1, dataclasses.replace(report, n_violations=1), oracle=False)
    below = dataclasses.replace(report, min_all_below=config.zeta - SHIFT)
    assert checks.check_audit("a", config, q1, below, oracle=False)


def _rewrite(path: Path, change) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    change(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _run_cli(tmp_path: Path, *argv: str) -> Path:
    out = tmp_path / argv[0]
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out


def test_cli_tables(tmp_path):
    out = _run_cli(tmp_path, "reproduce-tables")
    assert checks.check_cli_tables(out) == []

    def one_more(rows):
        column = rows[0].index("n_experimental")
        rows[1][column] = str(int(rows[1][column]) + 1)

    _rewrite(out / "assured_designs.csv", one_more)
    assert checks.check_cli_tables(out)


def test_cli_boundary_and_design(tmp_path):
    config = HERE.parent / "configs" / "two_treatment.json"
    doc = json.loads(config.read_text())
    errors, n = checks.check_cli_design_known(_run_cli(tmp_path, "design-known", "--config", str(config)), doc)
    assert errors == []
    out = _run_cli(tmp_path, "boundary", "--config", str(config))
    assert checks.check_cli_boundary(out, doc, n) == []

    def move(rows):
        row = next(r for r in rows if r and r[0] == "Abandon")
        row[2] = repr(float(row[2]) + 0.01)

    _rewrite(out / "boundary.csv", move)
    assert checks.check_cli_boundary(out, doc, n)


def test_cli_analyze(tmp_path):
    config = HERE.parent / "configs" / "case_study.json"
    doc = json.loads(config.read_text())
    out = _run_cli(tmp_path, "analyze", "--config", str(config), "--seed", "11")
    assert checks.check_cli_analyze(out, doc, seeded=True) == []

    def move(rows):
        row = next(r for r in rows if r and r[0] == "prob_all_below" and r[1] == "gamma")
        row[3] = repr(float(row[3]) + SHIFT)

    _rewrite(out / "analysis.csv", move)
    assert checks.check_cli_analyze(out, doc, seeded=False)
