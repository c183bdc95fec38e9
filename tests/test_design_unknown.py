"""Precision updating and assured sample sizes under a gamma prior."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from multiarm import datasets, design_unknown
from multiarm.design_known import information_target, optimal_design
from multiarm.design_unknown import (
    assured_criterion_met,
    assured_design,
    assured_information_target,
    precision_summary,
    update_precision,
)
from multiarm.exceptions import (
    DomainError,
    InfeasibleDesignError,
    UnsupportedConfigurationError,
)
from multiarm.model import ArmPrior, Criterion, DesignConfig, PrecisionPrior, TrialData

C1 = Criterion.ALL_PROMISING
C2 = Criterion.ANY_PROMISING


@pytest.fixture(scope="module")
def case_update(dose_config, case_data):
    return update_precision(dose_config.priors, datasets.case_study_precision_prior(), case_data)


class TestUpdatePrecision:
    def test_shape_is_half_the_observations(self, case_update, case_data):
        assert case_update.alpha == 1.0 + case_data.total / 2.0
        assert case_update.alpha == 129.5

    def test_rate_frozen_and_published(self, case_update):
        assert case_update.beta == pytest.approx(23255.76837914627, rel=1e-12)
        assert case_update.beta == pytest.approx(23255.77, abs=0.5)

    def test_contributions_frozen(self, case_update):
        want = (
            7730.0348387096765,
            9826.326923076924,
            6843.21925925926,
            10645.285925925928,
            11368.669811320755,
        )
        assert case_update.contributions == pytest.approx(want, rel=1e-12)
        published = (7730.0, 9826.3, 6843.2, 10645.3, 11368.7)
        for got, approx2dp in zip(case_update.contributions, published):
            assert got == pytest.approx(approx2dp, abs=1.0)

    def test_rate_identity(self, case_update):
        # beta1 = beta0 + H/2 with H the summed contributions.
        h = sum(case_update.contributions)
        assert case_update.beta == pytest.approx(49.0 + h / 2.0, rel=1e-14)

    def test_contribution_formula_single_arm(self):
        # One arm by hand: (ss - n ybar^2) + q0 n (ybar - mu0)^2 / (q0 + n).
        priors = (ArmPrior(1.0, 3.0), ArmPrior(0.0, 0.0))
        data = TrialData(n=(5, 0), mean=(2.0, 0.0), ss=(30.0, 0.0))
        upd = update_precision(priors, PrecisionPrior(2.0, 10.0, 0.9), data)
        want = (30.0 - 5 * 4.0) + 3.0 * 5 * 1.0 / 8.0
        assert upd.contributions[0] == pytest.approx(want, rel=1e-14)
        assert upd.contributions[1] == 0.0
        assert upd.alpha == 2.0 + 2.5
        assert upd.beta == pytest.approx(10.0 + want / 2.0)

    def test_empty_data_returns_prior(self, dose_config):
        data = TrialData(n=(0,) * 5, mean=(0.0,) * 5, ss=(0.0,) * 5)
        upd = update_precision(dose_config.priors, PrecisionPrior(1.0, 49.0, 0.9), data)
        assert upd.alpha == 1.0
        assert upd.beta == 49.0

    def test_prior_count_guard(self, case_data):
        with pytest.raises(DomainError):
            update_precision((ArmPrior(0.0),) * 2, PrecisionPrior(1.0, 49.0, 0.9), case_data)


class TestPrecisionSummary:
    def test_posterior_stats_frozen(self, case_update):
        s = precision_summary(case_update, threshold=1.0 / 225.0)
        assert s.mean == pytest.approx(0.005568510912592518, rel=1e-12)
        assert s.sd_equivalent == pytest.approx(13.400791879773019, rel=1e-12)
        assert s.prob_below == pytest.approx(0.007280662169324139, rel=1e-10)

    def test_prior_tail_frozen(self):
        s = precision_summary(datasets.case_study_precision_prior(), threshold=1.0 / 225.0)
        assert s.prob_below == pytest.approx(0.19569584393442774, rel=1e-10)

    def test_against_scipy_gamma(self, case_update):
        s = precision_summary(case_update, threshold=1.0 / 225.0)
        dist = stats.gamma(a=case_update.alpha, scale=1.0 / case_update.beta)
        assert s.prob_below == pytest.approx(dist.cdf(1.0 / 225.0), rel=1e-12)
        assert s.mean == pytest.approx(dist.mean(), rel=1e-12)

    def test_threshold_must_be_positive(self, case_update):
        with pytest.raises(DomainError):
            precision_summary(case_update, threshold=0.0)


class TestAssuredInformationTarget:
    def test_flattens_for_large_trials(self, dose_config):
        # The patient-unit requirement levels off as n grows, which is what
        # makes the fixed-point search well posed.
        prior = datasets.case_study_precision_prior()
        v1 = assured_information_target(1e5, dose_config, prior, C1)
        v2 = assured_information_target(2e5, dose_config, prior, C1)
        assert v1 > 0.0
        assert v2 == pytest.approx(v1, rel=1e-3)

    def test_higher_assurance_needs_more_information(self, dose_config):
        lo = assured_information_target(500.0, dose_config, PrecisionPrior(1.0, 49.0, 0.80), C1)
        hi = assured_information_target(500.0, dose_config, PrecisionPrior(1.0, 49.0, 0.95), C1)
        assert hi > lo

    @pytest.mark.parametrize("criterion", [C1, C2])
    @pytest.mark.parametrize("name", ["dose_config", "two_config"])
    def test_known_precision_is_the_infinite_df_limit(self, request, name, criterion):
        # A gamma prior of huge shape pins the precision at beta / alpha
        # and sends df = 2 alpha1 to infinity.
        config = request.getfixturevalue(name)
        v = config.known_v()
        prior = PrecisionPrior(1e9, 1e9 / v, 0.5)
        assured = assured_information_target(300.0, config, prior, criterion)
        assert assured == pytest.approx(information_target(config, criterion) / v, rel=1e-8)

    def test_rejects_bad_total(self, dose_config):
        prior = datasets.case_study_precision_prior()
        with pytest.raises(DomainError):
            assured_information_target(-1.0, dose_config, prior, C1)
        with pytest.raises(DomainError):
            assured_information_target(math.nan, dose_config, prior, C1)


class TestAssuredDesign:
    def test_case_study_both_criteria(self, dose_config):
        prior = datasets.case_study_precision_prior()
        d1 = assured_design(dose_config, prior, C1)
        assert d1.n == (1422, 714, 714, 714, 714)
        assert d1.total == 4278
        assert d1.fractional_n == pytest.approx(
            (1421.2145794713826,) + (713.6072897356913,) * 4, rel=1e-9
        )
        d2 = assured_design(dose_config, prior, C2)
        assert d2.n == (972, 489, 489, 489, 489)
        assert d2.total == 2928

    @pytest.mark.parametrize(
        "alpha,beta,assurance,row",
        [(1.0, 49.0, 0.50, 2), (2.0, 98.0, 0.80, 4), (3.0, 147.0, 0.95, 5)],
    )
    def test_reference_rows(self, dose_config, alpha, beta, assurance, row):
        ref = datasets.REFERENCE_ASSURED_DESIGNS[row]
        assert ref[:3] == (alpha, beta, assurance)
        prior = PrecisionPrior(alpha, beta, assurance)
        for criterion, want in ((C1, ref[3]), (C2, ref[4])):
            d = assured_design(dose_config, prior, criterion)
            assert (d.n[1], d.n[0], d.total) == want

    def test_fixed_point_consistency(self, dose_config):
        # The fractional solution must satisfy its own defining equation.
        prior = datasets.case_study_precision_prior()
        d = assured_design(dose_config, prior, C1)
        frac_total = sum(d.fractional_n)
        r = dose_config.allocation_ratio
        factor = (1.0 + r) * (1.0 + dose_config.k / r)
        sum_q0 = sum(p.information for p in dose_config.priors)
        target = assured_information_target(frac_total, dose_config, prior, C1)
        assert factor * target - sum_q0 == pytest.approx(frac_total, rel=1e-9)
        assert d.information_target == pytest.approx(target, rel=1e-9)

    def test_stronger_priors_shrink_the_trial(self, dose_config):
        # Same prior mean precision, increasing confidence.
        totals = []
        for a in (1.0, 2.0, 3.0):
            d = assured_design(dose_config, PrecisionPrior(a, 49.0 * a, 0.95), C1)
            totals.append(d.total)
        assert totals[0] > totals[1] > totals[2]

    def test_infeasible_assurance(self, dose_config):
        with pytest.raises(InfeasibleDesignError):
            assured_design(dose_config, PrecisionPrior(1.0, 49.0, 1.0 - 1e-12), C1)

    def test_tiny_prior_shape_fails_fast(self, dose_config):
        # Shape 0.05 assures the prior's share of the precision only down
        # to 6e-29 at the known-precision total (n = 202), less beyond it:
        # no total meets the target, and the solve must say so rather than
        # integrate at df = 0.1.
        start = time.perf_counter()
        with pytest.raises(InfeasibleDesignError, match=r"alpha=0\.05"):
            assured_design(dose_config, PrecisionPrior(alpha=0.05, beta=2.45, assurance=0.95), C1)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "k,delta_star,control,arm",
        [(8, 0.3, 128873, 45564), (5, 0.5, 35040, 15671)],
    )
    def test_shape_half_fixed_point(self, monkeypatch, k, delta_star, control, arm):
        # Prior shape 0.5 and no prior information: plain iteration used to
        # cycle at the noise of the beta quantile for 54 target evaluations.
        calls = []
        target = design_unknown.assured_information_target
        monkeypatch.setattr(
            design_unknown, "assured_information_target",
            lambda *args, **kwargs: calls.append(args[0]) or target(*args, **kwargs),
        )
        priors = (ArmPrior(0.0, 0.0),) * (k + 1)
        config = DesignConfig(k=k, delta_star=delta_star, eta=0.9, zeta=0.9, priors=priors, v=1.0)
        d = assured_design(config, PrecisionPrior(0.5, 0.5, 0.95), C1)
        assert d.n == (control,) + (arm,) * k
        assert len(calls) <= 10


class TestAssuredCriterionMet:
    def test_integer_design_passes_direct_check(self, dose_config):
        prior = datasets.case_study_precision_prior()
        d = assured_design(dose_config, prior, C1)
        assert assured_criterion_met(d.n, dose_config, prior, C1)

    def test_undersized_design_fails(self, dose_config):
        prior = datasets.case_study_precision_prior()
        d = assured_design(dose_config, prior, C1)
        shrunk = tuple(x - 1 for x in d.n)
        assert not assured_criterion_met(shrunk, dose_config, prior, C1)

    def test_requires_symmetric_priors(self, dose_config):
        prior = datasets.case_study_precision_prior()
        priors = (dose_config.priors[0],) + tuple(
            ArmPrior(9.0, float(j)) for j in range(1, 5)
        )
        lopsided = DesignConfig(
            k=4, delta_star=5.0, eta=0.95, zeta=0.90, priors=priors
        )
        with pytest.raises(UnsupportedConfigurationError):
            assured_criterion_met((100,) * 5, lopsided, prior, C1)

    def test_priors_covering_their_share(self):
        # Experimental priors exceed their share at the fixed point of the
        # unclamped total (n = 0), so the design must be solved at the
        # total it actually enrols, where the target is larger.
        priors = (ArmPrior(0.0, 0.0), ArmPrior(1.0, 3.0), ArmPrior(1.0, 3.0))
        config = DesignConfig(k=2, delta_star=0.5, eta=0.5, zeta=0.5, priors=priors)
        prior = PrecisionPrior(1.0, 1.0, 0.75)
        d = assured_design(config, prior, C1)
        assert d.n == (6, 1, 1)
        assert assured_criterion_met(d.n, config, prior, C1)
        assert not assured_criterion_met((3, 0, 0), config, prior, C1)

    @pytest.mark.parametrize("control", [0.0, 5e-324])
    def test_no_control_information(self, control):
        # eta = zeta = 1/2 with a one-arm max needs no information at all;
        # with (almost) none on control the effects move as one statistic.
        priors = (ArmPrior(0.0, control), ArmPrior(1.0, 1.0), ArmPrior(1.0, 1.0))
        config = DesignConfig(k=2, delta_star=1.0, eta=0.5, zeta=0.5, priors=priors)
        prior = PrecisionPrior(1.0, 1.0, 0.5)
        d = assured_design(config, prior, C2)
        assert d.total == 0
        assert assured_criterion_met(d.n, config, prior, C2)
        assert assured_criterion_met(d.n, config, prior, C1)

    def test_dust_target_without_priors(self):
        # zeta one ulp above 1/2 leaves a target far below the float dust
        # the rounding forgives, so every share rounds to nobody; with no
        # prior information control must recruit for any comparison to
        # carry information.
        priors = (ArmPrior(0.0, 0.0), ArmPrior(1.0, 0.0))
        config = DesignConfig(
            k=1, delta_star=1.0, eta=0.5, zeta=math.nextafter(0.5, 1.0), priors=priors, v=1.0
        )
        known = optimal_design(config, C1)
        assert known.n == (1, 1)
        assert known.achieved_information >= information_target(config, C1)
        prior = PrecisionPrior(1.0, 1.0, 0.5)
        assured = assured_design(config, prior, C1)
        assert assured_criterion_met(assured.n, config, prior, C1)

    @pytest.mark.parametrize(
        "k,delta_star,arm_information,assurance",
        [
            # Enrolling the rounded total needs more than the fractional one.
            (4, 1.625, 1.0, 0.875),
            # Rounding leaves the effects less correlated than the allocation.
            (2, 0.5, 0.5, 0.5),
        ],
    )
    def test_rounded_design_meets_its_criterion(self, k, delta_star, arm_information, assurance):
        priors = (ArmPrior(0.0, 1.0),) + (ArmPrior(1.0, arm_information),) * k
        config = DesignConfig(k=k, delta_star=delta_star, eta=0.5, zeta=0.5, priors=priors, v=1.0)
        prior = PrecisionPrior(1.0, 1.0, assurance)
        d = assured_design(config, prior, C1)
        assert assured_criterion_met(d.n, config, prior, C1)

    def test_size_guard(self, dose_config):
        prior = datasets.case_study_precision_prior()
        with pytest.raises(DomainError):
            assured_criterion_met((100, 100), dose_config, prior, C1)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(1, 6),
    eta=st.floats(0.5, 0.99, exclude_max=True),
    zeta=st.floats(0.5, 0.99, exclude_max=True),
    allocation=st.none() | st.floats(0.25, 4.0),
    control_information=st.floats(0.0, 20.0),
    arm_information=st.floats(0.0, 10.0),
    delta_over_sd=st.floats(0.1, 2.0),
    shape=st.floats(1.0, 4.0),
    assurance=st.floats(0.5, 0.95),
    criterion=st.sampled_from([C1, C2]),
)
def test_designs_meet_their_criteria(
    k, eta, zeta, allocation, control_information, arm_information, delta_over_sd,
    shape, assurance, criterion,
):
    priors = (ArmPrior(0.0, control_information),) + (ArmPrior(1.0, arm_information),) * k
    config = DesignConfig(
        k=k, delta_star=delta_over_sd, eta=eta, zeta=zeta, priors=priors, v=1.0,
        allocation=allocation,
    )
    known = optimal_design(config, criterion)
    assert known.achieved_information >= information_target(config, criterion) * (1.0 - 1e-12)
    prior = PrecisionPrior(shape, shape, assurance)
    assured = assured_design(config, prior, criterion)
    assert assured_criterion_met(assured.n, config, prior, criterion)
