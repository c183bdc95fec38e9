"""Posterior updating and the decision probabilities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, stdtr

from multiarm import datasets
from multiarm.exceptions import DomainError
from multiarm.model import (
    ArmPrior,
    Criterion,
    GammaPrecision,
    KnownPrecision,
    Outcome,
    PerArmPrecision,
    PosteriorSummary,
    TrialData,
)
from multiarm.posterior import (
    decide,
    prob_all_below,
    prob_any_superior,
    prob_pairwise_better,
    prob_superior,
    update_posterior,
)

V = datasets.CASE_STUDY_V


@pytest.fixture(scope="module")
def per_arm(case_data):
    return PerArmPrecision(tuple(1.0 / case_data.sample_variance(j) for j in range(5)))


@pytest.fixture(scope="module")
def gamma_posterior(dose_config, case_data):
    from multiarm.design_unknown import update_precision

    upd = update_precision(dose_config.priors, datasets.case_study_precision_prior(), case_data)
    return GammaPrecision(upd.alpha, upd.beta)


class TestUpdatePosterior:
    def test_case_study_moments(self, case_summary):
        assert case_summary.information == (62.0, 52.0, 54.0, 54.0, 53.0)
        assert case_summary.mean == pytest.approx(
            (2.3483870967741933, 12.557692307692308, 14.103703703703705,
             13.23703703703704, 16.69811320754717),
            rel=1e-12,
        )
        assert case_summary.effects == pytest.approx(
            (10.209305210918115, 11.755316606929512, 10.888649940262846,
             14.349726110772977),
            rel=1e-12,
        )
        assert case_summary.pair_information[0] == pytest.approx(
            28.280701754385966, rel=1e-12
        )

    def test_against_published_rounding(self, case_summary):
        published_mean = (2.35, 12.56, 14.10, 13.24, 16.70)
        for got, want in zip(case_summary.mean, published_mean):
            assert got == pytest.approx(want, abs=0.01)

    def test_hand_computed_single_arm(self):
        prior = (ArmPrior(0.0, 4.0), ArmPrior(1.0, 1.0))
        data = TrialData(n=(8, 2), mean=(0.5, 2.0), within_ss=(2.0, 1.0))
        s = update_posterior(prior, data)
        assert s.mean[0] == pytest.approx((4.0 * 0.0 + 8 * 0.5) / 12.0)
        assert s.mean[1] == pytest.approx((1.0 * 1.0 + 2 * 2.0) / 3.0)
        assert s.information == (12.0, 3.0)
        assert s.pair_information[0] == pytest.approx(12.0 * 3.0 / 15.0)

    def test_no_data_returns_prior(self, dose_config):
        data = TrialData(n=(0,) * 5, mean=(0.0,) * 5, within_ss=(0.0,) * 5)
        s = update_posterior(dose_config.priors, data)
        assert s.mean == tuple(p.mean for p in dose_config.priors)
        assert s.information == tuple(p.information for p in dose_config.priors)

    def test_prior_count_guard(self, case_data):
        with pytest.raises(DomainError):
            update_posterior((ArmPrior(0.0),) * 3, case_data)


class TestProbSuperior:
    def test_closed_form(self, case_summary):
        # Under a known precision each comparison is a plain normal tail.
        for j in (1, 2, 3, 4):
            d = case_summary.effects[j - 1]
            pair = case_summary.pair_information[j - 1]
            want = ndtr(d * math.sqrt(pair * V))
            assert prob_superior(case_summary, KnownPrecision(V), j) == pytest.approx(
                want, abs=1e-15
            )

    def test_frozen_values(self, case_summary, per_arm, gamma_posterior):
        assert prob_superior(case_summary, per_arm, 1) == pytest.approx(
            0.9999772089369298, rel=1e-10
        )
        assert prob_superior(case_summary, gamma_posterior, 1) == pytest.approx(
            0.9999663375722577, rel=1e-10
        )

    def test_arm_range(self, case_summary):
        with pytest.raises(DomainError):
            prob_superior(case_summary, KnownPrecision(V), 0)
        with pytest.raises(DomainError):
            prob_superior(case_summary, KnownPrecision(V), 5)


class TestProbAllBelow:
    def test_frozen_common(self, case_summary):
        kp = KnownPrecision(V)
        assert prob_all_below(case_summary, kp, 10.0) == pytest.approx(
            0.00025262448800646766, rel=1e-9
        )
        assert prob_all_below(case_summary, kp, 15.0) == pytest.approx(
            0.6889849080760392, rel=1e-9
        )

    def test_frozen_per_arm(self, case_summary, per_arm):
        assert prob_all_below(case_summary, per_arm, 10.0) == pytest.approx(
            0.016814954633633993, rel=1e-9
        )
        assert prob_all_below(case_summary, per_arm, 15.0) == pytest.approx(
            0.562206378250961, rel=1e-9
        )

    def test_frozen_gamma(self, case_summary, gamma_posterior):
        assert prob_all_below(case_summary, gamma_posterior, 10.0) == pytest.approx(
            0.019710127219610952, rel=1e-8
        )
        assert prob_all_below(case_summary, gamma_posterior, 15.0) == pytest.approx(
            0.563134437801311, rel=1e-8
        )

    def test_against_published(self, case_summary, per_arm, gamma_posterior):
        cases = [
            (KnownPrecision(V), 0.000253, 0.689),
            (per_arm, 0.0168, 0.562),
            (gamma_posterior, 0.0197, 0.563),
        ]
        for precision, want10, want15 in cases:
            assert prob_all_below(case_summary, precision, 10.0) == pytest.approx(
                want10, abs=2e-3
            )
            assert prob_all_below(case_summary, precision, 15.0) == pytest.approx(
                want15, abs=2e-3
            )

    def test_equal_per_arm_matches_common(self, case_summary):
        same = PerArmPrecision((V,) * 5)
        for c in (5.0, 10.0, 15.0):
            assert prob_all_below(case_summary, same, c) == pytest.approx(
                prob_all_below(case_summary, KnownPrecision(V), c), abs=1e-12
            )

    def test_concentrated_gamma_matches_known(self, case_summary):
        scale = 2e7
        tight = GammaPrecision(alpha=V * scale, beta=scale)
        for c in (10.0, 15.0):
            assert prob_all_below(case_summary, tight, c) == pytest.approx(
                prob_all_below(case_summary, KnownPrecision(V), c), abs=1e-4
            )

    def test_gamma_narrower_than_double_precision_is_known(self, case_summary):
        # Shape 1e40: the log-precision domain rounds to a point, V = 1.
        scale = 1e40 / V
        point = GammaPrecision(alpha=V * scale, beta=scale)
        for c in (0.0, 10.0, 15.0):
            assert prob_all_below(case_summary, point, c) == pytest.approx(
                prob_all_below(case_summary, KnownPrecision(point.mean), c), abs=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(
        log_alpha=st.floats(math.log(0.1), math.log(1e6)),
        log_mean=st.floats(math.log(1e-2), math.log(1e2)),
        q0=st.floats(0.5, 500.0),
        q1=st.floats(0.5, 500.0),
        z=st.floats(-8.0, 8.0),
    )
    def test_single_arm_gamma_is_student(self, log_alpha, log_mean, q0, q1, z):
        # With one experimental arm the shortfall under a gamma precision
        # is a Student tail in closed form, for every shape.
        alpha = math.exp(log_alpha)
        beta = alpha / math.exp(log_mean)
        pair = q0 * q1 / (q0 + q1)
        gap = z / math.sqrt(pair * alpha / beta)
        summary = PosteriorSummary(
            mean=(0.0, 1.0), information=(q0, q1), effects=(1.0,), pair_information=(pair,)
        )
        got = prob_all_below(summary, GammaPrecision(alpha, beta), 1.0 + gap)
        assert got == pytest.approx(stdtr(2.0 * alpha, z), abs=1e-10)

    def test_monotone_in_threshold(self, case_summary, gamma_posterior):
        vals = [prob_all_below(case_summary, gamma_posterior, c) for c in (8.0, 12.0, 16.0, 20.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_single_treatment_closed_form(self):
        s = PosteriorSummary(
            mean=(0.0, 1.0), information=(9.0, 6.0), effects=(1.0,), pair_information=(3.6,)
        )
        want = ndtr((2.0 - 1.0) * math.sqrt(3.6 * 0.5))
        assert prob_all_below(s, KnownPrecision(0.5), 2.0) == pytest.approx(want, abs=1e-12)

    def test_threshold_nan_rejected(self, case_summary):
        with pytest.raises(DomainError):
            prob_all_below(case_summary, KnownPrecision(V), math.nan)


def test_any_superior_complements_all_below(case_summary, per_arm, gamma_posterior):
    for precision in (KnownPrecision(V), per_arm, gamma_posterior):
        assert prob_any_superior(case_summary, precision) == pytest.approx(
            1.0 - prob_all_below(case_summary, precision, 0.0), abs=1e-15
        )


class TestPairwise:
    def test_frozen_per_arm(self, case_summary, per_arm):
        got = tuple(prob_pairwise_better(case_summary, per_arm, j, 4) for j in (1, 2, 3))
        assert got == pytest.approx(
            (0.07273529981660595, 0.15825573168769236, 0.11190850515470419), rel=1e-10
        )
        for g, want in zip(got, (0.073, 0.158, 0.112)):
            assert g == pytest.approx(want, abs=2e-3)

    def test_complement(self, case_summary, per_arm, gamma_posterior):
        for precision in (KnownPrecision(V), per_arm, gamma_posterior):
            p = prob_pairwise_better(case_summary, precision, 2, 3)
            q = prob_pairwise_better(case_summary, precision, 3, 2)
            assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_against_control_matches_prob_superior(self, case_summary, per_arm):
        for precision in (KnownPrecision(V), per_arm):
            assert prob_pairwise_better(case_summary, precision, 2, 0) == pytest.approx(
                prob_superior(case_summary, precision, 2), abs=1e-12
            )

    def test_same_arm_rejected(self, case_summary):
        with pytest.raises(DomainError):
            prob_pairwise_better(case_summary, KnownPrecision(V), 2, 2)


class TestDecide:
    def test_case_study_proceeds(self, case_summary, dose_config, per_arm, gamma_posterior):
        for precision in (KnownPrecision(V), per_arm, gamma_posterior):
            d = decide(case_summary, precision, dose_config)
            assert d.outcome is Outcome.PROCEED
            assert d.promising == (1, 2, 3, 4)
            assert not d.abandon

    def test_abandon(self, two_config):
        s = PosteriorSummary(
            mean=(0.0, -0.5, -0.6),
            information=(102.0, 72.0, 72.0),
            effects=(-0.5, -0.6),
            pair_information=(42.2, 42.2),
        )
        d = decide(s, KnownPrecision(1.0), two_config)
        assert d.outcome is Outcome.ABANDON
        assert d.promising == ()

    def test_neither(self, two_config):
        # Tiny information: nothing promising, abandonment unsure either.
        s = PosteriorSummary(
            mean=(0.0, 0.2, 0.2),
            information=(2.0, 1.0, 1.0),
            effects=(0.2, 0.2),
            pair_information=(2.0 / 3.0, 2.0 / 3.0),
        )
        d = decide(s, KnownPrecision(1.0), two_config)
        assert d.outcome is Outcome.NEITHER

    def test_exact_corner_is_both(self, two_config):
        # Posterior estimates sitting exactly on both thresholds at the
        # exactly sized design: promising and abandonment fire together,
        # which is the defining identity of the information target.
        from multiarm.design_known import borderline_threshold, optimal_design

        design = optimal_design(two_config, Criterion.ALL_PROMISING)
        pair = design.information_target / two_config.known_v()
        t = borderline_threshold(two_config, pair)
        q0 = pair * 2.0  # symmetric split: q1j = q10 = 2 * pair info
        s = PosteriorSummary(
            mean=(0.0, t, t),
            information=(q0, q0, q0),
            effects=(t, t),
            pair_information=(pair, pair),
        )
        d = decide(s, KnownPrecision(1.0), two_config)
        assert d.outcome is Outcome.BOTH
        assert d.promising == (1, 2)
        assert d.abandon

    def test_k_mismatch(self, case_summary, two_config):
        with pytest.raises(DomainError):
            decide(case_summary, KnownPrecision(V), two_config)
