"""Validation behaviour of the core dataclasses."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiarm.design_unknown import update_precision
from multiarm.dunnett import dunnett_pvalue, pooled_pair_sd, z_statistics_pooled
from multiarm.exceptions import DataInconsistencyError, DomainError, TrialDesignError
from multiarm.model import (
    ArmPrior,
    Criterion,
    DesignConfig,
    DesignResult,
    GammaPrecision,
    PerArmPrecision,
    PrecisionPrior,
    TrialData,
)


def _priors(k, info=4.0):
    return (ArmPrior(0.0, info),) + tuple(ArmPrior(0.5, info) for _ in range(k))


def test_arm_prior_rejects_negative_information():
    with pytest.raises(DomainError):
        ArmPrior(mean=0.0, information=-1.0)


def test_criterion_enum_values():
    assert Criterion.ALL_PROMISING == 1
    assert Criterion.ANY_PROMISING == 2
    assert Criterion(2) is Criterion.ANY_PROMISING


class TestDesignConfig:
    def test_allocation_defaults_to_sqrt_k(self):
        cfg = DesignConfig(k=4, delta_star=1.0, eta=0.9, zeta=0.9, priors=_priors(4), v=1.0)
        assert cfg.allocation_ratio == pytest.approx(2.0)
        assert cfg.rho == pytest.approx(1.0 / 3.0)

    def test_explicit_allocation(self):
        cfg = DesignConfig(
            k=2, delta_star=1.0, eta=0.9, zeta=0.9, priors=_priors(2), v=1.0, allocation=1.0
        )
        assert cfg.allocation_ratio == 1.0
        assert cfg.rho == 0.5

    def test_prior_count_must_match_k(self):
        with pytest.raises(DomainError):
            DesignConfig(k=3, delta_star=1.0, eta=0.9, zeta=0.9, priors=_priors(2), v=1.0)

    @pytest.mark.parametrize("eta", [0.4999, 1.0, 1.5])
    def test_eta_range(self, eta):
        with pytest.raises(DomainError):
            DesignConfig(k=2, delta_star=1.0, eta=eta, zeta=0.9, priors=_priors(2), v=1.0)

    @pytest.mark.parametrize("zeta", [0.0, 1.0])
    def test_zeta_range(self, zeta):
        with pytest.raises(DomainError):
            DesignConfig(k=2, delta_star=1.0, eta=0.9, zeta=zeta, priors=_priors(2), v=1.0)

    def test_half_levels_are_allowed(self):
        cfg = DesignConfig(k=2, delta_star=1.0, eta=0.5, zeta=0.5, priors=_priors(2), v=1.0)
        assert cfg.eta == 0.5

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
    def test_delta_star_must_be_positive(self, delta):
        with pytest.raises(DomainError):
            DesignConfig(k=2, delta_star=delta, eta=0.9, zeta=0.9, priors=_priors(2), v=1.0)

    def test_known_v_requires_v(self):
        cfg = DesignConfig(k=2, delta_star=1.0, eta=0.9, zeta=0.9, priors=_priors(2))
        with pytest.raises(DomainError):
            cfg.known_v()

    def test_bad_v_and_allocation(self):
        with pytest.raises(DomainError):
            DesignConfig(k=2, delta_star=1.0, eta=0.9, zeta=0.9, priors=_priors(2), v=0.0)
        with pytest.raises(DomainError):
            DesignConfig(
                k=2, delta_star=1.0, eta=0.9, zeta=0.9, priors=_priors(2), v=1.0, allocation=-2.0
            )


class TestTrialData:
    def test_from_moments_round_trip(self):
        data = TrialData.from_moments(n=(10, 12), mean=(1.0, 2.0), sd=(3.0, 4.0))
        assert data.sample_sd(0) == pytest.approx(3.0)
        assert data.sample_variance(1) == pytest.approx(16.0)
        assert data.k == 1
        assert data.total == 22

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            TrialData(n=(5, 5), mean=(0.0,), within_ss=(0.0, 0.0))

    def test_needs_two_arms(self):
        with pytest.raises(DomainError):
            TrialData(n=(5,), mean=(0.0,), within_ss=(0.0,))

    def test_empty_arm_must_be_blank(self):
        with pytest.raises(DomainError):
            TrialData(n=(0, 5), mean=(1.0, 0.0), within_ss=(0.0, 0.0))
        data = TrialData(n=(0, 5), mean=(0.0, 1.0), within_ss=(0.0, 4.0))
        assert data.n[0] == 0

    def test_ss_below_cauchy_schwarz_floor(self):
        # Raw sums obey ss >= n * mean^2 for any real sample.
        with pytest.raises(DataInconsistencyError, match="arm 0: ss=19.0 is below the minimum"):
            TrialData.from_sums(n=(5, 5), mean=(2.0, 0.0), ss=(19.0, 0.0))
        # A finite ss cannot match a mean whose n * mean^2 overflows.
        with pytest.raises(DataInconsistencyError, match="arm 1: ss=5.0 is below the minimum inf"):
            TrialData.from_sums(n=(5, 5), mean=(0.0, 1e300), ss=(5.0, 5.0))
        data = TrialData.from_sums(n=(5, 5), mean=(2.0, 0.0), ss=(24.0, 0.0))
        assert data.within_ss == (4.0, 0.0)

    @pytest.mark.parametrize("mean, ss, match", [
        ((math.nan, 1.0), (5.0, 5.0), "arm 0: mean must be finite"),
        ((0.0, -math.inf), (5.0, 5.0), "arm 1: mean must be finite"),
        ((0.0, 1.0), (5.0, math.inf), "arm 1: ss must be finite"),
    ])
    def test_rejects_non_finite(self, mean, ss, match):
        with pytest.raises(DomainError, match=match):
            TrialData.from_sums(n=(5, 5), mean=mean, ss=ss)

    @pytest.mark.parametrize("within", [-1.0, math.inf, math.nan])
    def test_within_ss_must_be_finite_and_non_negative(self, within):
        with pytest.raises(DomainError, match="arm 1: within_ss must be finite and >= 0"):
            TrialData(n=(5, 5), mean=(0.0, 1.0), within_ss=(4.0, within))

    @pytest.mark.parametrize("mean, sd, match", [
        ((math.nan, 1.0, 2.0), (1.0, 1.0, 1.0), "arm 0: mean must be finite"),
        ((0.0, 1.0, 2.0), (1.0, 1.0, math.nan), "arm 2: sd must be finite"),
        ((0.0, 1.0, 2.0), (1.0, math.inf, 1.0), "arm 1: sd must be finite"),
        # A finite sd whose sum of squares overflows to inf.
        ((0.0, 1.0, 2.0), (1.0, 1.0, 1e200), "arm 2: sd must be finite, >= 0 and give a"),
    ])
    def test_from_moments_rejects_non_finite(self, mean, sd, match):
        with pytest.raises(DomainError, match=match):
            TrialData.from_moments(n=(5, 5, 5), mean=mean, sd=sd)

    def test_from_moments_exact_at_any_mean(self):
        # Within-arm sums do not depend on the mean, so a huge mean (here
        # one whose raw sum of squares would overflow) leaves the sd exact.
        data = TrialData.from_moments(n=(5, 5, 5), mean=(0.0, 1e300, 2.0), sd=(1.0, 1.0, 1.0))
        assert data.sample_sd(1) == 1.0
        data = TrialData.from_moments(n=(7, 7), mean=(0.0, 3.3333333e7), sd=(1.0, 0.7))
        assert data.sample_sd(1) == 0.7
        # Raw sums cancelled here, and the Dunnett p-value raised.
        data = TrialData.from_moments(n=(5, 5, 5), mean=(0.0, 1e8, 2e8), sd=(1.0, 1.0, 1.0))
        assert [data.sample_sd(j) for j in range(3)] == [1.0, 1.0, 1.0]
        assert 0.0 <= dunnett_pvalue(data, max(z_statistics_pooled(data))) <= 1.0

    def test_sample_variance_needs_two_observations(self):
        data = TrialData(n=(1, 5), mean=(2.0, 1.0), within_ss=(0.0, 4.0))
        with pytest.raises(DomainError):
            data.sample_variance(0)


class TestPrecisionModels:
    def test_gamma_parameters_positive(self):
        with pytest.raises(DomainError):
            GammaPrecision(alpha=0.0, beta=1.0)
        with pytest.raises(DomainError):
            GammaPrecision(alpha=1.0, beta=-1.0)
        assert GammaPrecision(2.0, 4.0).mean == pytest.approx(0.5)

    def test_per_arm_entries_positive(self):
        with pytest.raises(DomainError):
            PerArmPrecision(v=(1.0, 0.0))

    @pytest.mark.parametrize("assurance", [0.2, 1.0])
    def test_prior_assurance_range(self, assurance):
        with pytest.raises(DomainError):
            PrecisionPrior(alpha=1.0, beta=49.0, assurance=assurance)


def test_design_result_accessors():
    res = DesignResult(
        criterion=Criterion.ALL_PROMISING,
        n=(86, 68, 68),
        information_target=41.9,
        achieved_information=42.2,
    )
    assert res.total == 222
    assert res.k == 2
    with pytest.raises(DomainError):
        DesignResult(
            criterion=Criterion.ALL_PROMISING,
            n=(-1, 68, 68),
            information_target=41.9,
            achieved_information=42.2,
        )


def _spread_statistics(n, mean, sd, priors):
    """Everything computed from within-arm spread, or the error raised."""
    try:
        data = TrialData.from_moments(n=n, mean=mean, sd=sd)
        z = z_statistics_pooled(data)
        return {
            "sd": [data.sample_sd(j) for j in range(data.k + 1)],
            "pooled_sd": [pooled_pair_sd(data, j) for j in range(1, data.k + 1)],
            "z": list(z),
            "p_value": [dunnett_pvalue(data, max(z))],
            "contributions": list(
                update_precision(priors, PrecisionPrior(1.0, 1.0, 0.9), data).contributions
            ),
        }
    except TrialDesignError as exc:  # the same failure on both sides is invariance too
        return {"error": [f"{type(exc).__name__}: {exc}"]}


@settings(max_examples=60, deadline=None)
@given(
    arms=st.lists(
        st.tuples(
            st.integers(2, 200),
            st.floats(-100.0, 100.0),
            st.floats(0.01, 100.0, exclude_min=True),
            st.floats(-100.0, 100.0),
            st.floats(0.0, 50.0),
        ),
        min_size=2,
        max_size=6,
    ),
    shift=st.one_of(st.just(0.0), st.floats(200.0, 1e8), st.floats(-1e8, -200.0)),
)
def test_location_shift_leaves_spread_unchanged(arms, shift):
    # Adding a constant to every data and prior mean moves no spread
    # statistic. The shifted means are rounded, so the unshifted side uses
    # those rounded means less the shift; with |shift| >= 200 and means in
    # [-100, 100] that subtraction is exact (Sterbenz), so both sides see
    # exactly the same mean differences.
    n, mean, sd, prior_mean, info = zip(*arms)
    moved = [tuple(m + shift for m in means) for means in (mean, prior_mean)]
    back = [tuple(m - shift for m in means) for means in moved]

    def stats(data_mean, prior_means):
        priors = [ArmPrior(m, q) for m, q in zip(prior_means, info)]
        return _spread_statistics(n, data_mean, sd, priors)

    base, shifted = stats(*back), stats(*moved)
    if "error" in base or "error" in shifted:
        assert shifted == base
    for key in base:
        assert shifted[key] == pytest.approx(base[key], rel=1e-15, abs=0.0), key
