"""Validation behaviour of the core dataclasses."""

import math

import pytest

from multiarm.exceptions import DataInconsistencyError, DomainError
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
            TrialData(n=(5, 5), mean=(0.0,), ss=(0.0, 0.0))

    def test_needs_two_arms(self):
        with pytest.raises(DomainError):
            TrialData(n=(5,), mean=(0.0,), ss=(0.0,))

    def test_empty_arm_must_be_blank(self):
        with pytest.raises(DomainError):
            TrialData(n=(0, 5), mean=(1.0, 0.0), ss=(0.0, 0.0))
        data = TrialData(n=(0, 5), mean=(0.0, 1.0), ss=(0.0, 9.0))
        assert data.n[0] == 0

    def test_ss_below_cauchy_schwarz_floor(self):
        # ss >= n * mean^2 must hold for any real sample.
        with pytest.raises(DataInconsistencyError):
            TrialData(n=(5, 5), mean=(2.0, 0.0), ss=(19.0, 0.0))

    @pytest.mark.parametrize("mean, ss, match", [
        ((math.nan, 1.0), (5.0, 5.0), "arm 0: mean must be finite"),
        ((0.0, -math.inf), (5.0, 5.0), "arm 1: mean must be finite"),
        ((0.0, 1.0), (5.0, math.inf), "arm 1: ss must be finite"),
    ])
    def test_rejects_non_finite(self, mean, ss, match):
        with pytest.raises(DomainError, match=match):
            TrialData(n=(5, 5), mean=mean, ss=ss)

    @pytest.mark.parametrize("mean, sd, match", [
        ((math.nan, 1.0, 2.0), (1.0, 1.0, 1.0), "arm 0: mean must be finite"),
        ((0.0, 1.0, 2.0), (1.0, 1.0, math.nan), "arm 2: sd must be finite"),
        ((0.0, 1.0, 2.0), (1.0, math.inf, 1.0), "arm 1: sd must be finite"),
        # Finite inputs whose sum of squares overflows to inf.
        ((0.0, 1e300, 2.0), (1.0, 1.0, 1.0), r"arm 1: mean 1e\+300 and sd 1.0"),
        ((0.0, 1.0, 2.0), (1.0, 1.0, 1e200), r"arm 2: mean 2.0 and sd 1e\+200"),
    ])
    def test_from_moments_rejects_non_finite(self, mean, sd, match):
        with pytest.raises(DomainError, match=match):
            TrialData.from_moments(n=(5, 5, 5), mean=mean, sd=sd)

    def test_sample_variance_needs_two_observations(self):
        data = TrialData(n=(1, 5), mean=(2.0, 1.0), ss=(4.0, 9.0))
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
