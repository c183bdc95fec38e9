"""Sample size determination with known response precision."""

import math

import pytest

from multiarm.design_known import (
    borderline_threshold,
    boundary_curve,
    information_target,
    integer_search,
    optimal_design,
)
from multiarm.distributions import EquicorrSpec, equicorr_max_quantile, normal_quantile
from multiarm.exceptions import DomainError, UnsupportedConfigurationError
from multiarm.model import ArmPrior, Criterion, DesignConfig

C1 = Criterion.ALL_PROMISING
C2 = Criterion.ANY_PROMISING


def test_information_targets_frozen(two_config, dose_config):
    # The k = 2 max quantile behind the first value has its CDF within
    # 2e-14 of zeta by mpmath (tests/conftest.py), x = 1.5914778896157293.
    assert information_target(two_config, C1) == pytest.approx(41.89536674050464, rel=1e-12)
    assert information_target(two_config, C2) == pytest.approx(34.255389402671895, rel=1e-12)
    assert information_target(dose_config, C1) == pytest.approx(0.499403176448309, rel=1e-12)
    assert information_target(dose_config, C2) == pytest.approx(0.34255389402671893, rel=1e-12)


def test_information_target_formula(two_config):
    # Independent assembly from the defining quantiles.
    z_eta = normal_quantile(two_config.eta)
    x = equicorr_max_quantile(EquicorrSpec(k=2, rho=two_config.rho), two_config.zeta)
    want = ((z_eta + x) / two_config.delta_star) ** 2
    assert information_target(two_config, C1) == pytest.approx(want, rel=1e-12)
    z_zeta = normal_quantile(two_config.zeta)
    want2 = ((z_eta + z_zeta) / two_config.delta_star) ** 2
    assert information_target(two_config, C2) == pytest.approx(want2, rel=1e-12)


def test_two_treatment_designs(two_config):
    d1 = optimal_design(two_config, C1)
    assert d1.n == (86, 68, 68)
    assert d1.total == 222
    assert d1.fractional_n == pytest.approx(
        (85.14436258671343, 67.51986466385598, 67.51986466385598), rel=1e-10
    )
    d2 = optimal_design(two_config, C2)
    assert d2.n == (67, 55, 55)
    assert d2.total == 177
    assert d2.fractional_n == pytest.approx(
        (66.69982568030208, 54.47760754148698, 54.47760754148698), rel=1e-10
    )


def test_dose_designs(dose_config):
    d1 = optimal_design(dose_config, C1)
    assert d1.n == (64, 35, 35, 35, 35)
    assert d1.total == 204
    d2 = optimal_design(dose_config, C2)
    assert d2.n == (41, 24, 24, 24, 24)
    assert d2.total == 137
    assert d2.fractional_n[0] == pytest.approx(40.355422421927685, rel=1e-10)


def test_design_meets_its_target(two_config, dose_config):
    for cfg in (two_config, dose_config):
        for crit in (C1, C2):
            d = optimal_design(cfg, crit)
            assert d.achieved_information >= d.information_target - 1e-12


def test_prior_information_reduces_recruitment(two_config):
    flat = DesignConfig(
        k=2,
        delta_star=two_config.delta_star,
        eta=two_config.eta,
        zeta=two_config.zeta,
        priors=(ArmPrior(0.0),) * 3,
        v=1.0,
    )
    assert optimal_design(flat, C1).total > optimal_design(two_config, C1).total


def test_control_rich_priors_can_zero_the_control_arm(two_config):
    priors = (ArmPrior(0.0, 102.0),) + two_config.priors[1:]
    cfg = DesignConfig(
        k=2, delta_star=0.5, eta=0.95, zeta=0.90, priors=priors, v=1.0
    )
    d = optimal_design(cfg, C1)
    assert d.n[0] == 0
    assert d.n == (0, 68, 68)


def test_integer_search_221(two_config):
    designs = integer_search(two_config, C1, 221)
    assert tuple(d.n for d in designs) == (
        (79, 71, 71),
        (81, 70, 70),
        (83, 69, 69),
        (85, 68, 68),
        (87, 67, 67),
        (89, 66, 66),
        (91, 65, 65),
    )
    assert all(d.total == 221 for d in designs)
    v = two_config.known_v()
    target = information_target(two_config, C1)
    for d in designs:
        q1 = [p.information + n for p, n in zip(two_config.priors, d.n)]
        pair = min(q * q1[0] / (q + q1[0]) for q in q1[1:])
        assert pair * v >= target - 1e-12


def test_integer_search_220_is_infeasible(two_config):
    assert integer_search(two_config, C1, 220) == ()


def test_integer_search_needs_symmetric_priors(two_config):
    priors = (two_config.priors[0], ArmPrior(0.25, 4.0), ArmPrior(0.25, 8.0))
    cfg = DesignConfig(k=2, delta_star=0.5, eta=0.95, zeta=0.90, priors=priors, v=1.0)
    with pytest.raises(UnsupportedConfigurationError):
        integer_search(cfg, C1, 221)


def test_borderline_threshold(two_config):
    d = optimal_design(two_config, C1)
    # At the exactly sized fractional design the pairwise information
    # equals the target, and the published borderline estimate follows.
    thr = borderline_threshold(two_config, d.information_target / two_config.known_v())
    assert thr == pytest.approx(0.2541231666968537, rel=1e-10)
    assert thr == pytest.approx(0.2537, abs=5e-4)


def test_borderline_threshold_zero_at_even_odds(two_config):
    cfg = DesignConfig(
        k=2, delta_star=0.5, eta=0.5, zeta=0.9, priors=two_config.priors, v=1.0
    )
    assert borderline_threshold(cfg, 40.0) == 0.0


class TestBoundaryCurve:
    def test_passes_through_threshold_corner(self, two_config):
        # With the exactly sized fractional design, the abandonment
        # contour meets the corner where both treatments are borderline
        # promising; that is how the information target is defined.
        d = optimal_design(two_config, C1)
        pair = d.information_target / two_config.known_v()
        t = borderline_threshold(two_config, pair)
        curve = boundary_curve(two_config, d, grid=[t], use_fractional=True)
        assert curve.promising_thresholds == pytest.approx((t, t), rel=1e-12)
        assert len(curve.points) == 1
        assert curve.points[0][1] == pytest.approx(t, abs=1e-7)

    def test_curve_is_monotone(self, two_config):
        d = optimal_design(two_config, C1)
        curve = boundary_curve(two_config, d)
        assert len(curve.points) > 10
        d2 = [p[1] for p in curve.points]
        assert all(b <= a + 1e-12 for a, b in zip(d2, d2[1:]))

    def test_low_tail_asymptote(self, two_config):
        d = optimal_design(two_config, C1)
        v = two_config.known_v()
        q1 = [p.information + n for p, n in zip(two_config.priors, d.n)]
        pair2 = q1[2] * q1[0] / (q1[2] + q1[0])
        sigma2 = 1.0 / math.sqrt(pair2 * v)
        want = two_config.delta_star - normal_quantile(two_config.zeta) * sigma2
        curve = boundary_curve(two_config, d, grid=[-40.0])
        assert curve.points[0][1] == pytest.approx(want, abs=1e-6)

    def test_unreachable_grid_values_are_skipped(self, two_config):
        d = optimal_design(two_config, C1)
        curve = boundary_curve(two_config, d, grid=[50.0])
        assert curve.points == ()

    def test_requires_two_treatments(self, dose_config):
        d = optimal_design(dose_config, C1)
        with pytest.raises(UnsupportedConfigurationError):
            boundary_curve(dose_config, d)


def test_zero_information_design_collapses():
    cfg = DesignConfig(
        k=2,
        delta_star=1.0,
        eta=0.5,
        zeta=0.5,
        priors=(ArmPrior(0.0, 1.0), ArmPrior(0.0, 1.0), ArmPrior(0.0, 1.0)),
        v=1.0,
    )
    d = optimal_design(cfg, C2)
    assert d.total == 0


def test_zero_target_without_any_prior_information():
    cfg = DesignConfig(
        k=2,
        delta_star=1.0,
        eta=0.5,
        zeta=0.5,
        priors=(ArmPrior(0.0),) * 3,
        v=1.0,
    )
    d = optimal_design(cfg, C2)
    assert d.total == 0
    assert d.achieved_information == 0.0


def test_criterion_mismatch_guard(two_config):
    with pytest.raises(DomainError):
        information_target(two_config, 3)
