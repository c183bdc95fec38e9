"""Many-to-one frequentist comparator: criticals, designs, statistics, p-values."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, roots_legendre

from multiarm import datasets
from multiarm.distributions import EquicorrSpec, equicorr_max_quantile, normal_quantile
from multiarm.dunnett import (
    DunnettConfig,
    dunnett_critical,
    dunnett_design,
    dunnett_pvalue,
    per_pair_frequentist,
    pooled_pair_sd,
    z_statistics,
    z_statistics_pooled,
)
from multiarm.exceptions import (
    DataInconsistencyError,
    DomainError,
    UnsupportedConfigurationError,
)
from multiarm.model import TrialData


class TestCritical:
    def test_case_study_value(self):
        c = dunnett_critical(4, 0.05, (47,) * 5)
        assert c == pytest.approx(2.1603332811555105, rel=1e-10)
        assert c == pytest.approx(2.16, abs=0.01)

    def test_two_arm_matches_max_quantile(self):
        # The correlation through the shared control is n_j / (n_0 + n_j).
        c = dunnett_critical(2, 0.05, (100, 71, 71))
        want = equicorr_max_quantile(EquicorrSpec(k=2, rho=71.0 / 171.0), 0.95)
        assert c == pytest.approx(want, rel=1e-12)

    def test_single_comparison_is_normal_quantile(self):
        c = dunnett_critical(1, 0.05, (30, 30))
        assert c == pytest.approx(normal_quantile(0.95), abs=1e-10)

    def test_unequal_variance_ratios_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            dunnett_critical(2, 0.05, (50, 40, 60), sigmas=(1.0, 1.0, 1.0))

    def test_alpha_guard(self):
        with pytest.raises(DomainError):
            dunnett_critical(2, 0.0, (50, 50, 50))


class TestDesign:
    def test_case_study_equal_allocation(self):
        d = dunnett_design(datasets.case_study_frequentist_config())
        assert d.n == (47, 47, 47, 47, 47)
        assert d.total == 235
        assert d.fractional_n == pytest.approx((46.43855948793986,) * 5, rel=1e-9)
        assert d.critical == pytest.approx(2.1603332811555105, rel=1e-9)
        assert d.rho == pytest.approx(0.5)

    def test_two_arm_root_k_allocation(self):
        cfg = DunnettConfig(
            k=2, alpha=0.05, power=0.90, delta_star=0.5, sigma=1.0, allocation="sqrt_k"
        )
        d = dunnett_design(cfg)
        assert d.n == (100, 71, 71)
        assert d.total == 242
        assert d.fractional_n == pytest.approx(
            (99.43692094193212, 70.31252109835081, 70.31252109835081), rel=1e-9
        )
        assert d.rho == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)))
        assert d.critical == pytest.approx(1.9273470482623831, rel=1e-10)

    def test_power_is_attained_at_fractional_sizes(self):
        # P(Z_1 > c) at the design effect must equal the requested power.
        cfg = datasets.case_study_frequentist_config()
        d = dunnett_design(cfg)
        m0, m = d.fractional_n[0], d.fractional_n[1]
        se = cfg.sigma * math.sqrt(1.0 / m + 1.0 / m0)
        power = 1.0 - ndtr(d.critical - cfg.delta_star / se)
        assert power == pytest.approx(cfg.power, abs=1e-9)

    def test_numeric_allocation(self):
        base = dunnett_design(
            DunnettConfig(k=2, alpha=0.05, power=0.90, delta_star=0.5, sigma=1.0,
                          allocation=math.sqrt(2.0))
        )
        named = dunnett_design(
            DunnettConfig(k=2, alpha=0.05, power=0.90, delta_star=0.5, sigma=1.0,
                          allocation="sqrt_k")
        )
        assert base.n == named.n

    def test_config_validation(self):
        with pytest.raises(DomainError):
            DunnettConfig(k=0, alpha=0.05, power=0.9, delta_star=1.0, sigma=1.0)
        with pytest.raises(DomainError):
            DunnettConfig(k=2, alpha=0.05, power=1.0, delta_star=1.0, sigma=1.0)
        with pytest.raises(DomainError):
            DunnettConfig(k=2, alpha=0.05, power=0.9, delta_star=1.0, sigma=0.0)
        with pytest.raises(DomainError):
            DunnettConfig(k=2, alpha=0.05, power=0.9, delta_star=1.0, sigma=1.0,
                          allocation="harmonic")


class TestZStatistics:
    def test_actual_sizes_frozen(self, case_data):
        z = z_statistics(case_data, sigma=7.0)
        want = (
            7.140419752206102,
            8.37696062947386,
            7.721372406297646,
            10.29339057061719,
        )
        assert z == pytest.approx(want, rel=1e-10)

    def test_planned_sizes_frozen(self, case_data):
        z = z_statistics(case_data, sigma=7.0, sizes=(47,) * 5)
        want = (
            6.8560043697745225,
            7.964045480041113,
            7.340772355516157,
            9.833864853615982,
        )
        assert z == pytest.approx(want, rel=1e-10)

    def test_matches_direct_formula(self, case_data):
        z = z_statistics(case_data, sigma=7.0)
        j = 2
        se = 7.0 * math.sqrt(1.0 / case_data.n[j] + 1.0 / case_data.n[0])
        want = (case_data.mean[j] - case_data.mean[0]) / se
        assert z[j - 1] == pytest.approx(want, rel=1e-14)

    def test_sigma_guard(self, case_data):
        with pytest.raises(DomainError):
            z_statistics(case_data, sigma=0.0)


class TestPooled:
    def test_pair_sds_frozen(self, case_data):
        sds = tuple(pooled_pair_sd(case_data, j) for j in range(1, 5))
        want = (
            13.21524876799525,
            11.903780911962384,
            13.3843191832831,
            13.683038571693622,
        )
        assert sds == pytest.approx(want, rel=1e-10)

    def test_z_pooled_frozen(self, case_data):
        z = z_statistics_pooled(case_data)
        want = (
            3.7822169785022606,
            4.926058774098372,
            4.038278384125134,
            5.2659161645118315,
        )
        assert z == pytest.approx(want, rel=1e-10)

    def test_pooling_formula(self, case_data):
        j = 1
        n0, nj = case_data.n[0], case_data.n[j]
        s0 = case_data.sample_variance(0)
        sj = case_data.sample_variance(j)
        want = math.sqrt(((n0 - 1) * s0 + (nj - 1) * sj) / (n0 + nj - 2))
        assert pooled_pair_sd(case_data, j) == pytest.approx(want, rel=1e-14)

    def test_zero_variance_pair_rejected(self):
        flat = TrialData.from_moments(n=(3, 3), mean=(0.0, 1.0), sd=(0.0, 0.0))
        with pytest.raises(DataInconsistencyError):
            pooled_pair_sd(flat, 1)


class TestPValue:
    def test_frozen_values(self, case_data):
        p = dunnett_pvalue(case_data, z_star=5.21)
        assert p == pytest.approx(2.45834489389883e-07, rel=1e-9)
        p_max = dunnett_pvalue(case_data, z_star=5.2659161645118315)
        assert p_max == pytest.approx(1.8370326809587289e-07, rel=1e-9)

    def test_recovers_alpha_on_balanced_data(self):
        # With equal sizes and a shared sd the p-value at the critical point
        # is exactly the familywise level, whatever the observed ordering.
        data = TrialData.from_moments(
            n=(47,) * 5,
            mean=(0.0, 1.0, 4.0, 2.0, 3.0),
            sd=(7.0,) * 5,
        )
        c = dunnett_critical(4, 0.05, (47,) * 5)
        assert dunnett_pvalue(data, z_star=c) == pytest.approx(0.05, abs=1e-8)

    def test_single_comparison_closed_form(self):
        data = TrialData.from_moments(n=(30, 25), mean=(0.0, 1.3), sd=(2.0, 2.4))
        z_star = 1.9
        p = dunnett_pvalue(data, z_star=z_star)
        # One experimental arm: the contrast is scaled by that arm's sd on
        # both ends, so the event is linear in two independent normals and
        # the probability collapses to a single tail.
        s0, s1 = 2.0, 2.4
        n0, n1 = 30, 25
        a = (s1 / s0) * math.sqrt(n0 / n1)
        b = z_star * (s1 / s0) * math.sqrt((n0 + n1) / n1)
        want = ndtr(-b / math.sqrt(1.0 + a * a))
        assert p == pytest.approx(want, rel=1e-10)

    def test_quadrature_against_local_integration(self, case_data):
        # Independent assembly of the same selection event with plain
        # Gauss-Legendre over the winner's standardised mean.
        z_star = 2.5
        sds = tuple(math.sqrt(case_data.sample_variance(j)) for j in range(5))
        p = dunnett_pvalue(case_data, z_star=z_star)

        nodes, weights = roots_legendre(2000)
        lo, hi = -9.0, 15.0
        u = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * weights
        n = case_data.n
        total = 0.0
        for j in range(1, 5):
            a_j = (sds[j] / sds[0]) * math.sqrt(n[0] / n[j])
            b_j = z_star * (sds[j] / sds[0]) * math.sqrt((n[0] + n[j]) / n[j])
            inner = np.ones_like(u)
            for i in range(1, 5):
                if i == j:
                    continue
                inner *= ndtr(u * (sds[j] / sds[i]) * math.sqrt(n[i] / n[j]))
            total += float(np.sum(w * norm_pdf(u) * inner * ndtr(u * a_j - b_j)))
        assert p == pytest.approx(total, rel=1e-8)

    @pytest.mark.parametrize("z_star", [15.0, 25.0])
    def test_tail_against_mpmath(self, case_data, mp_normal_expect, z_star):
        # Far tails (about 3e-48 and 5e-130) keep their relative accuracy:
        # each arm's term, integrated by mpmath, over the winner's
        # standardised mean u with the other arms below it and the control
        # behind it.
        sds = [math.sqrt(case_data.sample_variance(j)) for j in range(5)]
        n = case_data.n
        want = 0.0
        for j in range(1, 5):
            slopes = [(sds[j] / sds[i]) * math.sqrt(n[i] / n[j]) for i in range(1, 5) if i != j]
            slopes.append((sds[j] / sds[0]) * math.sqrt(n[0] / n[j]))
            b_j = z_star * (sds[j] / sds[0]) * math.sqrt((n[0] + n[j]) / n[j])
            want += mp_normal_expect(slopes, [0.0, 0.0, 0.0, -b_j])
        assert dunnett_pvalue(case_data, z_star=z_star) == pytest.approx(want, rel=1e-10)

    def test_decreasing_in_z_star(self, case_data):
        grid = [2.0, 3.0, 4.0, 5.0, 6.0]
        ps = [dunnett_pvalue(case_data, z_star=z) for z in grid]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_nan_rejected(self, case_data):
        with pytest.raises(DomainError):
            dunnett_pvalue(case_data, z_star=math.nan)

    @pytest.mark.parametrize("z_star, want", [(math.inf, 0.0), (-math.inf, 1.0)])
    def test_infinite_reference(self, case_data, z_star, want):
        assert dunnett_pvalue(case_data, z_star=z_star) == want


def norm_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class TestPerPair:
    def test_two_arm_reference(self):
        d = per_pair_frequentist(k=2, alpha=0.05, power=0.90, delta_star=0.5, sigma=1.0)
        assert d.n == (83, 59, 59)
        assert d.total == 201
        assert d.fractional_n == pytest.approx(
            (82.69982568030208, 58.47760754148698, 58.47760754148698), rel=1e-9
        )

    def test_case_study_comparator(self):
        d = per_pair_frequentist(k=4, alpha=0.05, power=0.90, delta_star=5.0, sigma=7.0)
        assert d.n == (51, 26, 26, 26, 26)
        assert d.fractional_n == pytest.approx(
            (50.35542242192768,) + (25.17771121096384,) * 4, rel=1e-9
        )

    def test_root_two_allocation_algebra(self):
        # m = I (1 + sqrt(2)) / sqrt(2), m0 = I (1 + sqrt(2)) with
        # I = ((z95 + z90) / delta*)^2 per comparison.
        d = per_pair_frequentist(k=2, alpha=0.05, power=0.90, delta_star=0.5, sigma=1.0)
        info = ((normal_quantile(0.95) + normal_quantile(0.90)) / 0.5) ** 2
        root2 = math.sqrt(2.0)
        assert d.fractional_n[1] == pytest.approx(info * (1.0 + root2) / root2, rel=1e-12)
        assert d.fractional_n[0] == pytest.approx(info * (1.0 + root2), rel=1e-12)

    def test_equal_allocation_balances_arms(self):
        d = per_pair_frequentist(
            k=3, alpha=0.05, power=0.90, delta_star=1.0, sigma=2.0, control_ratio=1.0
        )
        assert d.fractional_n[0] == pytest.approx(d.fractional_n[1], rel=1e-12)
