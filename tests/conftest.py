from collections import Counter

import mpmath as mp
import pytest

from multiarm import datasets
from multiarm.posterior import update_posterior


@pytest.fixture(scope="session")
def dose_config():
    return datasets.case_study_config()


@pytest.fixture(scope="session")
def two_config():
    return datasets.two_treatment_config()


@pytest.fixture(scope="session")
def case_data():
    return datasets.case_study_data()


@pytest.fixture(scope="session")
def case_summary(dose_config, case_data):
    return update_posterior(dose_config.priors, case_data)


def _mp_normal_expect(slopes, offsets, dps=20):
    """mpmath reference for E[prod_j Phi(a_j U + c_j)], U ~ N(0, 1).

    Repeated (a_j, c_j) pairs are evaluated once and raised to their
    count. The integrand is log-concave, so a golden-section search finds
    its mode; the range is cut around the mode and around every factor's
    transition -c_j / a_j. mpmath's quad stops on an absolute error
    estimate, so the integrand is scaled to a peak of 1 to keep tiny
    values relatively accurate.
    """
    arms = Counter(zip(map(float, slopes), map(float, offsets)))
    with mp.workdps(dps):
        terms = [(mp.mpf(a), mp.mpf(c), m) for (a, c), m in arms.items()]

        def integrand(u):
            value = mp.npdf(u)
            for a, c, m in terms:
                z = a * u + c
                if z < 11:  # above 11, Phi(z) is within 1e-27 of 1
                    value *= mp.ncdf(z) ** m
            return value

        lo, hi = mp.mpf(-60), mp.mpf(60)
        g = (mp.sqrt(5) - 1) / 2
        for _ in range(70):
            u1, u2 = hi - g * (hi - lo), lo + g * (hi - lo)
            if integrand(u1) < integrand(u2):
                lo = u1
            else:
                hi = u2
        mode = (lo + hi) / 2
        cuts = {mode + d for d in (-12, -4, -1, 0, 1, 4, 12)}
        for a, c, _ in terms:
            if a != 0:
                cuts.update(-c / a + d / abs(a) for d in (-8, -1, 0, 1, 8))
        cuts = sorted(u for u in cuts if abs(u - mode) < 16)
        peak = integrand(mode)
        return float(peak * mp.quad(lambda u: integrand(u) / peak, [-mp.inf, *cuts, mp.inf]))


@pytest.fixture(scope="session")
def mp_normal_expect():
    return _mp_normal_expect
