"""Closed-form references for the two-arm numbers.

For two arms the shared-control kernel is a bivariate normal CDF,

    E[Phi(a1 U + c1) Phi(a2 U + c2)] = Phi_2(c1 / s1, c2 / s2; a1 a2 / (s1 s2)),

with s_j = sqrt(1 + a_j**2), and Owen's T function gives that CDF without
any quadrature (D. B. Owen, "Tables for computing bivariate normal
probabilities", Ann. Math. Statist. 27 (1956) 1075-1090). Owen's sum
loses relative accuracy on tiny values through cancellation, so every
comparison here is absolute.
"""

import csv
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, owens_t

from multiarm._quad import normal_expect
from multiarm.design_known import boundary_curve, optimal_design
from multiarm.model import ArmPrior, Criterion, DesignConfig, DesignResult

ROOT = Path(__file__).resolve().parents[1]


def bivariate_normal_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard normals with correlation rho, |rho| < 1."""
    if h == -math.inf or k == -math.inf:
        return 0.0
    if math.isinf(h) or math.isinf(k):
        return float(ndtr(min(h, k)))
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    root = math.sqrt((1.0 - rho) * (1.0 + rho))

    def owen(x: float, y: float) -> float:
        # T(0, +-inf) = +-1/4.
        if x == 0.0:
            return math.copysign(0.25, y)
        return float(owens_t(x, (y - rho * x) / (x * root)))

    opposite = h < 0.0 < k or k < 0.0 < h
    beta = 0.5 if opposite or (0.0 in (h, k) and h + k < 0.0) else 0.0
    return 0.5 * float(ndtr(h)) + 0.5 * float(ndtr(k)) - owen(h, k) - owen(k, h) - beta


def two_arm_expect(slopes, offsets) -> float:
    """E[Phi(a1 U + c1) Phi(a2 U + c2)] for U ~ N(0, 1), in closed form."""
    (a1, a2), (c1, c2) = slopes, offsets
    s1, s2 = math.hypot(1.0, a1), math.hypot(1.0, a2)
    return bivariate_normal_cdf(c1 / s1, c2 / s2, a1 * a2 / (s1 * s2))


def boundary_shortfall(config: DesignConfig, q1, point) -> float:
    """Joint shortfall probability at posterior estimates ``point`` of a
    two-treatment design with posterior information ``q1``, control first."""
    v = config.known_v()
    slopes = [math.sqrt(q / q1[0]) for q in q1[1:]]
    offsets = [(config.delta_star - d) * math.sqrt(q * v) for d, q in zip(point, q1[1:])]
    return two_arm_expect(slopes, offsets)


_SLOPE = st.floats(-10.0, 10.0)
_OFFSET = st.floats(-8.0, 8.0)


@settings(max_examples=40, deadline=None)
@given(
    slopes=st.tuples(_SLOPE, _SLOPE),
    rows=st.lists(st.tuples(_OFFSET, _OFFSET), min_size=1, max_size=4),
)
def test_two_arm_kernel_against_owens_t(slopes, rows):
    got = normal_expect(np.array(slopes), np.array(rows), tol=1e-12)
    for value, offsets in zip(got, rows):
        assert value == pytest.approx(two_arm_expect(slopes, offsets), abs=1e-13)


@pytest.mark.parametrize("criterion", ["1", "2"])
def test_stored_boundary_points_meet_zeta(criterion):
    # Every stored abandonment point puts the joint shortfall at zeta.
    design_doc = json.loads((ROOT / "configs" / "two_treatment.json").read_text())["design"]
    priors = tuple(ArmPrior(p["mean"], p["information"]) for p in design_doc.pop("priors"))
    config = DesignConfig(priors=priors, **design_doc)
    design = optimal_design(config, Criterion(int(criterion)))
    q1 = [p.information + n for p, n in zip(priors, design.n)]
    path = ROOT / "tests" / "golden" / f"two_treatment-boundary-c{criterion}" / "boundary.csv"
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f"# criterion={criterion}"]
    points = [(float(x), float(y)) for tag, x, y in rows[2:] if tag == "Abandon"]
    assert len(points) == 25
    for point in points:
        assert abs(boundary_shortfall(config, q1, point) - config.zeta) <= 1e-13, point


# Arm sizes up to 500 and prior information up to 50 keep both kernel
# slopes moderate. Extreme designs (arm sizes up to 1e6, no priors) can
# meet the open two-steep-factor kernel defect, which raises
# NumericError from the kernel, so they are outside this test's domain.
@settings(max_examples=40, deadline=None)
@given(
    priors=st.lists(st.floats(0.0, 50.0), min_size=3, max_size=3),
    sizes=st.lists(st.integers(1, 500), min_size=3, max_size=3),
    delta_star=st.floats(0.1, 2.0),
    eta=st.floats(0.5, 0.99),
    zeta=st.floats(0.5, 0.99),
    v=st.floats(0.1, 10.0),
    steps=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=12),
)
def test_boundary_curve_solves_every_reachable_grid_value(
    priors, sizes, delta_star, eta, zeta, v, steps
):
    arm_priors = tuple(ArmPrior(0.0, q) for q in priors)
    config = DesignConfig(k=2, delta_star=delta_star, eta=eta, zeta=zeta, priors=arm_priors, v=v)
    design = DesignResult(
        criterion=Criterion.ALL_PROMISING, n=sizes, information_target=0.0, achieved_information=0.0
    )
    q1 = [q + n for q, n in zip(priors, sizes)]
    sd1 = 1.0 / math.sqrt(q1[0] * q1[1] / (q1[0] + q1[1]) * v)
    grid = sorted([-math.inf, -1e6, 1e6, math.inf, *(delta_star + sd1 * x for x in steps)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        curve = boundary_curve(config, design, grid=grid)
        elapsed = time.perf_counter() - start

    # Loose on purpose: a shared host can stall a process for a while.
    assert elapsed < 2.0
    # As d2 falls the shortfall rises to arm 1's marginal, so exactly the
    # grid values where that marginal exceeds zeta have a boundary point.
    reached = [x for x in grid if ndtr((delta_star - x) / sd1) > zeta]
    assert [d1 for d1, _ in curve.points] == reached
    for point in curve.points:
        assert abs(boundary_shortfall(config, q1, point) - zeta) <= 1e-11, point
    d2 = [y for _, y in curve.points]
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(d2, d2[1:]))
