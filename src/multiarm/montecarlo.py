"""Seeded Monte Carlo checks for the deterministic machinery.

Nothing here feeds back into designs or analyses; these routines exist
so that every quadrature result in the package can be validated against
brute force simulation, and so that a finished design can be audited by
scanning its decision space. Streams use the counter-based Philox
generator, which makes every estimate a pure function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import EquicorrSpec, normal_quantile
from .exceptions import DomainError
from .model import DesignConfig, DesignResult, Criterion, PosteriorSummary, PrecisionModel
from .posterior import _joint_below_given_control, _scaled_information

__all__ = [
    "McConfig",
    "McEstimate",
    "max_prob",
    "PosteriorDraws",
    "posterior_probs",
    "GuaranteeReport",
    "design_guarantee",
]

_CHUNK = 1 << 18


@dataclass(frozen=True)
class McConfig:
    """Simulation settings; estimates are reproducible given the seed."""

    seed: int
    n_draws: int = 1_000_000
    antithetic: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.n_draws, int) or self.n_draws < 2:
            raise DomainError(f"n_draws must be an integer >= 2, got {self.n_draws!r}")


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    se: float


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class _Accumulator:
    """Running mean and standard error over chunked draw values."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, values: np.ndarray) -> None:
        self.count += values.size
        self.total += float(values.sum())
        self.total_sq += float((values * values).sum())

    def result(self) -> McEstimate:
        mean = self.total / self.count
        var = max(self.total_sq - self.count * mean * mean, 0.0) / (self.count - 1)
        return McEstimate(estimate=mean, se=math.sqrt(var / self.count))


def _pair_chunks(n_draws: int, antithetic: bool):
    """Yield chunk sizes in units of draws (pairs count double)."""
    unit = 2 if antithetic else 1
    remaining = n_draws // unit
    while remaining > 0:
        m = min(remaining, _CHUNK)
        remaining -= m
        yield m


def max_prob(
    spec: EquicorrSpec,
    shift: float | Sequence[float],
    threshold: float,
    mc: McConfig,
) -> McEstimate:
    """Estimate P(max_j (shift_j + X_j) <= threshold) by simulation."""
    raw = np.asarray(shift, dtype=float)
    if raw.ndim > 1 or (raw.ndim == 1 and raw.shape[0] != spec.k):
        raise DomainError(f"shift must be a scalar or length-{spec.k} vector")
    shift_arr = np.broadcast_to(raw, (spec.k,))
    if np.any(np.isnan(shift_arr)):
        raise DomainError("shift must not contain NaN")
    threshold = float(threshold)
    rng = _generator(mc.seed)
    acc = _Accumulator()
    sq_rho = math.sqrt(spec.rho)
    sq_comp = math.sqrt(1.0 - spec.rho)
    for m in _pair_chunks(mc.n_draws, mc.antithetic):
        u = rng.standard_normal(m)
        z = rng.standard_normal((m, spec.k))
        scale = None
        if math.isfinite(spec.df):
            scale = np.sqrt(rng.chisquare(spec.df, m) / spec.df)

        def indicator(sign: float) -> np.ndarray:
            x = sq_rho * (sign * u)[:, None] + sq_comp * (sign * z)
            if scale is not None:
                x = x / scale[:, None]
            x = x + shift_arr[None, :]
            return np.all(x <= threshold, axis=1).astype(float)

        if mc.antithetic:
            acc.add(0.5 * (indicator(1.0) + indicator(-1.0)))
        else:
            acc.add(indicator(1.0))
    return acc.result()


@dataclass(frozen=True)
class PosteriorDraws:
    """Simulation estimates of the posterior decision quantities.

    ``all_below`` lines up with the thresholds passed in; ``superior``
    with the experimental arms."""

    superior: tuple[McEstimate, ...]
    any_superior: McEstimate
    all_below: tuple[McEstimate, ...]


def posterior_probs(
    summary: PosteriorSummary,
    precision: PrecisionModel,
    thresholds: Sequence[float],
    mc: McConfig,
) -> PosteriorDraws:
    """Sample arm means from the posterior and estimate the decision
    probabilities, mirroring the quadrature routines."""
    thresholds = tuple(float(c) for c in thresholds)
    if any(math.isnan(c) for c in thresholds):
        raise DomainError("thresholds must not contain NaN")
    k = summary.k
    qv, df = _scaled_information(summary, precision)
    mean = np.asarray(summary.mean)
    rng = _generator(mc.seed)
    sup_acc = [_Accumulator() for _ in range(k)]
    any_acc = _Accumulator()
    below_acc = [_Accumulator() for _ in thresholds]
    for m in _pair_chunks(mc.n_draws, mc.antithetic):
        z = rng.standard_normal((m, k + 1))
        if math.isinf(df):
            sd = np.broadcast_to(1.0 / np.sqrt(qv), (m, k + 1))
        else:
            w = rng.gamma(shape=0.5 * df, scale=2.0 / df, size=m)
            sd = 1.0 / np.sqrt(qv[None, :] * w[:, None])

        def effect_draws(sign: float) -> np.ndarray:
            mu = mean[None, :] + sd * (sign * z)
            return mu[:, 1:] - mu[:, [0]]

        signs = (1.0, -1.0) if mc.antithetic else (1.0,)
        parts = [effect_draws(s) for s in signs]
        for j in range(k):
            vals = [np.asarray(p[:, j] > 0.0, dtype=float) for p in parts]
            sup_acc[j].add(sum(vals) / len(vals))
        any_vals = [np.any(p > 0.0, axis=1).astype(float) for p in parts]
        any_acc.add(sum(any_vals) / len(any_vals))
        for i, c in enumerate(thresholds):
            below_vals = [np.all(p < c, axis=1).astype(float) for p in parts]
            below_acc[i].add(sum(below_vals) / len(below_vals))
    return PosteriorDraws(
        superior=tuple(a.result() for a in sup_acc),
        any_superior=any_acc.result(),
        all_below=tuple(a.result() for a in below_acc),
    )


@dataclass(frozen=True)
class GuaranteeReport:
    """Result of auditing a design's decision space.

    A violation is a posterior mean vector on which the trial could end
    undecided: nothing promising, yet the abandonment probability still
    short of its target."""

    n_checked: int
    n_violations: int
    min_all_below: float
    worst_point: tuple[float, ...]


def design_guarantee(
    design: DesignResult,
    config: DesignConfig,
    n_points: int,
    mc: McConfig,
) -> GuaranteeReport:
    """Scan the no-promising-treatment region for indecision.

    Covers the region with a corner-hugging grid plus uniform random
    fill, evaluates the joint shortfall probability on every point with
    the same quadrature the analysis uses, and reports the worst case.
    The region of interest is a box ending at the per-arm promising
    thresholds; for the weaker criterion, points are kept only when no
    treatment is jointly promising.
    """
    if not isinstance(n_points, int) or n_points < 2:
        raise DomainError(f"n_points must be an integer >= 2, got {n_points!r}")
    if design.k != config.k:
        raise DomainError(f"design has k={design.k} but config has k={config.k}")
    v = config.known_v()
    k = config.k
    q0 = np.asarray([p.information for p in config.priors])
    q1 = q0 + np.asarray(design.n)
    pair = q1[1:] * q1[0] / (q1[1:] + q1[0])
    sd = 1.0 / np.sqrt(pair * v)
    border = normal_quantile(config.eta) * sd

    weak = design.criterion == Criterion.ANY_PROMISING
    upper = border + (sd if weak else 0.0)
    lower = upper - 5.0 * sd

    # Corner-hugging grid: densest where the guarantee is tightest.
    per_dim = max(2, int((n_points / 2) ** (1.0 / k)))
    frac = np.linspace(0.0, 1.0, per_dim) ** 2
    axes = [upper[j] - 1e-9 * sd[j] - frac * 5.0 * sd[j] for j in range(k)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)

    rng = _generator(mc.seed)
    n_random = max(n_points - grid.shape[0], 0)
    random_pts = lower[None, :] + rng.random((n_random, k)) * (
        upper - lower - 1e-9 * sd
    )[None, :]
    points = np.vstack([grid, random_pts])

    n_checked = 0
    n_violations = 0
    min_below = math.inf
    worst = tuple(float(x) for x in points[0])
    slopes = np.sqrt(q1[1:] / q1[0])
    scale = np.sqrt(q1[1:] * v)

    def all_below(block: np.ndarray, threshold: float) -> np.ndarray:
        return _joint_below_given_control(slopes, (threshold - block) * scale, 1e-9)

    for idx in range(0, points.shape[0], 2048):
        block = points[idx : idx + 2048]
        if weak:
            any_sup = 1.0 - all_below(block, 0.0)
            keep = any_sup < config.eta
            block = block[keep]
            if block.size == 0:
                continue
        else:
            block = block[np.all(block < border[None, :], axis=1)]
            if block.size == 0:
                continue
        below = all_below(block, config.delta_star)
        n_checked += block.shape[0]
        n_violations += int(np.sum(below < config.zeta))
        i_min = int(np.argmin(below))
        if below[i_min] < min_below:
            min_below = float(below[i_min])
            worst = tuple(float(x) for x in block[i_min])
    return GuaranteeReport(
        n_checked=n_checked,
        n_violations=n_violations,
        min_all_below=min_below,
        worst_point=worst,
    )
