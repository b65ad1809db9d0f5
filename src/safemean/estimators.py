"""Safe mean estimators under a single dispatch interface.

All estimators are downward corrections of the sample mean: deflation by a
fixed tolerance, worst case over a 1-Wasserstein ball, truncation with a
moment-based compensator, variance regularization, total-variation mass
removal, and the KL-ball worst case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import EstimateResult, RadiusSchedule, Sample, sample_mean
from .dual import _TILE_VALUES, _exponents, solve_kl_dro_dual

__all__ = [
    "EstimatorConfig",
    "ESTIMATOR_KINDS",
    "estimate",
    "sample_mean_delta",
    "wasserstein_estimator",
    "truncated_mean_estimator",
    "truncation_constants",
    "variance_reg_estimator",
    "tv_estimator",
    "kl_dro_estimator",
    "kl_disappointment_bound",
    "kl_disappointment_bound_general",
]

ESTIMATOR_KINDS = ("mean", "wasserstein", "trunc", "varreg", "tv", "kl")


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run and with what parameters.

    The radius/exponent may come from a fixed `r`, a fixed `lam`, or a
    RadiusSchedule resolved at the sample size. `delta` only applies to
    "mean"; (a, A) only to "trunc".
    """

    kind: str
    delta: float = 0.0
    r: Optional[float] = None
    lam: Optional[float] = None
    schedule: Optional[RadiusSchedule] = None
    a: float = 2.0
    A: float = 1.0

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.kind == "trunc":
            truncation_constants(self.a, self.A)

    def resolve_radius(self, n: int) -> float:
        """r(n) for this configuration; lam and schedules divide by n."""
        if self.r is not None:
            return self.r
        if self.lam is not None:
            return self.lam / n
        if self.schedule is not None:
            return self.schedule.radius(n)
        raise ValueError(f"estimator {self.kind!r} needs one of r, lam, or a schedule")

    def resolve_lambda(self, n: int) -> float:
        if self.lam is not None:
            return self.lam
        if self.schedule is not None:
            return self.schedule.lam(n)
        if self.r is not None:
            return self.r * n
        raise ValueError(f"estimator {self.kind!r} needs one of r, lam, or a schedule")


def sample_mean_delta(s: Sample, delta: float = 0.0) -> float:
    """Sample mean deflated by a fixed tolerance; not clamped at zero."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return sample_mean(s) - delta


def wasserstein_estimator(s: Sample, r: float) -> float:
    """Smallest mean over the 1-Wasserstein ball of radius r on the half-line.

    Transporting mass downward lowers the mean one-for-one in transport cost
    until it piles up at zero, so the optimum is max(mean - r, 0).
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    return max(sample_mean(s) - r, 0.0)


def truncation_constants(a: float, A: float):
    """(C, c_a) for the truncated-mean compensator given a moment bound E[z^a] <= A."""
    if not (1.0 < a <= 2.0):
        raise ValueError("truncation exponent a must lie in (1, 2]")
    if A <= 0:
        raise ValueError("moment bound A must be positive")
    C = min(1.0 / ((a - 1.0) * a**a), A * math.exp(a) * 2.0 / (2.0 + a))
    c_a = (a - 1.0) ** (-(a - 1.0) / a) * a * C ** (1.0 / a)
    return C, c_a


def truncated_mean_estimator(s: Sample, a: float, A: float, lam: float) -> float:
    """Mean of observations truncated at r^{-1/a} minus the compensator c_a r^{(a-1)/a}."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    _, c_a = truncation_constants(a, A)
    r = lam / s.n
    threshold = r ** (-1.0 / a)
    truncated = np.minimum(s.values, threshold)
    return float(np.mean(truncated)) - c_a * r ** ((a - 1.0) / a)


def row_std(X: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Standard deviation (1/n divisor) of each row of X about its given mean.

    numpy's own two-pass X.std(axis=1) on the passed means: subtract, square,
    sum over n, divide by n, sqrt, _TILE_VALUES values at a time in one reused
    buffer. The deviations are scaled by 2**-e, e the binary exponent of the
    row's mean, so squares of deviations from a mean near 1e300 or 1e-300
    neither overflow nor underflow; the scaling is exact, so every other row
    gets X.std(axis=1) bit for bit.
    """
    B, n = X.shape
    rows = max(1, _TILE_VALUES // n)
    e = _exponents(means)
    scale = np.ldexp(1.0, -e)[:, None]
    buf = np.empty((min(rows, B), n))
    out = np.empty(B)
    for i in range(0, B, rows):
        T = buf[: min(rows, B - i)]
        np.subtract(X[i : i + rows], means[i : i + rows, None], out=T)
        T *= scale[i : i + rows]
        np.multiply(T, T, out=T)
        T.sum(axis=1, out=out[i : i + rows])
    out /= n
    return np.ldexp(np.sqrt(out, out=out), e)


def variance_reg_estimator(s: Sample, lam: float) -> float:
    """Sample mean minus sqrt(2 r) times the sample standard deviation."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    r = lam / s.n
    X = s.values[None, :]
    mean = X.mean(axis=1)
    return float(mean[0] - math.sqrt(2.0 * r) * row_std(X, mean)[0])


def tv_estimator(s: Sample, lam: float, truncate_at: float = math.inf) -> float:
    """Mean after moving probability sqrt(r/2) from the largest observations to zero.

    Observations are first truncated at `truncate_at` (default: none). Walking
    from the largest value downward, atoms of weight 1/n are removed (the last
    one fractionally) until total mass sqrt(r/2) has been reassigned to zero.
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    r = lam / s.n
    removal = math.sqrt(r / 2.0)
    if removal > 1.0:
        raise ValueError(f"sqrt(r/2) = {removal:g} exceeds 1; radius too large for mass removal")
    values = np.minimum(s.values, truncate_at)
    n = values.size
    base = float(np.mean(values))
    remaining = removal
    removed_value = 0.0
    for i in range(n - 1, -1, -1):
        if remaining <= 0.0:
            break
        take = min(1.0 / n, remaining)
        removed_value += take * float(values[i])
        remaining -= take
    return base - removed_value


def kl_dro_estimator(s: Sample, r: float) -> EstimateResult:
    """Smallest mean over the KL ball of radius r; r = 0 gives the sample mean."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    if r == 0.0:
        return EstimateResult(sample_mean(s), "kl", {"alpha_star": math.inf, "nu": sample_mean(s), "atom": 0.0})
    sol = solve_kl_dro_dual(s, r)
    diag = {
        "alpha_star": sol.alpha_star,
        "nu": sol.nu,
        "atom": sol.atom,
        "iterations": sol.iterations,
        "radius": r,
    }
    return EstimateResult(sol.value, "kl", diag)


def kl_disappointment_bound(n: int, lam: float) -> float:
    """Non-asymptotic disappointment bound min(1, (e lam log n + e^2) e^{-lam}).

    Requires n >= 2 and lam > 1.
    """
    if n < 2:
        raise ValueError("bound requires n >= 2")
    if lam <= 1.0:
        raise ValueError("bound requires lambda > 1")
    raw = (math.e * lam * math.log(n) + math.e**2) * math.exp(-lam)
    return min(1.0, raw)


def kl_disappointment_bound_general(n: int, lam: float, m: Optional[float] = None) -> float:
    """Unclamped bound e^{-lam} (m e + exp(2 n e^{-m/lam})) for a free grid size m.

    Defaults to m = lam log n, which recovers the headline bound before
    clamping. Requires (1 - 1/lam)^m <= 1/2, satisfied by the default.
    """
    if n < 2:
        raise ValueError("bound requires n >= 2")
    if lam <= 1.0:
        raise ValueError("bound requires lambda > 1")
    if m is None:
        m = lam * math.log(n)
    if m <= 0:
        raise ValueError("grid size m must be positive")
    if (1.0 - 1.0 / lam) ** m > 0.5:
        raise ValueError("grid size m too small: (1 - 1/lambda)^m must be <= 1/2")
    return math.exp(-lam) * (m * math.e + math.exp(2.0 * n * math.exp(-m / lam)))


def estimate(cfg: EstimatorConfig, s: Sample) -> EstimateResult:
    """Dispatch a configured estimator on a sample."""
    kind = cfg.kind
    if kind == "mean":
        return EstimateResult(sample_mean_delta(s, cfg.delta), "mean")
    if kind == "wasserstein":
        return EstimateResult(wasserstein_estimator(s, cfg.resolve_radius(s.n)), "wasserstein")
    if kind == "trunc":
        return EstimateResult(
            truncated_mean_estimator(s, cfg.a, cfg.A, cfg.resolve_lambda(s.n)), "trunc"
        )
    if kind == "varreg":
        return EstimateResult(variance_reg_estimator(s, cfg.resolve_lambda(s.n)), "varreg")
    if kind == "tv":
        return EstimateResult(tv_estimator(s, cfg.resolve_lambda(s.n)), "tv")
    if kind == "kl":
        return kl_dro_estimator(s, cfg.resolve_radius(s.n))
    raise ValueError(f"unknown estimator kind {kind!r}")
