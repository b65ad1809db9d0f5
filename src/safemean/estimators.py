"""Safe mean estimators under a single dispatch interface, each defined once.

All estimators are downward corrections of the sample mean: deflation by a
fixed tolerance, worst case over a 1-Wasserstein ball, truncation with a
moment-based compensator, variance regularization, total-variation mass
removal, and the KL-ball worst case; beside them, the screen's bracket on
each kind's value (_brackets) and the bounds a report carries. `estimate`
runs a sample as a batch of one of the harness's kernels, on the sorted
sample (the harness averages rows in draw order, so the two can differ in
the last bits). EstimatorConfig.resolve_radius alone reads a radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DistributionSpec, EstimateResult, RadiusSchedule, Sample, survival_probability
from .dual import DualSolverError, _exponents, _row_means, _variance_bracket, kl_value_upper_bound, solve_kl_dro_dual

__all__ = [
    "EstimatorConfig",
    "ESTIMATOR_KINDS",
    "estimate",
    "truncation_constants",
    "kl_disappointment_bound",
]

ESTIMATOR_KINDS = ("mean", "wasserstein", "trunc", "varreg", "tv", "kl")
# the configuration fields a kind reads; the kinds not named read a radius alone
_FIELDS_READ = {"mean": ("delta",), "trunc": ("r", "lam", "schedule", "a", "A")}


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run and with what parameters.

    The radius comes from exactly one source: a fixed `r`, a fixed exponent
    `lam` (r = lam/n), or a RadiusSchedule resolved at the sample size. Every
    kind but "mean" needs one and "mean" takes none; r and lam must be
    non-negative, and positive for "trunc". `delta` (default 0) only applies
    to "mean" and (a, A) (default (2, 1)) only to "trunc": a field the kind
    never reads is an error, not ignored.
    """

    kind: str
    delta: Optional[float] = None
    r: Optional[float] = None
    lam: Optional[float] = None
    schedule: Optional[RadiusSchedule] = None
    a: Optional[float] = None
    A: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        sources = sum(value is not None for value in (self.r, self.lam, self.schedule))
        if sources > 1:
            raise ValueError("give at most one of r, lam, schedule")
        if sources == 0 and self.kind != "mean":
            raise ValueError(f"estimator {self.kind!r} needs one of r, lam, schedule")
        for name, value in (("radius r", self.r), ("lambda", self.lam)):
            if value is not None and not 0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
            if value == 0 and self.kind == "trunc":
                raise ValueError(f"{name} must be positive for trunc")
        reads = _FIELDS_READ.get(self.kind, ("r", "lam", "schedule"))
        fields = _FIELDS_READ["trunc"] + ("delta",)
        unread = [name for name in fields if getattr(self, name) is not None and name not in reads]
        if unread:
            raise ValueError(f"estimator {self.kind!r} does not take {', '.join(unread)}")
        if self.kind == "mean":
            object.__setattr__(self, "delta", 0.0 if self.delta is None else self.delta)
            if not 0 <= self.delta < math.inf:
                raise ValueError(f"delta must be non-negative and finite, got {self.delta!r}")
        if self.kind == "trunc":
            object.__setattr__(self, "a", 2.0 if self.a is None else self.a)
            object.__setattr__(self, "A", 1.0 if self.A is None else self.A)
            truncation_constants(self.a, self.A)

    def resolve_radius(self, n: int) -> float:
        """r(n) for this configuration, the radius every kernel uses; lam and schedules divide by n."""
        return self.r if self.r is not None else self.resolve_lambda(n) / n

    def resolve_lambda(self, n: int) -> float:
        """lambda(n) = r(n) * n, the exponent the disappointment bounds take."""
        if self.lam is not None:
            return self.lam
        if self.schedule is not None:
            return self.schedule.lam(n)
        if self.r is not None:
            return self.r * n
        raise ValueError(f"estimator {self.kind!r} has no radius")


def truncation_constants(a: float, A: float):
    """(C, c_a) for the truncated-mean compensator given a moment bound E[z^a] <= A."""
    if not (1.0 < a <= 2.0):
        raise ValueError("truncation exponent a must lie in (1, 2]")
    if not 0 < A < math.inf:  # NaN fails too
        raise ValueError("moment bound A must be positive and finite")
    C = min(1.0 / ((a - 1.0) * a**a), A * math.exp(a) * 2.0 / (2.0 + a))
    c_a = (a - 1.0) ** (-(a - 1.0) / a) * a * C ** (1.0 / a)
    return C, c_a


def kl_disappointment_bound(n: int, lam: float) -> float:
    """Non-asymptotic disappointment bound min(1, (e lam log n + e^2) e^{-lam}).

    Requires n >= 2 and 1 < lam < inf.
    """
    if n < 2:
        raise ValueError("bound requires n >= 2")
    if not 1.0 < lam < math.inf:  # NaN fails too
        raise ValueError("bound requires lambda > 1 and finite")
    raw = (math.e * lam * math.log(n) + math.e**2) * math.exp(-lam)
    return min(1.0, raw)


def _event_bound(cfg: EstimatorConfig, event: str, n: int, spec: DistributionSpec, b: float):
    """The bound on the estimator's disappointment or conservatism probability
    at n that a TrialReport carries, or None where there is none."""
    if event == "disappointment" and cfg.kind == "kl" and cfg.resolve_lambda(n) > 1.0 and n >= 2:
        return kl_disappointment_bound(n, cfg.resolve_lambda(n))
    if event == "disappointment" and cfg.kind == "trunc":
        return math.exp(-cfg.resolve_lambda(n))
    if event == "conservatism" and cfg.kind == "varreg" and cfg.resolve_radius(n) > 0.0:  # r = 0 is the sample mean
        return n * survival_probability(spec, b * math.sqrt(n / (2.0 * cfg.resolve_radius(n))))
    return None


def row_std(X: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Standard deviation (1/n divisor) of each row of X about its given mean.

    numpy's own two-pass X.std(axis=1) on the passed means: subtract, square,
    sum over n, divide by n, sqrt, in one work buffer of X's size (the harness
    passes one tile). The deviations are scaled by 2**-e, e the binary
    exponent of the row's mean, so squares of deviations from a mean near
    1e300 or 1e-300 neither overflow nor underflow; the scaling is exact, so
    every other row gets X.std(axis=1) bit for bit.
    """
    e = _exponents(means)
    T = np.subtract(X, means[:, None])
    T *= np.ldexp(1.0, -e)[:, None]
    np.multiply(T, T, out=T)
    out = T.sum(axis=1) / X.shape[1]
    return np.ldexp(np.sqrt(out, out=out), e)


def _varreg_bracket(means, sumsq, n: int, r: float):
    """Certified brackets [lo, hi] on the values the varreg kernel computes,
    means - sqrt(2 r) row_std(X, means), for rows of n values >= 0, from each
    row's computed mean m and sum of squares s; NaN where none is certified.

    row_std is the standard deviation s_m about m, which the square roots
    s_lo and s_hi of dual._variance_bracket's bounds bracket. With u = eps / 2,
    row_std is within (n + 8) u of s_m relative (deviations, squares, sum,
    division and sqrt), sqrt(2 r) and the product within u each, and the
    final subtraction within u (m + sqrt(2 r) s_m); the bracket's own
    operations add a few u more. So rho = (n + 16) eps (m + sqrt(2 r) s_hi)
    is subtracted from lo and added to hi. A row where m**2 or s / n is not a
    normal float (its squares underflow or overflow, or m is inf) gets NaN.
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    c = math.sqrt(2.0 * r)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        s_lo, s_hi = np.sqrt(np.maximum(_variance_bracket(means, sumsq, n), 0.0))
        rho = (n + 16) * eps * (means + c * s_hi)
        lo, hi = means - c * s_hi - rho, means - c * s_lo + rho
        ok = (np.minimum(sumsq / n, means * means) >= tiny) & (sumsq / n < np.inf)
    return np.where(ok, lo, np.nan), np.where(ok, hi, np.nan)


def _brackets(cfg: EstimatorConfig, T: np.ndarray, means: np.ndarray, tops: np.ndarray):
    """Certified brackets [lo, hi] on the estimates of the rows of a tile the
    harness drew, the bracket its screen reads for every kind.

    For KL at r > 0, hi is dual.kl_value_upper_bound and lo is -inf; for
    varreg, _varreg_bracket; every other kind gets [-inf, mean]. Both bounds
    take one np.vecdot per row beside the mean and maximum the draw made. A
    row whose squares underflow or overflow gets a NaN bound; it is bounded
    again on the row scaled by 2**-e, e the exponent of its maximum (both
    bounds are homogeneous of degree 1 and the scaling is exact), and the
    bound scaled back. A row whose mean is not a normal float stays NaN.
    """
    n = T.shape[1]
    r = cfg.resolve_radius(n) if cfg.kind in ("kl", "varreg") else 0.0
    if cfg.kind == "varreg":
        def bound(means, sumsq, tops):
            return _varreg_bracket(means, sumsq, n, r)
    elif cfg.kind == "kl" and r > 0.0:
        def bound(means, sumsq, tops):
            return np.full(len(means), -np.inf), kl_value_upper_bound(means, sumsq, tops, n, r)
    else:
        return np.full(len(T), -np.inf), means
    with np.errstate(over="ignore"):  # an overflowing sum of squares gets a NaN bound
        lo, hi = bound(means, np.vecdot(T, T), tops)
    redo = np.flatnonzero(np.isnan(hi) & (means >= np.finfo(float).tiny) & (means < np.inf))
    if redo.size:
        e = _exponents(tops[redo])
        S = np.ldexp(T[redo], -e[:, None])
        scaled = bound(np.ldexp(means[redo], -e), np.vecdot(S, S), np.ldexp(tops[redo], -e))
        lo[redo], hi[redo] = (np.ldexp(x, e) for x in scaled)
    return lo, hi


def _closed_form(cfg: EstimatorConfig, X: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Row-wise values of every kind but kl at r > 0, which the batch dual solver computes, for a (batch, n)
    matrix of samples whose row means are given; an overflow is a non-finite value."""
    n = X.shape[1]
    kind = cfg.kind
    if kind == "mean":
        return means - cfg.delta
    r = cfg.resolve_radius(n)
    if kind == "wasserstein":  # moving mass down lowers the mean one-for-one until it piles up at zero
        return np.maximum(means - r, 0.0)
    if kind == "trunc":
        _, c_a = truncation_constants(cfg.a, cfg.A)
        Y = np.minimum(X, r ** (-1.0 / cfg.a))
        return _row_means(Y, Y.max(axis=1)) - c_a * r ** ((cfg.a - 1.0) / cfg.a)
    if kind == "varreg":
        return means - math.sqrt(2.0 * r) * row_std(X, means)
    if kind == "tv":  # mass sqrt(r/2) moves from the largest values to zero: whole atoms, then a fraction
        removal = math.sqrt(r / 2.0)
        if removal > 1.0:
            raise ValueError(f"sqrt(r/2) = {removal:g} exceeds 1; radius too large for mass removal")
        S = np.sort(X, axis=1)[:, ::-1]
        atoms = int(math.floor(removal * n))
        removed = S[:, :atoms].sum(axis=1) / n  # zeros when no whole atom moves
        frac = removal - atoms / n
        if atoms < n and frac > 0.0:
            removed = removed + frac * S[:, atoms]
        return means - removed
    return means  # kl at r = 0


def estimate(cfg: EstimatorConfig, s: Sample) -> EstimateResult:
    """Run a configured estimator on one sample: kl at a positive radius is the
    smallest mean over the KL ball, with the solver's diagnostics; every other
    kind, and kl at r = 0 (the sample mean), is a batch of one of _closed_form.
    A non-finite value raises DualSolverError."""
    r = cfg.resolve_radius(s.n) if cfg.kind == "kl" else 0.0
    if r > 0.0:
        sol = solve_kl_dro_dual(s, r)
        diag = {"alpha_star": sol.alpha_star, "nu": sol.nu, "atom": sol.atom, "iterations": sol.iterations, "radius": r}
        return EstimateResult(sol.value, "kl", diag)
    X = s.values[None, :]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a non-finite estimate, which raises
        value = float(_closed_form(cfg, X, _row_means(X, X[:, -1]))[0])
    if not math.isfinite(value):
        raise DualSolverError(f"non-finite {cfg.kind} estimate in the sample")
    diag = {"alpha_star": math.inf, "nu": value, "atom": 0.0} if cfg.kind == "kl" else {}
    return EstimateResult(value, cfg.kind, diag)
