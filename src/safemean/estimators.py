"""Safe mean estimators under a single dispatch interface.

All estimators are downward corrections of the sample mean: deflation by a
fixed tolerance, worst case over a 1-Wasserstein ball, truncation with a
moment-based compensator, variance regularization, total-variation mass
removal, and the KL-ball worst case. `estimate` runs every kind but kl at a
positive radius as a batch of one of the Monte Carlo harness kernels
(montecarlo._estimate_batch): the same kernel, on the sorted sample. The
harness averages its rows in draw order, so the two can differ in the last
bits. kl calls solve_kl_dro_dual for its diagnostics, a batch of one of the
sorted sample. EstimatorConfig.resolve_radius is the one place a radius is
read from a configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import EstimateResult, RadiusSchedule, Sample
from .dual import solve_kl_dro_dual

__all__ = [
    "EstimatorConfig",
    "ESTIMATOR_KINDS",
    "estimate",
    "truncation_constants",
    "kl_disappointment_bound",
    "kl_disappointment_bound_general",
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
            if value is not None and not value >= 0:  # NaN fails too
                raise ValueError(f"{name} must be non-negative, got {value!r}")
            if value == 0 and self.kind == "trunc":
                raise ValueError(f"{name} must be positive for trunc")
        reads = _FIELDS_READ.get(self.kind, ("r", "lam", "schedule"))
        fields = _FIELDS_READ["trunc"] + ("delta",)
        unread = [name for name in fields if getattr(self, name) is not None and name not in reads]
        if unread:
            raise ValueError(f"estimator {self.kind!r} does not take {', '.join(unread)}")
        if self.kind == "mean":
            object.__setattr__(self, "delta", 0.0 if self.delta is None else self.delta)
            if not self.delta >= 0:
                raise ValueError(f"delta must be non-negative, got {self.delta!r}")
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
    if A <= 0:
        raise ValueError("moment bound A must be positive")
    C = min(1.0 / ((a - 1.0) * a**a), A * math.exp(a) * 2.0 / (2.0 + a))
    c_a = (a - 1.0) ** (-(a - 1.0) / a) * a * C ** (1.0 / a)
    return C, c_a


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
    """Run a configured estimator on one sample.

    kl at a positive radius is the smallest mean over the KL ball, with the
    solver's diagnostics. Every other kind, and kl at r = 0 (the sample mean),
    is a batch of one of the harness kernels, and a non-finite value raises
    DualSolverError.
    """
    r = cfg.resolve_radius(s.n) if cfg.kind == "kl" else 0.0
    if r > 0.0:
        sol = solve_kl_dro_dual(s, r)
        diag = {"alpha_star": sol.alpha_star, "nu": sol.nu, "atom": sol.atom, "iterations": sol.iterations, "radius": r}
        return EstimateResult(sol.value, "kl", diag)
    from .montecarlo import _finite_estimates  # deferred: montecarlo imports this module

    X = s.values[None, :]
    with np.errstate(over="ignore"):  # an overflowing mean is a non-finite estimate, which raises
        means = X.mean(axis=1)
    if np.isfinite(means[0]):  # rounding can carry the mean of equal values past them
        means = np.clip(means, s.values[0], s.values[-1])
    value = float(_finite_estimates(cfg, X, means, "the sample")[0])
    diag = {"alpha_star": math.inf, "nu": value, "atom": 0.0} if cfg.kind == "kl" else {}
    return EstimateResult(value, cfg.kind, diag)
