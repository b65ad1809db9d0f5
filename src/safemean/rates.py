"""Large-deviation side of the analysis: the Cramer rate of the sample-mean
left tail, the population KL dual and the variance ratio of its worst-case
likelihood ratio, and least-squares fits of measured decay rates.

Every expectation is a law's expect(c, g) = E[g(c z)]: the Laplace
transform and the Cramer rate take c = -s, the population dual and the
variance ratio c = atilde. The rate and the ratio do not change when z is
scaled, so both are computed for the law scaled to mean 1 (scaled(mean)).
scipy is imported inside the routines that use it (quad by core's one
quadrature; here Brent's bracketed methods from scipy.optimize, and digamma),
so importing the package loads numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DistributionSpec, UniformBounded, _law, true_mean

__all__ = [
    "RateFit",
    "cramer_rate",
    "laplace_transform",
    "rate_fit",
    "variance_ratio_curve",
    "solve_population_dual",
    "pareto_variance_ratio_limit",
]

MAX_ATILDE = 1e12  # largest population dual point sought, for the law scaled to mean 1


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay fit of log p against log n (log-log) or n (log-linear)."""

    points: tuple
    slope: float
    intercept: float
    r_squared: float
    axis: str


def laplace_transform(spec: DistributionSpec, s: float) -> float:
    """E[exp(-s z)] for s >= 0; adaptive quadrature for the continuous tails."""
    if not s >= 0:  # NaN fails too
        raise ValueError("s must be non-negative")
    if s == 0:
        return 1.0
    if isinstance(spec, UniformBounded):  # exp(-s lo) (1 - exp(-s d)) / (s d), d = hi - lo, by expm1; 1 at s d = 0
        sd = s * (spec.hi - spec.lo)
        return math.exp(-s * spec.lo) * (-math.expm1(-sd) / sd if sd > 0.0 else 1.0)
    return _law(spec).expect(-s, math.exp)


def _exp_excess(u: float) -> float:
    """e**u - 1 - u; where |u| < 1, its Taylor series u**2/2 (1 + u/3 (1 + ... u/20)) by
    Horner's rule (later terms are below 1e-17 of the sum), which does not cancel near 0."""
    if abs(u) >= 1.0:
        return math.expm1(u) - u
    return functools.reduce(lambda total, k: 1.0 + total * u / k, range(20, 2, -1), 1.0) * u * u / 2.0


def _log1p_excess(v: float) -> float:
    """-v - log1p(-v) for 0 <= v < 1/2, its series v**2/2 + v**3/3 + ... to v**60/60 by Horner's rule
    (later terms are below 1e-17 of the sum): every term is positive, so nothing cancels."""
    return functools.reduce(lambda total, k: total * v + 1.0 / k, range(60, 1, -1), 0.0) * v * v


def cramer_rate(spec: DistributionSpec, b: float) -> float:
    """Left-tail large-deviation exponent sup_{s>0} (b - mu) s - log E[exp(-s z)].

    Zero at b = 0; positive for b in (0, mu]; +inf, before any search, when the event
    mean < mu - b is impossible: P[z <= mu - b] = 0, so mu - b is at most the law's minimum
    and survival is 1 there, with no atom. The rate is unchanged by z -> z / mu, b -> b / mu,
    so it is computed at mean 1. The objective is concave in s: s is halved or doubled from
    1 until the maximum is bracketed, then a bounded Brent search runs in log s, so a
    maximizer far below 1 is found (5e-17 for LogNormal(0, 5) at b = 0.5).
    While x = E[expm1(-s z)] > -1/2 it is b s - q + (x - log1p(x)), q = x + s mu,
    free of cancellation near s = 0 (_exp_excess, _log1p_excess). A saturating
    objective (e.g. an atom at zero as s -> inf) returns its limit value.
    """
    if not 0 <= b < math.inf:  # NaN fails too
        raise ValueError("b must be non-negative and finite")
    if b == 0.0:
        return 0.0
    mu = true_mean(spec)
    if mu - b <= spec.minimum() and spec.survival(mu - b) == 1.0:  # above it, survival alone can round to 1
        return math.inf  # P[z <= mu - b] = 0, also where z = 0 almost surely
    spec, b = spec.scaled(mu), b / mu
    mu = true_mean(spec)

    def f(t: float) -> float:  # the objective at s = exp(t)
        s = math.exp(t)
        q = spec.expect(-s, _exp_excess)
        if q - s * mu > -0.5:
            return b * s - q + _log1p_excess(s * mu - q)
        transform = laplace_transform(spec, s)
        return (b - mu) * s - math.log(transform) if transform > 0.0 else math.inf

    h, t = math.log(2.0), 0.0
    f_prev, f_cur = f(t - h), f(t)
    while f_prev > f_cur and t > -690.0:  # halve s while that raises f, down to s = 1e-300
        t -= h
        f_prev, f_cur = f(t - h), f_prev
    expansions = 0
    while f_cur >= f_prev:
        if f_cur - f_prev <= 1e-12 * f_cur:
            return max(f_cur, 0.0)  # saturated (e.g. -log P[z = 0])
        t += h
        f_prev, f_cur = f_cur, f(t)
        expansions += 1
        if expansions > 120 or f_cur > 1e6:
            return math.inf  # event is impossible; rate grows without bound
    from scipy.optimize import minimize_scalar

    peak = minimize_scalar(lambda t: -f(t), bounds=(t - 2.0 * h, t), method="bounded", options={"xatol": 1e-9})
    return max(float(-peak.fun), 0.0)


def rate_fit(points: Sequence, axis: str = "log-log") -> RateFit:
    """Least squares of log p against log n (axis="log-log") or n (axis="log-linear").

    Every point must be finite with n >= 1; those with p_hat <= 0 are dropped, and 3 positive ones at 2
    distinct n are needed.
    """
    if axis not in ("log-log", "log-linear"):
        raise ValueError(f"unknown axis {axis!r}")
    if not np.all(np.isfinite(np.asarray(points, dtype=float))):
        raise ValueError("every point must be finite")
    if any(n < 1 for n, _ in points):
        raise ValueError("every point's n must be >= 1")
    kept = [(float(n), float(p)) for n, p in points if p > 0.0]
    x = np.array([math.log(n) if axis == "log-log" else n for n, _ in kept])
    if len(kept) < 3 or len(set(x)) < 2:  # points at one n fix no slope
        raise ValueError(f"need 3 points with p_hat > 0 at 2 or more distinct n, got {len(kept)} at {len(set(x))}")
    y = np.array([math.log(p) for _, p in kept])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - float(np.sum(resid**2)) / ss_tot)
    return RateFit(tuple(kept), float(slope), float(intercept), r2, axis)


def _phi_of_y(w: float) -> float:
    """phi(y) = -y - log1p(-y) at y = w / (1 + w) >= 0; log1p(w) - y above 1/2, where y can round to 1."""
    y = w / (1.0 + w)
    return _log1p_excess(y) if y < 0.5 else math.log1p(w) - y


def _population_radius(spec: DistributionSpec, atilde: float) -> float:
    """r(atilde) = E log(1 + atilde z) + log E 1/(1 + atilde z), nondecreasing in atilde. The logs cancel to the
    size of r, so while E y < 1/2, y = atilde z / (1 + atilde z), it is taken as E phi(y) - phi(E y), whose
    terms are both about as small as r: a relative quadrature tolerance then holds for r too."""
    e_y = spec.expect(atilde, lambda w: w / (1.0 + w))
    if e_y >= 0.5:  # the logs no longer cancel
        return spec.expect(atilde, math.log1p) + math.log(spec.expect(atilde, lambda w: 1.0 / (1.0 + w)))
    return spec.expect(atilde, _phi_of_y) - _log1p_excess(e_y)


def _unit_dual_point(unit: DistributionSpec, limit: float, r: float) -> float:
    """The root atilde of r(atilde) = r for a law of mean 1 whose r(inf) is limit: brentq on [1e-150, MAX_ATILDE]."""
    if r >= limit:
        raise ValueError(f"radius {r!r} too large: r(atilde) stays below E log z + log E[1/z] = {limit!r}")
    r_lo, r_hi = _population_radius(unit, 1e-150), _population_radius(unit, MAX_ATILDE)
    if not r_lo < r <= r_hi:  # r_lo is about 1e-300 for a law of finite variance; a NaN end value fails too
        raise ValueError(
            f"radius {r!r} has no population dual point: it must lie in ({r_lo!r}, {r_hi!r}], the range of r(atilde)"
            f" over atilde in [1e-150, {MAX_ATILDE:g}] for the law scaled to mean 1"
        )
    from scipy.optimize import brentq

    return math.exp(brentq(lambda t: _population_radius(unit, math.exp(t)) - r, math.log(1e-150), math.log(MAX_ATILDE)))


def solve_population_dual(spec: DistributionSpec, r: float) -> float:
    """Reciprocal dual variable atilde = 1/alpha at population level for radius r.

    r(atilde) depends on atilde z alone, so the root is found for the law scaled to mean 1 (over the bracket
    [1e-150, MAX_ATILDE]) and divided by the mean. r(atilde) increases to r(inf) = E log z + log E[1/z] (the
    law's radius_limit); a radius at or above it, or outside r's range on the bracket, has no dual point and raises.
    """
    if not r > 0:  # NaN fails too
        raise ValueError("radius must be positive")
    mu = true_mean(spec)
    if mu == 0.0:
        raise ValueError("z = 0 almost surely: no population dual point")
    return _unit_dual_point(spec.scaled(mu), spec.radius_limit(), r) / mu


def variance_ratio_curve(spec: DistributionSpec, r_grid: Sequence[float]):
    """For each radius: variance of the log likelihood ratio of the population
    worst case, divided by the radius.

    The log ratio is log((alpha + z)/nu), whose variance equals
    V[log(1 + z/alpha)], taken in two passes, E[(log1p(atilde z) - e1)**2]
    after e1, at the population dual point of the law scaled to mean 1; the
    ratio does not depend on the scale. A law with r(inf) = 0, a point mass,
    has ratio 0 at every radius.
    """
    limit = _law(spec).radius_limit()
    if not all(r > 0 for r in r_grid):  # NaN fails too
        raise ValueError("radii must be positive")
    if limit == 0.0:
        return [(float(r), 0.0) for r in r_grid]
    unit = spec.scaled(spec.mean())
    out = []
    for r in r_grid:
        atilde = _unit_dual_point(unit, limit, r)
        e1 = unit.expect(atilde, math.log1p)
        out.append((float(r), unit.expect(atilde, lambda w: (math.log1p(w) - e1) ** 2) / r))
    return out


def pareto_variance_ratio_limit(rho: float) -> float:
    """Small-radius limit of the variance ratio for a Pareto tail index in (1, 2).

    Exact value 2 (psi(rho) + euler_gamma) / (rho - 1), where psi is the
    digamma function; it tends to 2 as rho -> 2, matching the bounded case.
    """
    if not (1.0 < rho < 2.0):
        raise ValueError("closed-form limit requires rho in (1, 2)")
    from scipy.special import digamma

    return 2.0 * (float(digamma(rho)) + np.euler_gamma) / (rho - 1.0)
