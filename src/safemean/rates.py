"""Large-deviation side of the analysis: the Cramer rate of the sample-mean
left tail, the population KL dual and the variance ratio of its worst-case
likelihood ratio, and least-squares fits of measured decay rates.

Every expectation is a law's expect(c, g, epsabs) = E[g(c z)]: the Laplace
transform and the Cramer rate take c = -s, the population dual and the
variance ratio c = atilde. The rate and the ratio do not change when z is
scaled, so both are computed for the law scaled to mean 1 (scaled(mean)).
scipy is imported inside the routines that use it (quad by core's one
quadrature, digamma here), so importing the package loads numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DistributionSpec, UniformBounded, _golden_max, _law, true_mean

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
    if isinstance(spec, UniformBounded):
        return (math.exp(-s * spec.lo) - math.exp(-s * spec.hi)) / (s * (spec.hi - spec.lo))
    return _law(spec).expect(-s, math.exp, 1e-14)


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

    Zero at b = 0; positive for b in (0, mu]; +inf when the event
    mean < mu - b is impossible (b beyond mu minus the support minimum).
    The rate is unchanged by z -> z / mu, b -> b / mu, so it is computed at
    mean 1. The objective is concave in s: s is halved or doubled from 1 until
    the maximum is bracketed, then golden section runs in log s, so a
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
    if mu == 0.0:
        return math.inf  # z = 0 almost surely
    spec, b = spec.scaled(mu), b / mu
    mu = true_mean(spec)

    def f(t: float) -> float:  # the objective at s = exp(t)
        s = math.exp(t)
        q = spec.expect(-s, _exp_excess, 0.0)  # q >= 0, so the relative tolerance alone holds
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
    return max(f(_golden_max(f, t - 2.0 * h, t, 1e-9)), 0.0)


def rate_fit(points: Sequence, axis: str = "log-log") -> RateFit:
    """Least squares of log p against log n (axis="log-log") or n (axis="log-linear").

    Every point must be finite; those with p_hat <= 0 are dropped, and at least 3 positive ones are required.
    """
    if axis not in ("log-log", "log-linear"):
        raise ValueError(f"unknown axis {axis!r}")
    if not np.all(np.isfinite(np.asarray(points, dtype=float))):
        raise ValueError("every point must be finite")
    kept = [(float(n), float(p)) for n, p in points if p > 0.0]
    if len(kept) < 3:
        raise ValueError(f"need at least 3 points with positive p_hat, got {len(kept)}")
    x = np.array([math.log(n) if axis == "log-log" else n for n, _ in kept])
    y = np.array([math.log(p) for _, p in kept])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - float(np.sum(resid**2)) / ss_tot)
    return RateFit(tuple(kept), float(slope), float(intercept), r2, axis)


def _population_radius(spec: DistributionSpec, atilde: float) -> float:
    """r(atilde) = E log(1 + atilde z) + log E 1/(1 + atilde z); nondecreasing in atilde."""
    e_log = spec.expect(atilde, math.log1p, 1e-15)
    e_inv = spec.expect(atilde, lambda z: 1.0 / (1.0 + z), 1e-15)
    return e_log + math.log(e_inv)


def solve_population_dual(spec: DistributionSpec, r: float) -> float:
    """Reciprocal dual variable atilde = 1/alpha at population level for radius r.

    r(atilde) depends on atilde z alone, so the root is found for the law
    scaled to mean 1 (where the bracket may grow to MAX_ATILDE) and divided
    by the mean. r(atilde) increases to r(inf) = E log z + log E[1/z] (the
    law's radius_limit), so a radius at or above r(inf) has no dual point and raises.
    """
    if not r > 0:  # NaN fails too
        raise ValueError("radius must be positive")
    mu = true_mean(spec)
    if mu == 0.0:
        raise ValueError("z = 0 almost surely: no population dual point")
    limit = spec.radius_limit()
    if r >= limit:
        raise ValueError(f"radius {r!r} too large: r(atilde) stays below E log z + log E[1/z] = {limit!r}")
    unit = spec.scaled(mu)
    lo, hi = 1e-14, 1.0
    while _population_radius(unit, hi) < r:
        hi *= 4.0
        if hi > MAX_ATILDE:
            raise ValueError(f"radius {r!r} too large: population dual bracket not found")
    for _ in range(90):
        mid = math.sqrt(lo * hi)
        if _population_radius(unit, mid) < r:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi) / mu


def variance_ratio_curve(spec: DistributionSpec, r_grid: Sequence[float]):
    """For each radius: variance of the log likelihood ratio of the population
    worst case, divided by the radius.

    The log ratio is log((alpha + z)/nu), whose variance equals
    V[log(1 + z/alpha)], computed by quadrature at the population dual point
    of the law scaled to mean 1; the ratio does not depend on the scale. A
    law with r(inf) = 0, a point mass, has ratio 0 at every radius.
    """
    constant = _law(spec).radius_limit() == 0.0
    out = []
    for r in r_grid:
        if not r > 0:  # NaN fails too
            raise ValueError("radii must be positive")
        if constant:
            out.append((float(r), 0.0))
            continue
        mu = true_mean(spec)
        atilde = solve_population_dual(spec, r) * mu
        unit = spec.scaled(mu)
        e1 = unit.expect(atilde, math.log1p, 1e-15)
        e2 = unit.expect(atilde, lambda z: math.log1p(z) ** 2, 1e-15)
        out.append((float(r), (e2 - e1 * e1) / r))
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
