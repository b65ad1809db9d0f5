"""Large-deviation side of the analysis: the Cramer rate of the sample-mean
left tail, the population KL dual and the variance ratio of its worst-case
likelihood ratio, and least-squares fits of measured decay rates.

There is one quadrature, for E[g(c z)] under each law: the Laplace transform
and the Cramer rate take c = -s, the population dual and the variance ratio
c = atilde. The rate and the ratio do not change when z is scaled, so both
are computed for the law scaled to mean 1.

This is the only module that imports scipy.integrate (quad) and digamma,
each inside the routine that uses it, so importing the package loads numpy
alone; lognormal draws import ndtri the same way, in montecarlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import DistributionSpec, LogNormal, Pareto, ScaledBernoulli, UniformBounded, _golden_max, true_mean

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
    return _expect(spec, -s, math.exp, 1e-14)


def _expect(spec: DistributionSpec, c: float, g, epsabs: float) -> float:
    """E[g(c z)] for c != 0, by adaptive quadrature for the continuous laws.

    Pareto is integrated in y = log(z / scale), which turns the power-law tail
    into an exponential one, split where |c z| = 1; lognormal in
    standard-normal space, with log|c| in the exponent, capped at 709. Where
    the weight has underflowed the integrand is 0, even if g overflows.
    """
    if isinstance(spec, ScaledBernoulli):
        return (1.0 - spec.p) * g(0.0) + spec.p * g(c * spec.high)
    if isinstance(spec, UniformBounded):
        integrand, cuts = (lambda u: g(c * u) / (spec.hi - spec.lo)), (spec.lo, spec.hi)
    elif isinstance(spec, Pareto):
        rho, a = spec.shape, c * spec.scale

        def integrand(y):
            weight = rho * math.exp(-rho * y)
            return 0.0 if weight == 0.0 else g(a * math.exp(min(y, 700.0))) * weight

        cuts = (0.0, -math.log(abs(a)), np.inf) if 0.0 < abs(a) < 1.0 else (0.0, np.inf)
    elif isinstance(spec, LogNormal):
        sign, log_c = math.copysign(1.0, c), math.log(abs(c))

        def integrand(y):
            weight = math.exp(-0.5 * y * y)
            z = math.exp(min(spec.mu + spec.sigma * y + log_c, 709.0))
            return 0.0 if weight == 0.0 else g(sign * z) * weight / math.sqrt(2.0 * math.pi)

        cuts = (-np.inf, np.inf)
    else:
        raise TypeError(f"unsupported distribution spec {spec!r}")
    from scipy.integrate import quad

    return sum(quad(integrand, lo, hi, epsabs=epsabs, epsrel=1e-11, limit=400)[0] for lo, hi in zip(cuts, cuts[1:]))


def _scaled(spec: DistributionSpec, c: float) -> DistributionSpec:
    """The law of z / c."""
    if isinstance(spec, LogNormal):
        return LogNormal(spec.mu - math.log(c), spec.sigma)
    fields = {Pareto: ("scale",), ScaledBernoulli: ("high",), UniformBounded: ("lo", "hi")}
    return replace(spec, **{name: getattr(spec, name) / c for name in fields[type(spec)]})


def cramer_rate(spec: DistributionSpec, b: float) -> float:
    """Left-tail large-deviation exponent sup_{s>0} (b - mu) s - log E[exp(-s z)].

    Zero at b = 0; positive for b in (0, mu]; +inf when the event
    mean < mu - b is impossible (b beyond mu minus the support minimum).
    The rate is unchanged by z -> z / mu, b -> b / mu, so it is computed at
    mean 1. The objective is concave in s: s is halved or doubled from 1 until
    the maximum is bracketed, then golden section runs in log s, so a
    maximizer far below 1 is found (5e-17 for LogNormal(0, 5) at b = 0.5).
    log E[exp(-s z)] is log1p(E[expm1(-s z)]) while that mean exceeds -1/2,
    so it does not round away at small s. A saturating objective (e.g. an
    atom at zero as s -> inf) is detected and its limit value returned.
    """
    if not 0 <= b < math.inf:  # NaN fails too
        raise ValueError("b must be non-negative and finite")
    if b == 0.0:
        return 0.0
    mu = true_mean(spec)
    if mu == 0.0:
        return math.inf  # z = 0 almost surely
    spec, b = _scaled(spec, mu), b / mu
    mu = true_mean(spec)

    def f(t: float) -> float:  # the objective at s = exp(t)
        s = math.exp(t)
        # an absolute tolerance of 1e-12 * min(1, s * mu) is relative to the mean's size
        shifted = _expect(spec, -s, math.expm1, 1e-12 * min(1.0, s * mu))
        if shifted > -0.5:
            return (b - mu) * s - math.log1p(shifted)
        transform = laplace_transform(spec, s)
        if transform <= 0.0:
            return math.inf
        return (b - mu) * s - math.log(transform)

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
    e_log = _expect(spec, atilde, math.log1p, 1e-15)
    e_inv = _expect(spec, atilde, lambda z: 1.0 / (1.0 + z), 1e-15)
    return e_log + math.log(e_inv)


def _population_radius_limit(spec: DistributionSpec) -> float:
    """r(inf) = E log z + log E[1/z], the limit of r(atilde) as atilde grows,
    in closed form; it does not change when z is scaled, and it is infinite
    when z has mass at zero or a density there."""
    if isinstance(spec, ScaledBernoulli):  # a point mass at p = 1
        return 0.0 if spec.p == 1.0 else math.inf
    if isinstance(spec, Pareto):  # E log z = log scale + 1/rho, E[1/z] = rho / ((rho + 1) scale)
        return 1.0 / spec.shape + math.log(spec.shape / (spec.shape + 1.0))
    if isinstance(spec, LogNormal):  # E log z = mu, E[1/z] = exp(sigma**2 / 2 - mu)
        return 0.5 * spec.sigma**2
    if isinstance(spec, UniformBounded):  # on [x, 1], x = lo / hi
        if spec.lo == 0.0:
            return math.inf
        x = spec.lo / spec.hi
        log_x = math.log(x)
        return -1.0 - x * log_x / (1.0 - x) + math.log(-log_x / (1.0 - x))
    raise TypeError(f"unsupported distribution spec {spec!r}")


def solve_population_dual(spec: DistributionSpec, r: float) -> float:
    """Reciprocal dual variable atilde = 1/alpha at population level for radius r.

    r(atilde) depends on atilde z alone, so the root is found for the law
    scaled to mean 1 (where the bracket may grow to MAX_ATILDE) and divided
    by the mean. r(atilde) increases to r(inf) = E log z + log E[1/z], so a
    radius at or above r(inf) has no dual point and raises.
    """
    if not r > 0:  # NaN fails too
        raise ValueError("radius must be positive")
    mu = true_mean(spec)
    if mu == 0.0:
        raise ValueError("z = 0 almost surely: no population dual point")
    limit = _population_radius_limit(spec)
    if r >= limit:
        raise ValueError(f"radius {r!r} too large: r(atilde) stays below E log z + log E[1/z] = {limit!r}")
    unit = _scaled(spec, mu)
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
    constant = _population_radius_limit(spec) == 0.0
    out = []
    for r in r_grid:
        if not r > 0:  # NaN fails too
            raise ValueError("radii must be positive")
        if constant:
            out.append((float(r), 0.0))
            continue
        mu = true_mean(spec)
        atilde = solve_population_dual(spec, r) * mu
        unit = _scaled(spec, mu)
        e1 = _expect(unit, atilde, math.log1p, 1e-15)
        e2 = _expect(unit, atilde, lambda z: math.log1p(z) ** 2, 1e-15)
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
