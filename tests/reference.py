"""The tests' reference computations, independent of the solver in src/.

kl_value, kl_inf and binomial_pmf are computed in mpmath at DPS = 50
significant digits from the sample's distinct values and their
frequencies, by plain bisection, and take float inputs exactly;
laplace_transform and cramer_rate from closed-form Laplace transforms,
radius_limit, r(inf) = E log z + log E[1/z], and population_radius,
r(atilde) = E log(1 + atilde z) + log E[1/(1 + atilde z)], by mpmath
quadrature (in closed form for the scaled Bernoulli), and pareto_power, the
Pareto quantile, as a power at DPS digits. They return
mpmath numbers, which compare with floats exactly; float() rounds them once.
float_kl_value is a fast float bisection for rows too long for mpmath,
checked against kl_value in tests/test_reference.py. true_variance is a
law's closed-form population variance in floats, which criterion 4 reads for
the truncated mean's moment bound.
"""

import math

import mpmath
import numpy as np

from safemean import LogNormal, Pareto, ScaledBernoulli, UniformBounded

DPS = 50


def _support(values):
    """The distinct values, as exact mpmath numbers, and their frequencies."""
    v, counts = np.unique(np.asarray(values, dtype=float), return_counts=True)
    n = int(counts.sum())
    return [mpmath.mpf(float(x)) for x in v], [mpmath.mpf(int(c)) / n for c in counts]


def kl_value(values, r) -> mpmath.mpf:
    """The smallest mean over distributions Q with KL(P_n, Q) <= r.

    The dual g(a) = exp(mean log(a + z) - r) - a is concave, and its slope has
    the sign of d(a) = mean log(a + z) + log mean 1 / (a + z) - r, which is
    nonincreasing. So a* = 0 when min z > 0 and d(0) <= 0; otherwise a* is
    found by bisection of d in log a to a width of 1e-30, and g, stationary
    at a*, is off by the square of that.
    """
    with mpmath.workdps(DPS):
        z, w = _support(values)
        r = mpmath.mpf(r)
        if z[-1] == 0:
            return mpmath.mpf(0)

        def mean_log(a):
            return mpmath.fsum(wi * mpmath.log(a + zi) for zi, wi in zip(z, w))

        def d(a):
            return mean_log(a) + mpmath.log(mpmath.fsum(wi / (a + zi) for zi, wi in zip(z, w))) - r

        if z[0] > 0 and d(0) <= 0:
            a = mpmath.mpf(0)
        else:
            lo = hi = mpmath.log(z[-1])  # d(exp(lo)) > 0 >= d(exp(hi))
            step = 1
            while d(mpmath.exp(hi)) > 0:
                lo, hi, step = hi, hi + step, 2 * step
            step = 1
            while d(mpmath.exp(lo)) <= 0:
                lo, hi, step = lo - step, lo, 2 * step
            while hi - lo > mpmath.mpf(10) ** -30:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if d(mpmath.exp(mid)) > 0 else (lo, mid)
            a = mpmath.exp((lo + hi) / 2)
        return mpmath.exp(mean_log(a) - r) - a


def kl_inf(values, mu) -> mpmath.mpf:
    """The smallest empirical KL divergence KL(P_n, Q) over distributions Q
    with mean <= mu, the statistic whose inverse in mu is the KL value.

    It is the maximum over t in [0, 1] of the concave phi(t) = mean log(1 -
    t + t z / mu): zero when phi'(0) <= 0 (mu at least the sample mean),
    phi(1) when phi'(1) >= 0 (no zero in the sample), and otherwise phi at the
    root of phi', found by bisection in t to the working precision.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    with mpmath.workdps(DPS):
        z, w = _support(values)
        x = [zi / mpmath.mpf(mu) for zi in z]

        def dphi(t):
            return mpmath.fsum(wi * (xi - 1) / (1 - t + t * xi) for xi, wi in zip(x, w))

        if dphi(0) <= 0:
            return mpmath.mpf(0)
        if x[0] > 0 and dphi(1) >= 0:
            t = mpmath.mpf(1)
        else:  # with a zero in the sample, phi' tends to -inf at t = 1
            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            for _ in range(mpmath.mp.prec):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if dphi(mid) > 0 else (lo, mid)
            t = (lo + hi) / 2
        return mpmath.fsum(wi * mpmath.log(1 - t + t * xi) for xi, wi in zip(x, w))


def binomial_pmf(n: int, p: float) -> list:
    """The Binomial(n, p) pmf of the float p exactly, each term rounded to a float once."""
    with mpmath.workdps(DPS):
        q = mpmath.mpf(p)
        return [float(mpmath.binomial(n, k) * q**k * (1 - q) ** (n - k)) for k in range(n + 1)]


def pareto_power(x: float, shape: float) -> mpmath.mpf:
    """x**(-1/shape), the Pareto quantile at 1 - U = x of shape `shape` and scale 1."""
    with mpmath.workdps(DPS):
        return mpmath.mpf(x) ** (-1 / mpmath.mpf(shape))


def _laplace(spec, s):
    """(E exp(-s z), E z exp(-s z), E z) in closed form, at the working precision. For the uniform on
    [lo, hi], d = hi - lo, they are e**(-s lo) u and e**(-s lo) ((lo + 1/s) u - e**(-s d) / s), where
    u = -expm1(-s d) / (s d) does not cancel at any s."""
    if isinstance(spec, UniformBounded):
        lo, d = mpmath.mpf(spec.lo), mpmath.mpf(spec.hi) - mpmath.mpf(spec.lo)
        u = -mpmath.expm1(-s * d) / (s * d)
        tilted = mpmath.exp(-s * lo) * ((lo + 1 / s) * u - mpmath.exp(-s * d) / s)
        return mpmath.exp(-s * lo) * u, tilted, lo + d / 2
    if isinstance(spec, ScaledBernoulli):
        p, h = mpmath.mpf(spec.p), mpmath.mpf(spec.high)
        return 1 - p + p * mpmath.exp(-s * h), p * h * mpmath.exp(-s * h), p * h
    if isinstance(spec, Pareto) and spec.scale == 1.0:
        rho = mpmath.mpf(spec.shape)
        return rho * s**rho * mpmath.gammainc(-rho, s), rho * s ** (rho - 1) * mpmath.gammainc(1 - rho, s), rho / (rho - 1)
    raise ValueError(f"no closed-form Laplace transform for {spec!r}")


def laplace_transform(spec, s) -> mpmath.mpf:
    """E exp(-s z) in closed form at DPS digits, for the laws _laplace covers."""
    with mpmath.workdps(DPS):
        return _laplace(spec, mpmath.mpf(s))[0]


def cramer_rate(spec, b) -> mpmath.mpf:
    """The left-tail rate sup over s > 0 of (b - mu) s - log E exp(-s z), for
    UniformBounded(lo, hi), ScaledBernoulli(p, h) and Pareto(rho, 1), whose
    transforms are e**(-s lo) (1 - e**(-s (hi - lo))) / (s (hi - lo)),
    1 - p + p e**(-s h) and rho s**rho Gamma(-rho, s).

    The objective is concave, and its derivative b - mu + m(s), where m(s) =
    E z e**(-s z) / E e**(-s z) is the tilted mean, falls from b at s = 0. Its
    root is found by mpmath.findroot on a bracket found by halving and
    doubling s from 1. The work runs at DPS + 40 digits, so the cancellation
    in m(s) - (mu - b) and in the rate at small b still leaves DPS.
    """
    with mpmath.workdps(DPS + 40):
        b = mpmath.mpf(b)
        mu = _laplace(spec, mpmath.mpf(1))[2]

        def slope(s):
            transform, tilted, _ = _laplace(spec, s)
            return b - mu + tilted / transform

        lo = hi = mpmath.mpf(1)
        while slope(lo) <= 0:
            lo /= 2
        while slope(hi) > 0:  # the tilted mean falls to the law's minimum
            if hi > 1e100:
                raise ValueError(f"b = {b} is beyond mu minus the minimum of {spec!r}: the rate is infinite")
            hi *= 2
        s = mpmath.findroot(slope, (lo, hi), solver="anderson")
        return +((b - mu) * s - mpmath.log(_laplace(spec, s)[0]))


def radius_limit(spec) -> mpmath.mpf:
    """r(inf) = E log z + log E[1/z], the population radius limit, by mpmath
    quadrature: Pareto in y = log(z / scale), lognormal over the standard
    normal, uniform over [lo, hi]. It is inf where z has an atom at 0 (a
    Bernoulli with p < 1) or a density there (a uniform from 0); a point mass
    is its one atom."""
    with mpmath.workdps(DPS):
        if isinstance(spec, ScaledBernoulli):
            h = mpmath.mpf(spec.high)
            return mpmath.log(h) + mpmath.log(1 / h) if spec.p == 1.0 else mpmath.inf
        if isinstance(spec, UniformBounded):
            if spec.lo == 0.0:
                return mpmath.inf
            lo, hi = mpmath.mpf(spec.lo), mpmath.mpf(spec.hi)
            e_log = mpmath.quad(mpmath.log, [lo, hi]) / (hi - lo)
            e_inv = mpmath.quad(lambda z: 1 / z, [lo, hi]) / (hi - lo)
        elif isinstance(spec, Pareto):
            rho, scale = mpmath.mpf(spec.shape), mpmath.mpf(spec.scale)
            e_log = mpmath.log(scale) + mpmath.quad(lambda y: y * rho * mpmath.exp(-rho * y), [0, mpmath.inf])
            e_inv = mpmath.quad(lambda y: rho * mpmath.exp(-(rho + 1) * y), [0, mpmath.inf]) / scale
        elif isinstance(spec, LogNormal):
            mu, sigma = mpmath.mpf(spec.mu), mpmath.mpf(spec.sigma)
            line = [-mpmath.inf, 0, mpmath.inf]
            e_log = mpmath.quad(lambda y: (mu + sigma * y) * mpmath.npdf(y), line)
            e_inv = mpmath.quad(lambda y: mpmath.exp(-mu - sigma * y) * mpmath.npdf(y), line)
        else:
            raise ValueError(f"no radius limit for {spec!r}")
        return e_log + mpmath.log(e_inv)


def population_radius(spec, atilde) -> mpmath.mpf:
    """r(atilde) = E log(1 + atilde z) + log E[1/(1 + atilde z)], the population
    radius at the dual point atilde, for ScaledBernoulli(p, h) in closed form,
    p log(1 + atilde h) + log(1 - p + p / (1 + atilde h)), and by mpmath
    quadrature for the uniform over [lo, hi] and for Pareto in
    y = log(z / scale), split where atilde z = 1. The two terms cancel to
    about atilde**2 of their size, which leaves most of the DPS digits at the
    radii the tests use."""
    with mpmath.workdps(DPS):
        a = mpmath.mpf(atilde)
        if isinstance(spec, ScaledBernoulli):
            p, ah = mpmath.mpf(spec.p), a * mpmath.mpf(spec.high)
            return p * mpmath.log1p(ah) + mpmath.log(1 - p + p / (1 + ah))
        if isinstance(spec, UniformBounded):
            lo, hi = mpmath.mpf(spec.lo), mpmath.mpf(spec.hi)
            e_log = mpmath.quad(lambda z: mpmath.log1p(a * z), [lo, hi]) / (hi - lo)
            e_inv = mpmath.quad(lambda z: 1 / (1 + a * z), [lo, hi]) / (hi - lo)
        elif isinstance(spec, Pareto):
            rho, scale = mpmath.mpf(spec.shape), mpmath.mpf(spec.scale)
            cuts = [0, -mpmath.log(a * scale), mpmath.inf] if a * scale < 1 else [0, mpmath.inf]

            def expect(g):
                return mpmath.quad(lambda y: g(a * scale * mpmath.exp(y)) * rho * mpmath.exp(-rho * y), cuts)

            e_log, e_inv = expect(mpmath.log1p), expect(lambda x: 1 / (1 + x))
        else:
            raise ValueError(f"no population radius for {spec!r}")
        return e_log + mpmath.log(e_inv)


def float_kl_value(row: np.ndarray, r: float) -> float:
    """The KL value in floats, by bisection in log a on f(a) = log mean u -
    mean log u, u = (a + min z) / (a + z), for rows too long for kl_value.

    Each log u is a log1p of -y, y = (z - min z) / (a + z), where y <= 1/2,
    and the log of the ratio itself where y > 1/2, where y can round to 1
    (a row with a zero, as a goes to 0): so f is accurate relative to its own
    size even where the solver's stop test is not (r = 1e-12). The row is
    scaled by a power of two first, and a* is sought in [e**-700, e**700]
    times that scale.
    """
    if row.max() == 0.0:
        return 0.0
    e = int(np.frexp(row.max())[1])
    z = np.ldexp(np.sort(row), -e)

    def log_u(a):
        y = (z - z[0]) / (a + z)
        out = np.log1p(-np.minimum(y, 0.5))
        far = y > 0.5
        out[far] = np.log((a + z[0]) / (a + z[far]))
        return out

    def f(a):
        return np.log1p(-np.mean((z - z[0]) / (a + z))) - np.mean(log_u(a))

    if z[0] > 0.0 and f(0.0) <= r:  # with a zero, f(0) is infinite
        a = 0.0
    else:
        lo, hi = -700.0, 700.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f(math.exp(mid)) > r else (lo, mid)
        a = math.exp(hi)
    nu = math.exp(math.log(a + z[0]) - np.mean(log_u(a)) - r)
    return math.ldexp(nu * np.mean(z / (a + z)), e)


def true_variance(spec) -> float:
    """Closed-form population variance; inf when the second moment diverges
    or the variance overflows a float. Products are taken left to right with
    the scale last, so a Bernoulli at p = 0 or 1 has variance 0.0 at any high."""
    if isinstance(spec, Pareto):
        if spec.shape <= 2.0:
            return math.inf
        return spec.shape / ((spec.shape - 1.0) ** 2 * (spec.shape - 2.0)) * spec.scale * spec.scale
    if isinstance(spec, LogNormal):  # exp(2 mu + s2) expm1(s2), in logs so neither factor overflows alone
        s2 = spec.sigma**2
        try:
            return math.exp(2.0 * (spec.mu + s2) + math.log(-math.expm1(-s2)))
        except OverflowError:
            return math.inf
    if isinstance(spec, ScaledBernoulli):
        return spec.p * (1.0 - spec.p) * spec.high * spec.high
    if isinstance(spec, UniformBounded):  # d / 12 * d: d**2 raises OverflowError, and overflows before the variance
        return (spec.hi - spec.lo) / 12.0 * (spec.hi - spec.lo)
    raise TypeError(f"unsupported distribution spec {spec!r}")
