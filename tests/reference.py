"""The tests' reference computations, independent of the solver in src/.

kl_value, kl_inf and binomial_pmf are computed in mpmath at DPS = 50
significant digits from the sample's distinct values and their
frequencies, by plain bisection, and take float inputs exactly. They return
mpmath numbers, which compare with floats exactly; float() rounds them once.
float_kl_value is a fast float bisection for rows too long for mpmath,
checked against kl_value in tests/test_reference.py.
"""

import math

import mpmath
import numpy as np

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
