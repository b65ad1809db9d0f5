"""Core domain types: samples, discrete distributions, radius schedules,
and parametric generative models.

Each law holds its formulas as methods (mean, survival, minimum, inverse_cdf,
scaled, radius_limit, expect), so no other module tests a law's type.

Everything here is immutable after construction and safe to share across
threads; all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Sample",
    "DiscreteDistribution",
    "RadiusSchedule",
    "Pareto",
    "LogNormal",
    "ScaledBernoulli",
    "UniformBounded",
    "DistributionSpec",
    "EstimateResult",
    "true_mean",
    "survival_probability",
    "read_sample_file",
]

_WEIGHT_SUM_TOL = 1e-12


class Sample:
    """A finite multiset of non-negative observations.

    Values are stored sorted ascending (canonical form). Duplicates are
    retained so empirical weights stay uniform 1/n.
    """

    __slots__ = ("_values", "_support")

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("sample values must be one-dimensional")
        if arr.size < 1:
            raise ValueError("sample must contain at least one observation")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample values must be finite")
        if np.any(arr < 0):
            raise ValueError("sample values must be non-negative")
        arr = np.sort(arr)
        arr.flags.writeable = False
        self._values = arr
        self._support = None

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return self._values.size

    def min(self) -> float:
        return float(self._values[0])

    def max(self) -> float:
        return float(self._values[-1])

    def weighted_support(self):
        """Distinct values with empirical weights (multiplicities / n), both read-only.

        Found once per sample and kept for every later call. A sample without
        repeats is its own support, so it holds no second copy of its values.
        """
        if self._support is None:
            v = self._values
            edges = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1], [True])))  # run starts, then n
            weights = np.diff(edges) / v.size
            vals = v[edges[:-1]] if weights.size < v.size else v
            vals.flags.writeable = weights.flags.writeable = False
            self._support = vals, weights
        return self._support

    def __len__(self):
        return self._values.size

    def __repr__(self):
        return f"Sample(n={self.n}, min={self.min():g}, max={self.max():g})"


class DiscreteDistribution:
    """Finite support points with probability weights.

    Support must be strictly increasing and non-negative; weights must be
    non-negative and sum to one within 1e-12.
    """

    __slots__ = ("_support", "_weights")

    def __init__(self, support, weights):
        sup = np.asarray(support, dtype=float)
        wts = np.asarray(weights, dtype=float)
        if sup.shape != wts.shape or sup.ndim != 1 or sup.size == 0:
            raise ValueError("support and weights must be matching 1-d arrays")
        if np.any(sup < 0) or not np.all(np.isfinite(sup)):
            raise ValueError("support points must be finite and non-negative")
        if np.any(np.diff(sup) <= 0):
            raise ValueError("support points must be strictly increasing")
        if np.any(wts < -_WEIGHT_SUM_TOL):
            raise ValueError("weights must be non-negative")
        total = float(wts.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {_WEIGHT_SUM_TOL}")
        wts = np.maximum(wts, 0.0)
        sup.flags.writeable = False
        wts.flags.writeable = False
        self._support = sup
        self._weights = wts

    @property
    def support(self) -> np.ndarray:
        return self._support

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def mean(self) -> float:
        return float(np.dot(self._support, self._weights))

    def __repr__(self):
        return f"DiscreteDistribution(m={self._support.size}, mean={self.mean():g})"


@dataclass(frozen=True)
class RadiusSchedule:
    """Disappointment-exponent schedule n -> lambda(n), with radius r(n) = lambda(n)/n.

    Kinds (SCHEDULE_KINDS): "logn", "loglogn", and "power" (lambda = c * n^beta
    with beta in (0,1)); only "power" takes a beta. A constant lambda is
    EstimatorConfig(lam=...).
    """

    kind: str
    c: float
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0 < self.c < math.inf:  # NaN fails too
            raise ValueError("schedule coefficient must be positive and finite")
        takes_beta = 2 in SCHEDULE_KINDS[self.kind][1]  # a second parameter is beta
        if takes_beta and not (0.0 < self.beta < 1.0):
            raise ValueError(f"{self.kind} schedule requires beta in (0, 1)")
        if not takes_beta and self.beta != 0.0:  # NaN too: a beta the kind never reads is an error
            raise ValueError(f"{self.kind} schedule takes no beta")

    def lam(self, n: int) -> float:
        """lambda(n); positive for every n from the kind's least."""
        _, _, least_n, per_c = SCHEDULE_KINDS[self.kind]
        if n < least_n:
            raise ValueError("n must be >= 1" if n < 1 else f"{self.kind} schedule requires n >= {least_n}")
        return self.c * per_c(n, self.beta)

    @staticmethod
    def log_n(c: float = 1.0) -> "RadiusSchedule":
        return RadiusSchedule("logn", c)

    @staticmethod
    def log_log_n(c: float = 1.0) -> "RadiusSchedule":
        return RadiusSchedule("loglogn", c)

    @staticmethod
    def power(c: float, beta: float) -> "RadiusSchedule":
        return RadiusSchedule("power", c, beta)


# each schedule kind: its constructor, the parameter counts it takes (c, then beta; log_n and log_log_n
# default c to 1), its least n and lambda(n) / c. Adding a kind is one entry.
SCHEDULE_KINDS = {
    "logn": (RadiusSchedule.log_n, (0, 1), 2, lambda n, beta: math.log(n)),
    "loglogn": (RadiusSchedule.log_log_n, (0, 1), 3, lambda n, beta: math.log(math.log(n))),
    "power": (RadiusSchedule.power, (2,), 1, lambda n, beta: n**beta),
}


def _integrate(integrand, cuts, epsabs: float) -> float:
    """scipy's adaptive quad summed over the pieces between cuts; an integrand is 0 where its weight underflows."""
    from scipy.integrate import quad

    return sum(quad(integrand, lo, hi, epsabs=epsabs, epsrel=1e-11, limit=400)[0] for lo, hi in zip(cuts, cuts[1:]))


@dataclass(frozen=True)
class Pareto:
    """Pareto tail: P[z > u] = (scale/u)^shape for u >= scale; finite mean needs shape > 1."""

    shape: float
    scale: float = 1.0

    def __post_init__(self):  # NaN fails every check
        if not (1.0 < self.shape < math.inf):
            raise ValueError("Pareto shape must be finite and exceed 1 for a finite mean")
        if not (0.0 < self.scale < math.inf):
            raise ValueError("Pareto scale must be finite and positive")
        if not math.isfinite(self.mean()):
            raise ValueError("Pareto mean shape*scale/(shape-1) overflows a float")

    def mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)

    def survival(self, u: float) -> float:
        return 1.0 if u < self.scale else (self.scale / u) ** self.shape

    def minimum(self) -> float:
        return self.scale

    def inverse_cdf(self, T: np.ndarray) -> None:
        """Uniforms T to draws, in place: exp(y) * scale, y = log(1 - U) * (-1/shape).

        1 - U is exact on numpy's 2**-53 grid of U, so log never sees 0, and
        0 <= y <= 53 log 2 / shape < 37, so exp never overflows (only * scale
        can). It is within 4y + 2 ulp of the correctly rounded
        (1 - U)**(-1/shape) * scale when np.log and np.exp are each within
        1 ulp. With u = 2**-53: log(1 - U) is off by at most 2u of itself, and
        -1/shape and the product by u each, so y is off by at most 4uy; exp
        turns that absolute error into a relative one of at most 4uy, under
        4y ulp. exp adds 1 ulp, and rounding the reference and * scale half of
        one each; * scale is skipped at scale 1.0, where it is exact.
        """
        np.subtract(1.0, T, out=T)
        np.log(T, out=T)
        T *= -1.0 / self.shape
        np.exp(T, out=T)
        if self.scale != 1.0:
            T *= self.scale

    def scaled(self, c: float) -> "Pareto":
        return Pareto(self.shape, self.scale / c)

    def radius_limit(self) -> float:  # E log z = log scale + 1/shape, E[1/z] = shape / ((shape + 1) scale)
        return 1.0 / self.shape + math.log(self.shape / (self.shape + 1.0))

    def expect(self, c: float, g, epsabs: float) -> float:
        """In y = log(z / scale), where the power-law tail is exponential, split where |c z| = 1."""
        rho, a = self.shape, c * self.scale

        def integrand(y):
            weight = rho * math.exp(-rho * y)
            return 0.0 if weight == 0.0 else g(a * math.exp(min(y, 700.0))) * weight

        return _integrate(integrand, (0.0, -math.log(abs(a)), np.inf) if 0.0 < abs(a) < 1.0 else (0.0, np.inf), epsabs)


@dataclass(frozen=True)
class LogNormal:
    mu: float
    sigma: float

    def __post_init__(self):  # NaN fails every check
        if not (0.0 < self.sigma < math.inf and -math.inf < self.mu < math.inf):
            raise ValueError("LogNormal mu and sigma must be finite, and sigma positive")
        if self.mu + 0.5 * self.sigma * self.sigma > math.log(np.finfo(float).max):  # sigma**2 would raise
            raise ValueError("LogNormal mean exp(mu + sigma^2/2) overflows a float")
        if self.mean() == 0.0:
            raise ValueError("LogNormal mean exp(mu + sigma^2/2) underflows to 0")

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def survival(self, u: float) -> float:
        return 1.0 if u <= 0 else 0.5 * math.erfc((math.log(u) - self.mu) / self.sigma / math.sqrt(2.0))

    def minimum(self) -> float:  # the infimum of the support, which z never takes
        return 0.0

    def inverse_cdf(self, T: np.ndarray) -> None:
        from scipy.special import ndtri

        np.clip(T, 1e-16, 1.0 - 1e-16, out=T)
        ndtri(T, out=T)
        T *= self.sigma
        T += self.mu
        np.exp(T, out=T)

    def scaled(self, c: float) -> "LogNormal":
        return LogNormal(self.mu - math.log(c), self.sigma)

    def radius_limit(self) -> float:  # E log z = mu, E[1/z] = exp(sigma**2 / 2 - mu)
        return 0.5 * self.sigma**2

    def expect(self, c: float, g, epsabs: float) -> float:
        """In standard-normal space, with log|c| in the exponent, capped at 709."""
        sign, log_c = math.copysign(1.0, c), math.log(abs(c))

        def integrand(y):
            weight = math.exp(-0.5 * y * y)
            z = math.exp(min(self.mu + self.sigma * y + log_c, 709.0))
            return 0.0 if weight == 0.0 else g(sign * z) * weight / math.sqrt(2.0 * math.pi)

        return _integrate(integrand, (-np.inf, np.inf), epsabs)


@dataclass(frozen=True)
class ScaledBernoulli:
    """Takes value `high` with probability p, else 0; p = 1 is the point mass at `high`."""

    p: float
    high: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("Bernoulli probability must lie in [0, 1]")
        if not (0.0 <= self.high < math.inf):  # NaN fails too
            raise ValueError("Bernoulli high value must be finite and non-negative")

    def mean(self) -> float:
        return self.p * self.high

    def survival(self, u: float) -> float:
        return 1.0 if u < 0 else self.p if u < self.high else 0.0

    def minimum(self) -> float:
        return self.high if self.p == 1.0 else 0.0

    def inverse_cdf(self, T: np.ndarray) -> None:
        np.less(T, self.p, out=T)
        T *= self.high

    def scaled(self, c: float) -> "ScaledBernoulli":
        return ScaledBernoulli(self.p, self.high / c)

    def radius_limit(self) -> float:  # 0 for a point mass (p = 0 or 1, or high = 0); an atom at 0 makes E[1/z] infinite
        return 0.0 if self.p in (0.0, 1.0) or self.high == 0.0 else math.inf

    def expect(self, c: float, g, epsabs: float) -> float:
        return (1.0 - self.p) * g(0.0) + self.p * g(c * self.high)


@dataclass(frozen=True)
class UniformBounded:
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi < math.inf):  # NaN fails too
            raise ValueError("uniform bounds must be finite, with 0 <= lo < hi")

    def mean(self) -> float:
        return 0.5 * self.lo + 0.5 * self.hi  # lo + hi can overflow where the mean does not

    def survival(self, u: float) -> float:
        return 1.0 if u <= self.lo else 0.0 if u >= self.hi else (self.hi - u) / (self.hi - self.lo)

    def minimum(self) -> float:
        return self.lo

    def inverse_cdf(self, T: np.ndarray) -> None:
        T *= self.hi - self.lo
        T += self.lo

    def scaled(self, c: float) -> "UniformBounded":
        return UniformBounded(self.lo / c, self.hi / c)

    def radius_limit(self) -> float:  # on [x, 1], x = lo / hi; a density at 0 makes E[1/z] infinite
        if self.lo == 0.0:
            return math.inf
        x = self.lo / self.hi
        log_x = math.log(x)
        return -1.0 - x * log_x / (1.0 - x) + math.log(-log_x / (1.0 - x))

    def expect(self, c: float, g, epsabs: float) -> float:
        return _integrate(lambda u: g(c * u) / (self.hi - self.lo), (self.lo, self.hi), epsabs)


DistributionSpec = Union[Pareto, LogNormal, ScaledBernoulli, UniformBounded]


def _law(spec) -> DistributionSpec:
    """spec, if it is one of the four laws; every routine that takes a law checks it here."""
    if not isinstance(spec, (Pareto, LogNormal, ScaledBernoulli, UniformBounded)):
        raise TypeError(f"unsupported distribution spec {spec!r}")
    return spec


def true_mean(spec: DistributionSpec) -> float:
    """Closed-form population mean of a generative model."""
    return _law(spec).mean()


def survival_probability(spec: DistributionSpec, u: float) -> float:
    """P[z > u] for the generative model."""
    return _law(spec).survival(u)


@dataclass(frozen=True)
class EstimateResult:
    """An estimator output: the value, a tag, and optional solver diagnostics."""

    value: float
    estimator_id: str
    diagnostics: dict = field(default_factory=dict)


class SampleFileError(ValueError):
    """Malformed sample input file; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def read_sample_file(path) -> Sample:
    """Read one non-negative decimal value per line.

    Blank lines are skipped. Negative values, NaN, infinities, and anything
    unparsable raise SampleFileError with the 1-based line number.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                x = float(text)
            except ValueError:
                raise SampleFileError(lineno, f"cannot parse {text!r} as a decimal value") from None
            if math.isnan(x):
                raise SampleFileError(lineno, "NaN is not a valid observation")
            if math.isinf(x):
                raise SampleFileError(lineno, "infinite values are not valid observations")
            if x < 0:
                raise SampleFileError(lineno, f"negative value {x!r} is not a valid observation")
            values.append(x)
    if not values:
        raise SampleFileError(0, "file contains no observations")
    return Sample(values)
