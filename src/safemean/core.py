"""Core domain types: samples, discrete distributions, radius schedules,
and parametric generative models.

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

    Supported kinds: "logn", "loglogn", and "power" (lambda = c * n^beta with
    beta in (0,1)). A constant lambda is EstimatorConfig(lam=...).
    """

    kind: str
    c: float
    beta: float = 0.0

    _KINDS = ("logn", "loglogn", "power")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0 < self.c < math.inf:  # NaN fails too
            raise ValueError("schedule coefficient must be positive and finite")
        if self.kind == "power" and not (0.0 < self.beta < 1.0):
            raise ValueError("power schedule requires beta in (0, 1)")

    def lam(self, n: int) -> float:
        """lambda(n); must be positive for every valid n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "logn":
            if n < 2:
                raise ValueError("logn schedule requires n >= 2")
            return self.c * math.log(n)
        if self.kind == "loglogn":
            if n < 3:
                raise ValueError("loglogn schedule requires n >= 3")
            return self.c * math.log(math.log(n))
        return self.c * n**self.beta  # power

    @staticmethod
    def log_n(c: float = 1.0) -> "RadiusSchedule":
        return RadiusSchedule("logn", c)

    @staticmethod
    def log_log_n(c: float = 1.0) -> "RadiusSchedule":
        return RadiusSchedule("loglogn", c)

    @staticmethod
    def power(c: float, beta: float) -> "RadiusSchedule":
        return RadiusSchedule("power", c, beta)


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
        if not math.isfinite(true_mean(self)):
            raise ValueError("Pareto mean shape*scale/(shape-1) overflows a float")


@dataclass(frozen=True)
class LogNormal:
    mu: float
    sigma: float

    def __post_init__(self):  # NaN fails every check
        if not (0.0 < self.sigma < math.inf and -math.inf < self.mu < math.inf):
            raise ValueError("LogNormal mu and sigma must be finite, and sigma positive")
        if self.mu + 0.5 * self.sigma * self.sigma > math.log(np.finfo(float).max):  # sigma**2 would raise
            raise ValueError("LogNormal mean exp(mu + sigma^2/2) overflows a float")


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


@dataclass(frozen=True)
class UniformBounded:
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi < math.inf):  # NaN fails too
            raise ValueError("uniform bounds must be finite, with 0 <= lo < hi")


DistributionSpec = Union[Pareto, LogNormal, ScaledBernoulli, UniformBounded]


def true_mean(spec: DistributionSpec) -> float:
    """Closed-form population mean of a generative model."""
    if isinstance(spec, Pareto):
        return spec.shape * spec.scale / (spec.shape - 1.0)
    if isinstance(spec, LogNormal):
        return math.exp(spec.mu + 0.5 * spec.sigma**2)
    if isinstance(spec, ScaledBernoulli):
        return spec.p * spec.high
    if isinstance(spec, UniformBounded):
        return 0.5 * spec.lo + 0.5 * spec.hi  # lo + hi can overflow where the mean does not
    raise TypeError(f"unsupported distribution spec {spec!r}")


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Maximizer of a unimodal f on [lo, hi] by golden-section search: the
    midpoint of the first bracket within tol * max(1, |lo| + |hi|)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(300):
        if hi - lo <= tol * max(1.0, abs(lo) + abs(hi)):
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def survival_probability(spec: DistributionSpec, u: float) -> float:
    """P[z > u] for the generative model."""
    if u < 0:
        return 1.0
    if isinstance(spec, Pareto):
        if u < spec.scale:
            return 1.0
        return (spec.scale / u) ** spec.shape
    if isinstance(spec, LogNormal):
        if u <= 0:
            return 1.0
        z = (math.log(u) - spec.mu) / spec.sigma
        return 0.5 * math.erfc(z / math.sqrt(2.0))
    if isinstance(spec, ScaledBernoulli):
        return spec.p if u < spec.high else 0.0
    if isinstance(spec, UniformBounded):
        if u <= spec.lo:
            return 1.0
        if u >= spec.hi:
            return 0.0
        return (spec.hi - u) / (spec.hi - spec.lo)
    raise TypeError(f"unsupported distribution spec {spec!r}")


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
