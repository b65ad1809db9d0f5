"""Monte Carlo measurement of disappointment and conservatism probabilities,
and their exact values for two-point samples by enumeration.

Reproducibility contract: every trial draws from its own RNG substream keyed
by (master seed, trial index), so draws and hit counts are the same
regardless of batching or worker-thread count. Trial i of seed s is exactly
what default_rng(SeedSequence((s, i))) draws, but streams are built a block
of trials at a time: the SeedSequence hash runs in uint32 arithmetic over
the whole block and each row's PCG64 state is set into one generator per
block. It is drawn, transformed, averaged, screened and estimated one tile
of dual._TILE_VALUES values at a time, in L2, so a worker holds about three
tiles, never a block. draw_sample is a block of one. The screen and the
estimator kernels share that one mean per row. A KL estimate is
bit-identical whichever rows share its solve (each row is reduced on its
own), so estimates, like draws, do not depend on batching or worker threads;
kept rows reach the solver a full tile at a time only because larger solves
run faster. No estimator exceeds its row's sample mean, so a disappointment count
estimates only the rows whose mean exceeds mu. For KL the screen also drops
a row whose certified upper bound (dual.kl_value_upper_bound: one np.vecdot
per row beside the mean and maximum the draw takes) clears mu by the
solver's margin; on the mc_kl benchmark cells at seed 7 that decides 80-92%
of the rows whose mean exceeds mu. A count reads only each estimate's side
of mu (or mu - b), so the KL rows left are solved with that threshold: a row
stops once a certified bracket [g(a), U] on its value clears it, and only
undecided rows get a converged value. A point mass's row mean is its value.
Blocks run on as many worker threads as the process has usable cores unless
threads says otherwise. A draw or estimate that is not finite raises
DualSolverError, so it is never counted as a safe trial.

scipy is imported only by lognormal draws (ndtri), inside the transform, so
importing the package loads numpy alone. The large-deviation rates and
variance-ratio curves are in rates.py.
"""

from __future__ import annotations

import decimal
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DistributionSpec,
    LogNormal,
    Pareto,
    PointMass,
    Sample,
    ScaledBernoulli,
    UniformBounded,
    survival_probability,
    true_mean,
)
from .dual import DualSolverError, _exponents, _side_margin, _tile_rows, kl_value_upper_bound, solve_kl_dro_dual_batch
from .estimators import (
    EstimatorConfig,
    estimate,  # noqa: F401 -- not called here; perfbench/spans.py wraps this name
    kl_disappointment_bound,
    truncation_constants,
)

__all__ = [
    "TrialReport",
    "draw_sample",
    "disappointment_probability",
    "conservatism_probability",
    "wilson_interval",
    "exact_bernoulli_event_probability",
]

WILSON_Z = 1.959963984540054  # 97.5% normal quantile


@dataclass(frozen=True)
class TrialReport:
    """Empirical probability estimate for one (estimator, n) cell."""

    estimator_id: str
    n: int
    trials: int
    hits: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    bound: Optional[float]
    seed: int


def wilson_interval(hits: int, trials: int):
    """95% Wilson score interval, with the rule-of-three 3/trials cap at zero hits."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= hits <= trials):
        raise ValueError("hits must lie in [0, trials]")
    if hits == 0:
        return 0.0, min(1.0, 3.0 / trials)
    if hits == trials:
        return max(0.0, 1.0 - 3.0 / trials), 1.0
    p = hits / trials
    z2 = WILSON_Z**2
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = WILSON_Z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# SeedSequence hashing constants and pool size (numpy/random/bit_generator.pyx)
# and the PCG64 128-bit multiplier (numpy/random/src/pcg64/pcg64.h).
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(x: int) -> list:
    """The uint32 words SeedSequence makes of a non-negative int, low word first."""
    if x < 0:
        raise ValueError("seed and stream must be non-negative")
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words


def _seed_state(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(4, np.uint64) as 8 uint32 words.

    Each entropy word is an int or a uint32 array holding one word per row, so
    one pass seeds a whole block; words that are the same for every row stay
    Python ints (masked to 32 bits) until a per-row word is mixed in.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL:]:
        for i_dst in range(_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return state


def _draw_tiles(spec: DistributionSpec, seed: int, start: int, rows: int, n: int):
    """Yield trials start, ..., start + rows - 1 of size n as (T, means, tops),
    the row means and maxima, one tile of dual._TILE_VALUES values at a time,
    each in one reused (tile, n) buffer.

    Row j is what default_rng(SeedSequence((seed, start + j))) draws, then
    the inverse-CDF transform, bit for bit: the seed sequence is hashed for
    all rows at once, and each row's PCG64 {state, inc} is set by the
    pcg64_set_seed steps into a generator owned by this call. T is transformed
    in place with the same ufuncs in the same order and reduced while in L2;
    it holds its rows until the next tile. A draw that overflows a float
    raises DualSolverError.
    """
    if rows == 1:
        index = _words(start)
    elif start + rows <= 1 << 32:
        index = [np.arange(start, start + rows, dtype=np.uint32)]
    else:
        raise ValueError("trial indices must stay below 2**32")
    entropy = _words(seed) + index
    seeded = not isinstance(spec, PointMass)
    if seeded:
        w = np.empty((8, rows), dtype=np.uint64)
        for k, word in enumerate(_seed_state(entropy)):
            w[k] = word
        # generate_state(4, np.uint64) is (w0 | w1 << 32, ..., w6 | w7 << 32); pcg64_set_seed
        # takes the first two as the seed's high and low halves, the last two as inc's
        seeds = zip(*(w[0::2] | w[1::2] << 32).tolist())
        bitgen = np.random.PCG64(0)  # any seed: every row's state is set below
        gen = np.random.Generator(bitgen)
    tile = _tile_rows(n)
    buf = np.empty((min(tile, rows), n))
    for i in range(0, rows, tile):
        T = buf[: min(tile, rows - i)]
        if seeded:
            for row, (s_hi, s_lo, i_hi, i_lo) in zip(T, seeds):
                inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
                state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
                bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                "has_uint32": 0, "uinteger": 0}
                gen.random(out=row)
        # overflowing draws are checked below; an overflowing row mean is inf,
        # which passes the disappointment screen and raises
        with np.errstate(over="ignore"):
            _transform(spec, T)
            means = T.mean(axis=1) if seeded else np.full(len(T), spec.value)  # n copies of v need not average to v
        tops = T.max(axis=1)
        if not np.isfinite(tops).all():
            raise DualSolverError(f"{spec!r} draws a value that overflows a float")
        yield T, means, tops


def _draw_block(spec: DistributionSpec, seed: int, start: int, X: np.ndarray) -> np.ndarray:
    """Fill the (rows, n) block X with trials start, ... as _draw_tiles draws them; return the row means."""
    means = np.empty(len(X))
    i = 0
    for T, tile_means, _ in _draw_tiles(spec, seed, start, *X.shape):
        X[i : i + len(T)], means[i : i + len(T)] = T, tile_means
        i += len(T)
    return means


def _transform(spec: DistributionSpec, T: np.ndarray) -> None:
    """The inverse-CDF transform of uniform draws, in place; a point mass fills T."""
    if isinstance(spec, PointMass):
        T.fill(spec.value)
    elif isinstance(spec, Pareto):
        np.subtract(1.0, T, out=T)
        T **= -1.0 / spec.shape
        T *= spec.scale
    elif isinstance(spec, LogNormal):
        from scipy.special import ndtri

        np.clip(T, 1e-16, 1.0 - 1e-16, out=T)
        ndtri(T, out=T)
        T *= spec.sigma
        T += spec.mu
        np.exp(T, out=T)
    elif isinstance(spec, ScaledBernoulli):
        np.less(T, spec.p, out=T)
        T *= spec.high
    elif isinstance(spec, UniformBounded):
        T *= spec.hi - spec.lo
        T += spec.lo
    else:
        raise TypeError(f"unsupported distribution spec {spec!r}")


def draw_sample(spec: DistributionSpec, n: int, seed: int, stream: int = 0) -> Sample:
    """n i.i.d. draws; deterministic in (spec, n, seed, stream)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    X = np.empty((1, n))
    _draw_block(spec, seed, stream, X)
    return Sample(X[0])


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


def _estimate_batch(cfg: EstimatorConfig, X: np.ndarray, means: np.ndarray, threshold=None) -> np.ndarray:
    """Row-wise estimator values for a (batch, n) matrix of samples whose row means are given.

    These are the only closed-form estimator kernels: estimators.estimate runs
    them on a batch of one. With a threshold, a KL value is exact only in its
    side of it (see solve_kl_dro_dual_batch); the other kinds ignore it.
    """
    n = X.shape[1]
    kind = cfg.kind
    if kind == "mean":
        return means - cfg.delta
    r = cfg.resolve_radius(n)
    if kind == "wasserstein":  # moving mass down lowers the mean one-for-one until it piles up at zero
        return np.maximum(means - r, 0.0)
    if kind == "trunc":
        _, c_a = truncation_constants(cfg.a, cfg.A)
        return np.minimum(X, r ** (-1.0 / cfg.a)).mean(axis=1) - c_a * r ** ((cfg.a - 1.0) / cfg.a)
    if kind == "varreg":
        return means - math.sqrt(2.0 * r) * row_std(X, means)
    if kind == "tv":  # mass sqrt(r/2) moves from the largest values to zero: whole atoms, then a fraction
        removal = math.sqrt(r / 2.0)
        if removal > 1.0:
            raise ValueError(f"sqrt(r/2) = {removal:g} exceeds 1; radius too large for mass removal")
        S = np.sort(X, axis=1)[:, ::-1]
        atoms = int(math.floor(removal * n))
        removed = S[:, :atoms].sum(axis=1) / n if atoms > 0 else np.zeros(X.shape[0])
        frac = removal - atoms / n
        if atoms < n and frac > 0.0:
            removed = removed + frac * S[:, atoms]
        return means - removed
    if kind == "kl":
        return means if r == 0.0 else solve_kl_dro_dual_batch(X, r, threshold=threshold)
    raise ValueError(f"unknown estimator kind {kind!r}")


def _finite_estimates(cfg: EstimatorConfig, X: np.ndarray, means: np.ndarray, where: str, threshold=None) -> np.ndarray:
    """_estimate_batch; an overflow shows up as a non-finite estimate, which raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = _estimate_batch(cfg, X, means, threshold)
    if not np.all(np.isfinite(values)):
        raise DualSolverError(f"non-finite {cfg.kind} estimate in {where}")
    return values


def _event_hits(values: np.ndarray, event: str, mu: float, b: float) -> np.ndarray:
    """Which estimates disappoint (exceed mu) or are conservative (below mu - b)."""
    return values > mu if event == "disappointment" else values < mu - b


def _fill_bound(cfg: EstimatorConfig, event: str, n: int, spec: DistributionSpec, b: float):
    if event == "disappointment":
        if cfg.kind == "kl":
            lam = cfg.resolve_lambda(n)
            if lam > 1.0 and n >= 2:
                return kl_disappointment_bound(n, lam)
            return None
        if cfg.kind == "trunc":
            return math.exp(-cfg.resolve_lambda(n))
        return None
    if cfg.kind == "varreg":
        r = cfg.resolve_radius(n)
        if r == 0.0:  # the plain sample mean: no bound
            return None
        return n * survival_probability(spec, b * math.sqrt(n / (2.0 * r)))
    return None


def _disappointment_rows(T: np.ndarray, means: np.ndarray, tops: np.ndarray, mu: float, r=None) -> np.ndarray:
    """The rows of a drawn tile whose estimate can exceed mu.

    No estimator exceeds its row's mean, so only rows whose mean exceeds mu
    can disappoint; an overflowing mean is inf and stays in, and raises. For
    KL at radius r, a row also stays in unless its certified upper bound
    (dual.kl_value_upper_bound, one np.vecdot per row) clears mu by the
    margin the solver's own brackets clear, dual._side_margin(mu, mean); a
    NaN bound keeps the row.
    """
    keep = means > mu
    if r is not None:
        with np.errstate(over="ignore"):  # an overflowing sum of squares gets a NaN bound
            sumsq = np.vecdot(T, T)
        upper = kl_value_upper_bound(means, sumsq, tops, T.shape[1], r)
        keep &= ~(upper < mu - _side_margin(mu, means))
    return np.flatnonzero(keep)


def _run_event_trials(
    spec: DistributionSpec,
    cfg: EstimatorConfig,
    n: int,
    trials: int,
    seed: int,
    event: str,
    b: float,
    threads: Optional[int],
    batch_size: Optional[int] = None,
) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mu = true_mean(spec)
    if threads is None:  # the cores this process may run on
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if batch_size is None:
        batch_size = max(1, min(4096, 4_000_000 // n))
    starts = list(range(0, trials, batch_size))
    threshold = mu if event == "disappointment" else mu - b  # the estimate's side of it is all _event_hits reads
    tile = _tile_rows(n)
    r = cfg.resolve_radius(n) if cfg.kind == "kl" else None

    def run_chunk(start: int) -> int:
        rows = min(batch_size, trials - start)

        def count(X: np.ndarray, means: np.ndarray) -> int:
            values = _finite_estimates(cfg, X, means, f"trials {start}..{start + rows - 1}", threshold)
            return int(np.count_nonzero(_event_hits(values, event, mu, b)))

        # each drawn tile, or the rows the screen keeps a full tile at a time, then the rest once: a value
        # does not depend on the rows solved beside it, but solving each tile's kept rows alone runs about
        # 10% slower on mc_kl
        tiles = _draw_tiles(spec, seed, start, rows, n)
        if event == "conservatism":
            return sum(count(T, means) for T, means, _ in tiles)
        X, means = np.empty((min(2 * tile, rows), n)), np.empty(min(2 * tile, rows))
        hits = pending = 0
        for T, tile_means, tops in tiles:
            keep = _disappointment_rows(T, tile_means, tops, mu, r)
            end = pending + keep.size  # < 2 * tile
            np.take(T, keep, axis=0, out=X[pending:end], mode="clip")  # "raise" buffers out
            means[pending:end] = tile_means[keep]
            if end >= tile:
                hits += count(X[:tile], means[:tile])
                X[: end - tile], means[: end - tile] = X[tile:end], means[tile:end]
            pending = end % tile
        return hits + count(X[:pending], means[:pending])

    if threads <= 1 or len(starts) == 1:
        return sum(run_chunk(s0) for s0 in starts)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(run_chunk, starts))


def _report(spec, cfg, n, trials, seed, event, b, threads) -> TrialReport:
    """The event's hit count over the trials, its Wilson interval and its bound."""
    hits = _run_event_trials(spec, cfg, n, trials, seed, event, b, threads)
    lo, hi = wilson_interval(hits, trials)
    return TrialReport(cfg.kind, n, trials, hits, hits / trials, lo, hi, _fill_bound(cfg, event, n, spec, b), seed)


def disappointment_probability(
    spec: DistributionSpec,
    cfg: EstimatorConfig,
    n: int,
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> TrialReport:
    """Monte Carlo estimate of P[estimate > true mean] (strict: ties are safe).

    threads defaults to the number of usable cores; hits do not depend on it.
    """
    return _report(spec, cfg, n, trials, seed, "disappointment", 0.0, threads)


def conservatism_probability(
    spec: DistributionSpec,
    cfg: EstimatorConfig,
    b: float,
    n: int,
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> TrialReport:
    """Monte Carlo estimate of P[estimate < true mean - b]; threads as in
    disappointment_probability."""
    if b <= 0:
        raise ValueError("b must be positive")
    return _report(spec, cfg, n, trials, seed, "conservatism", b, threads)


# 40 digits and an exponent range no binomial term can leave
_PMF_CONTEXT = decimal.Context(prec=40, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binom(n, p) pmf(k) for k = 0, ..., n, each term rounded to a float once.

    The terms follow pmf(k + 1) = pmf(k) * p/q * (n - k)/(k + 1) from q**n in
    40-digit decimal, which neither underflows nor overflows, so a term's only
    error that shows in a float is the final rounding: tails below the
    smallest subnormal are 0. p = 0 and p = 1 are unit masses at 0 and n.
    """
    pmf = np.zeros(n + 1)
    if p == 0.0 or p == 1.0:
        pmf[n if p == 1.0 else 0] = 1.0
        return pmf
    with decimal.localcontext(_PMF_CONTEXT):
        p_dec = decimal.Decimal(p)
        q_dec = 1 - p_dec
        ratio = p_dec / q_dec
        term = q_dec**n
        for k in range(n + 1):
            pmf[k] = float(term)
            term = term * ratio * (n - k) / (k + 1)
    return pmf


def exact_bernoulli_event_probability(
    spec: ScaledBernoulli, cfg: EstimatorConfig, n: int, event: str, b: float = 0.0
) -> float:
    """Exact event probability for two-point samples by binomial enumeration.

    A size-n sample from a scaled Bernoulli is determined by its count of
    high values, so P[event] = sum over k of Binom(n, p) pmf(k) * 1{event at k},
    the patterns estimated by the batch kernels, dual._TILE_VALUES values at a time.
    The pmf is computed in 40-digit decimal and rounded to a float once per
    term (_binomial_pmf). Useful where the event is far too rare for Monte Carlo.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if event not in ("disappointment", "conservatism"):
        raise ValueError(f"unknown event {event!r}")
    if event == "conservatism" and b <= 0:
        raise ValueError("b must be positive")
    mu = true_mean(spec)
    threshold = mu if event == "disappointment" else mu - b
    pmf = _binomial_pmf(n, spec.p)
    rows = _tile_rows(n)
    total = 0.0
    for k0 in range(0, n + 1, rows):
        k = np.arange(k0, min(k0 + rows, n + 1))
        X = spec.high * (np.arange(n) >= n - k[:, None])  # n - k zeros, then k high values
        with np.errstate(over="ignore"):  # an overflowing mean is a non-finite estimate, which raises
            means = X.mean(axis=1)
        values = _finite_estimates(cfg, X, means, f"count patterns {k[0]}..{k[-1]}", threshold)
        for p in pmf[k[_event_hits(values, event, mu, b)]]:
            total += float(p)
    return total
