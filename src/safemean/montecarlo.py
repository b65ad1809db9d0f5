"""Monte Carlo measurement of disappointment and conservatism probabilities,
and their exact values for two-point samples by enumeration.

Reproducibility contract: every trial draws from its own RNG substream keyed
by (master seed, trial index), so draws and hit counts are the same
regardless of batching or worker-thread count. Trial i of seed s is the
uniforms U that default_rng(SeedSequence((s, i))) draws, put through the
law's inverse_cdf; a Pareto value is exp(log(1 - U) * (-1/shape)) * scale
(Pareto.inverse_cdf bounds its error). Streams are built a block of trials
at a time: the SeedSequence hash and the 128-bit (state, inc) that numpy's
pcg64_set_seed makes of it run in 32-bit limbs over the whole block, and
each row is drawn by writing its state into the C state of one PCG64 per
thread, whose layout is checked once when it is built (_state_view). It is
drawn, transformed, averaged, screened and
estimated one tile of dual._TILE_VALUES values at a time, in L2, so a worker
holds about three tiles, never a block. _draw_tiles is the one routine that
draws a trial: draw_sample is one row of it. The screen and the estimator
kernels share that one mean per row. A KL estimate is bit-identical
whichever rows share its solve (each row is reduced on its own), so
estimates, like draws, do not depend on batching or worker threads;
undecided rows reach a kernel a full tile at a time only because larger
solves run faster.

A count reads only each estimate's side of its threshold, mu or mu - b, so
one screen (_screen) serves both events and both counters, the harness's
drawn tiles and the enumeration's count patterns: a certified bracket
[lo, hi] on each row's estimate (estimators._brackets), from its mean,
maximum and one np.vecdot, decides the rows it puts clear of the threshold
by the solver's margin, and only the rest reach a kernel, through
_finite_estimates: the KL batch solver at a positive radius,
estimators._closed_form otherwise. The KL rows left are solved with the
threshold: a row stops once a certified bracket [g(a), U] on its value
clears it, and only undecided rows get a converged value. Every row mean is
held within its row's [min, max] (dual._row_means), so n copies of v average
to v unless their sum overflows. Blocks run on as many worker threads as the
process has usable cores unless threads (at least 1) says otherwise. A draw
or estimate that is not finite raises DualSolverError, so it is never
counted as a safe trial.

concurrent.futures is imported only where a pool of worker threads starts,
and decimal only by the enumeration's pmf, so importing the package loads
neither. A law's formulas are its methods (core.py); the estimator
kernels, the screen's bracket for every kind (estimators._brackets) and
the bound each report carries are in estimators.py, the large-deviation
rates and variance-ratio curves in rates.py.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DistributionSpec, Sample, ScaledBernoulli, _law, true_mean
from .dual import DualSolverError, _row_means, _side_margin, _tile_rows, solve_kl_dro_dual_batch
from .estimators import (
    EstimatorConfig,
    _brackets,
    _closed_form,
    _event_bound,
    estimate,  # noqa: F401 -- not called here; perfbench/spans.py wraps this name
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


# SeedSequence hashing constants and pool size (numpy/random/bit_generator.pyx).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


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
    """SeedSequence(entropy).generate_state(4, np.uint64) as 8 32-bit words, low word first.

    Each entropy word is an int or a uint64 array holding one 32-bit word per
    row, so one pass seeds a whole block; words that are the same for every
    row stay Python ints (masked to 32 bits) until a per-row word is mixed in.
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


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h) as 32-bit limbs, low limb first
_PCG_MULT = [0x2360ED051FC65DA44385DF649FCCF645 >> k & _M32 for k in range(0, 128, 32)]
_M64 = 0xFFFFFFFFFFFFFFFF


def _add128(x: list, y: list) -> list:
    """x + y mod 2**128, each four 32-bit limbs, low limb first."""
    out, carry = [], 0
    for a, b in zip(x, y):
        t = a + b + carry
        out.append(t & _M32)
        carry = t >> 32
    return out


def _mul128(x: list, y: list) -> list:
    """x * y mod 2**128 in 32-bit limbs; a limb product plus two limbs is at most 2**64 - 1, so a uint64 holds it."""
    out = [0] * 4
    for i in range(4):
        carry = 0
        for j in range(4 - i):
            t = out[i + j] + x[i] * y[j] + carry
            out[i + j] = t & _M32
            carry = t >> 32
    return out


def _pcg64_state(w: list) -> list:
    """The C state numpy's PCG64 seeds itself with (pcg64_set_seed) from generate_state(4, np.uint64) = g,
    given as _seed_state's 8 words (g_k = w[2k] | w[2k + 1] << 32): the four uint64 words of its
    pcg64_random_t, state lo, state hi, inc lo, inc hi. With initstate = g0:g1 and initseq = g2:g3 (high
    word first), inc = initseq << 1 | 1 and state = ((inc + initstate) * M + inc) mod 2**128: the LCG's
    two steps from 0 (O'Neill 2014). Each word is an int or a uint64 array of 32-bit values, one per row."""
    seq = [w[6], w[7], w[4], w[5]]
    inc = [(seq[0] << 1 | 1) & _M32] + [(seq[k] << 1 | seq[k - 1] >> 31) & _M32 for k in (1, 2, 3)]
    state = _add128(_mul128(_add128(inc, [w[2], w[3], w[0], w[1]]), _PCG_MULT), inc)
    return [state[0] | state[1] << 32, state[2] | state[3] << 32, inc[0] | inc[1] << 32, inc[2] | inc[3] << 32]


def _reported_state(bit_generator) -> list:
    """A PCG64's state and increment as its state property reports them: state lo, state hi, inc lo, inc hi."""
    words = bit_generator.state["state"]
    return [words["state"] & _M64, words["state"] >> 64, words["inc"] & _M64, words["inc"] >> 64]


def _state_view(bit_generator) -> np.ndarray:
    """A writable uint64[4] view of a PCG64's C state, the pcg64_random_t its ctypes.state_address points
    to: state lo, state hi, inc lo, inc hi. Raises RuntimeError unless that layout holds: the words lie
    inside the PCG64 object, they are what its state property reports, and after a write it reports the
    words written. A numpy that keeps its 128-bit words high word first fails the check."""
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    if not id(bit_generator) <= address <= id(bit_generator) + type(bit_generator).__basicsize__ - 32:
        raise RuntimeError("the PCG64 state pointer does not point into the PCG64 object")
    view = np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64)
    words = view.tolist()
    if _reported_state(bit_generator) != words:
        raise RuntimeError("the PCG64 C state is not laid out as state lo, state hi, inc lo, inc hi")
    flipped = [word ^ _M64 for word in words]
    view[:] = flipped
    if _reported_state(bit_generator) != flipped:
        raise RuntimeError("the PCG64 state does not read back the words written to its C state")
    return view


_THREAD = threading.local()


def _thread_generator():
    """This thread's Generator and the _state_view of its PCG64, built on first use and never shared between
    threads: a row is drawn by writing its state into the view, then one random(out=row)."""
    try:
        return _THREAD.generator
    except AttributeError:
        bit_generator = np.random.PCG64(0)
        _THREAD.generator = np.random.Generator(bit_generator), _state_view(bit_generator)
        return _THREAD.generator


def _draw_tiles(spec: DistributionSpec, seed: int, start: int, rows: int, n: int):
    """Yield trials start, ..., start + rows - 1 of size n as (T, means, tops),
    the row means and maxima, one tile of dual._TILE_VALUES values at a time,
    each in one reused (tile, n) buffer.

    Row j is the uniforms default_rng(SeedSequence((seed, start + j))) draws,
    bit for bit, put through spec.inverse_cdf (a Pareto value is
    exp(log(1 - U) * (-1/shape)) * scale): the seed sequence is hashed and the
    PCG64 state that numpy would seed from it is computed for all rows at once
    (_pcg64_state), and each row is drawn by writing its state into this
    thread's one generator (_thread_generator), so iterators may interleave. T
    is transformed in place with the same ufuncs in the same order and reduced
    while in L2; it holds its rows until the next tile. A draw that overflows a
    float raises DualSolverError.
    """
    if rows == 1:
        index = _words(start)
    elif start + rows <= 1 << 32:
        index = [np.arange(start, start + rows, dtype=np.uint64)]
    else:
        raise ValueError("trial indices must stay below 2**32")
    # one row of (state lo, state hi, inc lo, inc hi) per trial
    states = np.array(_pcg64_state(_seed_state(_words(seed) + index)), dtype=np.uint64).reshape(4, rows).T
    tile = _tile_rows(n)
    buf = np.empty((min(tile, rows), n))
    for i in range(0, rows, tile):
        T = buf[: min(tile, rows - i)]
        generator, state = _thread_generator()  # per tile: a resumed iterator may be on another thread
        for row, words in zip(T, states[i:]):
            state[:] = words
            generator.random(out=row)
        with np.errstate(over="ignore"):  # an overflowing draw is inf, which raises below
            spec.inverse_cdf(T)
        tops = T.max(axis=1)
        if not np.isfinite(tops).all():
            raise DualSolverError(f"{spec!r} draws a value that overflows a float")
        # an overflowing row mean is inf, which no screen decides, and raises
        yield T, _row_means(T, tops), tops


def draw_sample(spec: DistributionSpec, n: int, seed: int, stream: int = 0) -> Sample:
    """n i.i.d. draws, trial `stream` of seed `seed`: one row of _draw_tiles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    T, _, _ = next(_draw_tiles(_law(spec), seed, stream, 1, n))
    return Sample(T[0])


def _finite_estimates(cfg: EstimatorConfig, X: np.ndarray, means: np.ndarray, where: str, threshold=None) -> np.ndarray:
    """Row-wise estimator values for a (batch, n) matrix of samples whose row means are given, the one
    kernel entry point of both counters: KL at r > 0 by solve_kl_dro_dual_batch, looked up here so that a
    wrapper of this name sees every solve (with a threshold, a value is exact only in its side of it),
    every other kind by estimators._closed_form. An overflow is a non-finite estimate, which raises."""
    r = cfg.resolve_radius(X.shape[1]) if cfg.kind == "kl" else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        values = solve_kl_dro_dual_batch(X, r, threshold=threshold) if r > 0.0 else _closed_form(cfg, X, means)
    if not np.all(np.isfinite(values)):
        raise DualSolverError(f"non-finite {cfg.kind} estimate in {where}")
    return values


def _event_threshold(spec: DistributionSpec, event: str, b: float) -> float:
    """The threshold whose side of it is all an event reads: mu, or mu - b for conservatism, where 0 < b < inf."""
    if event not in ("disappointment", "conservatism"):
        raise ValueError(f"unknown event {event!r}")
    if event == "conservatism" and not 0 < b < math.inf:  # NaN fails too
        raise ValueError("b must be positive and finite")
    return true_mean(spec) - (b if event == "conservatism" else 0.0)


def _event_hits(values: np.ndarray, event: str, threshold: float) -> np.ndarray:
    """Which estimates disappoint (exceed mu) or are conservative (below mu - b), at the event's threshold."""
    return values > threshold if event == "disappointment" else values < threshold


def _screen(cfg: EstimatorConfig, T: np.ndarray, means: np.ndarray, tops: np.ndarray, event: str, threshold: float):
    """The mask of a tile's rows the screen decides are hits, and the indices
    of the rows it leaves undecided, for an event at its threshold.

    A row is decided when its bracket (estimators._brackets) clears the
    threshold by the margin the solver's own brackets clear,
    dual._side_margin(threshold, mean); a NaN bound decides nothing. No
    estimator exceeds its row's mean, so a row whose mean is at most mu
    cannot disappoint; an overflowing mean is inf, is never decided, and
    raises in the kernel.
    """
    lo, hi = _brackets(cfg, T, means, tops)
    with np.errstate(over="ignore"):  # past the float range the margin is inf, which decides nothing
        margin = _side_margin(threshold, means)
    above, below = lo > threshold + margin, hi < threshold - margin
    if event == "disappointment":
        below |= ~(means > threshold)
    return (above if event == "disappointment" else below), np.flatnonzero(~(above | below))


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
    if threads is None:  # the cores this process may run on
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    elif threads < 1:
        raise ValueError("threads must be >= 1")
    if batch_size is None:
        batch_size = max(1, min(4096, 4_000_000 // n))
    starts = list(range(0, trials, batch_size))
    threshold = _event_threshold(spec, event, b)
    tile = _tile_rows(n)

    def run_chunk(start: int) -> int:
        rows = min(batch_size, trials - start)

        def count(X: np.ndarray, means: np.ndarray) -> int:
            values = _finite_estimates(cfg, X, means, f"trials {start}..{start + rows - 1}", threshold)
            return int(np.count_nonzero(_event_hits(values, event, threshold)))

        # the rows each drawn tile leaves undecided, estimated a full tile at a time, then the rest once: a
        # value does not depend on the rows solved beside it, but solving each tile's rows alone runs about
        # 10% slower on mc_kl. The buffer's pages are touched only as rows arrive.
        X, means = np.empty((min(2 * tile, rows), n)), np.empty(min(2 * tile, rows))
        hits = pending = 0
        for T, tile_means, tops in _draw_tiles(spec, seed, start, rows, n):
            decided, keep = _screen(cfg, T, tile_means, tops, event, threshold)
            hits += int(np.count_nonzero(decided))
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
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(run_chunk, starts))


def _report(spec, cfg, n, trials, seed, event, b, threads) -> TrialReport:
    """The event's hit count, Wilson interval and bound, the bound first: a configuration it rejects runs no trial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    bound = _event_bound(cfg, event, n, spec, b)
    hits = _run_event_trials(spec, cfg, n, trials, seed, event, b, threads)
    lo, hi = wilson_interval(hits, trials)
    return TrialReport(cfg.kind, n, trials, hits, hits / trials, lo, hi, bound, seed)


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
    return _report(spec, cfg, n, trials, seed, "conservatism", b, threads)


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
    import decimal

    # 40 digits and an exponent range no binomial term can leave
    with decimal.localcontext(decimal.Context(prec=40, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)):
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
    the patterns screened and estimated dual._TILE_VALUES values at a time, as
    the harness does a drawn tile. The pmf is computed in 40-digit decimal and
    rounded to a float once per term (_binomial_pmf). Useful where the event
    is far too rare for Monte Carlo.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    threshold = _event_threshold(spec, event, b)
    pmf = _binomial_pmf(n, spec.p)
    rows = _tile_rows(n)
    total = 0.0
    for k0 in range(0, n + 1, rows):
        k = np.arange(k0, min(k0 + rows, n + 1))
        X = spec.high * (np.arange(n) >= n - k[:, None])  # n - k zeros, then k high values
        means = _row_means(X, X[:, -1])
        hits, keep = _screen(cfg, X, means, X[:, -1], event, threshold)
        if keep.size:  # an overflowing mean is never decided, and its non-finite estimate raises here
            values = _finite_estimates(cfg, X[keep], means[keep], f"count patterns {k[0]}..{k[-1]}", threshold)
            hits[keep] = _event_hits(values, event, threshold)
        for p in pmf[k[hits]]:
            total += float(p)
    return total
