import ctypes
import math
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import binom

from safemean import (
    EstimatorConfig,
    LogNormal,
    Pareto,
    RadiusSchedule,
    Sample,
    ScaledBernoulli,
    UniformBounded,
    conservatism_probability,
    cramer_rate,
    disappointment_probability,
    draw_sample,
    exact_bernoulli_event_probability,
    laplace_transform,
    pareto_variance_ratio_limit,
    rate_fit,
    true_mean,
    variance_ratio_curve,
    wilson_interval,
)
from safemean import montecarlo
from safemean.cli import reports_to_csv
from safemean.dual import _TILE_VALUES, DualSolverError, _row_means, kl_value_upper_bound, solve_kl_dro_dual_batch
from safemean.estimators import estimate, row_std
from safemean.montecarlo import TrialReport, _draw_tiles, _finite_estimates, _run_event_trials
from safemean.rates import _population_radius, solve_population_dual
import reference
from reference import binomial_pmf
from streams import reference_block, reference_draw, transform

BERN = ScaledBernoulli(0.5, 2.0)
# left-tail rate of the scaled Bernoulli at b = 0.5: KL(1/4 || 1/2)
BERN_RATE_HALF = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)  # 0.13081203594113697


def test_draw_point_mass():
    s = draw_sample(ScaledBernoulli(1.0, 3.0), 5, seed=1)
    assert list(s.values) == [3.0] * 5


def test_draw_pareto_support():
    s = draw_sample(Pareto(2.0, 1.5), 500, seed=2)
    assert s.min() >= 1.5


def test_draw_pareto_lln():
    s = draw_sample(Pareto(2.0, 1.0), 1_000_000, seed=3)
    assert 1.9 <= float(np.mean(s.values)) <= 2.1


def test_draw_reproducible():
    a = draw_sample(LogNormal(0.0, 1.0), 50, seed=9, stream=4)
    b = draw_sample(LogNormal(0.0, 1.0), 50, seed=9, stream=4)
    c = draw_sample(LogNormal(0.0, 1.0), 50, seed=9, stream=5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


ALL_KINDS = (
    Pareto(2.5, 1.0),
    LogNormal(0.3, 2.0),
    ScaledBernoulli(0.3, 2.5),
    ScaledBernoulli(1.0, 1.5),
    UniformBounded(0.5, 3.0),
)


def _kind(spec):
    """A law's family, in test ids; a scaled Bernoulli at p = 1 is the point mass it draws."""
    return "PointMass" if isinstance(spec, ScaledBernoulli) and spec.p == 1.0 else type(spec).__name__


def _law(spec):
    """A law's repr, in test ids; a scaled Bernoulli at p = 1 is named as the point mass it draws."""
    return f"PointMass(value={spec.high!r})" if _kind(spec) == "PointMass" else repr(spec)


def _drawn(spec, seed, start, rows, n):
    """Trials start, ..., start + rows - 1 and their row means, as _draw_tiles yields them, tiles stacked."""
    tiles = [(T.copy(), means) for T, means, _ in _draw_tiles(spec, seed, start, rows, n)]
    return np.concatenate([T for T, _ in tiles]), np.concatenate([means for _, means in tiles])


@pytest.mark.parametrize("spec", ALL_KINDS, ids=_kind)
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5])
def test_block_draw_matches_per_trial_generators(spec, seed):
    # blocks covering trial indices 0, 1, 4095 and 2**32 - 1; at each n a row
    # drawn alone agrees bit for bit with the same row at another offset in a
    # tile, which moves it across the lanes of numpy's SIMD log and exp
    for n in (1, 9, 17):
        for start, rows in ((0, 2), (4094, 3), (2**32 - 2, 2)):
            X, means = _drawn(spec, seed, start, rows, n)
            expected = reference_block(spec, seed, start, rows, n)
            assert np.array_equal(X, expected), n
            assert np.array_equal(means, _row_means(expected, expected.max(axis=1))), n
        for stream in (0, 1, 4095, 2**32 - 1, 2**32):
            got = draw_sample(spec, n, seed, stream=stream).values
            assert np.array_equal(got, np.sort(reference_draw(spec, n, seed, stream))), n


SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5)
INDICES = (0, 1, 4095, 2**32 - 1)


def _numpy_state(bit_generator) -> list:
    """A PCG64's (state, inc) as the four uint64 words _pcg64_state gives: state lo, state hi, inc lo, inc hi."""
    words = bit_generator.state["state"]
    return [words["state"] % 2**64, words["state"] >> 64, words["inc"] % 2**64, words["inc"] >> 64]


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_state_of_a_block_and_of_one_row_is_what_pcg64_seeds_itself_with(seed):
    # the block form hashes a uint64 array of indices, the one-row form (draw_sample) Python ints
    block = montecarlo._pcg64_state(montecarlo._seed_state(montecarlo._words(seed) + [np.array(INDICES, np.uint64)]))
    for j, index in enumerate(INDICES):
        expected = _numpy_state(np.random.PCG64(np.random.SeedSequence((seed, index))))
        assert [int(word[j]) for word in block] == expected, index
        row = montecarlo._pcg64_state(montecarlo._seed_state(montecarlo._words(seed) + montecarlo._words(index)))
        assert row == expected, index


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 the given generate_state(4, np.uint64) words, so numpy's own
    pcg64_set_seed is the reference for any words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64)
        return self.words


@pytest.mark.parametrize("limbs", [[2**32 - 1] * 8, [2**32 - 1, 0] * 4, [0, 2**32 - 1] * 4, [0] * 8, [1] + [0] * 7])
def test_seed_state_limbs_carry_as_pcg64_does(limbs):
    # all-ones limbs carry out of every limb of the add and of every limb product; the state's words
    # are the same from ints and from uint64 arrays of them
    g = [limbs[2 * k] | limbs[2 * k + 1] << 32 for k in range(4)]
    expected = _numpy_state(np.random.PCG64(_Words(g)))
    assert montecarlo._pcg64_state(limbs) == expected
    arrays = montecarlo._pcg64_state([np.full(3, limb, np.uint64) for limb in limbs])
    assert [word.tolist() for word in arrays] == [[word] * 3 for word in expected]


class _OtherWords(np.random.PCG64):
    """A PCG64 whose state property reports an increment other than its C state's."""

    @property
    def state(self):
        state = np.random.PCG64.state.__get__(self)
        state["state"]["inc"] ^= 2
        return state


class _Frozen(np.random.PCG64):
    """A PCG64 whose state property reports its first state whatever is written after."""

    def __init__(self, seed):
        super().__init__(seed)
        self.first = np.random.PCG64.state.__get__(self)

    @property
    def state(self):
        return self.first


class _Elsewhere(np.random.PCG64):
    """A PCG64 whose state_address points at words outside the object."""

    def __init__(self, seed):
        super().__init__(seed)
        self.outside = np.zeros(4, np.uint64)
        self.pointer = ctypes.c_void_p(self.outside.ctypes.data)

    @property
    def ctypes(self):
        return types.SimpleNamespace(state_address=ctypes.addressof(self.pointer))


@pytest.mark.parametrize(
    "bit_generator, message",
    [(_OtherWords, "laid out"), (_Frozen, "read back"), (_Elsewhere, "does not point into")],
)
def test_state_view_rejects_a_layout_it_cannot_confirm(bit_generator, message):
    with pytest.raises(RuntimeError, match=message):
        montecarlo._state_view(bit_generator(5))


def test_tiled_draws_resumed_on_other_threads_match_their_streams():
    # each _draw_tiles call owns its generator, so an iterator may move between threads: two iterators take
    # turns, each tile drawn on the main thread or on a worker in alternation; 6 rows per tile at n = 20000
    spec, n, rows = Pareto(2.5, 1.0), 20000, 13
    iterators = {7: _draw_tiles(spec, 7, 0, rows, n), 11: _draw_tiles(spec, 11, 4094, rows, n)}
    got = {7: [], 11: []}
    with ThreadPoolExecutor(max_workers=1) as pool:
        for turn in range(3):
            for seed, tiles in iterators.items():
                T, _, _ = next(tiles) if turn % 2 == 0 else pool.submit(next, tiles).result()
                got[seed].append(T.copy())
    assert np.array_equal(np.concatenate(got[7]), reference_block(spec, 7, 0, rows, n))
    assert np.array_equal(np.concatenate(got[11]), reference_block(spec, 11, 4094, rows, n))


def test_seed_interleaved_tiled_draws_match_their_streams():
    # two iterators advanced alternately in one thread each draw with their own generator and match their
    # own streams; 6 rows per tile at n = 20000, 3 tiles each
    spec, n, rows = Pareto(2.5, 1.0), 20000, 13
    first, second = _draw_tiles(spec, 7, 0, rows, n), _draw_tiles(spec, 11, 4094, rows, n)
    got = {7: [], 11: []}
    for (T7, _, _), (T11, _, _) in zip(first, second):
        got[7].append(T7.copy())
        got[11].append(T11.copy())
    assert np.array_equal(np.concatenate(got[7]), reference_block(spec, 7, 0, rows, n))
    assert np.array_equal(np.concatenate(got[11]), reference_block(spec, 11, 4094, rows, n))


TILE_GRID_N = (1, 2, 7, 8, 9, 100, 1000, 3000, 20000)


@pytest.fixture(scope="module")
def tile_grid_uniforms():
    """Trials 0, ..., 3k + 4 of seed 5 as uniforms, k = _TILE_VALUES // n rows per tile.

    Each trial is drawn once, at the largest n that reads it: a generator's
    first n uniforms do not depend on how many it is asked for. UniformBounded(0, 1)
    is the identity transform."""
    rows = {n: 3 * (_TILE_VALUES // n) + 5 for n in TILE_GRID_N}
    longest = [
        reference_draw(UniformBounded(0.0, 1.0), max(n for n in TILE_GRID_N if rows[n] > i), 5, i)
        for i in range(max(rows.values()))
    ]
    return {n: np.array([u[:n] for u in longest[: rows[n]]]) for n in TILE_GRID_N}


@pytest.mark.parametrize("spec", ALL_KINDS, ids=_kind)
def test_tiled_draw_matches_whole_block_transform_mean_and_std(spec, tile_grid_uniforms):
    for n, U in tile_grid_uniforms.items():
        k = _TILE_VALUES // n
        for rows in (k - 1, k, k + 1, 3 * k + 5):
            X, means = _drawn(spec, 5, 0, rows, n)
            expected = transform(spec, U[:rows])
            assert np.array_equal(X, expected), (n, rows)
            assert np.array_equal(means, expected.mean(axis=1)), (n, rows)
            assert np.array_equal(row_std(X, means), expected.std(axis=1)), (n, rows)


@pytest.fixture(scope="module")
def grid_complements():
    """1 - U for a few thousand U on numpy's 2**-53 grid: 1 - U of 2000 uniforms,
    40 values in each binade from 2**-53 up, and 2**-53, 2**-52, 0.5 and 1."""
    rng = np.random.default_rng(3)
    binades = [rng.integers(2 ** (j - 1), 2**j, size=40) for j in range(1, 54)]
    x = np.ldexp(np.concatenate(binades + [[1, 2, 2**52, 2**53]]).astype(float), -53)
    return np.concatenate([1.0 - rng.random(2000), x])


def _ulps(got, expected):
    return np.abs(got - expected) / np.spacing(expected)


@pytest.mark.parametrize("shape", [1.0000001, 1.5, 2.5, 10.0])
def test_pareto_draw_is_within_its_bound_of_the_correctly_rounded_power(shape, grid_complements):
    x = grid_complements
    T = 1.0 - x  # the uniforms, exactly
    Pareto(shape, 1.0).inverse_cdf(T)
    expected = np.array([float(reference.pareto_power(v, shape)) for v in x])
    y = np.log(x) * (-1.0 / shape)
    assert np.all(_ulps(T, expected) <= 4.0 * y + 2.0)
    assert np.all(T[x == 1.0] == 1.0)  # U = 0 draws the minimum, scale, exactly


def test_event_probabilities_reject_empty_samples():
    cfg = EstimatorConfig("mean")
    with pytest.raises(ValueError, match="n must be >= 1"):
        disappointment_probability(Pareto(2.5, 1.0), cfg, 0, 10, seed=1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        conservatism_probability(Pareto(2.5, 1.0), cfg, 0.5, 0, 10, seed=1)


def test_draw_rejects_negative_seeds_and_out_of_range_blocks():
    with pytest.raises(ValueError):
        draw_sample(Pareto(2.5, 1.0), 5, seed=-1)
    with pytest.raises(ValueError):
        draw_sample(Pareto(2.5, 1.0), 5, seed=1, stream=-1)
    with pytest.raises(ValueError):
        disappointment_probability(Pareto(2.5, 1.0), EstimatorConfig("mean"), 5, 10, seed=-1)
    with pytest.raises(ValueError):
        next(_draw_tiles(Pareto(2.5, 1.0), 1, 2**32 - 1, 2, 5))


@pytest.mark.parametrize(
    "cfg,event,b",
    [
        (EstimatorConfig("kl", r=0.02), "disappointment", 0.0),
        (EstimatorConfig("varreg", lam=1.0), "conservatism", 0.3),
        (EstimatorConfig("tv", lam=0.05), "disappointment", 0.0),
    ],
    ids=["kl", "varreg", "tv"],
)
def test_hits_do_not_depend_on_batching_or_threads(cfg, event, b):
    spec, n, trials, seed = Pareto(2.5, 1.0), 20, 150, 13
    hits = {
        (batch_size, threads): _run_event_trials(spec, cfg, n, trials, seed, event, b, threads, batch_size)
        for batch_size in (1, 7, None)
        for threads in (1, 2)
    }
    assert len(set(hits.values())) == 1
    assert 0 < hits[None, 1] < trials


SCREEN_SPECS = (
    Pareto(2.5, 1.0),
    LogNormal(0.0, 1.0),
    ScaledBernoulli(0.5, 2.0),
    UniformBounded(0.0, 1.0),
    ScaledBernoulli(1.0, 1e-300),
    ScaledBernoulli(1.0, 1.0),
    ScaledBernoulli(1.0, 1e300),
)


@pytest.mark.parametrize(
    "schedule",
    [RadiusSchedule.log_n(), RadiusSchedule.log_n(1e-6), RadiusSchedule.log_n(1e-100)],
    ids=["logn", "logn_1e-6", "logn_1e-100"],
)
def test_estimates_never_exceed_the_sample_mean(schedule):
    # the disappointment screen drops rows whose mean is at most mu; that is
    # exact only because no estimate exceeds its row's sample mean
    configs = [EstimatorConfig("mean")] + [
        EstimatorConfig(kind, schedule=schedule) for kind in ("wasserstein", "varreg", "tv", "kl")
    ] + [EstimatorConfig("trunc", schedule=schedule, A=5.0)]
    checked = set()
    for spec in SCREEN_SPECS:
        for n in (1, 2, 20, 300):
            X = reference_block(spec, 3, 0, 40, n)
            means = _row_means(X, X.max(axis=1))  # the means the screen reads
            for cfg in configs:
                try:
                    values = _finite_estimates(cfg, X, means, "the block")
                except ValueError:  # logn at n = 1, tv with sqrt(r/2) > 1
                    continue
                assert np.all(values <= means), (spec, n, cfg.kind)
                checked.add(cfg.kind)
    assert len(checked) == 6


SCREEN_CONFIGS = (
    EstimatorConfig("mean", delta=0.05),
    EstimatorConfig("wasserstein", r=0.05),
    EstimatorConfig("trunc", lam=0.5, A=5.0),
    EstimatorConfig("varreg", lam=0.2),
    EstimatorConfig("tv", lam=0.05),
    EstimatorConfig("kl", r=0.02),
)


@pytest.mark.parametrize("cfg", SCREEN_CONFIGS, ids=lambda cfg: cfg.kind)
def test_screened_disappointment_hits_match_unscreened_count(cfg):
    spec, n, trials, seed = Pareto(2.5, 1.0), 20, 150, 13
    X = reference_block(spec, seed, 0, trials, n)
    values = _finite_estimates(cfg, X, X.mean(axis=1), "the block")  # every row estimated
    expected = int(np.count_nonzero(values > true_mean(spec)))
    assert 0 < expected < trials
    for batch_size in (1, 7, None):
        for threads in (1, 2):
            hits = _run_event_trials(spec, cfg, n, trials, seed, "disappointment", 0.0, threads, batch_size)
            assert hits == expected


def test_kl_conservatism_hits_with_threshold_match_unthresholded_count():
    # the harness stops each KL row once its bracket clears mu - b; the inline
    # count solves every row to convergence (disappointment: the screened test above)
    cfg, spec, n, trials, seed, b = EstimatorConfig("kl", r=0.02), Pareto(2.5, 1.0), 20, 150, 13, 0.2
    X = reference_block(spec, seed, 0, trials, n)
    expected = int(np.count_nonzero(_finite_estimates(cfg, X, X.mean(axis=1), "the block") < true_mean(spec) - b))
    assert 0 < expected < trials
    for batch_size in (1, 7, None):
        for threads in (1, 2):
            assert _run_event_trials(spec, cfg, n, trials, seed, "conservatism", b, threads, batch_size) == expected


@pytest.mark.parametrize("event", ["disappointment", "conservatism"])
def test_kl_enumeration_with_threshold_is_bit_identical_to_full_solves(event):
    spec, cfg, b = ScaledBernoulli(0.5, 2.0), EstimatorConfig("kl", schedule=RadiusSchedule.log_n()), 0.5
    mu = true_mean(spec)
    for n in (50, 200, 800, 3000):
        pmf = montecarlo._binomial_pmf(n, spec.p)
        rows = max(1, _TILE_VALUES // n)
        total = 0.0
        for k0 in range(0, n + 1, rows):  # the enumeration's tiles and summation order
            k = np.arange(k0, min(k0 + rows, n + 1))
            values = solve_kl_dro_dual_batch(spec.high * (np.arange(n) >= n - k[:, None]), cfg.resolve_radius(n))
            for p in pmf[k[values > mu if event == "disappointment" else values < mu - b]]:
                total += float(p)
        assert exact_bernoulli_event_probability(spec, cfg, n, event, b) == total, n


def _kernel_spy(monkeypatch) -> list:
    """The row count of every call to the kernel entry point, in call order."""
    rows, kernel = [], montecarlo._finite_estimates

    def spy(cfg, X, means, where, threshold=None):
        rows.append(X.shape[0])
        return kernel(cfg, X, means, where, threshold)

    monkeypatch.setattr(montecarlo, "_finite_estimates", spy)
    return rows


@pytest.mark.parametrize(
    "event,n,sent,probability",
    [
        ("conservatism", 50, 31, 0.16111816017877345),
        ("conservatism", 200, 133, 1.3264377797634236e-05),
        ("conservatism", 800, 558, 9.036895318507749e-29),
        ("disappointment", 50, 17, 0.003300223983405459),
    ],
)
def test_enumeration_sends_only_the_undecided_patterns_to_the_kernel(monkeypatch, event, n, sent, probability):
    # the enumeration screens its count patterns as the harness screens a drawn tile
    spec, cfg, b = ScaledBernoulli(0.5, 2.0), EstimatorConfig("kl", schedule=RadiusSchedule.log_n()), 0.5
    X = spec.high * (np.arange(n) >= n - np.arange(n + 1)[:, None])  # every count pattern, in one block
    means = _row_means(X, X[:, -1])
    undecided = montecarlo._screen(cfg, X, means, X[:, -1], event, montecarlo._event_threshold(spec, event, b))[1]
    rows = _kernel_spy(monkeypatch)
    assert exact_bernoulli_event_probability(spec, cfg, n, event, b) == probability
    assert sum(rows) == undecided.size == sent


def test_block_screened_out_entirely_has_no_rows_and_no_hits(monkeypatch):
    rows = _kernel_spy(monkeypatch)
    # every row's mean equals mu, so none can disappoint
    assert _run_event_trials(ScaledBernoulli(1.0, 1.0), EstimatorConfig("kl", r=0.1), 20, 50, 3, "disappointment", 0.0, 1, 16) == 0
    assert rows == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "kind,n,trials,event,b",
    [
        ("kl", 1000, 8000, "disappointment", 0.0),
        ("kl", 3000, 2666, "disappointment", 0.0),
        ("varreg", 1000, 8000, "conservatism", 0.5),
    ],
    ids=["kl_n1000", "kl_n3000", "varreg_n1000"],
)
def test_event_count_memory_is_bounded_by_the_tile(kind, n, trials, event, b):
    # a worker holds a drawn tile, two tiles of kept rows and the solver's
    # work buffers, never a (batch, n) block (32 MB here) or its kept rows
    cfg = EstimatorConfig(kind, schedule=RadiusSchedule.log_n())
    tracemalloc.start()
    try:
        _run_event_trials(Pareto(2.5, 1.0), cfg, n, trials, 7, event, b, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _TILE_VALUES * 8, peak


def test_kl_solves_get_the_rows_of_the_whole_batch(monkeypatch):
    # kept rows, those whose mean exceeds mu that the certified upper bound
    # does not put below it, are gathered tile by tile, yet each KL solve gets
    # a full tile of them, as solve_kl_dro_dual_batch(X[keep]) cuts the whole
    # batch, and the values are those of the whole batch's kept rows
    spec, cfg, n, seed = Pareto(2.5, 1.0), EstimatorConfig("kl", schedule=RadiusSchedule.log_n()), 300, 5
    tile, batch_size, trials = _TILE_VALUES // n, 12500, 37000
    assert batch_size % tile != 0
    mu, r = true_mean(spec), cfg.resolve_radius(n)
    got = []

    def spy(X, r, threshold=None):
        got.append(solve_kl_dro_dual_batch(X, r, threshold))
        return got[-1]

    monkeypatch.setattr(montecarlo, "solve_kl_dro_dual_batch", spy)
    hits = _run_event_trials(spec, cfg, n, trials, seed, "disappointment", 0.0, 1, batch_size)
    expected, sizes = [], []
    for start in range(0, trials, batch_size):  # three batches, the last one short
        kept = []
        for T, means, tops in _draw_tiles(spec, seed, start, min(batch_size, trials - start), n):
            upper = kl_value_upper_bound(means, np.vecdot(T, T), tops, n, r)
            kept.append(T[(means > mu) & ~(upper < mu - 1e-9 * (mu + means))])
        expected.append(solve_kl_dro_dual_batch(np.concatenate(kept), r, threshold=mu))
        sizes += [tile] * (len(expected[-1]) // tile) + [len(expected[-1]) % tile]
    assert [len(values) for values in got] == sizes and sizes.count(tile) >= 3
    assert np.concatenate(got).tobytes() == np.concatenate(expected).tobytes()
    assert hits == np.count_nonzero(np.concatenate(expected) > mu) > 0


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 1000) == (0.0, 3.0 / 1000)
    lo1, hi1 = wilson_interval(1000, 1000)
    assert hi1 == 1.0 and lo1 == pytest.approx(1.0 - 3.0 / 1000)
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(7, 5)


def test_wilson_coverage_on_synthetic_bernoulli():
    rng = np.random.default_rng(123)
    p = 0.07
    trials = 400
    covered = 0
    reps = 1000
    hit_counts = rng.binomial(trials, p, size=reps)
    for hits in hit_counts:
        lo, hi = wilson_interval(int(hits), trials)
        covered += int(lo <= p <= hi)
    assert covered >= 930


def test_disappointment_point_mass_zero():
    rep = disappointment_probability(ScaledBernoulli(1.0, 3.0), EstimatorConfig("kl", r=0.2), 10, 500, seed=4)
    assert rep.hits == 0 and rep.p_hat == 0.0
    # tie is not a disappointment
    rep_mean = disappointment_probability(ScaledBernoulli(1.0, 3.0), EstimatorConfig("mean", delta=0.0), 10, 500, seed=4)
    assert rep_mean.hits == 0


@pytest.mark.parametrize("threads", [0, -5])
def test_fewer_than_one_thread_raises(threads):
    spec, cfg = Pareto(2.5, 1.0), EstimatorConfig("varreg", lam=2.0)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        disappointment_probability(spec, cfg, 20, 10, seed=1, threads=threads)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        conservatism_probability(spec, cfg, 0.5, 20, 10, seed=1, threads=threads)


def test_disappointment_reproducible_across_threads():
    spec = Pareto(2.5, 1.0)
    cfg = EstimatorConfig("kl", schedule=RadiusSchedule.log_n())
    rep1 = disappointment_probability(spec, cfg, 60, 400, seed=5, threads=1)
    rep4 = disappointment_probability(spec, cfg, 60, 400, seed=5, threads=4)
    assert rep1 == rep4


def test_disappointment_bound_column_filled():
    spec = Pareto(2.5, 1.0)
    cfg = EstimatorConfig("kl", schedule=RadiusSchedule.log_n())
    rep = disappointment_probability(spec, cfg, 100, 2000, seed=6)
    assert rep.bound == pytest.approx(0.6503726925914973, rel=1e-12)
    assert rep.p_hat + (rep.ci_hi - rep.ci_lo) / 2 <= rep.bound
    cfg_tr = EstimatorConfig("trunc", a=2.0, A=5.0, lam=3.0)
    rep_tr = disappointment_probability(spec, cfg_tr, 100, 2000, seed=6)
    assert rep_tr.bound == pytest.approx(math.exp(-3.0), rel=1e-12)


def test_conservatism_point_mass_zero():
    # compensator sqrt(2 r) sigma-hat = 0 for a constant sample: never b-conservative
    rep = conservatism_probability(ScaledBernoulli(1.0, 2.0), EstimatorConfig("varreg", lam=1.0), 0.5, 10, 300, seed=7)
    assert rep.hits == 0
    with pytest.raises(ValueError, match="b must be positive"):
        conservatism_probability(ScaledBernoulli(1.0, 2.0), EstimatorConfig("varreg", lam=1.0), 0.0, 10, 10, seed=7)


def test_conservatism_varreg_bound_column():
    spec = Pareto(2.5, 1.0)
    cfg = EstimatorConfig("varreg", schedule=RadiusSchedule.log_n())
    rep = conservatism_probability(spec, cfg, 0.5, 1000, 100, seed=8)
    n, lam = 1000, math.log(1000)
    expected = n * (0.5 * math.sqrt(n / (2 * lam / n))) ** -2.5
    assert rep.bound == pytest.approx(expected, rel=1e-12)


def test_kl_disappointment_monotone_in_radius():
    spec = Pareto(2.0, 1.0)
    n, trials, seed = 40, 1500, 11
    p_hats = [
        disappointment_probability(spec, EstimatorConfig("kl", r=r), n, trials, seed).p_hat
        for r in (0.005, 0.02, 0.08)
    ]
    assert all(p1 >= p2 for p1, p2 in zip(p_hats, p_hats[1:]))


def test_exact_bernoulli_enumeration_matches_binomial():
    # mean estimator with delta=0: the event mean > mu is K > n/2
    p = exact_bernoulli_event_probability(BERN, EstimatorConfig("mean"), 21, "disappointment")
    expected = float(1.0 - binom.cdf(10, 21, 0.5))
    assert p == pytest.approx(expected, rel=1e-12)
    # conservatism of the plain mean at b = 0.5: K/10.5... mean < 0.5 means K <= 5 at n=21
    pc = exact_bernoulli_event_probability(BERN, EstimatorConfig("mean"), 21, "conservatism", b=0.5)
    expected_c = float(binom.cdf(5, 21, 0.5))
    assert pc == pytest.approx(expected_c, rel=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, 0.5, 0.4, 0.3, 1e-3])
def test_binomial_pmf_within_one_ulp_of_50_digit_reference(p):
    for n in (1, 2, 50, 800, 3000):
        pmf = montecarlo._binomial_pmf(n, p)
        for k, (got, want) in enumerate(zip(pmf, binomial_pmf(n, p))):
            assert abs(got - want) <= math.ulp(want), (n, k)
        if p in (0.0, 1.0):  # a unit mass at k = 0 or k = n
            assert list(pmf) == [float(k == (n if p else 0)) for k in range(n + 1)]
        scipy_pmf = binom.pmf(np.arange(n + 1), n, p)
        kept = scipy_pmf >= 1e-300
        assert np.allclose(pmf[kept], scipy_pmf[kept], rtol=1e-12, atol=0.0), n
    # the zero and subnormal tails are reached
    tails = montecarlo._binomial_pmf(3000, 0.5)
    assert tails[0] == 0.0 and np.any((0.0 < tails) & (tails < np.finfo(float).tiny))


def _scalar_enumeration(spec, cfg, n, event, b):
    """Exact enumeration as it was before batching: one scalar estimate per count."""
    mu = true_mean(spec)
    pmf = montecarlo._binomial_pmf(n, spec.p)
    total = 0.0
    for k in range(n + 1):
        values = np.concatenate([np.zeros(n - k), np.full(k, spec.high)])
        est = estimate(cfg, Sample(values)).value
        if (est > mu) if event == "disappointment" else (est < mu - b):
            total += float(pmf[k])
    return total


ENUM_CONFIGS = (
    EstimatorConfig("mean", delta=0.05),
    EstimatorConfig("wasserstein", r=0.05),
    EstimatorConfig("trunc", lam=2.0, A=5.0),
    EstimatorConfig("varreg", schedule=RadiusSchedule.log_n()),
    EstimatorConfig("tv", lam=5.0),  # sqrt(r/2) > 1 at n = 1 and 2: both paths raise
    EstimatorConfig("kl", schedule=RadiusSchedule.log_n()),
)


@pytest.mark.parametrize("cfg", ENUM_CONFIGS, ids=lambda cfg: cfg.kind)
@pytest.mark.parametrize("event", ["disappointment", "conservatism"])
def test_batched_enumeration_matches_scalar_loop(cfg, event):
    spec = ScaledBernoulli(0.4, 2.5)
    for n in (1, 2, 50, 200):
        try:
            expected = _scalar_enumeration(spec, cfg, n, event, 0.5)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                exact_bernoulli_event_probability(spec, cfg, n, event, b=0.5)
            assert str(info.value) == str(exc)
            continue
        assert exact_bernoulli_event_probability(spec, cfg, n, event, b=0.5) == expected


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize(
    "cfg",
    # at r = 1e-40 the trunc compensator is below an ulp of 0.1, so only the held mean keeps it at mu
    [*ENUM_CONFIGS, pytest.param(EstimatorConfig("trunc", r=1e-40, A=5.0), id="trunc_r1e-40")],
    ids=lambda cfg: cfg.kind,
)
def test_enumerated_point_mass_never_disappoints(cfg, p):
    # every sample equals mu; n copies of 0.1 or 0.7 average to one ulp above or below them
    for high in (1e-300, 0.1, 0.7, 1e300):
        for n in (3, 20, 300):
            assert exact_bernoulli_event_probability(ScaledBernoulli(p, high), cfg, n, "disappointment") == 0.0


def test_enumeration_rejects_unknown_event_and_non_positive_b():
    cfg = EstimatorConfig("mean")
    with pytest.raises(ValueError, match="n must be >= 1"):
        exact_bernoulli_event_probability(BERN, cfg, 0, "disappointment")
    with pytest.raises(ValueError, match="unknown event"):
        exact_bernoulli_event_probability(BERN, cfg, 10, "disapointment")
    for b in (0.0, -0.5):
        with pytest.raises(ValueError, match="b must be positive"):
            exact_bernoulli_event_probability(BERN, cfg, 10, "conservatism", b=b)


def test_enumeration_non_finite_estimate_raises():
    # every pattern is finite, but the sum behind the sample mean overflows
    with pytest.raises(DualSolverError, match="non-finite mean estimate in count patterns"):
        exact_bernoulli_event_probability(ScaledBernoulli(0.5, 1e308), EstimatorConfig("mean"), 10, "disappointment")


def test_exact_enumeration_agrees_with_monte_carlo():
    cfg = EstimatorConfig("kl", schedule=RadiusSchedule.log_n())
    exact = exact_bernoulli_event_probability(BERN, cfg, 50, "conservatism", b=0.5)
    rep = conservatism_probability(BERN, cfg, 0.5, 50, 4000, seed=12)
    assert rep.ci_lo <= exact <= rep.ci_hi


def test_laplace_transform_closed_forms():
    assert laplace_transform(ScaledBernoulli(1.0, 2.0), 1.3) == pytest.approx(math.exp(-2.6), rel=1e-12)
    assert laplace_transform(BERN, 0.7) == pytest.approx(0.5 + 0.5 * math.exp(-1.4), rel=1e-12)
    s = 0.9
    expected_unif = (1.0 - math.exp(-s)) / s
    assert laplace_transform(UniformBounded(0.0, 1.0), s) == pytest.approx(expected_unif, rel=1e-10)
    assert laplace_transform(Pareto(2.5, 1.0), 0.0) == 1.0
    # Pareto(rho, 1) against rho s**rho Gamma(-rho, s) at 50 digits; an absolute quadrature floor of 1e-14
    # left the transform 1.7e-3 off at s = 200 and 10% off at s = 700
    for rho in (1.5, 2.5, 4.0):
        for s in (1e-3, 0.1, 0.5, 1.0, 10.0, 50.0, 200.0, 700.0):
            expected = float(reference.laplace_transform(Pareto(rho, 1.0), s))
            assert laplace_transform(Pareto(rho, 1.0), s) == pytest.approx(expected, rel=2e-14, abs=0.0), (rho, s)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.5, 2.0), (3.0, 3.5), (1e-3, 1e3), (0.0, 1e-300), (1e300, 1.5e300)])
def test_uniform_laplace_transform_matches_the_50_digit_reference(lo, hi):
    # from s = 1e-300, where s (hi - lo) underflows, to where exp(-s lo) does; within 1e-15 relative,
    # never above 1 and never a cancelled 0
    for s in (1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-12, 1e-8, 1e-4, 0.01, 0.3, 1.0, 3.0, 100.0, 1e4):
        expected = float(reference.laplace_transform(UniformBounded(lo, hi), s))
        assert laplace_transform(UniformBounded(lo, hi), s) == pytest.approx(expected, rel=1e-15, abs=0.0), s


@pytest.mark.parametrize("s", [0.05, 0.3, 1.0, 4.0, 20.0])
def test_laplace_transform_lognormal_matches_gauss_hermite(s):
    # the 200- and 300-node sums agree to about 1e-15 up to s = 20; an absolute 1e-9 passed any transform that small
    nodes, weights = np.polynomial.hermite_e.hermegauss(200)
    expected = float(np.sum(weights * np.exp(-s * np.exp(nodes)))) / math.sqrt(2.0 * math.pi)
    assert laplace_transform(LogNormal(0.0, 1.0), s) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_cramer_rate_examples():
    assert cramer_rate(BERN, 0.0) == 0.0
    # saturating objective: rate at b = mu is -log P[z = 0]
    assert cramer_rate(BERN, 1.0) == pytest.approx(math.log(2.0), abs=1e-9)
    assert cramer_rate(BERN, 0.5) == pytest.approx(BERN_RATE_HALF, abs=1e-9)
    with pytest.raises(ValueError):
        cramer_rate(BERN, -0.1)


def test_cramer_rate_binomial_cross_check():
    # exact binomial enumeration of P[mean < mu - b] at n = 20
    n, b = 20, 0.5
    p_exact = float(binom.cdf(4, n, 0.5))  # mean < 0.5 means K <= 4
    rate = cramer_rate(BERN, b)
    assert abs(-math.log(p_exact) / n - rate) <= 0.15


def test_cramer_rate_impossible_event_is_infinite():
    # Pareto support starts at 1; mean below mu - b is impossible for b > mu - 1
    assert cramer_rate(Pareto(2.5, 1.0), 0.8) == math.inf


@pytest.mark.parametrize(
    "spec,b",
    [
        (UniformBounded(0.0, 1.0), 0.25),
        (Pareto(2.5, 1.0), 0.5),
        (UniformBounded(0.0, 1.0), 1e-6),
        (Pareto(2.5, 1.0), 1e-6),
        (Pareto(2.5, 1.0), 1e-10),
        (Pareto(2.5, 1.0), 0.65),  # 5.9e-12 and 4.2e-5 off with the transform's absolute floor of 1e-14
        (Pareto(2.5, 1.0), 0.66),
    ],
    ids=repr,
)
def test_cramer_rate_matches_the_50_digit_reference(spec, b):
    # 1e-12 relative where the rate is of order one; item 7's bar is 1e-10 for every rate of at least 1e-30
    rel = 1e-12 if b >= 0.25 else 1e-10
    assert cramer_rate(spec, b) == pytest.approx(float(reference.cramer_rate(spec, b)), rel=rel, abs=0.0)


# rates from a cancellation-free quadrature: b s - E[exp(-s z) - 1 + s z] + (x - log1p(x)),
# x = E[exp(-s z) - 1 + s z] - s mu, with exp(-x) - 1 + x summed as a series near 0
@pytest.mark.parametrize("sigma,expected", [(3.0, 3.040086074481525e-09), (5.0, 4.1731387039269806e-23)])
def test_cramer_rate_heavy_lognormal_is_above_its_quadratic_floor(sigma, expected):
    # for z >= 0, exp(-x) <= 1 - x + x^2/2 gives rate >= b^2 / (2 E[z^2]), 2.4e-23
    # at sigma 5, where the maximizer is near 2e-22
    b = 0.5
    rate = cramer_rate(LogNormal(0.0, sigma), b)
    assert rate >= b * b / (2.0 * math.exp(2.0 * sigma**2))
    assert rate == pytest.approx(expected, rel=1e-8, abs=0.0)  # the default abs=1e-12 would pass any rate this small


def test_cramer_rate_infinite_variance_pareto_small_b():
    # for Pareto(1.5, 1), E[exp(-s z) - 1 + s z] ~ 1.5 Gamma(-1.5) s**1.5 = sqrt(4 pi) s**1.5
    # as s -> 0, so the rate tends to b**3 / (27 pi); the relative gap is about 0.64 b
    for b in (3e-6, 3e-4):
        assert cramer_rate(Pareto(1.5, 1.0), b) == pytest.approx(b**3 / (27.0 * math.pi), rel=1e-3, abs=0.0)


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_cramer_rate_is_scale_free(c):
    # z -> c z with b -> c b leaves the rate unchanged
    for spec, scaled in (
        (Pareto(2.5, 1.0), Pareto(2.5, c)),
        (LogNormal(0.0, 1.0), LogNormal(math.log(c), 1.0)),
        (UniformBounded(1.0, 3.0), UniformBounded(c, 3.0 * c)),
        (BERN, ScaledBernoulli(0.5, 2.0 * c)),
    ):
        for b in (1e-6, 0.1, 0.5):
            assert cramer_rate(scaled, c * b) == pytest.approx(cramer_rate(spec, b), rel=1e-9)


@pytest.mark.parametrize(
    "spec,b",
    [
        (UniformBounded(0.0, 1.0), 0.5),
        (UniformBounded(0.0, 3.0), 1.5),
        (UniformBounded(0.0, 1e-300), 5e-301),
        (UniformBounded(0.5, 1.5), 0.5),
        (Pareto(2.5, 1.0), 2.0 / 3.0),
        (ScaledBernoulli(0.5, 2.0), 1.5),
    ],
    ids=repr,
)
def test_cramer_rate_is_infinite_where_no_mass_lies_at_or_below_mu_minus_b(spec, b):
    # P[z <= mu - b] = 0: mu - b is the law's minimum with no atom there, or below it; the search
    # used to return a finite rate at the minimum (37.28535178716628 for the first three)
    assert spec.survival(true_mean(spec) - b) == 1.0
    assert cramer_rate(spec, b) == math.inf


def test_cramer_rate_is_finite_where_survival_rounds_to_one_above_the_minimum():
    # P[z <= 1e-4] is about 1e-20 for LogNormal(0, 1), and 5.6e-17 for the uniform on [0, 1] one ulp
    # below b = 1/2: survival rounds to 1.0 at both, yet each event is possible and its rate finite
    spec = LogNormal(0.0, 1.0)
    assert spec.survival(1e-4) == 1.0
    assert cramer_rate(spec, true_mean(spec) - 1e-3) < cramer_rate(spec, true_mean(spec) - 1e-4) < math.inf
    assert UniformBounded(0.0, 1.0).survival(0.5 - math.nextafter(0.5, 0.0)) == 1.0
    assert cramer_rate(UniformBounded(0.0, 1.0), math.nextafter(0.5, 0.0)) < math.inf


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18: E exp(-s z) underflows at the maximizer near the minimum")
@pytest.mark.parametrize("spec,b", [(Pareto(2.5, 1.0), 2.0 / 3.0 - 1e-9), (UniformBounded(0.5, 1.5), 0.4999999)], ids=repr)
def test_cramer_rate_near_the_minimum_matches_the_50_digit_reference(spec, b):
    # the rate is finite (18.8069750998468 and 15.1180956509296), but the maximizer is near s = 1e7 to
    # 1e9, where exp(-s min z) underflows, and the search returns inf
    assert cramer_rate(spec, b) == pytest.approx(float(reference.cramer_rate(spec, b)), rel=1e-12, abs=0.0)


def test_rate_fit_synthetic_powers():
    ns = [10, 100, 1000, 10_000]
    fit = rate_fit([(n, n**-1.5) for n in ns], axis="log-log")
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    fit_lin = rate_fit([(n, math.exp(-0.1 * n)) for n in (10, 20, 30, 40)], axis="log-linear")
    assert fit_lin.slope == pytest.approx(-0.1, abs=1e-12)


def test_rate_fit_requires_three_positive_points():
    with pytest.raises(ValueError):
        rate_fit([(10, 0.1), (100, 0.0), (1000, 0.0)])
    # three points at one n fix no slope: an error, not a rank warning and an arbitrary fit
    for axis in ("log-log", "log-linear"):
        with pytest.raises(ValueError, match="2 or more distinct n"):
            rate_fit([(100, 0.1), (100, 0.01), (100, 0.001)], axis=axis)
    with pytest.raises(ValueError):
        rate_fit([(10, 0.1), (100, 0.01)], axis="nope")
    # a non-finite point is an error, not a NaN slope or an SVD failure
    for bad in [(100, math.inf), (math.nan, 0.01), (100, math.nan)]:
        with pytest.raises(ValueError, match="every point must be finite"):
            rate_fit([(10, 0.1), bad, (1000, 0.001), (10000, 1e-4)])
    # a sample size below 1 is an error on either axis, also where its p_hat would be dropped
    for axis in ("log-log", "log-linear"):
        for bad in [(0, 0.1), (-5, 0.1), (0.5, 0.1), (-5, 0.0)]:
            with pytest.raises(ValueError, match="n must be >= 1"):
                rate_fit([(10, 0.1), bad, (1000, 0.001), (10000, 1e-4)], axis=axis)


def test_variance_ratio_point_mass_zero():
    # r(inf) = 0: no population dual point exists, and the ratio is 0 at every radius
    curve = variance_ratio_curve(ScaledBernoulli(1.0, 2.0), [1e-2, 1e-3])
    assert [ratio for _, ratio in curve] == [0.0, 0.0]


def test_variance_ratio_bounded_near_two():
    (_, ratio), = variance_ratio_curve(BERN, [1e-4])
    assert ratio <= 2.1
    assert ratio == pytest.approx(2.0, abs=0.05)


def test_variance_ratio_pareto_decreasing_toward_limit():
    # down to r = 1e-16, where it was 7.4e-06; at 1e-12 it was 2.45465, below the limit 2.45482
    curve = variance_ratio_curve(Pareto(1.5, 1.0), [1e-2, 1e-3, 1e-4, 1e-8, 1e-12, 1e-16])
    ratios = [ratio for _, ratio in curve]
    limit = pareto_variance_ratio_limit(1.5)
    gaps = [rat - limit for rat in ratios]
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] > 0.0
    assert ratios[2] == pytest.approx(limit, rel=0.05)
    assert ratios[-1] == pytest.approx(limit, rel=1e-4)


def test_pareto_variance_ratio_limit_values():
    # exact small-radius limit 2 (psi(rho) + gamma)/(rho - 1); equals
    # 8 (1 - log 2) at rho = 1.5 and tends to the bounded-case constant 2
    assert pareto_variance_ratio_limit(1.5) == pytest.approx(8.0 * (1.0 - math.log(2.0)), rel=1e-12)
    assert pareto_variance_ratio_limit(1.999) == pytest.approx(2.0, abs=2e-3)
    with pytest.raises(ValueError):
        pareto_variance_ratio_limit(2.5)


@pytest.mark.parametrize(
    "spec,base",
    [
        (Pareto(1.5, 1e200), Pareto(1.5, 1.0)),
        (Pareto(1.5, 1e-200), Pareto(1.5, 1.0)),
        (LogNormal(460.0, 1.0), LogNormal(0.0, 1.0)),
        (LogNormal(-460.0, 1.0), LogNormal(0.0, 1.0)),
        (ScaledBernoulli(0.5, 2e200), BERN),
        (UniformBounded(0.0, 1e-200), UniformBounded(0.0, 1.0)),
    ],
)
def test_variance_ratio_and_population_dual_are_scale_free(spec, base):
    # V[log(1 + atilde z)] / r is unchanged by z -> c z, and atilde scales by 1/c
    radii = [1e-2, 1e-3]
    ratios = [ratio for _, ratio in variance_ratio_curve(spec, radii)]
    assert ratios == pytest.approx([ratio for _, ratio in variance_ratio_curve(base, radii)], rel=1e-12)
    c = true_mean(spec) / true_mean(base)
    assert solve_population_dual(spec, 1e-2) * c == pytest.approx(solve_population_dual(base, 1e-2), rel=1e-12)


def test_population_dual_radius_too_large():
    with pytest.raises(ValueError):
        solve_population_dual(Pareto(1.5, 1.0), 50.0)


@pytest.mark.parametrize(
    "spec, limit",
    [
        (LogNormal(0.0, 1.0), 0.5),
        (LogNormal(1.0, 0.5), 0.125),
        (Pareto(2.5, 1.0), 0.4 + math.log(2.5 / 3.5)),
        (Pareto(1.5, 3.0), 1.0 / 1.5 + math.log(1.5 / 2.5)),
        (UniformBounded(1.0, 2.0), 2.0 * math.log(2.0) - 1.0 + math.log(math.log(2.0))),
        (UniformBounded(0.0, 1.0), math.inf),
        (ScaledBernoulli(0.5, 2.0), math.inf),
        (ScaledBernoulli(1.0, 2.0), 0.0),
    ],
    ids=_law,
)
def test_population_dual_exists_only_below_the_radius_limit(spec, limit):
    # r(atilde) rises to E log z + log E[1/z]; at or above it there is no root
    # (LogNormal(0, 1) at r = 0.5 returned atilde = 2.58e10)
    assert spec.radius_limit() == pytest.approx(limit, rel=1e-14)
    if limit == 0.0:
        with pytest.raises(ValueError, match="too large"):
            solve_population_dual(spec, 1e-6)
        return
    unit = spec.scaled(true_mean(spec))
    assert _population_radius(unit, 1e3) < _population_radius(unit, 1e6) < limit
    for r in ([0.9 * limit, 0.5 * limit] if math.isfinite(limit) else [1.0]):
        atilde = solve_population_dual(spec, r) * true_mean(spec)
        assert _population_radius(unit, atilde) == pytest.approx(r, rel=1e-9)
    if math.isfinite(limit):
        assert _population_radius(unit, 1e9) == pytest.approx(limit, rel=1e-7)
        for r in (limit, 1.01 * limit):
            with pytest.raises(ValueError, match="too large"):
                solve_population_dual(spec, r)


@pytest.mark.parametrize(
    "spec, r",
    [
        (UniformBounded(0.0, 1.0), 1e-305),
        (ScaledBernoulli(0.5, 2.0), 1e-305),
        (Pareto(1.0001, 1.0), 1e-200),
        (ScaledBernoulli(1e-300, 2.0), 1e-2),
    ],
    ids=repr,
)
def test_population_dual_outside_the_bracket_names_the_radius(spec, r):
    # r at or below r(1e-150), or above r(MAX_ATILDE) (NaN for the last law, whose unit high is 1e300), has no
    # root over the fixed bracket: a message that names the radius, not scipy's sign or NaN message
    for solve in (lambda: solve_population_dual(spec, r), lambda: variance_ratio_curve(spec, [r])):
        with pytest.raises(ValueError, match=f"radius {r!r} has no population dual point"):
            solve()


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("sigma", [37.0, 30.0])
def test_variance_ratio_is_never_negative(sigma):
    # a two-pass variance, E[(log1p(atilde z) - e1)**2], has a nonnegative integrand; e2 - e1**2 gave -5.8e-83 and
    # -5.5e-96 at r = 1e-100. These quadratures warn, and the positive ratios are not verified
    (_, ratio), = variance_ratio_curve(LogNormal(0.0, sigma), [1e-100])
    assert ratio >= 0.0


@pytest.mark.parametrize(
    "spec", [ScaledBernoulli(0.5, 2.0), UniformBounded(0.0, 1.0), Pareto(2.5, 1.0), Pareto(1.5, 1.0)], ids=_law
)
@pytest.mark.parametrize("r", [1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2])
def test_population_dual_point_has_the_radius_of_the_50_digit_reference(spec, r):
    # the reference r(atilde) at the returned dual point, for the law as given (not scaled to mean 1), and
    # r(atilde) there: as E phi(y) - phi(E y) it does not cancel, where log E[1/(1 + atilde z)] was rounded
    # to about 1e-16 absolute (Pareto(1.5)'s variance ratio at r = 1e-16 was 7.4e-06)
    atilde = solve_population_dual(spec, r)
    mu = true_mean(spec)
    reference_r = float(reference.population_radius(spec, atilde))
    assert reference_r == pytest.approx(r, rel=1e-10, abs=0.0)
    assert _population_radius(spec.scaled(mu), atilde * mu) == pytest.approx(reference_r, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("spec", [ScaledBernoulli(0.5, 0.0), ScaledBernoulli(0.0, 2.0)], ids=repr)
def test_a_law_at_zero_is_a_point_mass(spec):
    # z = 0 almost surely, as for ScaledBernoulli(1.0, 0.0): r(inf) = 0, the variance ratio is 0 at every
    # radius, and the Cramer rate is infinite at every b > 0
    assert spec.radius_limit() == 0.0 == ScaledBernoulli(1.0, 0.0).radius_limit()
    assert variance_ratio_curve(spec, [1e-2, 1e-3]) == variance_ratio_curve(ScaledBernoulli(1.0, 0.0), [1e-2, 1e-3])
    assert variance_ratio_curve(spec, [1e-2, 1e-3]) == [(1e-2, 0.0), (1e-3, 0.0)]
    assert cramer_rate(spec, 0.5) == math.inf


def test_csv_and_json_serialization():
    rep = TrialReport("kl", 100, 1000, 3, 0.003, 0.001, 0.008, 0.65, 7)
    rep_none = TrialReport("mean", 10, 100, 0, 0.0, 0.0, 0.03, None, 7)
    text = reports_to_csv([rep, rep_none], header_lines=["safemean test", "seed: 7"])
    lines = text.strip().split("\n")
    assert lines[0] == "# safemean test"
    assert lines[2] == "estimator,n,trials,hits,p_hat,ci_lo,ci_hi,bound,seed"
    assert lines[3].startswith("kl,100,1000,3,")
    assert lines[4].endswith(",7") and ",," in lines[4]  # empty bound cell


def test_rates_of_a_law_at_zero_and_invalid_arguments():
    zero = ScaledBernoulli(0.0, 2.0)  # z = 0 almost surely
    assert cramer_rate(zero, 0.5) == math.inf
    with pytest.raises(ValueError, match="z = 0 almost surely"):
        solve_population_dual(zero, 0.1)
    with pytest.raises(ValueError, match="radius must be positive"):
        solve_population_dual(BERN, 0.0)
    with pytest.raises(ValueError, match="s must be non-negative"):
        laplace_transform(BERN, -1.0)
    with pytest.raises(ValueError, match="radii must be positive"):
        variance_ratio_curve(Pareto(2.5, 1.0), [0.0])


@pytest.mark.parametrize(
    "dispatch",
    [
        lambda spec: laplace_transform(spec, 1.0),
        lambda spec: variance_ratio_curve(spec, [0.1]),
        lambda spec: solve_population_dual(spec, 0.1),
        lambda spec: cramer_rate(spec, 0.5),
        lambda spec: draw_sample(spec, 3, 0),
    ],
    ids=["laplace_transform", "variance_ratio_curve", "solve_population_dual", "cramer_rate", "draw_sample"],
)
def test_every_spec_dispatcher_rejects_a_non_spec(dispatch):
    with pytest.raises(TypeError, match="unsupported distribution spec"):
        dispatch(object())


def test_harness_rejects_an_empty_sample_or_no_trials():
    with pytest.raises(ValueError, match="n must be >= 1"):
        draw_sample(BERN, 0, 1)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        disappointment_probability(BERN, EstimatorConfig("mean"), 10, 0, 1)
