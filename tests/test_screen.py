"""The harness's screen: certified brackets on each KL and varreg estimate
(a log-free upper bound on the KL value, a two-sided bracket on the varreg
kernel's computed value) decide most rows of a drawn tile before any
estimator kernel runs, for disappointment and conservatism counts alike."""

import math

import numpy as np
import pytest

from safemean import (
    EstimatorConfig,
    LogNormal,
    Pareto,
    RadiusSchedule,
    Sample,
    ScaledBernoulli,
    UniformBounded,
    conservatism_probability,
    disappointment_probability,
    draw_sample,
    estimate,
    solve_kl_dro_dual,
    true_mean,
)
from safemean.dual import DualSolverError, _row_means, kl_value_upper_bound
from safemean.estimators import _brackets
from safemean.montecarlo import _estimate_batch, _finite_estimates, _run_event_trials, _screen
from reference import float_kl_value
from streams import reference_block, reference_draw

LAWS = [Pareto(2.5, 1.0), Pareto(1.5, 1.0), LogNormal(0.0, 1.5), ScaledBernoulli(0.5, 2.0)]
ROWS = 4


def _disappointment_rows(T, means, tops, mu, r=None):
    """The rows of a drawn tile the disappointment screen leaves to the KL solver
    at radius r, or to the sample mean's kernel without one."""
    cfg = EstimatorConfig("kl", r=r) if r is not None else EstimatorConfig("mean")
    return _screen(cfg, T, means, tops, "disappointment", mu)[1]


def _bound(X: np.ndarray, r: float) -> np.ndarray:
    """The bound on each row from the reductions the harness makes of a drawn tile."""
    return kl_value_upper_bound(X.mean(axis=1), np.vecdot(X, X), X.max(axis=1), X.shape[1], r)


@pytest.mark.parametrize("n", [1, 2, 30, 1000, 3000])
@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_bound_is_at_least_the_dual_value(law, n):
    X = reference_block(law, 11, 0, ROWS, n)
    radii = [1.0, 10.0] + ([math.log(n) / n] if n > 1 else [])
    for k in (-1000, 0, 1000):
        Xk = np.ldexp(X, k)
        with np.errstate(over="ignore"):  # at 2**1000 the sum of squares overflows
            sumsq = np.vecdot(Xk, Xk)
        for r in radii:
            upper = kl_value_upper_bound(Xk.mean(axis=1), sumsq, Xk.max(axis=1), n, r)
            values = np.array([solve_kl_dro_dual(Sample(row), r).value for row in Xk])
            assert not np.any(upper < values), (k, r, upper, values)
        # at r = 1e-12 the solver's value can sit 1e-9 of itself above the
        # exact one, more than the bound's own gap of about r D
        upper = kl_value_upper_bound(Xk.mean(axis=1), sumsq, Xk.max(axis=1), n, 1e-12)
        values = np.array([float_kl_value(row, 1e-12) for row in Xk])
        assert not np.any(upper < values), (k, upper, values)
        if k == 0:
            # the bound certifies every row with a spread, and only its slack lifts it above the mean
            spread = X.max(axis=1) > X.min(axis=1)
            for r in radii + [1e-12]:
                upper = kl_value_upper_bound(X.mean(axis=1), sumsq, X.max(axis=1), n, r)
                assert np.isfinite(upper[spread]).all() and np.isnan(upper[~spread]).all()
                assert np.all(upper[spread] <= X.mean(axis=1)[spread] * (1.0 + (n + 17) * np.finfo(float).eps))
        else:
            assert np.isnan(upper).all()  # squares underflow or overflow: nothing is certified


def test_reference_value_matches_the_solver_where_it_converges():
    X = reference_block(LogNormal(0.0, 1.5), 2, 0, 3, 300)
    for row in X:
        for r in (1e-4, 0.02, 1.0):
            assert float_kl_value(row, r) == pytest.approx(solve_kl_dro_dual(Sample(row), r).value, rel=1e-12)


def test_bound_is_the_mean_of_a_tilt_in_the_ball():
    # U is the mean of the chi-square tilt whose KL bound equals r: that
    # tilt's own KL is at most r, and its weights are positive
    X = reference_block(Pareto(1.5, 1.0), 3, 0, 20, 50)
    for r in (1e-6, 0.1, 1.0, 10.0):
        for row, upper in zip(X, _bound(X, r)):
            zbar, sigma = row.mean(), row.std()
            d = row.max() - zbar
            t = 2.0 * r * sigma / (r * d + math.sqrt(r * r * d * d + 2.0 * r * sigma * sigma))
            q = (1.0 - t * (row - zbar) / sigma) / row.size
            assert q.min() > 0.0 and math.fsum(q) == pytest.approx(1.0, abs=1e-12)
            assert -np.mean(np.log(row.size * q)) <= r * (1.0 + 1e-12)
            assert upper >= float(q @ row) >= upper - 1e-12 * zbar


def test_bound_certifies_nothing_on_rows_it_cannot_round():
    # a constant row has no spread; at 2**-1000 the squares underflow and at
    # 2**1000 they overflow, so the sum of squares is 0 or inf
    with np.errstate(over="ignore"):
        X = np.array([[3.0] * 5, np.ldexp([1.0, 2.0, 3.0, 4.0, 5.0], -1000), np.ldexp([1.0, 2.0, 3.0, 4.0, 5.0], 1020)])
        sumsq = np.vecdot(X, X)
    assert np.isnan(kl_value_upper_bound(X.mean(axis=1), sumsq, X.max(axis=1), 5, 0.1)).all()
    means = np.array([np.inf, np.nan, 1.0])
    got = kl_value_upper_bound(means, np.array([np.inf, 1.0, np.nan]), np.array([1e308, 1.0, 2.0]), 5, 0.1)
    assert np.isnan(got).all()
    assert np.isnan(_bound(np.array([[0.0, 1.0]]), 0.0)).all()  # r = 0: no tilt


@pytest.mark.parametrize("r", [1e-12, 0.01, 1.0])
def test_row_one_margin_above_mu_is_kept(r):
    # mu placed so that the row's exact value sits one screen margin above it
    X = reference_block(Pareto(2.5, 1.0), 5, 0, 40, 200)
    tops = X.max(axis=1)
    means = _row_means(X, tops)
    for row, mean, top in zip(X, means, tops):
        value = float_kl_value(row, r)
        for mu in (value - 1e-9 * (value + mean), value, np.nextafter(value, 0.0)):
            assert mu < mean
            kept = _disappointment_rows(row[None, :], np.array([mean]), np.array([top]), mu, r)
            assert kept.tolist() == [0], (mu, value)


@pytest.mark.parametrize("law, n", [(ScaledBernoulli(0.5, 2.0), 3000), (Pareto(1.5, 1.0), 1000)], ids=repr)
def test_screen_never_drops_a_row_the_solver_counts(law, n):
    # at r = 1e-12 the solver's value can sit above the bound (see
    # test_bound_is_at_least_the_dual_value); the margin keeps a row whose value the solver puts
    # just above mu, so the harness counts what the solver would
    X = reference_block(law, 11, 0, ROWS, n)
    means = _row_means(X, X.max(axis=1))
    for r in (1e-12, math.log(n) / n):
        for row, mean in zip(X, means):
            value = solve_kl_dro_dual(Sample(row), r).value
            mu = np.nextafter(value, 0.0)
            assert _disappointment_rows(row[None, :], np.array([mean]), np.array([row.max()]), mu, r).tolist() == [0]


def test_screen_keeps_rows_the_bound_does_not_decide():
    X = reference_block(Pareto(2.5, 1.0), 9, 0, 300, 100)
    means = _row_means(X, X.max(axis=1))
    mu, r = true_mean(Pareto(2.5, 1.0)), 0.05
    keep = _disappointment_rows(X, means, X.max(axis=1), mu, r)
    values = np.array([solve_kl_dro_dual(Sample(row), r).value for row in X])
    dropped = np.setdiff1d(np.flatnonzero(means > mu), keep)
    assert dropped.size > 0 and np.all(values[dropped] < mu)
    assert _disappointment_rows(X, means, X.max(axis=1), mu).tolist() == np.flatnonzero(means > mu).tolist()


@pytest.mark.parametrize("k", [-1000, 0, 1000])
def test_harness_hits_match_the_scalar_path_at_every_scale(k):
    spec = Pareto(2.5, math.ldexp(1.0, k))
    cfg, n, trials, seed = EstimatorConfig("kl", schedule=RadiusSchedule.log_n(0.25)), 30, 600, 4
    mu = true_mean(spec)
    expected = sum(estimate(cfg, draw_sample(spec, n, seed, stream=i)).value > mu for i in range(trials))
    assert disappointment_probability(spec, cfg, n, trials, seed, threads=1).hits == expected > 0


def test_hits_do_not_depend_on_threads():
    spec, cfg, n, seed = Pareto(2.5, 1.0), EstimatorConfig("kl", schedule=RadiusSchedule.log_n(0.25)), 100, 8
    hits = [_run_event_trials(spec, cfg, n, 3000, seed, "disappointment", 0.0, threads, 700) for threads in (1, 2)]
    assert hits[0] == hits[1] > 0
    cfg = EstimatorConfig("varreg", schedule=RadiusSchedule.log_n())
    for n, trials, batch_size, b in ((100, 3000, 700, 0.5), (1000, 1000, 250, 0.3)):  # b = 0.5 is too rare at n = 1000
        hits = [_run_event_trials(spec, cfg, n, trials, seed, "conservatism", b, threads, batch_size) for threads in (1, 2)]
        assert hits[0] == hits[1] > 0, n


def test_overflowing_draw_still_raises():
    cfg = EstimatorConfig("kl", r=0.1)
    with pytest.raises(DualSolverError, match="overflows"):
        disappointment_probability(LogNormal(709.0, 1.0), cfg, 100, 20, 7, threads=1)
    for cfg in (EstimatorConfig("varreg", r=0.1), EstimatorConfig("kl", r=0.1)):
        with pytest.raises(DualSolverError, match="overflows"):
            conservatism_probability(LogNormal(709.0, 1.0), cfg, 0.5, 100, 20, 7, threads=1)


def test_overflowing_mean_is_kept_and_solved():
    # the draws are finite but each row's sum overflows: its mean is inf and
    # its bound NaN, so the row is solved, as the scalar path solves it
    spec, cfg, n, trials, seed = UniformBounded(0.0, 1e308), EstimatorConfig("kl", r=0.1), 10, 40, 7
    mu = true_mean(spec)
    with np.errstate(over="ignore"):
        expected = sum(estimate(cfg, draw_sample(spec, n, seed, stream=i)).value > mu for i in range(trials))
    assert disappointment_probability(spec, cfg, n, trials, seed, threads=1).hits == expected > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mean_near_the_float_range_counts_every_draw_above_it():
    # mu = 1.35e308 is a float though lo + hi is not, and the screen's margin
    # 1e-9 (mu + mean) is inf, which decides nothing
    spec, n, trials, seed = UniformBounded(1e308, 1.7e308), 1, 40, 7
    mu = true_mean(spec)
    expected = sum(reference_draw(spec, n, seed, i)[0] > mu for i in range(trials))
    assert disappointment_probability(spec, EstimatorConfig("mean"), n, trials, seed, threads=1).hits == expected > 0


# the varreg bracket and the screen on both events: tiles of every law and a point mass
BRACKET_LAWS = LAWS + [ScaledBernoulli(1.0, 3.0)]
BRACKET_NS = (1, 2, 100, 1000)
SCALES = (-1000, 0, 1000)


def _law(law):
    """A law's repr, in test ids; a scaled Bernoulli at p = 1 is named as the point mass it draws."""
    return f"PointMass(value={law.high!r})" if isinstance(law, ScaledBernoulli) and law.p == 1.0 else repr(law)


def _tile(law, n: int):
    """A drawn tile (rows, n) and its row means, as the harness draws them."""
    X = reference_block(law, 11, 0, 64 if n <= 100 else 16, n)
    return X, _row_means(X, X.max(axis=1))


def _radii(n: int) -> list:
    return [1e-12, 1.0, 10.0] + ([math.log(n) / n] if n > 1 else [])


@pytest.mark.parametrize("n", BRACKET_NS)
@pytest.mark.parametrize("law", BRACKET_LAWS, ids=_law)
def test_varreg_bracket_contains_the_computed_value(law, n):
    X, means = _tile(law, n)
    for k in SCALES:
        Xk, mk = np.ldexp(X, k), np.ldexp(means, k)
        bracketed = mk > 0.0  # an all-zero row gets no bracket and goes to the kernel
        for r in _radii(n):
            cfg = EstimatorConfig("varreg", r=r)
            lo, hi = _brackets(cfg, Xk, mk, Xk.max(axis=1))
            values = _estimate_batch(cfg, Xk, mk)
            assert np.isfinite(lo[bracketed]).all() and np.isfinite(hi[bracketed]).all(), (k, r)
            assert np.all(lo[bracketed] <= values[bracketed]) and np.all(values[bracketed] <= hi[bracketed]), (k, r)
            assert np.isnan(lo[~bracketed]).all() and np.isnan(hi[~bracketed]).all()


def _screened_count(cfg, X, means, event, threshold) -> int:
    """The event's hits on a tile as the harness counts them: the screen's, then the kernel's on the rest."""
    hits, keep = _screen(cfg, X, means, X.max(axis=1), event, threshold)
    values = _finite_estimates(cfg, X[keep], means[keep], "the undecided rows", threshold)
    return hits + int(np.count_nonzero(values > threshold if event == "disappointment" else values < threshold))


@pytest.mark.parametrize("n", BRACKET_NS)
@pytest.mark.parametrize("law", BRACKET_LAWS, ids=_law)
def test_screened_hits_equal_the_unscreened_count(law, n):
    X, means = _tile(law, n)
    for kind in ("varreg", "kl"):
        cfg = EstimatorConfig(kind, r=math.log(n) / n if n > 1 else 1.0)
        values = _finite_estimates(cfg, X, means, "the tile")
        # thresholds among the values, on one of them, and at the law's own mu and mu - b
        thresholds = [*np.quantile(values, [0.1, 0.5, 0.9]), values[0], true_mean(law), true_mean(law) - 0.5]
        for k in SCALES:
            Xk, mk = np.ldexp(X, k), np.ldexp(means, k)
            for event in ("disappointment", "conservatism"):
                for threshold in np.ldexp(thresholds, k):
                    values = _finite_estimates(cfg, Xk, mk, "the tile", threshold)
                    hits = values > threshold if event == "disappointment" else values < threshold
                    assert _screened_count(cfg, Xk, mk, event, threshold) == np.count_nonzero(hits), (kind, k, event)


@pytest.mark.parametrize("law", BRACKET_LAWS, ids=_law)
def test_threshold_on_a_computed_value_leaves_the_row_undecided(law):
    X, means = _tile(law, 100)
    for k in SCALES:
        Xk, mk = np.ldexp(X, k), np.ldexp(means, k)
        for r in _radii(100):
            cfg = EstimatorConfig("varreg", r=r)
            values = _estimate_batch(cfg, Xk, mk)
            for j, value in enumerate(values):
                for event in ("disappointment", "conservatism"):
                    hits, keep = _screen(cfg, Xk[j : j + 1], mk[j : j + 1], Xk[j : j + 1].max(axis=1), event, value)
                    # a value equal to its row's mean (no spread) cannot exceed it: the exact mean rule decides
                    exact = event == "disappointment" and value >= mk[j]
                    assert hits == 0 and keep.tolist() == ([] if exact else [0]), (k, r, j, event)


@pytest.mark.parametrize("kind", ["varreg", "kl"])
def test_screen_decides_the_same_rows_at_every_scale(kind):
    # at 2**-1000 and 2**1000 the squares underflow or overflow, so each row
    # is bounded again on its own scale: the brackets are those of scale 1
    # times 2**k, bit for bit, and so are the decisions
    for law in LAWS:
        X, means = _tile(law, 100)
        cfg = EstimatorConfig(kind, r=math.log(100) / 100)
        for event, threshold in (("disappointment", true_mean(law)), ("conservatism", true_mean(law) - 0.5)):
            hits, keep = _screen(cfg, X, means, X.max(axis=1), event, threshold)
            if kind == "varreg" or event == "disappointment":  # a KL upper bound decides conservatism hits only
                assert keep.size < len(X) // 2, (law, event)
            brackets = _brackets(cfg, X, means, X.max(axis=1))
            for k in (-1000, 1000):
                Xk, mk = np.ldexp(X, k), np.ldexp(means, k)
                for got, want in zip(_brackets(cfg, Xk, mk, Xk.max(axis=1)), brackets):
                    assert np.array_equal(got, np.ldexp(want, k)), (law, k)
                got = _screen(cfg, Xk, mk, Xk.max(axis=1), event, math.ldexp(threshold, k))
                assert got[0] == hits and got[1].tolist() == keep.tolist(), (law, event, k)


def test_overflowing_mean_raises_for_varreg():
    # finite draws whose row sums overflow: the mean is inf, no bracket
    # decides the row, and the kernel's non-finite estimate raises
    cfg = EstimatorConfig("varreg", r=0.1)
    with pytest.raises(DualSolverError, match="non-finite varreg estimate"):
        conservatism_probability(UniformBounded(0.0, 1e308), cfg, 1e300, 10, 40, 7, threads=1)
    with pytest.raises(DualSolverError, match="non-finite varreg estimate"):
        disappointment_probability(UniformBounded(0.0, 1e308), cfg, 10, 40, 7, threads=1)
