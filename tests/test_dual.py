import math
import warnings

import mpmath
import numpy as np
import pytest

from safemean import (
    EstimatorConfig,
    Pareto,
    Sample,
    estimate,
    primal_witness,
    solve_kl_dro_dual,
    solve_kl_dro_dual_batch,
)
from safemean.dual import _TILE_VALUES, DualSolverError, _row_means, _solve_rows, witness_empirical_kl
from safemean.montecarlo import _finite_estimates
from safemean.oracle import random_instances, verify_certificate
from reference import DPS, kl_inf, kl_value
from streams import reference_block

# closed form for the two-point sample {0, 2} at radius log 2:
# stationarity 3 a^2 + 6 a = 1 gives a = (2 sqrt(3) - 3)/3 and value 1/(2 sqrt 3) - a
ALPHA_TWO_POINT = (2.0 * math.sqrt(3.0) - 3.0) / 3.0
VALUE_TWO_POINT = 0.5 / math.sqrt(3.0) - ALPHA_TWO_POINT  # 0.13397459621556138...


def _dual_objective(s, r, alpha):
    """The dual objective g(alpha) = exp(-r) * exp(mean log(alpha + z_i)) - alpha."""
    v, w = s.weighted_support()
    return math.exp(-r + float(np.dot(w, np.log(alpha + v)))) - alpha


def _two_point_min_mean(zeros: int, n: int, high: float, r: float) -> float:
    """Smallest mean over Q on {0, high} with KL(P_n, Q) <= r, by bisection on
    the primal divergence in log q, where q is the mass Q puts on high."""
    p0, p1 = zeros / n, 1.0 - zeros / n

    def kl(t):
        return p0 * (math.log(p0) - math.log1p(-math.exp(t))) + p1 * (math.log(p1) - t)

    lo, hi = -1000.0, math.log(p1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kl(mid) > r:
            lo = mid
        else:
            hi = mid
    return high * math.exp(0.5 * (lo + hi))


@pytest.mark.parametrize("n", [1, 2, 3, 20, 300, 3000])
def test_row_means_read_the_minimum_on_every_row_that_needs_it(n):
    # the mean clipped to [min, max] on every row, against the helper, which reads
    # the minimum only where the maximum is within (n + 1)**2 eps of the mean
    rng = np.random.default_rng(n)
    rows = []
    for v in (5e-324, 3e-320, 2.2250738585072014e-308, 1e-300, 0.1, 0.7, 1.0, 1e300, 1.7e308 / n):
        rows += [np.full(n, v), np.nextafter(np.full(n, v), np.inf), v * (1.0 + 1e-15 * rng.random(n))]
        rows.append(np.where(np.arange(n) == 0, np.nextafter(v, 0.0), v))  # one value an ulp lower
    rows += list(rng.pareto(2.5, size=(20, n)) + 1.0)
    X = np.array(rows)
    tops = X.max(axis=1)
    got = _row_means(X, tops)
    assert np.array_equal(got, np.clip(X.mean(axis=1), X.min(axis=1), tops))
    assert np.all((X.min(axis=1) <= got) & (got <= tops))
    if n > 1:  # an overflowing mean stays inf, so it still raises where it is used
        assert _row_means(np.full((1, n), 1.7e308), np.array([1.7e308]))[0] == np.inf


def test_solve_two_point_closed_form():
    sol = solve_kl_dro_dual(Sample([0, 2]), math.log(2))
    assert sol.alpha_star == pytest.approx(ALPHA_TWO_POINT, abs=1e-10)
    assert sol.value == pytest.approx(VALUE_TWO_POINT, abs=1e-12)
    assert sol.atom == pytest.approx(0.0, abs=1e-12)
    # recorded identities
    assert sol.value == pytest.approx(sol.nu - sol.alpha_star, abs=1e-12)
    # values far below the sample scale stay accurate relative to their own size
    for zeros, high, r in ((1, 1.0, 20.0), (1, 1.0, 25.0), (999, 1e6, 0.5)):
        values = [0.0] * zeros + [high] * (1000 - zeros)
        expected = _two_point_min_mean(zeros, 1000, high, r)
        assert solve_kl_dro_dual(Sample(values), r).value == pytest.approx(expected, rel=1e-9)
        assert solve_kl_dro_dual_batch(np.array([values]), r)[0] == pytest.approx(expected, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=DualSolverError, reason="ROADMAP item 7: a value below the float range finds no bracket")
def test_value_below_the_float_range_is_zero():
    row = [0.0] * 99 + [1.0]
    exact = kl_value(row, 10.0)
    assert mpmath.mpf("1.8767e-437") < exact < mpmath.mpf("1.8768e-437")  # which rounds to 0.0
    assert solve_kl_dro_dual_batch([row], 10.0).tolist() == [float(exact)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: d is rounded to about 1e-15 absolute, so alpha* loses r-relative bits")
def test_two_point_value_is_accurate_at_a_tiny_radius():
    # on {0, 2} the value is 1 - sqrt(1 - exp(-2 r)); at r = 1e-12 it is 3.9e-11 off relative
    r = 1e-12
    assert solve_kl_dro_dual(Sample([0, 2]), r).value == pytest.approx(float(kl_value([0.0, 2.0], r)), rel=1e-13)


def test_solve_point_mass_boundary():
    for r in (0.25, 1.0, 2.0):
        sol = solve_kl_dro_dual(Sample([3.0]), r)
        assert sol.alpha_star == 0.0
        assert sol.value == pytest.approx(3.0 * math.exp(-r), rel=1e-14)
        assert sol.atom == pytest.approx(1.0 - math.exp(-r), rel=1e-12)


def test_solve_tiny_radius_recovers_sample_mean():
    sol = solve_kl_dro_dual(Sample([0, 2]), 1e-12)
    assert sol.value == pytest.approx(1.0, abs=1e-5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r", [1e-17, 1e-18, 1e-20, 1e-100, 1e-300])
def test_solve_below_rounding_radius_recovers_sample_mean(r):
    # a Newton step so long that a + z rounds to a leaves a zero slope, and
    # the log step from there lands on a = 0, left of the root: the solve must
    # not report it as alpha* (the value would be the geometric mean)
    rng = np.random.default_rng(3)
    rows = [[1.0, 2.0, 3.0], [0.0, 2.0], [0.0, 1.0, 2.0, 3.0]] + list((1.0 - rng.random((200, 100))) ** -0.4)
    assert solve_kl_dro_dual_batch(np.array(rows[3:]), r) == pytest.approx(np.mean(rows[3:], axis=1), rel=1e-7)
    for row in rows:
        s, mean = Sample(row), np.mean(row)
        assert solve_kl_dro_dual(s, r).value == pytest.approx(mean, rel=1e-7)
        assert solve_kl_dro_dual_batch([row], r)[0] == pytest.approx(mean, rel=1e-7)
        assert estimate(EstimatorConfig("kl", r=r), s).value == pytest.approx(mean, rel=1e-7)
        assert verify_certificate(s, r).passed


@pytest.mark.parametrize(
    "row,r", [([1.0, 2.0, 3.0], 1e-100), ([0.0, 2.0], 1e-300), ("pareto", 1e-100), ("constant", 1e-100)]
)
def test_value_never_exceeds_the_sample_mean_at_tiny_radii(row, r):
    # at alpha* near 1e49 the value's two factors round relative to alpha*,
    # which left it up to 30 ulps above the mean the screen relies on; the cap
    # is numpy's mean of the sample, clipped to its maximum as estimate(mean)
    # clips it, not the mean of its distinct values weighted by frequency
    if row == "pareto":  # 300 seeded Pareto(2.5) samples of 2 to 300 values
        rng = np.random.default_rng(32)
        samples = [Sample((1.0 - rng.random(int(rng.integers(2, 301)))) ** (-1.0 / 2.5)) for _ in range(300)]
    elif row == "constant":  # numpy's mean of 20 values 0.1 is an ulp above 0.1
        samples = [Sample([c] * m) for m in range(1, 60) for c in (0.1, 1.7, 3.0)]
    else:
        samples = [Sample(row)]
        assert solve_kl_dro_dual(samples[0], r).value <= np.mean(row)
        assert verify_certificate(samples[0], r).passed
    for s in samples:
        assert solve_kl_dro_dual(s, r).value <= estimate(EstimatorConfig("mean"), s).value


def test_solve_requires_positive_radius():
    with pytest.raises(ValueError):
        solve_kl_dro_dual(Sample([1, 2]), 0.0)


def test_solver_error_carries_bracket():
    err = DualSolverError("boom", (0.25, 4.0))
    assert err.bracket == (0.25, 4.0)
    assert "0.25" in str(err) and "4.0" in str(err)


def test_witness_point_mass():
    r = 0.8
    sol = solve_kl_dro_dual(Sample([5.0]), r)
    w = primal_witness(Sample([5.0]), sol)
    assert list(w.support) == [0.0, 5.0]
    assert w.weights[1] == pytest.approx(math.exp(-r), rel=1e-12)
    assert w.weights[0] == pytest.approx(1.0 - math.exp(-r), rel=1e-12)
    assert w.mean() == pytest.approx(5.0 * math.exp(-r), rel=1e-12)
    # the mass kept on the sample satisfies -log(kept) = r exactly
    assert -math.log(w.weights[1]) == pytest.approx(r, abs=1e-12)


def test_witness_two_point_certificate():
    s = Sample([0, 2])
    r = math.log(2)
    sol = solve_kl_dro_dual(s, r)
    w = primal_witness(s, sol)
    assert w.mean() == pytest.approx(sol.value, rel=1e-12)
    assert witness_empirical_kl(s, sol) == pytest.approx(r, abs=1e-12)
    expected_at_2 = 0.5 * sol.nu / (sol.alpha_star + 2.0)
    assert dict(zip(w.support, w.weights))[2.0] == pytest.approx(expected_at_2, rel=1e-12)


def test_witness_tiny_radius_close_to_empirical():
    s = Sample([1.0, 2.0, 4.0])
    sol = solve_kl_dro_dual(s, 1e-12)
    w = primal_witness(s, sol)
    weights = dict(zip(w.support, w.weights))
    for point in (1.0, 2.0, 4.0):
        assert weights[point] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_witness_all_zero_sample():
    s = Sample([0.0, 0.0])
    sol = solve_kl_dro_dual(s, 0.5)
    assert sol.value == 0.0
    w = primal_witness(s, sol)
    assert list(w.support) == [0.0]
    assert w.weights[0] == 1.0


def test_certificates_on_random_instances():
    # strong-duality certificate: witness feasible, empirical KL = r, mean = value
    for s, r in random_instances(60, seed=11):
        sol = solve_kl_dro_dual(s, r)
        if s.max() == 0.0:
            continue
        w = primal_witness(s, sol)
        assert float(w.weights.sum()) == pytest.approx(1.0, abs=1e-10)
        assert np.all(w.weights >= 0.0)
        assert w.mean() == pytest.approx(sol.value, rel=1e-9, abs=1e-12)
        assert witness_empirical_kl(s, sol) == pytest.approx(r, abs=1e-8)
        if sol.alpha_star > 0:
            assert sol.atom <= 1e-10  # complementary slackness


def test_dual_concavity_random_triples():
    rng = np.random.default_rng(3)
    s = Sample(rng.pareto(1.8, 15) + 0.5)
    r = 0.2
    for _ in range(200):
        a1, a2 = rng.uniform(0.0, 10.0, size=2)
        theta = rng.uniform(0.0, 1.0)
        g = lambda a: _dual_objective(s, r, a)
        mix = g(theta * a1 + (1 - theta) * a2)
        assert mix >= theta * g(a1) + (1 - theta) * g(a2) - 1e-10


def test_value_monotone_nonincreasing_in_radius():
    rng = np.random.default_rng(4)
    s = Sample(rng.lognormal(0.0, 1.0, 25))
    radii = [1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0]
    values = [solve_kl_dro_dual(s, r).value for r in radii]
    assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(values, values[1:]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scale_equivariance():
    rng = np.random.default_rng(5)
    vals = rng.pareto(2.0, 20) + 1.0
    r = 0.15
    cases = (
        (vals, (1e-300, 0.01, 3.0, 250.0, 1e300)),
        (np.array([1.0, 2.0]), (1e-300,)),
        (np.array([0.0, 1.0]), (1e308,)),
    )
    for base_vals, scales in cases:
        base = solve_kl_dro_dual(Sample(base_vals), r).value
        for c in scales:
            scaled = solve_kl_dro_dual(Sample(c * base_vals), r).value
            assert scaled == pytest.approx(c * base, rel=1e-9)
            # the batch path agrees at every magnitude
            assert solve_kl_dro_dual_batch(c * base_vals[None, :], r)[0] == pytest.approx(scaled, rel=1e-12)


def test_kl_inf_examples():
    # the 50-digit reference against closed forms, at its own precision
    assert kl_inf([0.0, 2.0], 1.0) == 0
    with mpmath.workdps(DPS):
        # stationarity 3(1 - t) = 1 + 3t at t = 1/3
        assert abs(kl_inf([0.0, 2.0], 0.5) - mpmath.log(mpmath.mpf(4) / 3) / 2) < 1e-40
        # all observations above mu: boundary maximizer at t = 1
        assert abs(kl_inf([3.0], 1.5) - mpmath.log(2)) < 1e-40


def test_kl_inf_domain_and_zero_iff_mean():
    with pytest.raises(ValueError):
        kl_inf([1.0], 0.0)
    rng = np.random.default_rng(6)
    for _ in range(20):
        values = rng.exponential(1.0, 12)
        mu_hat = float(np.mean(values))
        assert kl_inf(values, mu_hat * 1.0001) == 0
        assert kl_inf(values, mu_hat * 0.98) > 0


def test_kl_inf_nonincreasing_in_mu():
    rng = np.random.default_rng(7)
    values = rng.pareto(2.5, 18) + 1.0
    vals = [kl_inf(values, m) for m in np.linspace(0.2, 3.0, 24)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]) if v1 > 0)


def test_radius_statistic_duality():
    # the estimator is the smallest mu whose divergence-to-mean exceeds r:
    # the 50-digit kl_inf brackets r within 1e-9 of the value either side
    for s, r in random_instances(25, seed=21):
        value = solve_kl_dro_dual(s, r).value
        if value == 0.0:
            continue
        eps = 1e-9 * value
        assert kl_inf(s.values, value + eps) <= r
        assert kl_inf(s.values, value - eps) >= r


def test_batch_solver_matches_scalar():
    rng = np.random.default_rng(8)
    X = (1.0 - rng.random((30, 23))) ** (-1.0 / 2.5)
    X[:10, 0] = 0.0  # mix in zero observations
    r = 0.07
    batch, sorted_batch = solve_kl_dro_dual_batch(X, r), solve_kl_dro_dual_batch(np.sort(X, axis=1), r)
    for i in range(X.shape[0]):
        scalar = solve_kl_dro_dual(Sample(X[i]), r).value
        assert batch[i] == pytest.approx(scalar, rel=1e-10, abs=1e-12)
        assert scalar == sorted_batch[i]  # a batch of one of the sorted sample


def test_dual_point_beyond_the_float_range_reads_inf_without_a_warning():
    # Pareto(1.5) rows of 3000 values near 2**1000 at r = 1e-12: alpha* is near sigma / sqrt(2 r), and
    # on one row it and nu pass the float range. Each row is solved in its own scale, so the scaled
    # results are the unscaled rows' bit for bit and only the exponents move; every value stays the
    # unscaled row's value times 2**1000, and a dual point past the float range reads inf
    X = reference_block(Pareto(1.5, 1.0), 11, 0, 4, 3000)
    e, *unscaled = _solve_rows(X, 1e-12)
    big = np.ldexp(X, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        e_big, *scaled = _solve_rows(big, 1e-12)
        values = solve_kl_dro_dual_batch(big, 1e-12)
        sols = [solve_kl_dro_dual(Sample(row), 1e-12) for row in big]
    assert np.array_equal(e_big, e + 1000)
    for got, want in zip(scaled, unscaled):
        assert np.array_equal(got, want)
    assert np.array_equal(values, np.ldexp(np.ldexp(unscaled[2], e), 1000))
    assert all(math.isfinite(sol.value) for sol in sols)
    assert any(math.isinf(sol.alpha_star) and math.isinf(sol.nu) for sol in sols)


def test_batch_solver_handles_constant_and_zero_rows():
    X = np.array([[2.0, 2.0, 2.0], [0.0, 0.0, 0.0], [0.0, 1.0, 5.0]])
    vals = solve_kl_dro_dual_batch(X, 0.4)
    assert vals[0] == pytest.approx(2.0 * math.exp(-0.4), rel=1e-10)
    assert vals[1] == 0.0
    assert vals[2] == pytest.approx(solve_kl_dro_dual(Sample([0, 1, 5]), 0.4).value, rel=1e-10)
    # a minimum that stays subnormal when the row is scaled by its power of two
    # solves as a zero, on both paths
    for row, zeroed in (([1e-310, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]), ([1e-320] * 99 + [1.0], [0.0] * 99 + [1.0])):
        for r in (1e-6, 0.4, 1.0):
            assert solve_kl_dro_dual_batch(np.array([row]), r)[0] == solve_kl_dro_dual_batch(np.array([zeroed]), r)[0]
            assert solve_kl_dro_dual(Sample(row), r).value == pytest.approx(solve_kl_dro_dual(Sample(zeroed), r).value, rel=1e-12)
        assert verify_certificate(Sample(row), 0.4).passed
    # a non-finite row is a solver error, never a NaN value
    for bad in (np.nan, np.inf):
        with pytest.raises(DualSolverError):
            solve_kl_dro_dual_batch(np.array([[2.0, 2.0, 2.0], [0.0, 1.0, bad]]), 0.4)


@pytest.mark.parametrize("n", [1000, 3000, 2**15])
def test_batch_solver_tiles_agree_with_rows_solved_alone(n):
    k = _TILE_VALUES // n  # rows per tile
    rng = np.random.default_rng(n)
    r = 0.05
    for B in (0, 1, k - 1, k, k + 1, 3 * k + 5):
        X = (1.0 - rng.random((B, n))) ** (-1.0 / 2.5)
        X[::3, 0] = 0.0  # mix in zero observations
        values = solve_kl_dro_dual_batch(X, r)
        assert values.shape == (B,)
        for i in range(B):
            assert values[i] == solve_kl_dro_dual_batch(X[i : i + 1].copy(), r)[0]
    X = (1.0 - rng.random((3 * k + 5, n))) ** (-1.0 / 2.5)
    for bad in (np.nan, np.inf):
        X[-1, -1] = bad  # in the last tile
        with pytest.raises(DualSolverError):
            solve_kl_dro_dual_batch(X, r)


def test_identical_rows_get_one_value_at_a_tiny_radius():
    # at r = 1e-12 alpha* is about 6.5e5 times the value, so a row reduction
    # that rounded by the row's place in the batch moved the value by 1e-9
    row = np.repeat([0.0, 2.0], [208, 92])
    values = solve_kl_dro_dual_batch(np.tile(row, (17, 1)), 1e-12)
    assert np.unique(values).tolist() == [solve_kl_dro_dual(Sample(row), 1e-12).value]


def test_kl_estimate_is_the_harness_kernel_on_the_sorted_sample():
    rng = np.random.default_rng(9)
    for n in (1, 2, 7, 300, 1000):
        X = np.sort((1.0 - rng.random((5, n))) ** (-1.0 / 2.5), axis=1)
        X[::2, 0] = 0.0
        for cfg in (EstimatorConfig("kl", lam=3.0), EstimatorConfig("kl", r=1e-12), EstimatorConfig("kl", r=0.5)):
            kernel = _finite_estimates(cfg, X, X.mean(axis=1), "the rows")
            assert [estimate(cfg, Sample(x)).value for x in X] == kernel.tolist()


def _rows_for_threshold_tests(rng, n):
    """Pareto, lognormal and two-point rows, with all-zero, constant and point-mass rows."""
    two = (rng.random((4, n)) < 0.3) * 2.0
    two[0], two[1] = 0.0, 1.0
    pareto = (1.0 - rng.random((4, n))) ** (-1.0 / 1.5)
    return np.vstack([pareto, rng.lognormal(0.0, 2.0, (4, n)), two, np.full((1, n), 0.1)])


def _thresholds_around(v):
    """v scaled by 1 +- 1e-6 and 1 +- 1e-12, v itself, three ulps either side, and thresholds <= 0."""
    out = [v * (1 + 1e-6), v * (1 - 1e-6), v * (1 + 1e-12), v * (1 - 1e-12), v, 0.0, -1.0, -v]
    up = down = v
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


def _same_side(values, full, threshold):
    return np.array_equal(values > threshold, full > threshold) and np.array_equal(values < threshold, full < threshold)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("n", [1, 2, 20, 300, 3000])
def test_threshold_puts_every_row_on_the_side_of_the_full_solve(n, scale):
    # A row whose bracket clears the threshold reports a bound, so only its side
    # of the threshold is exact, alone or inside a batch.
    rng = np.random.default_rng(n)
    X = _rows_for_threshold_tests(rng, n) * scale
    decided = 0
    for r in (math.log(n + 1) / n, 1e-12, 3.0):
        full = solve_kl_dro_dual_batch(X, r)
        for i in range(len(X)):
            one = solve_kl_dro_dual_batch(X[i : i + 1], r)
            for threshold in _thresholds_around(one[0]):
                values = solve_kl_dro_dual_batch(X[i : i + 1], r, threshold=threshold)
                assert np.isfinite(values).all() and _same_side(values, one, threshold), (r, i, threshold)
            for threshold in _thresholds_around(full[i]):
                values = solve_kl_dro_dual_batch(X, r, threshold=threshold)
                assert np.isfinite(values).all() and _same_side(values, full, threshold), (r, i, threshold)
                decided += np.count_nonzero(values != full)
    assert decided > 0


def test_threshold_decided_rows_report_a_certified_bound():
    rng = np.random.default_rng(4)
    X = (1.0 - rng.random((200, 1000))) ** (-1.0 / 2.5)
    X[::4, 0] = 0.0
    r = math.log(1000) / 1000
    e, _, _, full, _, full_iterations = _solve_rows(X, r)
    full = np.ldexp(full, e)  # the values at the rows' own scale, which a threshold is given in
    threshold = full[7]  # row 7 cannot be decided
    _, alpha, nu, value, atom, iterations = _solve_rows(X, r, threshold=threshold)
    value = np.ldexp(value, e)
    decided = np.isnan(nu)
    assert 0 < np.count_nonzero(decided) < len(X) and np.isnan(atom[decided]).all()
    assert iterations[decided].max() < full_iterations.max()
    # undecided rows are solved in full; decided rows hold g(a) or U
    assert np.array_equal(value[~decided], full[~decided])
    above, below = decided & (value > threshold), decided & (value < threshold)
    assert np.count_nonzero(above) + np.count_nonzero(below) == np.count_nonzero(decided)
    assert np.all(value[above] <= full[above] * (1 + 1e-12))
    assert np.all(value[below] >= full[below] * (1 - 1e-12))


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_threshold_that_no_bound_clears_changes_nothing(threshold):
    rng = np.random.default_rng(5)
    X = (1.0 - rng.random((50, 300))) ** (-1.0 / 2.5)
    assert np.array_equal(solve_kl_dro_dual_batch(X, 0.02, threshold=threshold), solve_kl_dro_dual_batch(X, 0.02))
