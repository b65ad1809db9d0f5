import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from safemean import (
    EstimatorConfig,
    RadiusSchedule,
    Sample,
    estimate,
    kl_disappointment_bound,
    kl_disappointment_bound_general,
    kl_dro_estimator,
    sample_mean,
    sample_mean_delta,
    sample_variance,
    truncated_mean_estimator,
    truncation_constants,
    tv_estimator,
    variance_reg_estimator,
    wasserstein_estimator,
)
from safemean.core import Pareto
from safemean.montecarlo import _draw_block, _estimate_batch

VALUE_TWO_POINT = 0.5 / math.sqrt(3.0) - (2.0 * math.sqrt(3.0) - 3.0) / 3.0


def wasserstein_lp_oracle(values, r, grid_step=0.1):
    """Independent check: minimize mean over a discretized transport plan.

    Variables: plan pi[i, j] from sample atom i to grid point j.
    min sum_ij pi_ij * grid_j  s.t. rows sum to 1/n, total cost <= r, pi >= 0.
    """
    values = np.asarray(values, float)
    n = values.size
    hi = float(values.max())
    grid = np.arange(0.0, hi + grid_step / 2, grid_step)
    m = grid.size
    cost = np.abs(values[:, None] - grid[None, :]).ravel()
    objective = np.tile(grid, n)
    a_eq = np.zeros((n, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    res = linprog(
        objective,
        A_ub=cost[None, :],
        b_ub=[r],
        A_eq=a_eq,
        b_eq=np.full(n, 1.0 / n),
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return float(res.fun)


def test_sample_mean_delta_examples():
    assert sample_mean_delta(Sample([0, 2]), 0.0) == 1.0
    assert sample_mean_delta(Sample([0, 2]), 0.25) == 0.75
    assert sample_mean_delta(Sample([3.0]), 3.0) == 0.0
    # not clamped at zero
    assert sample_mean_delta(Sample([1.0]), 2.0) == -1.0
    with pytest.raises(ValueError):
        sample_mean_delta(Sample([1.0]), -0.1)


def test_wasserstein_estimator_examples():
    assert wasserstein_estimator(Sample([1, 3]), 0.5) == 1.5
    assert wasserstein_estimator(Sample([0.1, 0.1]), 1.0) == 0.0
    assert wasserstein_estimator(Sample([4, 6]), 0.0) == 5.0
    with pytest.raises(ValueError):
        wasserstein_estimator(Sample([1.0]), -0.1)


def test_wasserstein_matches_lp_oracle():
    oracle = wasserstein_lp_oracle([1.0, 3.0], 0.5)
    assert wasserstein_estimator(Sample([1, 3]), 0.5) == pytest.approx(oracle, abs=1e-8)
    oracle_clamped = wasserstein_lp_oracle([0.5, 1.5], 1.2)
    assert wasserstein_estimator(Sample([0.5, 1.5]), 1.2) == pytest.approx(oracle_clamped, abs=1e-8)


def test_truncation_constants():
    C, c_a = truncation_constants(2.0, 1.0)
    assert C == pytest.approx(0.25)  # min(1/4, e^2/2)
    assert c_a == pytest.approx(1.0)  # 2 sqrt(C)
    C_big, _ = truncation_constants(2.0, 0.01)
    assert C_big == pytest.approx(0.01 * math.e**2 / 2.0)
    with pytest.raises(ValueError):
        truncation_constants(1.0, 1.0)
    with pytest.raises(ValueError):
        truncation_constants(2.5, 1.0)
    with pytest.raises(ValueError):
        truncation_constants(2.0, 0.0)


def test_truncated_mean_examples():
    # r = lam/n = 0.01, threshold 10, compensator 2 sqrt(C r) = 0.1
    s = Sample([0, 2])
    assert truncated_mean_estimator(s, 2.0, 1.0, lam=0.02) == pytest.approx(0.9)
    # threshold truncates the outlier to 10
    s2 = Sample([0, 20])
    assert truncated_mean_estimator(s2, 2.0, 1.0, lam=0.02) == pytest.approx(4.9)


def test_truncated_mean_vanishing_compensator():
    s = Sample([1.0, 2.0, 3.0])
    values = [truncated_mean_estimator(s, 1.5, 1.0, lam=lam) for lam in (1e-4, 1e-7, 1e-10)]
    for v in values:
        assert v <= 2.0
    assert values[-1] == pytest.approx(2.0, abs=1e-3)


def test_truncated_mean_monotone_in_moment_bound():
    # larger A weakly raises C and the compensator, so the estimate cannot rise
    s = Sample([0.5, 1.0, 4.0, 9.0])
    estimates = [truncated_mean_estimator(s, 1.7, A, lam=2.0) for A in (0.01, 0.1, 1.0, 10.0)]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(estimates, estimates[1:]))
    constants = [truncation_constants(1.7, A)[0] for A in (0.01, 0.1, 1.0, 10.0)]
    assert all(c1 <= c2 + 1e-15 for c1, c2 in zip(constants, constants[1:]))


def test_variance_reg_examples():
    assert variance_reg_estimator(Sample([4, 4, 4]), lam=5.0) == 4.0
    # r = 0.02, sigma = 1
    assert variance_reg_estimator(Sample([0, 2]), lam=0.04) == pytest.approx(1.0 - math.sqrt(0.04))
    assert variance_reg_estimator(Sample([0, 2]), lam=0.0) == 1.0


def test_tv_estimator_examples():
    # r = 0.5 -> removal 0.5: the whole atom at 2 moves to zero
    assert tv_estimator(Sample([0, 2]), lam=1.0) == pytest.approx(0.0)
    # r = 0.02 -> removal 0.1: fractional removal of the top atom
    assert tv_estimator(Sample([0, 2]), lam=0.04) == pytest.approx(0.8)
    assert tv_estimator(Sample([1, 2, 3]), lam=0.0) == 2.0
    with pytest.raises(ValueError):
        tv_estimator(Sample([0, 2]), lam=5.0)  # sqrt(r/2) > 1


def test_tv_estimator_truncation_parameter():
    s = Sample([1.0, 50.0])
    with_trunc = tv_estimator(s, lam=0.04, truncate_at=10.0)
    # mean of truncated values 5.5, removal 0.1 of the atom at 10
    assert with_trunc == pytest.approx(5.5 - 0.1 * 10.0)


def test_tv_decrease_bounded_by_top_mass():
    rng = np.random.default_rng(12)
    for _ in range(30):
        s = Sample(rng.lognormal(0.0, 1.0, int(rng.integers(2, 30))))
        lam = float(rng.uniform(0.01, 1.0))
        r = lam / s.n
        drop = sample_mean(s) - tv_estimator(s, lam)
        assert 0.0 <= drop <= s.max() * math.sqrt(r / 2.0) + 1e-12


def test_kl_dro_estimator_examples():
    res = kl_dro_estimator(Sample([0, 2]), math.log(2))
    assert res.value == pytest.approx(VALUE_TWO_POINT, abs=1e-12)
    assert res.diagnostics["atom"] == pytest.approx(0.0, abs=1e-12)
    res_pm = kl_dro_estimator(Sample([3.0, 3.0]), 0.6)
    assert res_pm.value == pytest.approx(3.0 * math.exp(-0.6), rel=1e-12)
    assert kl_dro_estimator(Sample([0, 2]), 0.0).value == 1.0


def test_kl_disappointment_bound_values():
    lam = math.log(100)
    assert kl_disappointment_bound(100, lam) == pytest.approx(0.6503726925914973, rel=1e-12)
    # raw value 1.51 clamps to 1
    assert kl_disappointment_bound(2, 2.0) == 1.0
    assert kl_disappointment_bound_general(2, 2.0) == pytest.approx(
        (math.e * 2.0 * math.log(2) + math.e**2) * math.exp(-2.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        kl_disappointment_bound(100, 1.0)
    with pytest.raises(ValueError):
        kl_disappointment_bound(1, 2.0)
    with pytest.raises(ValueError):
        kl_disappointment_bound_general(100, 2.0, m=0.1)


def test_estimate_dispatch_and_mean_dominance():
    rng = np.random.default_rng(13)
    schedule = RadiusSchedule.log_n()
    configs = [
        EstimatorConfig("mean", delta=0.2),
        EstimatorConfig("wasserstein", r=0.3),
        EstimatorConfig("trunc", a=2.0, A=5.0, schedule=schedule),
        EstimatorConfig("varreg", schedule=schedule),
        EstimatorConfig("tv", schedule=schedule),
        EstimatorConfig("kl", schedule=schedule),
        EstimatorConfig("kl", r=0.0),
    ]
    for _ in range(15):
        s = Sample(rng.pareto(2.0, int(rng.integers(3, 40))) + 0.3)
        mean = sample_mean(s)
        for cfg in configs:
            result = estimate(cfg, s)
            assert result.value <= mean + 1e-12
            assert result.estimator_id == cfg.kind


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig("nope")
    with pytest.raises(ValueError):
        EstimatorConfig("mean", delta=-1.0)
    with pytest.raises(ValueError):
        EstimatorConfig("trunc", a=3.0)
    with pytest.raises(ValueError):
        EstimatorConfig("kl").resolve_radius(10)  # no radius source


def test_scale_equivariance_of_estimators():
    rng = np.random.default_rng(14)
    vals = rng.pareto(2.5, 25) + 1.0
    s = Sample(vals)
    for c in (0.1, 7.0):
        sc = Sample(c * vals)
        assert sample_mean_delta(sc, c * 0.3) == pytest.approx(c * sample_mean_delta(s, 0.3), rel=1e-12)
        assert wasserstein_estimator(sc, c * 0.5) == pytest.approx(
            c * wasserstein_estimator(s, 0.5), rel=1e-12
        )
        assert variance_reg_estimator(sc, 2.0) == pytest.approx(
            c * variance_reg_estimator(s, 2.0), rel=1e-12
        )
        assert tv_estimator(sc, 2.0) == pytest.approx(c * tv_estimator(s, 2.0), rel=1e-12)
        assert kl_dro_estimator(sc, 0.08).value == pytest.approx(
            c * kl_dro_estimator(s, 0.08).value, rel=1e-9
        )


@pytest.mark.parametrize("k", [990, -990])
def test_varreg_is_exactly_scale_equivariant_at_extreme_magnitudes(k):
    # deviations from a mean near 1e298 square past float max, and from a mean
    # near 1e-298 square to zero, unless they are scaled by a power of two first
    X = np.empty((40, 20))
    _draw_block(Pareto(2.5, 1.0), 3, 0, X)
    cfg, c = EstimatorConfig("varreg", lam=1.0), 2.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = _estimate_batch(cfg, X * c, (X * c).mean(axis=1))
        scalar = [variance_reg_estimator(Sample(row * c), 1.0) for row in X[:5]]
    assert np.array_equal(scaled, c * _estimate_batch(cfg, X, X.mean(axis=1)))
    assert scalar == [c * variance_reg_estimator(Sample(row), 1.0) for row in X[:5]]


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_varreg_scalar_is_a_batch_of_one(scale):
    X = np.empty((40, 20))
    _draw_block(Pareto(2.5, 1.0), 4, 0, X)
    X = np.sort(X * scale, axis=1)  # a Sample's values are sorted, and sums depend on order
    batch = _estimate_batch(EstimatorConfig("varreg", lam=2.0), X, X.mean(axis=1))
    assert np.all(np.isfinite(batch)) and np.all(batch < X.mean(axis=1))
    assert [variance_reg_estimator(Sample(row), 2.0) for row in X] == list(batch)


def test_log1p_transform_shrinks_variance():
    # |log(1+x) - log(1+y)| <= |x - y| on the half-line, so the sample
    # variance cannot grow under the transform
    rng = np.random.default_rng(15)
    for _ in range(40):
        vals = rng.pareto(1.5, int(rng.integers(2, 50)))
        transformed = Sample(np.log1p(vals))
        assert sample_variance(transformed) <= sample_variance(Sample(vals)) + 1e-12
