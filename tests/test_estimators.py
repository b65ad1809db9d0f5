import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import linprog

from safemean import (
    EstimatorConfig,
    RadiusSchedule,
    Sample,
    ScaledBernoulli,
    conservatism_probability,
    cramer_rate,
    estimate,
    exact_bernoulli_event_probability,
    kl_disappointment_bound,
    laplace_transform,
    solve_kl_dro_dual,
    truncation_constants,
    variance_ratio_curve,
)
from safemean.core import Pareto
from safemean.rates import solve_population_dual
from safemean.estimators import ESTIMATOR_KINDS, _closed_form, row_std
from safemean.montecarlo import _finite_estimates
from streams import reference_block

VALUE_TWO_POINT = 0.5 / math.sqrt(3.0) - (2.0 * math.sqrt(3.0) - 3.0) / 3.0


def value(kind, values, **params):
    """The estimate of one sample through the single dispatch interface."""
    return estimate(EstimatorConfig(kind, **params), Sample(values)).value


def variance(s):
    """The sample's variance with the 1/n divisor, from the varreg kernel's row_std."""
    X = s.values[None, :]
    return float(row_std(X, X.mean(axis=1))[0]) ** 2


def tv_loop_reference(values, lam):
    """TV mass removal as a walk down the sorted values: atoms of weight 1/n
    move to zero, the last one fractionally, until sqrt(r/2) has moved.

    The walk runs in exact rational arithmetic on the float removal, so a
    comparison measures the kernel's rounding alone: the same walk in floats
    is itself 5.5 ulps of the mean off at n = 30, 29 atoms removed.
    """
    n = values.size
    remaining = Fraction(math.sqrt(lam / n / 2.0))
    removed_value = Fraction(0)
    for i in range(n - 1, -1, -1):
        if remaining <= 0:
            break
        take = min(Fraction(1, n), remaining)
        removed_value += take * Fraction(float(values[i]))
        remaining -= take
    return sum(map(Fraction, values.tolist())) / n - removed_value


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
    assert value("mean", [0, 2], delta=0.0) == 1.0
    assert value("mean", [0, 2], delta=0.25) == 0.75
    assert value("mean", [3.0], delta=3.0) == 0.0
    # not clamped at zero
    assert value("mean", [1.0], delta=2.0) == -1.0
    with pytest.raises(ValueError):
        EstimatorConfig("mean", delta=-0.1)


def test_wasserstein_estimator_examples():
    assert value("wasserstein", [1, 3], r=0.5) == 1.5
    assert value("wasserstein", [0.1, 0.1], r=1.0) == 0.0
    assert value("wasserstein", [4, 6], r=0.0) == 5.0
    with pytest.raises(ValueError):
        EstimatorConfig("wasserstein", r=-0.1)


def test_wasserstein_matches_lp_oracle():
    oracle = wasserstein_lp_oracle([1.0, 3.0], 0.5)
    assert value("wasserstein", [1, 3], r=0.5) == pytest.approx(oracle, abs=1e-8)
    oracle_clamped = wasserstein_lp_oracle([0.5, 1.5], 1.2)
    assert value("wasserstein", [0.5, 1.5], r=1.2) == pytest.approx(oracle_clamped, abs=1e-8)


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
    assert value("trunc", [0, 2], a=2.0, A=1.0, lam=0.02) == pytest.approx(0.9)
    # threshold truncates the outlier to 10
    assert value("trunc", [0, 20], a=2.0, A=1.0, lam=0.02) == pytest.approx(4.9)


def test_truncated_mean_vanishing_compensator():
    values = [value("trunc", [1.0, 2.0, 3.0], a=1.5, A=1.0, lam=lam) for lam in (1e-4, 1e-7, 1e-10)]
    for v in values:
        assert v <= 2.0
    assert values[-1] == pytest.approx(2.0, abs=1e-3)


def test_truncated_mean_monotone_in_moment_bound():
    # larger A weakly raises C and the compensator, so the estimate cannot rise
    estimates = [value("trunc", [0.5, 1.0, 4.0, 9.0], a=1.7, A=A, lam=2.0) for A in (0.01, 0.1, 1.0, 10.0)]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(estimates, estimates[1:]))
    constants = [truncation_constants(1.7, A)[0] for A in (0.01, 0.1, 1.0, 10.0)]
    assert all(c1 <= c2 + 1e-15 for c1, c2 in zip(constants, constants[1:]))


def test_variance_reg_examples():
    assert value("varreg", [4, 4, 4], lam=5.0) == 4.0
    # r = 0.02, sigma = 1
    assert value("varreg", [0, 2], lam=0.04) == pytest.approx(1.0 - math.sqrt(0.04))
    assert value("varreg", [0, 2], lam=0.0) == 1.0


def test_trunc_and_varreg_are_not_clipped_at_zero():
    # the README's example: a compensator larger than the mean gives a
    # negative estimate of a non-negative sample, reported as defined
    assert value("trunc", [0.5, 2.0], a=2.0, A=5.0, lam=3.0) == -0.5664965809277259
    assert value("varreg", [0.5, 2.0], lam=3.0) == -0.049038105676658006


def test_tv_estimator_examples():
    # r = 0.5 -> removal 0.5: the whole atom at 2 moves to zero
    assert value("tv", [0, 2], lam=1.0) == pytest.approx(0.0)
    # r = 0.02 -> removal 0.1: fractional removal of the top atom
    assert value("tv", [0, 2], lam=0.04) == pytest.approx(0.8)
    assert value("tv", [1, 2, 3], lam=0.0) == 2.0
    with pytest.raises(ValueError):
        value("tv", [0, 2], lam=5.0)  # sqrt(r/2) > 1


def test_tv_kernel_matches_the_loop_reference():
    # removal * n is drawn at random, at an integer k (lam = 2 k^2 / n) and one
    # ulp either side of it, where the kernel's floor and the loop's running
    # remainder part ways; errors are in ulps of the sample mean, the size of
    # the two terms whose difference is the estimate
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        values = np.sort(rng.lognormal(0.0, 1.5, n))
        k = int(rng.integers(0, n + 1))
        lam_k = 2.0 * k * k / n
        lams = [float(rng.uniform(0.0, 2.0 * n)), lam_k, np.nextafter(lam_k, 0.0), np.nextafter(lam_k, np.inf)]
        for lam in lams:
            if math.sqrt(lam / n / 2.0) > 1.0:
                continue
            got, want = value("tv", values, lam=lam), tv_loop_reference(values, lam)
            assert abs(Fraction(got) - want) <= 4 * np.spacing(np.mean(values)), (n, k, lam, got, float(want))


def test_tv_decrease_bounded_by_top_mass():
    rng = np.random.default_rng(12)
    for _ in range(30):
        s = Sample(rng.lognormal(0.0, 1.0, int(rng.integers(2, 30))))
        lam = float(rng.uniform(0.01, 1.0))
        r = lam / s.n
        drop = estimate(EstimatorConfig("mean"), s).value - estimate(EstimatorConfig("tv", lam=lam), s).value
        assert 0.0 <= drop <= s.max() * math.sqrt(r / 2.0) + 1e-12


def test_kl_dro_estimator_examples():
    res = estimate(EstimatorConfig("kl", r=math.log(2)), Sample([0, 2]))
    assert res.value == pytest.approx(VALUE_TWO_POINT, abs=1e-12)
    assert res.diagnostics["atom"] == pytest.approx(0.0, abs=1e-12)
    assert value("kl", [3.0, 3.0], r=0.6) == pytest.approx(3.0 * math.exp(-0.6), rel=1e-12)
    assert value("kl", [0, 2], r=0.0) == 1.0


def test_kl_disappointment_bound_values():
    lam = math.log(100)
    assert kl_disappointment_bound(100, lam) == pytest.approx(0.6503726925914973, rel=1e-12)
    # raw value 1.51 clamps to 1
    assert kl_disappointment_bound(2, 2.0) == 1.0
    with pytest.raises(ValueError):
        kl_disappointment_bound(100, 1.0)
    with pytest.raises(ValueError):
        kl_disappointment_bound(1, 2.0)


def test_kl_disappointment_bound_is_non_increasing_in_lambda_up_to_the_float_range():
    # e lam log n overflowed past lam = 1e307, and min(1, inf * 0) read 1; the bound is taken in logs
    lams = np.concatenate([np.linspace(1.001, 60.0, 400), np.logspace(1.8, 308.0, 600)])
    for n in (2, 100, 10**6):
        bounds = [kl_disappointment_bound(n, float(lam)) for lam in lams]
        assert all(later <= earlier for earlier, later in zip(bounds, bounds[1:])), n
    assert kl_disappointment_bound(100, 1e308) == 0.0
    for lam in (1.5, 5.0, 40.0, 300.0):
        with mpmath.workdps(30):
            exact = (mpmath.e * lam * mpmath.log(100) + mpmath.e**2) * mpmath.exp(-lam)
        assert kl_disappointment_bound(100, lam) == pytest.approx(float(min(1, exact)), rel=1e-13, abs=0.0)


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
        mean = estimate(EstimatorConfig("mean"), s).value
        for cfg in configs:
            result = estimate(cfg, s)
            assert result.value <= mean + 1e-12
            assert result.estimator_id == cfg.kind


@pytest.mark.parametrize("value", [0.1, 1e-300, 1e300])
def test_estimate_of_equal_values_is_that_value(value):
    # the rounded mean of equal values can land an ulp past them; estimate
    # clips it into [min, max] of the sample
    s = Sample([value] * 20)
    assert estimate(EstimatorConfig("mean"), s).value == value
    assert estimate(EstimatorConfig("varreg", lam=1.0), s).value == value


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig("nope")
    with pytest.raises(ValueError):
        EstimatorConfig("mean", delta=-1.0)
    with pytest.raises(ValueError):
        EstimatorConfig("trunc", a=3.0)
    schedule = RadiusSchedule.log_n()
    for pair in ({"r": 0.1, "lam": 2.0}, {"r": 0.1, "schedule": schedule}, {"lam": 2.0, "schedule": schedule}):
        for kind in ESTIMATOR_KINDS:
            with pytest.raises(ValueError, match="at most one of r, lam, schedule"):
                EstimatorConfig(kind, **pair)
    for kind in ("wasserstein", "trunc", "varreg", "tv", "kl"):
        with pytest.raises(ValueError, match="needs one of r, lam, schedule"):
            EstimatorConfig(kind)  # no radius source
    # the kernel uses r itself, not (r * n) / n
    assert value("tv", [1.0, 2.0, 7.0], r=0.1) == 10.0 / 3.0 - 7.0 * math.sqrt(0.05)


@pytest.mark.parametrize("kind", ["mean", "wasserstein", "trunc", "varreg", "tv", "kl"])
@pytest.mark.parametrize("field", ["r", "lam"])
@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_estimator_config_rejects_negative_or_nan_radius_and_lambda(kind, field, bad):
    with pytest.raises(ValueError, match="must be non-negative"):
        EstimatorConfig(kind, **{field: bad})


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RadiusSchedule.log_n(NAN), "schedule coefficient must be positive"),
        (lambda: RadiusSchedule.power(NAN, 0.5), "schedule coefficient must be positive"),
        (lambda: truncation_constants(2.0, NAN), "moment bound A must be positive"),
        (lambda: kl_disappointment_bound(10, NAN), "requires lambda > 1"),
        (lambda: conservatism_probability(Pareto(2.5, 1.0), EstimatorConfig("mean"), NAN, 10, 10, 7), "b must be positive"),
        (
            lambda: exact_bernoulli_event_probability(ScaledBernoulli(0.5, 2.0), EstimatorConfig("mean"), 10, "conservatism", NAN),
            "b must be positive",
        ),
        (lambda: solve_kl_dro_dual(Sample([1.0, 2.0]), NAN), "radius must be positive"),
        (lambda: cramer_rate(Pareto(2.5, 1.0), NAN), "b must be non-negative"),
        (lambda: laplace_transform(Pareto(2.5, 1.0), NAN), "s must be non-negative"),
        (lambda: solve_population_dual(Pareto(1.5, 1.0), NAN), "radius must be positive"),
        (lambda: variance_ratio_curve(Pareto(1.5, 1.0), [NAN]), "radii must be positive"),
        # an infinite parameter is rejected by the same checks
        (lambda: RadiusSchedule.log_n(INF), "schedule coefficient must be positive and finite"),
        (lambda: truncation_constants(2.0, INF), "moment bound A must be positive and finite"),
        (lambda: kl_disappointment_bound(10, INF), "requires lambda > 1 and finite"),
        (lambda: EstimatorConfig("kl", r=INF), "radius r must be non-negative and finite"),
        (lambda: EstimatorConfig("kl", lam=INF), "lambda must be non-negative and finite"),
        (lambda: EstimatorConfig("mean", delta=INF), "delta must be non-negative and finite"),
        (
            lambda: conservatism_probability(Pareto(2.5, 1.0), EstimatorConfig("mean"), INF, 10, 10, 7),
            "b must be positive and finite",
        ),
        (lambda: cramer_rate(Pareto(2.5, 1.0), INF), "b must be non-negative and finite"),
    ],
    ids=[
        "logn-schedule-c",
        "power-schedule-c",
        "truncation-A",
        "kl-bound-lambda",
        "harness-conservatism-b",
        "enumeration-conservatism-b",
        "dual-radius",
        "cramer-b",
        "laplace-s",
        "population-dual-radius",
        "variance-ratio-radius",
        "logn-schedule-c-inf",
        "truncation-A-inf",
        "kl-bound-lambda-inf",
        "config-r-inf",
        "config-lambda-inf",
        "config-delta-inf",
        "harness-conservatism-b-inf",
        "cramer-b-inf",
    ],
)
def test_every_numeric_parameter_check_rejects_nan(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("field", ["r", "lam"])
def test_estimator_config_rejects_zero_radius_and_lambda_for_trunc(field):
    # the truncation level r**(-1/a) is infinite at r = 0
    with pytest.raises(ValueError, match="must be positive for trunc"):
        EstimatorConfig("trunc", **{field: 0.0})
    for kind in ("wasserstein", "varreg", "tv", "kl"):
        assert value(kind, [1.0, 3.0], **{field: 0.0}) == 2.0


@pytest.mark.parametrize(
    "kind, field, given",
    [("mean", "r", 0.5), ("mean", "r", 0.0), ("mean", "lam", 2.0), ("mean", "schedule", RadiusSchedule.log_n()),
     ("mean", "a", 2.0), ("mean", "A", 1.0), ("kl", "delta", 0.0), ("trunc", "delta", 0.1),
     ("varreg", "a", 2.0), ("varreg", "A", 5.0), ("wasserstein", "a", 1.5), ("tv", "A", 1.0)],
)
def test_estimator_config_rejects_a_field_the_kind_never_reads(kind, field, given):
    # a field the estimator ignores would change nothing silently: the plain
    # mean under EstimatorConfig("mean", r=0.5) looks like a safe estimate
    radius = {} if kind == "mean" or field in ("r", "lam", "schedule") else {"r": 0.1}
    with pytest.raises(ValueError, match=f"estimator {kind!r} does not take {field}"):
        EstimatorConfig(kind, **radius, **{field: given})


def test_estimator_config_defaults_for_the_fields_a_kind_reads():
    assert EstimatorConfig("mean").delta == 0.0
    cfg = EstimatorConfig("trunc", lam=2.0)
    assert (cfg.a, cfg.A) == (2.0, 1.0)
    assert cfg == EstimatorConfig("trunc", lam=2.0, a=2.0, A=1.0)
    assert EstimatorConfig("kl", r=0.1).delta is None


def test_scale_equivariance_of_estimators():
    rng = np.random.default_rng(14)
    vals = rng.pareto(2.5, 25) + 1.0
    for c in (0.1, 7.0):
        assert value("mean", c * vals, delta=c * 0.3) == pytest.approx(
            c * value("mean", vals, delta=0.3), rel=1e-12
        )
        assert value("wasserstein", c * vals, r=c * 0.5) == pytest.approx(
            c * value("wasserstein", vals, r=0.5), rel=1e-12
        )
        assert value("varreg", c * vals, lam=2.0) == pytest.approx(c * value("varreg", vals, lam=2.0), rel=1e-12)
        assert value("tv", c * vals, lam=2.0) == pytest.approx(c * value("tv", vals, lam=2.0), rel=1e-12)
        assert value("kl", c * vals, r=0.08) == pytest.approx(c * value("kl", vals, r=0.08), rel=1e-9)


@pytest.mark.parametrize("k", [990, -990])
def test_varreg_is_exactly_scale_equivariant_at_extreme_magnitudes(k):
    # deviations from a mean near 1e298 square past float max, and from a mean
    # near 1e-298 square to zero, unless they are scaled by a power of two first
    X = reference_block(Pareto(2.5, 1.0), 3, 0, 40, 20)
    cfg, c = EstimatorConfig("varreg", lam=1.0), 2.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = _closed_form(cfg, X * c, (X * c).mean(axis=1))
        scalar = [estimate(cfg, Sample(row * c)).value for row in X[:5]]
    assert np.array_equal(scaled, c * _closed_form(cfg, X, X.mean(axis=1)))
    assert scalar == [c * estimate(cfg, Sample(row)).value for row in X[:5]]


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_varreg_scalar_is_a_batch_of_one(scale):
    X = reference_block(Pareto(2.5, 1.0), 4, 0, 40, 20)
    X = np.sort(X * scale, axis=1)  # a Sample's values are sorted, and sums depend on order
    cfg = EstimatorConfig("varreg", lam=2.0)
    batch = _finite_estimates(cfg, X, X.mean(axis=1), "the rows")
    assert np.all(np.isfinite(batch)) and np.all(batch < X.mean(axis=1))
    assert [estimate(cfg, Sample(row)).value for row in X] == list(batch)


def test_log1p_transform_shrinks_variance():
    # |log(1+x) - log(1+y)| <= |x - y| on the half-line, so the sample
    # variance cannot grow under the transform
    rng = np.random.default_rng(15)
    for _ in range(40):
        vals = rng.pareto(1.5, int(rng.integers(2, 50)))
        transformed = Sample(np.log1p(vals))
        assert variance(transformed) <= variance(Sample(vals)) + 1e-12


def test_a_kind_without_a_radius_has_no_lambda():
    with pytest.raises(ValueError, match="has no radius"):
        EstimatorConfig("mean").resolve_lambda(10)
