import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from safemean import (
    EstimatorConfig,
    LogNormal,
    Pareto,
    RadiusSchedule,
    Sample,
    ScaledBernoulli,
    UniformBounded,
    estimate,
    read_sample_file,
    survival_probability,
    true_mean,
)
from safemean.core import SampleFileError
from safemean.estimators import row_std
import reference
from reference import true_variance


def sample_mean(s):
    return estimate(EstimatorConfig("mean"), s).value


def sample_variance(s):
    """The sample's variance with the 1/n divisor, from the varreg kernel's row_std."""
    X = s.values[None, :]
    return float(row_std(X, X.mean(axis=1))[0]) ** 2


def test_sample_mean_examples():
    assert sample_mean(Sample([0, 2])) == 1.0
    assert sample_mean(Sample([5, 5, 5])) == 5.0
    assert sample_mean(Sample([1, 2, 3, 10])) == 4.0


def test_sample_variance_examples():
    assert sample_variance(Sample([7, 7, 7, 7])) == 0.0
    assert sample_variance(Sample([0, 2])) == pytest.approx(1.0)
    assert sample_variance(Sample([1, 2, 3, 10])) == pytest.approx(12.5)


def test_sample_canonical_sorted_and_duplicates_kept():
    s = Sample([3.0, 1.0, 3.0, 0.5])
    assert list(s.values) == [0.5, 1.0, 3.0, 3.0]
    assert s.n == 4


@pytest.mark.parametrize("values", [[3.0, 1.0, 3.0, 0.5], [0.0, 0.0, 0.0], [2.0, 0.0, 7.0, 1.0], [5.0]])
def test_weighted_support_is_found_once_and_read_only(values):
    s = Sample(values)
    vals, w = s.weighted_support()
    expected_vals, counts = np.unique(values, return_counts=True)
    assert vals.tobytes() == expected_vals.tobytes() and w.tobytes() == (counts / len(values)).tobytes()
    again = s.weighted_support()
    assert again[0] is vals and again[1] is w  # found once, for every sample
    if vals.size == s.n:  # a sample without repeats is its own support
        assert vals is s.values
    for arr in (vals, w):
        with pytest.raises(ValueError):
            arr[0] = 2.0


def test_sample_rejects_bad_values():
    with pytest.raises(ValueError):
        Sample([])
    with pytest.raises(ValueError):
        Sample([1.0, -0.1])
    with pytest.raises(ValueError):
        Sample([1.0, math.nan])
    with pytest.raises(ValueError):
        Sample([1.0, math.inf])
    with pytest.raises(ValueError, match="one-dimensional"):
        Sample([[1.0]])


def test_mean_variance_permutation_invariant():
    rng = np.random.default_rng(42)
    for _ in range(25):
        vals = rng.exponential(2.0, size=int(rng.integers(1, 30)))
        s1 = Sample(vals)
        s2 = Sample(rng.permutation(vals))
        assert sample_mean(s1) == sample_mean(s2)
        assert sample_variance(s1) == sample_variance(s2)


def test_popoviciu_variance_bound():
    rng = np.random.default_rng(7)
    for _ in range(50):
        vals = rng.pareto(1.5, size=int(rng.integers(2, 40))) + 1.0
        s = Sample(vals)
        spread = s.max() - s.min()
        assert sample_variance(s) <= spread**2 / 4.0 + 1e-12


def test_true_mean_examples():
    assert true_mean(Pareto(2.0, 1.0)) == pytest.approx(2.0)
    assert true_mean(ScaledBernoulli(1.0, 3.0)) == 3.0
    assert true_mean(ScaledBernoulli(0.5, 2.0)) == 1.0
    assert true_mean(UniformBounded(0.0, 1.0)) == 0.5


def test_pareto_requires_finite_mean():
    with pytest.raises(ValueError):
        Pareto(1.0, 1.0)
    with pytest.raises(ValueError):
        Pareto(0.8, 1.0)


@pytest.mark.parametrize(
    "spec",
    [Pareto(2.5, 1.3), LogNormal(0.2, 0.8), UniformBounded(0.5, 4.0)],
)
def test_true_mean_matches_quadrature(spec):
    # independent check: mean = integral of the survival function
    mean_quad, _ = quad(lambda u: survival_probability(spec, u), 0, np.inf, limit=300)
    assert true_mean(spec) == pytest.approx(mean_quad, rel=1e-8)


def test_true_variance_closed_forms():
    assert true_variance(ScaledBernoulli(1.0, 2.0)) == 0.0
    assert true_variance(ScaledBernoulli(0.5, 2.0)) == pytest.approx(1.0)
    assert true_variance(Pareto(2.5, 1.0)) == pytest.approx(5.0 - (5.0 / 3.0) ** 2)
    assert true_variance(Pareto(1.8, 1.0)) == math.inf
    assert true_variance(LogNormal(0.0, 1.0)) == pytest.approx((math.e - 1.0) * math.e, rel=1e-15)


@pytest.mark.parametrize(
    "spec, variance",
    [
        (ScaledBernoulli(0.5, 1e200), math.inf),
        (Pareto(2.5, 1e200), math.inf),
        (LogNormal(400.0, 1.0), math.inf),
        (LogNormal(-800.0, 30.0), math.exp(200.0)),  # exp(2 mu + s2) expm1(s2): both factors overflow alone
        (ScaledBernoulli(1.0, 1e300), 0.0),
        (ScaledBernoulli(0.0, 1e300), 0.0),
        (UniformBounded(0.0, 1e160), math.inf),
        (UniformBounded(0.0, 2.0**512), math.ldexp(1.0 / 3.0, 1022)),  # the square overflows, the variance does not
    ],
    ids=repr,
)
def test_true_variance_overflows_to_inf_and_is_zero_for_a_point_mass(spec, variance):
    assert true_variance(spec) == pytest.approx(variance, rel=1e-12)


def test_bernoulli_probability_must_lie_in_the_unit_interval():
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        ScaledBernoulli(1.5, 1.0)


@pytest.mark.parametrize(
    "dispatch",
    [true_mean, true_variance, lambda spec: survival_probability(spec, 1.0)],
    ids=["true_mean", "true_variance", "survival_probability"],
)
def test_every_spec_dispatcher_rejects_a_non_spec(dispatch):
    with pytest.raises(TypeError, match="unsupported distribution spec"):
        dispatch(object())


@pytest.mark.parametrize("high", [math.inf, math.nan, -1.0])
def test_bernoulli_high_value_must_be_finite_and_non_negative(high):
    with pytest.raises(ValueError, match="finite and non-negative"):
        ScaledBernoulli(0.5, high)


NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("value", NON_FINITE)
def test_pareto_parameters_must_be_finite(value):
    for shape, scale in ((value, 1.0), (2.5, value)):
        with pytest.raises(ValueError, match="must be finite"):
            Pareto(shape, scale)


@pytest.mark.parametrize("value", NON_FINITE)
def test_lognormal_parameters_must_be_finite(value):
    for mu, sigma in ((value, 1.0), (0.0, value)):
        with pytest.raises(ValueError, match="must be finite"):
            LogNormal(mu, sigma)


def test_lognormal_mean_overflow_is_a_value_error():
    # sigma**2 would raise OverflowError here
    with pytest.raises(ValueError, match="overflows a float"):
        LogNormal(0.0, 1e200)


def test_pareto_mean_overflow_is_a_value_error():
    # shape * scale / (shape - 1) is inf, though both parameters are finite
    with pytest.raises(ValueError, match="overflows a float"):
        Pareto(1.0000000000000002, 1e300)


@pytest.mark.parametrize("lo, hi", [(0.5, 4.0), (1e308, 1.7e308), (1.7e308, np.finfo(float).max), (1e-300, 3e-300)])
def test_uniform_mean_is_the_rounded_midpoint(lo, hi):
    # lo + hi overflows in the second and third; halves of normal floats are exact
    assert true_mean(UniformBounded(lo, hi)) == float((Fraction(lo) + Fraction(hi)) / 2)


@pytest.mark.parametrize("value", NON_FINITE)
def test_uniform_bounds_must_be_finite(value):
    for lo, hi in ((0.0, value), (value, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            UniformBounded(lo, hi)


def test_survival_probability_pareto():
    spec = Pareto(2.5, 1.0)
    assert survival_probability(spec, 0.5) == 1.0
    assert survival_probability(spec, 2.0) == pytest.approx(2.0**-2.5)
    assert survival_probability(spec, -1.0) == 1.0
    assert survival_probability(LogNormal(0.0, 1.0), 0.0) == 1.0


def test_radius_schedule_kinds():
    assert RadiusSchedule.log_n().lam(100) == pytest.approx(math.log(100))
    assert EstimatorConfig("kl", schedule=RadiusSchedule.log_n(2.0)).resolve_radius(100) == pytest.approx(
        2.0 * math.log(100) / 100
    )
    assert RadiusSchedule.log_log_n(1.5).lam(50) == pytest.approx(1.5 * math.log(math.log(50)))
    assert RadiusSchedule.power(2.0, 0.5).lam(16) == pytest.approx(8.0)
    # a fixed radius or exponent is set on the estimator, not by a schedule
    assert EstimatorConfig("kl", lam=3.0).resolve_lambda(10) == 3.0
    assert EstimatorConfig("kl", r=0.1).resolve_lambda(30) == pytest.approx(3.0)
    assert EstimatorConfig("kl", r=0.1).resolve_radius(30) == pytest.approx(0.1)


def test_radius_schedule_validation():
    with pytest.raises(ValueError):
        RadiusSchedule.log_n(0.0)
    with pytest.raises(ValueError):
        RadiusSchedule("const-lambda", 3.0)  # a constant exponent is EstimatorConfig(lam=...)
    with pytest.raises(ValueError):
        RadiusSchedule.power(1.0, 1.0)
    with pytest.raises(ValueError):
        RadiusSchedule.log_log_n().lam(2)  # log log 2 < 0
    with pytest.raises(ValueError):
        RadiusSchedule("nope", 1.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        RadiusSchedule.log_n().lam(0)


def test_read_sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("0\n2.5\n\n1e-3\n")
    s = read_sample_file(path)
    assert list(s.values) == [0.0, 1e-3, 2.5]


@pytest.mark.parametrize(
    "content,line",
    [("1\n-2\n", 2), ("nan\n", 1), ("1\n2\ninf\n", 3), ("1\nabc\n", 2), ("\n  \n", 0)],
)
def test_read_sample_file_rejects_with_line_number(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(SampleFileError) as excinfo:
        read_sample_file(path)
    assert excinfo.value.line_number == line
    assert f"line {line}" in str(excinfo.value)


def test_discrete_distribution_invariants():
    from safemean import DiscreteDistribution

    d = DiscreteDistribution([0.0, 2.0], [0.25, 0.75])
    assert d.mean() == pytest.approx(1.5)
    assert dict(zip(d.support, d.weights)) == {0.0: 0.25, 2.0: 0.75}
    with pytest.raises(ValueError):
        DiscreteDistribution([2.0, 1.0], [0.5, 0.5])  # not increasing
    with pytest.raises(ValueError):
        DiscreteDistribution([0.0, 1.0], [0.6, 0.6])  # sum != 1
    with pytest.raises(ValueError):
        DiscreteDistribution([0.0, 1.0], [-0.1, 1.1])
    with pytest.raises(ValueError, match="matching"):
        DiscreteDistribution([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="non-negative"):
        DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])


@pytest.mark.parametrize(
    "spec",
    [Pareto(2.5, 1.0), Pareto(1.5, 3.0), LogNormal(0.0, 1.5), UniformBounded(0.5, 2.0), ScaledBernoulli(1.0, 2.0)],
    ids=repr,
)
def test_radius_limit_matches_the_50_digit_reference(spec):
    assert spec.radius_limit() == pytest.approx(float(reference.radius_limit(spec)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("spec", [UniformBounded(0.0, 1.0), ScaledBernoulli(0.5, 2.0)], ids=repr)
def test_radius_limit_is_infinite_with_mass_or_density_at_zero(spec):
    assert spec.radius_limit() == math.inf
