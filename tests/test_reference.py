"""The tests' references (tests/reference.py) against closed forms, each
other, and the fast float reference against the 50-digit one."""

import math

import mpmath
import numpy as np
import pytest

from safemean import LogNormal, Pareto, ScaledBernoulli, UniformBounded
from reference import DPS, cramer_rate, float_kl_value, kl_inf, kl_value, radius_limit
from streams import reference_block


@pytest.mark.parametrize("r", [1e-12, 1e-6, 0.1, 10.0])
def test_kl_value_matches_the_two_point_closed_form(r):
    # on {0, 2} the value is 1 - sqrt(1 - exp(-2 r))
    with mpmath.workdps(DPS):
        exact = 1 - mpmath.sqrt(-mpmath.expm1(-2 * mpmath.mpf(r)))
        assert abs(kl_value([0.0, 2.0], r) / exact - 1) < 1e-40


@pytest.mark.parametrize("row", [[3.0], [0.0, 2.0], [1.0, 2.0, 7.0], [0.0] * 5 + [1.0, 40.0]], ids=str)
def test_kl_inf_inverts_kl_value(row):
    # the value is the mean at which the divergence-to-mean reaches r
    for r in (1e-12, 0.05, 3.0):
        with mpmath.workdps(DPS):
            assert abs(kl_inf(row, kl_value(row, r)) / r - 1) < 1e-30


@pytest.mark.parametrize("b", [1e-10, 0.5, 0.9])
def test_cramer_rate_matches_the_bernoulli_closed_form(b):
    # the rate of ScaledBernoulli(p, h) is KL(Bern(q), Bern(p)) at q = (mu - b) / h
    with mpmath.workdps(DPS):
        p, q = mpmath.mpf(0.5), (1 - mpmath.mpf(b)) / 2
        exact = q * mpmath.log(q / p) + (1 - q) * mpmath.log((1 - q) / (1 - p))
        assert abs(cramer_rate(ScaledBernoulli(0.5, 2.0), b) / exact - 1) < 1e-40


@pytest.mark.parametrize(
    "spec", [Pareto(2.5, 1.0), Pareto(1.5, 3.0), LogNormal(0.0, 1.5), UniformBounded(0.5, 2.0)], ids=repr
)
def test_radius_limit_quadrature_matches_the_closed_forms(spec):
    # E log z + log E[1/z]: 1/rho + log(rho / (rho + 1)) for Pareto, sigma**2 / 2 for lognormal,
    # -1 - x log x / (1 - x) + log(-log x / (1 - x)) for the uniform on [x, 1], x = lo / hi
    with mpmath.workdps(DPS):
        if isinstance(spec, Pareto):
            rho = mpmath.mpf(spec.shape)
            exact = 1 / rho + mpmath.log(rho / (rho + 1))
        elif isinstance(spec, LogNormal):
            exact = mpmath.mpf(spec.sigma) ** 2 / 2
        else:
            x = mpmath.mpf(spec.lo) / spec.hi
            exact = -1 - x * mpmath.log(x) / (1 - x) + mpmath.log(-mpmath.log(x) / (1 - x))
        assert abs(radius_limit(spec) / exact - 1) < 1e-40


# rows of 60 values with and without zeros, and {0, 2}, at radii where a* is
# far above the row (r = 1e-12) and far below it (r = 10 on a row with a zero)
GRID_ROWS = [row for law in (Pareto(2.5), LogNormal(0.0, 1.5), ScaledBernoulli(0.5, 2.0)) for row in reference_block(law, 11, 0, 4, 60)]
GRID_ROWS.append(np.array([0.0, 2.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_float_reference_matches_kl_value_on_the_grid():
    for i, row in enumerate(GRID_ROWS):
        for r in (1e-12, 1e-6, math.log(60) / 60, 1.0, 10.0):
            assert float_kl_value(row, r) == pytest.approx(float(kl_value(row, r)), rel=1e-14), (i, r)


# a sample of the (law, seed, n, scale 2**k, r) cases the screen tests pass the float reference
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "law, seed, n, k, r",
    [
        (ScaledBernoulli(0.5, 2.0), 11, 3000, 0, 1e-12),
        (ScaledBernoulli(0.5, 2.0), 11, 1000, 1000, 1e-12),
        (Pareto(1.5), 11, 30, 1000, 1e-12),
        (LogNormal(0.0, 1.5), 11, 30, -1000, 1e-12),
        (Pareto(2.5), 5, 200, 0, 1e-12),
        (Pareto(2.5), 5, 200, 0, 0.01),
    ],
    ids=repr,
)
def test_float_reference_matches_kl_value_on_screen_cases(law, seed, n, k, r):
    row = np.ldexp(reference_block(law, seed, 0, 1, n)[0], k)
    assert float_kl_value(row, r) == pytest.approx(float(kl_value(row, r)), rel=1e-14)
