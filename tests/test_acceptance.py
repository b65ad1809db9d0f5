"""Acceptance suite: every criterion runs at its stated budget and tolerance
and prints one PASS/FAIL line. Criteria 3-7 are Monte Carlo experiments with
fixed seeds; criteria 1-2 certify the dual solver; criteria 8-9 are exact
enumerations and quadrature.

Expected wall time for the whole module is a few minutes, dominated by the
batched KL solves at n = 3000 (criterion 3) and the million-trial cell of
criterion 6.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import binom

from safemean import (
    EstimatorConfig,
    Pareto,
    RadiusSchedule,
    Sample,
    ScaledBernoulli,
    UniformBounded,
    conservatism_probability,
    cramer_rate,
    disappointment_probability,
    exact_bernoulli_event_probability,
    kl_disappointment_bound,
    pareto_variance_ratio_limit,
    rate_fit,
    solve_kl_dro_dual,
    variance_ratio_curve,
    verify_certificate,
)
from safemean.oracle import random_instances
from bruteforce import kl_projection_bruteforce
from reference import true_variance

MASTER_SEED = 20240901


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    return passed


def test_criterion_01_certificate_suite():
    t0 = time.perf_counter()
    worst_kl = worst_gap = 0.0
    violations = 0
    count = 0
    for i, (s, r) in enumerate(random_instances(200, seed=MASTER_SEED)):
        rep = verify_certificate(s, r, probes=10_000, seed=MASTER_SEED + i)
        worst_kl = max(worst_kl, rep.kl_gap)
        worst_gap = max(worst_gap, rep.duality_gap / max(1.0, abs(rep.value)))
        violations += rep.probe_violations
        assert rep.passed, (i, r, rep)  # feasible, within kl_tol and the relative duality gap, no violations
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and worst_kl <= 1e-8 and violations == 0 and elapsed < 60
    assert _report(
        1,
        ok,
        f"instances={count} max_kl_gap={worst_kl:.2e} max_rel_duality_gap={worst_gap:.2e} "
        f"probe_violations={violations} time={elapsed:.1f}s",
    )


def test_criterion_02_bruteforce_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for i, (s, r) in enumerate(random_instances(200, seed=MASTER_SEED)):
        distinct = np.unique(s.values).size + (1 if s.min() > 0 else 0)
        if distinct > 20 or s.max() == 0.0:
            continue
        dual = solve_kl_dro_dual(s, r).value
        found = kl_projection_bruteforce(s, r, grid_resolution=400, seed=MASTER_SEED + i)
        worst = max(worst, abs(found - dual))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 300
    assert _report(2, ok, f"instances={count} worst_gap={worst:.2e} time={elapsed:.1f}s")


def test_criterion_03_kl_disappointment_bound():
    t0 = time.perf_counter()
    spec = Pareto(2.5, 1.0)
    cfg = EstimatorConfig("kl", schedule=RadiusSchedule.log_n())
    rows = []
    ok = True
    for n in (100, 300, 1000, 3000):
        rep = disappointment_probability(spec, cfg, n, 100_000, MASTER_SEED)
        bound = kl_disappointment_bound(n, math.log(n))
        half = (rep.ci_hi - rep.ci_lo) / 2.0
        rows.append(f"n={n} p_hat={rep.p_hat:.5f}+-{half:.5f} bound={bound:.4f}")
        ok = ok and (rep.p_hat + half <= bound)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    assert _report(3, ok, "; ".join(rows) + f" time={elapsed:.0f}s")


def test_criterion_04_truncated_mean_guarantee():
    t0 = time.perf_counter()
    spec = Pareto(2.5, 1.0)
    second_moment = true_variance(spec) + (2.5 / 1.5) ** 2  # E[z^2] = 5 in closed form
    cfg = EstimatorConfig("trunc", a=2.0, A=second_moment, lam=3.0)
    bound = math.exp(-3.0)
    rows = []
    ok = True
    for n in (100, 1000):
        rep = disappointment_probability(spec, cfg, n, 100_000, MASTER_SEED)
        half = (rep.ci_hi - rep.ci_lo) / 2.0
        rows.append(f"n={n} p_hat={rep.p_hat:.5f}+-{half:.5f}")
        ok = ok and (rep.p_hat - half <= bound)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    assert _report(4, ok, "; ".join(rows) + f" bound={bound:.4f} time={elapsed:.0f}s")


def test_criterion_05_sample_mean_infeasibility_rate():
    t0 = time.perf_counter()
    spec = Pareto(1.5, 1.0)
    cfg = EstimatorConfig("mean", delta=0.5)
    points = []
    for n in (100, 316, 1000, 3162, 10_000):
        rep = disappointment_probability(spec, cfg, n, 100_000, MASTER_SEED)
        points.append((n, rep.p_hat))
    fit = rate_fit(points, axis="log-log")
    elapsed = time.perf_counter() - t0
    ok = -0.8 <= fit.slope <= -0.2 and fit.r_squared >= 0.9 and elapsed < 600
    assert _report(
        5,
        ok,
        f"slope={fit.slope:.3f} (target -0.5) r2={fit.r_squared:.4f} "
        f"points={[(n, round(p, 5)) for n, p in points]} time={elapsed:.0f}s",
    )


def test_criterion_06_varreg_overcompensation_vs_kl():
    t0 = time.perf_counter()
    spec = Pareto(2.5, 1.0)
    b, n = 0.5, 1000
    schedule = RadiusSchedule.log_n()
    vr = conservatism_probability(spec, EstimatorConfig("varreg", schedule=schedule), b, n, 1_000_000, MASTER_SEED)
    kl = conservatism_probability(spec, EstimatorConfig("kl", schedule=schedule), b, n, 200_000, MASTER_SEED)
    lower_bound = vr.bound  # n P[z > b sqrt(n/(2r))], about 4.76e-3 here
    ok_vr = vr.p_hat >= 0.5 * lower_bound
    ok_kl = kl.p_hat <= vr.p_hat / 10.0
    elapsed = time.perf_counter() - t0
    ok = ok_vr and ok_kl and elapsed < 900
    assert _report(
        6,
        ok,
        f"varreg p_hat={vr.p_hat:.5f} vs 0.5*bound={0.5 * lower_bound:.5f}; "
        f"kl p_hat={kl.p_hat:.2e} (hits={kl.hits}) needs <= {vr.p_hat / 10:.2e}; time={elapsed:.0f}s",
    )


def test_criterion_07_varreg_disappointment_window():
    """Checks -log(p_hat)/lambda in [0.6, 1.6] for the variance-regularized
    estimator at n in {1e3, 1e4}. The criterion pins no trial count; budgets
    are sized so the n=1000 cell certifies the outcome either way: with zero
    hits in 2e6 trials the 95% upper limit on p already forces the ratio
    above 1.84, outside the window. Measured reality (4e6-trial probe during
    development): p(1000) ~ 2.5e-7, ratio ~ 2.2, and the ratio decreases in n
    (3.0 at n=50), so the asymptotic window is genuinely out of reach at
    these n -- the estimator overcompensates, failing on the too-fast side.
    """
    t0 = time.perf_counter()
    spec = Pareto(2.5, 1.0)
    cfg = EstimatorConfig("varreg", schedule=RadiusSchedule.log_n())
    rows = []
    ok = True
    for n, trials in ((1000, 2_000_000), (10_000, 600_000)):
        rep = disappointment_probability(spec, cfg, n, trials, MASTER_SEED)
        lam = math.log(n)
        ratio = -math.log(rep.p_hat) / lam if rep.p_hat > 0 else math.inf
        ratio_ci_lo = -math.log(rep.ci_hi) / lam  # most favorable ratio consistent with data
        rows.append(
            f"n={n} hits={rep.hits}/{trials} p_hat={rep.p_hat:.2e} "
            f"-log(p)/lam={ratio:.3f} (>= {ratio_ci_lo:.3f} at 95%)"
        )
        ok = ok and 0.6 <= ratio <= 1.6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    assert _report(7, ok, "; ".join(rows) + f" time={elapsed:.0f}s")


def test_criterion_08_cramer_rate_cross_check():
    t0 = time.perf_counter()
    spec = ScaledBernoulli(0.5, 2.0)
    b = 0.5
    rate = cramer_rate(spec, b)

    # exact binomial enumeration of the plain sample-mean left tail at n = 20
    n0 = 20
    p_exact = float(binom.cdf(4, n0, 0.5))  # mean < 0.5 with values in {0, 2}
    gap = abs(-math.log(p_exact) / n0 - rate)
    ok_mean = gap <= 0.15

    # KL-ball estimator conservatism decay; the event is determined by the
    # count of high draws, so binomial enumeration gives exact probabilities
    # (at n = 800 the probability is ~1e-28, far beyond any Monte Carlo reach)
    cfg = EstimatorConfig("kl", schedule=RadiusSchedule.log_n())
    points = []
    for n in (50, 200, 800):
        p_n = exact_bernoulli_event_probability(spec, cfg, n, "conservatism", b=b)
        points.append((n, p_n))
    fit = rate_fit(points, axis="log-linear")
    slope_ratio = -fit.slope / rate
    ok_slope = 0.5 <= slope_ratio <= 2.0
    elapsed = time.perf_counter() - t0
    ok = ok_mean and ok_slope and elapsed < 300
    assert _report(
        8,
        ok,
        f"I(b)={rate:.5f} |(-1/n)log p - I|={gap:.4f} (<=0.15); "
        f"kl decay slope={fit.slope:.5f} ratio-to-I={slope_ratio:.2f} (in [0.5, 2]); "
        f"points={[(n, float(f'{p:.3e}')) for n, p in points]} time={elapsed:.0f}s",
    )


def test_criterion_09a_variance_ratio_bounded():
    t0 = time.perf_counter()
    (_, ratio_bern), = variance_ratio_curve(ScaledBernoulli(0.5, 2.0), [1e-4])
    (_, ratio_unif), = variance_ratio_curve(UniformBounded(0.0, 1.0), [1e-4])
    elapsed = time.perf_counter() - t0
    ok = ratio_bern <= 2.1 and ratio_unif <= 2.1 and elapsed < 120
    assert _report(
        "9a", ok, f"bounded ratios at r=1e-4: bern={ratio_bern:.4f} uniform={ratio_unif:.4f} (<= 2.1)"
    )


def test_criterion_09b_variance_ratio_pareto_stated_constant():
    """Comparison against the stated closed-form constant for the Pareto case.

    The measured curve decreases monotonically toward ~2.455, which is the
    exact small-radius limit 2(psi(rho) + gamma)/(rho - 1) (see
    test_criterion_09c); the stated constant evaluates to ~4.804 and is not
    the limit of the defined quantity, so this check fails by roughly 2x.
    Kept as specified rather than silently retargeting the test.
    """
    rho = 1.5
    stated = (rho / (2 - rho) + rho * (math.pi**2 + 12 * math.log(2)) / 6) / (
        (rho - 1) * math.pi / math.sin(math.pi * (rho - 1))
    )
    curve = variance_ratio_curve(Pareto(1.5, 1.0), [1e-2, 1e-3, 1e-4])
    ratios = [ratio for _, ratio in curve]
    gaps = [abs(rat - stated) for rat in ratios]
    monotone = gaps[0] > gaps[1] > gaps[2]
    within = abs(ratios[-1] - stated) <= 0.05 * stated
    ok = monotone and within
    _report(
        "9b",
        ok,
        f"ratios={[round(x, 4) for x in ratios]} stated-constant={stated:.4f} "
        f"final-gap={abs(ratios[-1] - stated) / stated:.1%} (needs <=5%)",
    )
    assert ok


def test_criterion_09c_variance_ratio_pareto_exact_limit():
    # companion check against the independently derived exact limit
    limit = pareto_variance_ratio_limit(1.5)  # 8 (1 - log 2) = 2.45482...
    curve = variance_ratio_curve(Pareto(1.5, 1.0), [1e-2, 1e-3, 1e-4])
    ratios = [ratio for _, ratio in curve]
    gaps = [abs(rat - limit) for rat in ratios]
    monotone = gaps[0] > gaps[1] > gaps[2]
    within = abs(ratios[-1] - limit) <= 0.05 * limit
    ok = monotone and within
    assert _report(
        "9c",
        ok,
        f"ratios={[round(x, 4) for x in ratios]} exact-limit={limit:.4f} "
        f"final-gap={abs(ratios[-1] - limit) / limit:.1%} (<=5%)",
    )
