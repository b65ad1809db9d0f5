import ast
import dataclasses
import importlib
import inspect
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from safemean import (
    Pareto,
    Sample,
    random_feasible_probe,
    solve_kl_dro_dual,
    verify_certificate,
)
from safemean import oracle
from safemean.dual import _zero_first, primal_witness
from safemean.oracle import (
    PROBE_MARGIN,
    CertificateReport,
    _kl_rows,
    _probe_noise,
    random_instances,
)
from bruteforce import kl_projection_bruteforce
from streams import reference_block


@pytest.mark.parametrize("values", [[0.0, 1.0, 1.0, 4.0, 9.0], [0.5, 1.0, 4.0, 9.0]])
def test_certificate_sorts_the_sample_once(monkeypatch, values):
    # the witness, its KL and the probe all read the support of one Sample,
    # found from its sorted values without np.unique, which sorted them again
    # on each of the three calls
    calls = []
    unique = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    assert verify_certificate(Sample(values), 0.2, probes=500).passed
    assert calls == []


def test_bruteforce_point_mass_closed_form():
    for r in (0.2, 0.7):
        found = kl_projection_bruteforce(Sample([4.0]), r, grid_resolution=300)
        assert found == pytest.approx(4.0 * math.exp(-r), abs=1e-4)


def test_bruteforce_two_point_closed_form():
    found = kl_projection_bruteforce(Sample([0, 2]), math.log(2), grid_resolution=300)
    assert found == pytest.approx(0.13397459621556138, abs=1e-4)


def test_bruteforce_tiny_radius_recovers_mean():
    s = Sample([1.0, 2.0, 3.0, 10.0])
    found = kl_projection_bruteforce(s, 1e-12, grid_resolution=200)
    assert found == pytest.approx(4.0, abs=1e-4)


def test_bruteforce_is_feasible_upper_bound():
    # the oracle reports the value of a verified feasible point, so it can
    # never fall meaningfully below the true optimum
    for i, (s, r) in enumerate(random_instances(12, seed=33)):
        if s.max() == 0.0:
            continue
        dual = solve_kl_dro_dual(s, r).value
        found = kl_projection_bruteforce(s, r, grid_resolution=250, seed=i)
        assert found >= dual - 1e-9


def test_bruteforce_matches_dual_on_random_instances():
    worst = 0.0
    for i, (s, r) in enumerate(random_instances(30, seed=17)):
        if s.max() == 0.0:
            continue
        dual = solve_kl_dro_dual(s, r).value
        found = kl_projection_bruteforce(s, r, grid_resolution=400, seed=i)
        worst = max(worst, abs(found - dual))
    assert worst <= 1e-3


def test_bruteforce_rejects_big_support():
    with pytest.raises(ValueError):
        kl_projection_bruteforce(Sample(np.arange(1.0, 70.0)), 0.1)
    with pytest.raises(ValueError):
        kl_projection_bruteforce(Sample([1.0]), 0.0)


def test_bruteforce_imports_nothing_from_the_solver_or_the_probe():
    # criterion 2 checks the dual solver against tests/bruteforce.py, which is
    # an independent check only while it shares no code with dual or oracle;
    # a name re-exported by safemean is traced to the module that defines it
    tree = ast.parse(Path(__file__).with_name("bruteforce.py").read_text())
    origins = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            origins += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module is not None
            module = importlib.import_module(node.module)
            for alias in node.names:
                found = getattr(module, alias.name)
                origins.append(found.__name__ if inspect.ismodule(found) else getattr(found, "__module__", node.module))
    assert "safemean.core" in origins
    assert not {"safemean.dual", "safemean.oracle"} & set(origins)


def test_verify_certificate_two_point():
    report = verify_certificate(Sample([0, 2]), math.log(2), probes=2000, seed=1)
    assert report.passed
    assert report.kl_gap < 1e-9
    assert report.duality_gap < 1e-9


def test_verify_certificate_point_mass_atom():
    s = Sample([2.5])
    report = verify_certificate(s, 1.0, probes=1000, seed=2)
    assert report.passed
    sol = solve_kl_dro_dual(s, 1.0)
    assert sol.atom == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_verify_certificate_pareto_draws():
    rng = np.random.default_rng(99)
    s = Sample((1.0 - rng.random(50)) ** (-1.0 / 2.5))
    report = verify_certificate(s, 0.05, probes=2000, seed=3)
    assert report.passed


def test_verify_certificate_radius_mismatch_fails():
    report = verify_certificate(Sample([0, 2]), 0.4, probes=200, seed=4, check_radius=0.6)
    assert not report.passed
    assert report.kl_gap == pytest.approx(0.2, abs=1e-9)


def _scaled_certificate_cases():
    """A Pareto(2.5) sample scaled by 2**k at r = 0.05, from subnormal values
    (k = -1060) to a maximum near the overflow, and a Pareto(1.5) row of 3000
    values near 2**1000 at r = 1e-12, whose alpha* and nu pass the float range."""
    x = np.random.default_rng(6).pareto(2.5, 25) + 1.0
    cases = {k: (Sample(np.ldexp(x, k)), 0.05) for k in (-1060, -1040, -1000, 0, 1000, 1021)}
    X = reference_block(Pareto(1.5, 1.0), 11, 0, 4, 3000)
    cases["pareto1.5"] = (Sample(np.ldexp(X[2], 1000)), 1e-12)
    return cases


def _replace_scaled(sol, field, factor):
    return dataclasses.replace(sol, **{field: getattr(sol, field) * factor})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certificates_hold_in_the_solve_scale_at_every_magnitude(monkeypatch):
    cases = _scaled_certificate_cases()
    s, r = cases["pareto1.5"]
    assert math.isinf(solve_kl_dro_dual(s, r).alpha_star)
    for name, (s, r) in cases.items():
        assert verify_certificate(s, r, probes=500).passed, name
        assert not verify_certificate(s, r, probes=500, check_radius=1.5 * r).passed, name
    # a value off by 1e-6 fails at every magnitude: the gap is compared with
    # the value in the solve's scale, where neither underflows at 2**-1060
    solve = oracle.solve_kl_dro_dual
    monkeypatch.setattr(
        oracle, "solve_kl_dro_dual", lambda s, r: _replace_scaled(solve(s, r), "scaled_value", 1.0 + 1e-6)
    )
    for name, (s, r) in cases.items():
        assert not verify_certificate(s, r, probes=500).passed, name


@pytest.mark.parametrize("r", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("scale_exponent", [0, 1000])
def test_radius_control_fails_at_tiny_radii(scale_exponent, r):
    # The KL tolerance is KL_GAP_TOL * r below r = 1, floored at the witness
    # KL's rounding bound, so a check radius off by half fails down to
    # r = 1e-12, where an absolute 1e-8 passed it; the true radius passes.
    X = reference_block(Pareto(1.5, 1.0), 11, 0, 4, 3000)
    s = Sample(np.ldexp(X[2], scale_exponent))
    assert verify_certificate(s, r, probes=500).passed
    report = verify_certificate(s, r, probes=500, check_radius=1.5 * r)
    assert report.kl_gap == pytest.approx(0.5 * r, rel=1e-3) and not report.passed


def test_certificates_pass_the_kl_tolerance_relative_to_r():
    for i, (s, r) in enumerate(random_instances(200, seed=7)):
        report = verify_certificate(s, r, probes=100, seed=i)
        assert report.passed and report.kl_tol <= oracle.KL_GAP_TOL * min(1.0, r), i


def test_witness_mass_is_checked_before_it_is_renormalized(monkeypatch):
    # nu 1% high puts mass 1.01 on the sample points; primal_witness renormalizes
    # that to 1, with a mean equal to the value, but the certificate reads the raw mass
    s, r = Sample([0.5, 1.0, 4.0, 9.0]), 0.2
    sol = _replace_scaled(solve_kl_dro_dual(s, r), "scaled_nu", 1.01)
    witness = primal_witness(s, sol)
    assert float(witness.weights.sum()) == pytest.approx(1.0, abs=1e-15)
    assert witness.mean() == pytest.approx(sol.value, rel=1e-12)
    monkeypatch.setattr(oracle, "solve_kl_dro_dual", lambda s, r: sol)
    assert not verify_certificate(s, r, probes=500).primal_feasible


def test_probe_requires_trials():
    with pytest.raises(ValueError):
        random_feasible_probe(Sample([1.0, 2.0]), 0.1, trials=0)


def test_probe_zero_violations_on_solved_instance():
    rng = np.random.default_rng(5)
    s = Sample(rng.lognormal(0.0, 1.0, 20))
    assert random_feasible_probe(s, 0.15, trials=10_000, seed=6) == 0


def test_probe_detects_radius_inversion():
    # feasibility at a LARGER radius against the value solved at a smaller one
    # must produce violations: the bigger ball contains better distributions.
    # The margin is relative and the probe runs on the support scaled by a
    # power of two, so the sample scaled by 2**k gives the same count, down to
    # subnormal-adjacent values and up to a maximum near the overflow.
    x = np.random.default_rng(6).pareto(2.5, 25) + 1.0
    counts = set()
    for k in (-1000, -20, 0, 20, 1021):
        s = Sample(np.ldexp(x, k))
        counts.add(random_feasible_probe(s, 1.0, trials=10_000, seed=7, reference=solve_kl_dro_dual(s, 0.05)))
    assert len(counts) == 1 and counts.pop() > 0


@pytest.mark.parametrize("batch", [0, 1, 2])
def test_probe_noise_is_dirichlet_with_the_batch_concentration(batch):
    # three batches of 4096 rows with each concentration: all ones, then 5 on
    # the first column, then 5 on the last. All noise is finite and >= 0; each
    # column's mean and variance lie within 5 standard errors of alpha_j, those
    # of Gamma(alpha_j) (the variance's squared error is (2 alpha**2 + 6 alpha) / N),
    # and each normalized column mean within 5 of alpha_j / sum(alpha)
    m = 6
    alpha = np.ones(m)
    if batch:
        alpha[0 if batch == 1 else -1] = 5.0
    rng = np.random.Generator(np.random.SFC64(2024))
    G = np.vstack([_probe_noise(rng, 4096, m, batch + 3 * k) for k in range(3)])
    assert np.all(np.isfinite(G)) and np.all(G >= 0.0)
    N = G.shape[0]
    assert np.all(np.abs(G.mean(axis=0) - alpha) <= 5 * np.sqrt(alpha / N)), G.mean(axis=0)
    variances = G.var(axis=0, ddof=1)
    assert np.all(np.abs(variances - alpha) <= 5 * np.sqrt((2 * alpha**2 + 6 * alpha) / N)), variances
    means = (G / G.sum(axis=1, keepdims=True)).mean(axis=0)
    a0 = alpha.sum()
    stderr = np.sqrt(alpha * (a0 - alpha) / (a0**2 * (a0 + 1)) / G.shape[0])
    assert np.all(np.abs(means - alpha / a0) <= 5 * stderr), (means, alpha / a0)


def test_probe_catches_most_instances_at_a_larger_radius():
    # power guard: against the value at r, candidates feasible at 1.5 r must
    # beat it on at least 40 of the 50 instances, so a cheaper noise draw
    # cannot buy speed by weakening the probe
    caught = 0
    for i, (s, r) in enumerate(random_instances(50, seed=7)):
        caught += random_feasible_probe(s, 1.5 * r, 10_000, seed=i, reference=solve_kl_dro_dual(s, r)) > 0
    assert caught >= 40, caught


def test_probe_candidates_lie_on_the_simplex():
    eps = np.finfo(float).eps
    for i, (s, r) in enumerate(random_instances(50, seed=7)):
        sol = solve_kl_dro_dual(s, r)
        for batch in _unfiltered_probe_batches(s, 10_000, i, sol, np.inf, 0.0):
            assert np.all(batch.Q >= 0.0), i
            assert np.all(np.abs(batch.Q.sum(axis=1) - 1.0) <= batch.Q.shape[1] * eps), i


@pytest.mark.parametrize("scale_exponent", [-1000, 0, 1000])
def test_probe_finds_no_false_violations_at_any_scale(scale_exponent):
    for i, (s, r) in enumerate(random_instances(50, seed=3)):
        scaled = Sample(np.ldexp(s.values, scale_exponent))
        assert random_feasible_probe(scaled, r, 10_000, seed=i) == 0, i


def test_certificate_report_pass_logic():
    good = CertificateReport(True, 1e-10, 1e-12, 0, 1.0)
    assert good.passed
    assert not CertificateReport(False, 1e-10, 1e-12, 0, 1.0).passed
    assert not CertificateReport(True, 1e-4, 1e-12, 0, 1.0).passed
    assert not CertificateReport(True, 1e-10, 1e-5, 0, 1.0).passed
    assert not CertificateReport(True, 1e-10, 1e-12, 3, 1.0).passed
    # an impossible (negative) value fails however small its gap, and so does
    # a gap that is small in absolute terms but not relative to the value
    assert not CertificateReport(True, 1e-10, 1e-20, 0, -1.6e-11).passed
    assert not CertificateReport(True, 1e-10, 1e-12, 0, 2e-9).passed
    # the KL gap is held to the report's own tolerance
    assert not CertificateReport(True, 1e-10, 1e-12, 0, 1.0, kl_tol=1e-11).passed


def _probe_bound_and_slack(s, reference):
    """The probe's bound value * (1 - PROBE_MARGIN) and its rounding slack
    4 (m + 2) eps max(z_ext), on the unscaled support."""
    vals = _zero_first(*s.weighted_support())[0]
    m = vals.size + 1
    return reference.value * (1.0 - PROBE_MARGIN), 4 * (m + 2) * np.finfo(float).eps * (2.0 * vals[-1])


def _unfiltered_probe_batches(s, trials, seed, reference, bound, slack):
    """The probe without its mean screen or its KL filter, on the unscaled
    support, drawing in the probe's order: each batch's mixing weights t and
    bases first, then noise for the live trials, those whose fixed part
    (1 - t) * (base mean) is below bound + slack (every trial when bound is
    inf). Yields per batch the fixed parts and t of all its trials, the live
    trials' indices, and for each live trial its candidate Q, its mean (one
    dot over its own row), its KL divergence and its mean as the screen
    assembles it."""
    vals, w = _zero_first(*s.weighted_support())
    witness = primal_witness(s, reference)
    wit = np.zeros_like(w)
    for point, weight in zip(witness.support, witness.weights):
        wit[int(np.searchsorted(vals, point))] = weight
    vals_ext = np.concatenate([vals, [2.0 * vals[-1]]])
    w_ext = np.concatenate([w, [0.0]])
    bases = np.vstack(
        [np.concatenate([wit, [0.0]]), w_ext, 0.5 * (np.concatenate([wit, [0.0]]) + w_ext)]
    )
    m = vals_ext.size
    rng = np.random.Generator(np.random.SFC64(seed))
    done = 0
    while done < trials:
        count = min(4096, trials - done)
        t = rng.uniform(0.0, 0.35, size=count)
        pick = rng.integers(0, bases.shape[0], size=count)
        fixed = (1.0 - t) * (bases @ vals_ext)[pick]
        live = np.flatnonzero(fixed < bound + slack)
        G = _probe_noise(rng, live.size, m, done // 4096)
        Gz, S = (G @ np.column_stack([vals_ext, np.ones(m)])).T
        Q = G * (t[live] / S)[:, None]
        Q += (1.0 - t[live])[:, None] * bases[pick[live]]
        yield SimpleNamespace(
            fixed=fixed,
            t=t,
            live=live,
            Q=Q,
            means=np.vecdot(Q, vals_ext),
            kl=_kl_rows(w_ext, Q),
            assembled=fixed[live] + t[live] * (Gz / S),
        )
        done += count


def _unfiltered_probe(s, r, trials, seed, reference):
    bound, slack = _probe_bound_and_slack(s, reference)
    return sum(
        int(np.sum((batch.kl <= r) & (batch.means < bound)))
        for batch in _unfiltered_probe_batches(s, trials, seed, reference, bound, slack)
    )


def _with_value(sol, value):
    """The solution with its value replaced, kept in the scale it was solved in."""
    return dataclasses.replace(sol, scaled_value=math.ldexp(value, -sol.exponent))


def _value_with_bound(bound):
    """A reference value whose probe bound value * (1 - PROBE_MARGIN) is exactly `bound`."""
    value = bound / (1.0 - PROBE_MARGIN)
    for _ in range(8):
        if value * (1.0 - PROBE_MARGIN) == bound:
            return value
        value = np.nextafter(value, np.inf if value * (1.0 - PROBE_MARGIN) < bound else -np.inf)
    raise AssertionError(f"no value has bound {bound!r}")


def _candidates_keeping_their_noise(s, trials, sol, bounds_of):
    """Candidates of one unboosted batch, each drawn with the same noise at
    every bound in bounds_of(its mean), pooled over selection bounds from
    0.85 to 1.6 times sol's: (batch, k, bounds) for candidate k of the batch
    drawn at that selection bound. Which trials get noise depends on the
    bound, and live trial k gets uniforms [k m, (k + 1) m) of the batch's
    stream, so a candidate keeps its noise exactly where its trial is live
    and has k live trials before it."""
    bound, slack = _probe_bound_and_slack(s, sol)
    pool = []
    for selection in bound * np.geomspace(0.85, 1.6, 16):
        (batch,) = _unfiltered_probe_batches(s, trials, 0, sol, selection, slack)
        ranks = np.arange(batch.live.size)
        before = np.arange(batch.fixed.size) < batch.live[:, None]
        keeps = np.ones(ranks.size, dtype=bool)
        for x in np.array([bounds_of(mean) for mean in batch.means]).T:
            live = batch.fixed < (x + slack)[:, None]
            keeps &= live[ranks, batch.live] & (np.count_nonzero(live & before, axis=1) == ranks)
        pool += [(batch, k, bounds_of(batch.means[k])) for k in np.flatnonzero(keeps)]
    return pool


def _assert_keeps_its_noise(s, trials, sol, batch, k, bounds):
    _, slack = _probe_bound_and_slack(s, sol)
    for bound in bounds:
        (again,) = _unfiltered_probe_batches(s, trials, 0, sol, bound, slack)
        assert again.live[k] == batch.live[k] and again.means[k] == batch.means[k], (k, bound)


@pytest.mark.parametrize("seed", [7, 11])
def test_probe_matches_unfiltered_loop_on_certify_instances(seed):
    # the certify benchmark's instances and probe seeds; the inflated
    # reference is a negative control with many candidates below it
    inflated_violations = 0
    for i, (s, r) in enumerate(random_instances(200, seed=seed)):
        if s.max() == 0.0:
            continue
        sol = solve_kl_dro_dual(s, r)
        for reference in (sol, _with_value(sol, 1.5 * sol.value + 0.1)):
            got = random_feasible_probe(s, r, 10_000, seed=seed + i, reference=reference)
            assert got == _unfiltered_probe(s, r, 10_000, seed + i, reference)
        inflated_violations += got
    assert inflated_violations > 200_000


def test_probe_skips_only_rows_that_cannot_fall_below_the_bound():
    # A trial draws no noise when its fixed part (1 - t) * (base mean) is at
    # least bound + slack: t (G @ z) / S is never negative, and adding it
    # never lowers a rounded sum. Full-width noise from an independent stream
    # for every skipped trial of the certify instances, against the true and
    # an inflated reference, never brings an assembled mean below.
    noise = np.random.Generator(np.random.SFC64(2025))
    skipped_trials = 0
    for i, (s, r) in enumerate(random_instances(200, seed=7)):
        if s.max() == 0.0:
            continue
        sol = solve_kl_dro_dual(s, r)
        vals = _zero_first(*s.weighted_support())[0]
        z_and_ones = np.column_stack([np.append(vals, 2.0 * vals[-1]), np.ones(vals.size + 1)])
        for reference in (sol, _with_value(sol, 1.5 * sol.value + 0.1)):
            bound, slack = _probe_bound_and_slack(s, reference)
            for number, batch in enumerate(_unfiltered_probe_batches(s, 10_000, 7 + i, reference, bound, slack)):
                skipped = np.flatnonzero(batch.fixed >= bound + slack)
                Gz, S = (_probe_noise(noise, skipped.size, vals.size + 1, number) @ z_and_ones).T
                assembled = batch.fixed[skipped] + batch.t[skipped] * (Gz / S)
                assert not np.any(assembled < bound + slack), i
                skipped_trials += skipped.size
    assert skipped_trials > 200_000, skipped_trials


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("trials", [1, 10_000])
def test_probe_without_live_trials_finds_nothing(trials):
    # every fixed part is at least 0.65 times the lowest base mean, the
    # witness's, far above a bound at a quarter of the value: no batch draws
    # noise, the boosted ones at 10,000 trials included
    s = Sample(np.random.default_rng(15).lognormal(0.0, 1.0, 12))
    sol = solve_kl_dro_dual(s, 0.1)
    reference = _with_value(sol, 0.25 * sol.value)
    bound, slack = _probe_bound_and_slack(s, reference)
    assert all(batch.live.size == 0 for batch in _unfiltered_probe_batches(s, trials, 0, reference, bound, slack))
    assert random_feasible_probe(s, 0.1, trials, seed=0, reference=reference) == 0


def test_probe_single_candidate_rounds_as_in_its_batch():
    # Each candidate's KL is one dot over its own contiguous row, so a lone
    # candidate below the reference gets its batch KL bit for bit. The radius
    # is set to the lowest-mean candidate's KL, so that candidate is counted
    # only if the probe's one-row KL is not an ulp above its batch KL; the
    # bound is the next double above its mean.
    for sample_seed in range(15, 35):
        s = Sample(np.random.default_rng(sample_seed).lognormal(0.0, 1.0, 12))
        sol = solve_kl_dro_dual(s, 0.1)
        (batch,) = _unfiltered_probe_batches(s, 500, 0, sol, np.inf, 0.0)
        w = np.append(_zero_first(*s.weighted_support())[1], 0.0)
        alone = np.array([_kl_rows(w, batch.Q[j : j + 1])[0] for j in range(len(batch.Q))])
        assert np.array_equal(alone, batch.kl), sample_seed
    s = Sample(np.random.default_rng(15).lognormal(0.0, 1.0, 12))
    sol = solve_kl_dro_dual(s, 0.1)
    pool = _candidates_keeping_their_noise(s, 500, sol, lambda mean: (np.nextafter(mean, np.inf),))
    batch, j, (bound,) = min(pool, key=lambda c: c[0].means[c[1]])
    _assert_keeps_its_noise(s, 500, sol, batch, j, (bound,))
    r = float(batch.kl[j])
    reference = _with_value(sol, _value_with_bound(bound))
    assert _unfiltered_probe(s, r, 500, 0, reference) == 1
    assert random_feasible_probe(s, r, 500, seed=0, reference=reference) == 1


@pytest.mark.parametrize("scale_exponent", [-1000, 0, 1000])
def test_probe_boundary_candidate_matches_unfiltered_loop(scale_exponent):
    # The bound sits exactly at one candidate's mean, then one ulp either
    # side: the mean screen must never drop a candidate the exact test keeps.
    # The radius is that candidate's KL, so it counts only when strictly below.
    # The candidates: the lowest mean, the median, and the one whose screen
    # mean rounds furthest above its exact mean, each chosen among the
    # candidates that keep their noise at all three bounds.
    s = Sample(np.ldexp(np.random.default_rng(15).lognormal(0.0, 1.0, 12), scale_exponent))
    sol = solve_kl_dro_dual(s, 0.1)
    around = lambda mean: (np.nextafter(mean, -np.inf), mean, np.nextafter(mean, np.inf))
    pool = sorted(_candidates_keeping_their_noise(s, 2000, sol, around), key=lambda c: c[0].means[c[1]])
    rounded_up = max(pool, key=lambda c: c[0].assembled[c[1]] - c[0].means[c[1]])
    assert rounded_up[0].assembled[rounded_up[1]] > rounded_up[0].means[rounded_up[1]]
    for batch, j, bounds in (pool[0], pool[len(pool) // 2], rounded_up):
        _assert_keeps_its_noise(s, 2000, sol, batch, j, bounds)
        r = float(batch.kl[j])
        counts = []
        for bound in bounds:
            reference = _with_value(sol, _value_with_bound(bound))
            counts.append(random_feasible_probe(s, r, 2000, seed=0, reference=reference))
            assert counts[-1] == _unfiltered_probe(s, r, 2000, 0, reference), (j, bound)
        assert counts[0] == counts[1] < counts[2]


def test_all_zero_sample_certifies_a_value_of_zero():
    s = Sample([0.0, 0.0])
    report = verify_certificate(s, 0.5)
    assert report.passed and report.kl_gap == 0.0 and report.value == 0.0
    assert random_feasible_probe(s, 0.5, 100) == 0
    assert kl_projection_bruteforce(s, 0.5) == 0.0


def test_oracle_rejects_an_empty_grid_or_a_zero_radius():
    with pytest.raises(ValueError, match="grid_resolution must be positive"):
        kl_projection_bruteforce(Sample([1.0, 2.0]), 0.5, grid_resolution=0)
    with pytest.raises(ValueError, match="radius must be positive"):
        verify_certificate(Sample([1.0, 2.0]), 0.0)
