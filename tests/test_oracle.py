import dataclasses
import math

import numpy as np
import pytest

from safemean import (
    Sample,
    kl_projection_bruteforce,
    random_feasible_probe,
    solve_kl_dro_dual,
    verify_certificate,
)
from safemean.dual import primal_witness
from safemean.oracle import PROBE_MARGIN, CertificateReport, _kl_rows, _support_and_weights, random_instances


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


def _unfiltered_probe_batches(s, trials, seed, reference):
    """The probe without its mean screen or its KL filter, on the unscaled
    support: yields every candidate, its mean (one dot over its own row), its
    KL divergence and its mean as the screen assembles it, batch by batch."""
    vals, w = _support_and_weights(s)
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
    rng = np.random.default_rng(seed)
    concentrations = [np.ones(m), np.concatenate([[5.0], np.ones(m - 1)]), np.concatenate([np.ones(m - 1), [5.0]])]
    done = 0
    while done < trials:
        count = min(4096, trials - done)
        noise = rng.dirichlet(concentrations[done % len(concentrations)], size=count)
        t = rng.uniform(0.0, 0.35, size=count)[:, None]
        pick = rng.integers(0, bases.shape[0], size=count)
        Q = (1.0 - t) * bases[pick] + t * noise
        assembled = (1.0 - t[:, 0]) * (bases @ vals_ext)[pick] + t[:, 0] * (noise @ vals_ext)
        yield Q, np.vecdot(Q, vals_ext), _kl_rows(w_ext, Q), assembled
        done += count


def _unfiltered_probe(s, r, trials, seed, reference):
    return sum(
        int(np.sum((kl <= r) & (means < reference.value * (1.0 - PROBE_MARGIN))))
        for _, means, kl, _ in _unfiltered_probe_batches(s, trials, seed, reference)
    )


def _value_with_bound(bound):
    """A reference value whose probe bound value * (1 - PROBE_MARGIN) is exactly `bound`."""
    value = bound / (1.0 - PROBE_MARGIN)
    for _ in range(8):
        if value * (1.0 - PROBE_MARGIN) == bound:
            return value
        value = np.nextafter(value, np.inf if value * (1.0 - PROBE_MARGIN) < bound else -np.inf)
    raise AssertionError(f"no value has bound {bound!r}")


@pytest.mark.parametrize("seed", [7, 11])
def test_probe_matches_unfiltered_loop_on_certify_instances(seed):
    # the certify benchmark's instances and probe seeds; the inflated
    # reference is a negative control with many candidates below it
    inflated_violations = 0
    for i, (s, r) in enumerate(random_instances(200, seed=seed)):
        if s.max() == 0.0:
            continue
        sol = solve_kl_dro_dual(s, r)
        for reference in (sol, dataclasses.replace(sol, value=1.5 * sol.value + 0.1)):
            got = random_feasible_probe(s, r, 10_000, seed=seed + i, reference=reference)
            assert got == _unfiltered_probe(s, r, 10_000, seed + i, reference)
        inflated_violations += got
    assert inflated_violations > 200_000


def test_probe_single_candidate_rounds_as_in_its_batch():
    # Each candidate's KL is one dot over its own contiguous row, so a lone
    # candidate below the reference gets its batch KL bit for bit. The radius
    # is set to the lowest-mean candidate's KL, so that candidate is counted
    # only if the probe's one-row KL is not an ulp above its batch KL.
    for sample_seed in range(15, 35):
        s = Sample(np.random.default_rng(sample_seed).lognormal(0.0, 1.0, 12))
        sol = solve_kl_dro_dual(s, 0.1)
        (Q, means, kl, _), = _unfiltered_probe_batches(s, 500, 0, sol)
        w = np.append(_support_and_weights(s)[1], 0.0)
        alone = np.array([_kl_rows(w, Q[j : j + 1])[0] for j in range(len(Q))])
        assert np.array_equal(alone, kl), sample_seed
    s = Sample(np.random.default_rng(15).lognormal(0.0, 1.0, 12))
    sol = solve_kl_dro_dual(s, 0.1)
    (Q, means, kl, _), = _unfiltered_probe_batches(s, 500, 0, sol)
    j, second = np.argsort(means)[:2]
    r = float(kl[j])
    reference = dataclasses.replace(sol, value=0.5 * (means[j] + means[second]) / (1.0 - PROBE_MARGIN))
    assert _unfiltered_probe(s, r, 500, 0, reference) == 1
    assert random_feasible_probe(s, r, 500, seed=0, reference=reference) == 1
    assert random_feasible_probe(s, r, 500, seed=0, reference=reference, witness=primal_witness(s, sol)) == 1


@pytest.mark.parametrize("scale_exponent", [-1000, 0, 1000])
def test_probe_boundary_candidate_matches_unfiltered_loop(scale_exponent):
    # The bound sits exactly at one candidate's mean, then one ulp either
    # side: the mean screen must never drop a candidate the exact test keeps.
    # The radius is that candidate's KL, so it counts only when strictly below.
    # The candidates: the lowest mean, the median, and the one whose screen
    # mean rounds furthest above its exact mean.
    s = Sample(np.ldexp(np.random.default_rng(15).lognormal(0.0, 1.0, 12), scale_exponent))
    sol = solve_kl_dro_dual(s, 0.1)
    (_, means, kl, assembled), = _unfiltered_probe_batches(s, 2000, 0, sol)
    rounded_up = np.argmax(assembled - means)
    assert assembled[rounded_up] > means[rounded_up]
    for j in (np.argmin(means), np.argsort(means)[len(means) // 2], rounded_up):
        r = float(kl[j])
        counts = []
        for bound in (np.nextafter(means[j], -np.inf), means[j], np.nextafter(means[j], np.inf)):
            reference = dataclasses.replace(sol, value=_value_with_bound(bound))
            counts.append(random_feasible_probe(s, r, 2000, seed=0, reference=reference))
            assert counts[-1] == _unfiltered_probe(s, r, 2000, 0, reference), (j, bound)
        assert counts[0] == counts[1] < counts[2]
