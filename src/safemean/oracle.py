"""Independent verification of the KL-ball dual solver.

Three layers: a brute-force primal search (projected/multiplicative
subgradient descent over the simplex with random and structured restarts), a
strong-duality certificate built from the reconstructed witness, and random
feasible probing that hunts for feasible distributions beating the reported
optimum. None of these reuse the dual solver's internals beyond its reported
(value, witness), so agreement certifies both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Sample
from .dual import DualSolution, primal_witness, solve_kl_dro_dual, witness_empirical_kl

__all__ = [
    "CertificateReport",
    "kl_projection_bruteforce",
    "verify_certificate",
    "random_feasible_probe",
    "random_instances",
]

KL_GAP_TOL = 1e-8
DUALITY_GAP_TOL = 1e-9
PROBE_MARGIN = 1e-7
MAX_ORACLE_SUPPORT = 64


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate check.

    Passing means: witness on the simplex, |empirical KL - r| <= 1e-8, value
    >= 0 and |witness mean - value| <= 1e-9 * value, and no probe violations.
    """

    primal_feasible: bool
    kl_gap: float
    duality_gap: float
    probe_violations: int
    value: float

    @property
    def passed(self) -> bool:
        return (
            self.primal_feasible
            and self.kl_gap <= KL_GAP_TOL
            and self.value >= 0.0
            and self.duality_gap <= DUALITY_GAP_TOL * abs(self.value)
            and self.probe_violations == 0
        )


def _support_and_weights(s: Sample):
    """Distinct sample values with empirical weights, zero prepended if absent."""
    vals, w = s.weighted_support()
    if vals[0] > 0.0:
        vals = np.concatenate([[0.0], vals])
        w = np.concatenate([[0.0], w])
    return vals, w


def _kl_rows(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    mask = w > 0
    return np.sum(w[mask] * np.log(w[mask] / np.maximum(Q[:, mask], 1e-300)), axis=1)


def _project_simplex_rows(Q: np.ndarray) -> np.ndarray:
    B, m = Q.shape
    S = np.sort(Q, axis=1)[:, ::-1]
    css = np.cumsum(S, axis=1) - 1.0
    idx = np.arange(1, m + 1)
    k = (S - css / idx > 0).sum(axis=1)
    tau = css[np.arange(B), k - 1] / k
    return np.maximum(Q - tau[:, None], 0.0)


def _repair_rows(Q: np.ndarray, w: np.ndarray, r: float) -> np.ndarray:
    """Mix infeasible rows toward the empirical weights until KL(w, q) <= r."""
    kl = _kl_rows(w, Q)
    bad = kl > r
    if bad.any():
        Qb = Q[bad]
        lo = np.zeros(Qb.shape[0])
        hi = np.ones(Qb.shape[0])
        for _ in range(45):
            t = 0.5 * (lo + hi)
            ok = _kl_rows(w, (1 - t[:, None]) * Qb + t[:, None] * w) <= r
            hi = np.where(ok, t, hi)
            lo = np.where(ok, lo, t)
        Q[bad] = (1 - hi[:, None]) * Qb + hi[:, None] * w
    return Q


def _push_to_zero(Q: np.ndarray, w: np.ndarray, r: float) -> np.ndarray:
    """Feasible line search toward the zero-support vertex (always lowers the mean)."""
    e0 = np.zeros(Q.shape[1])
    e0[0] = 1.0
    lo = np.zeros(Q.shape[0])
    hi = np.ones(Q.shape[0])
    for _ in range(45):
        t = 0.5 * (lo + hi)
        ok = _kl_rows(w, (1 - t[:, None]) * Q + t[:, None] * e0) <= r
        lo = np.where(ok, t, lo)
        hi = np.where(ok, hi, t)
    return (1 - lo[:, None]) * Q + lo[:, None] * e0


def kl_projection_bruteforce(
    s: Sample,
    r: float,
    grid_resolution: int = 600,
    restarts: int = 32,
    seed: int = 0,
) -> float:
    """Best feasible objective found by randomized primal descent.

    Minimizes sum(q_i z_i) over simplex weights q on {0} union distinct(s)
    subject to the empirical KL constraint. Chains start from the empirical
    weights, from blind down-weighting tilts q ~ w/(gamma + z) over a log grid
    of gamma, and from `restarts` random simplex points; each runs a penalized
    multiplicative subgradient iteration with diminishing steps. Candidates
    are repaired to feasibility and pushed toward the zero vertex before
    evaluation, so the returned value is always attained by a verified
    feasible distribution (an upper bound on the true minimum).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be positive")
    vals, w = _support_and_weights(s)
    m = vals.size
    if m > MAX_ORACLE_SUPPORT:
        raise ValueError(f"oracle handles at most {MAX_ORACLE_SUPPORT} support points, got {m}")
    if vals[-1] == 0.0:
        return 0.0

    rng = np.random.default_rng(seed)
    scale = max(1.0, float(vals[-1]))
    gammas = np.geomspace(1e-4 * scale, 1e3 * scale, 24)
    tilts = np.maximum(w, 1e-9)[None, :] / (gammas[:, None] + vals[None, :])
    tilts /= tilts.sum(axis=1, keepdims=True)
    Q = np.vstack([w, tilts, rng.dirichlet(np.ones(m), size=restarts)])
    Q = np.maximum(Q, 1e-12)
    Q /= Q.sum(axis=1, keepdims=True)
    R = Q.shape[0]
    beta = np.full(R, scale)

    best = math.inf

    def evaluate(chains: np.ndarray) -> None:
        nonlocal best
        feasible = _push_to_zero(_repair_rows(chains.copy(), w, r), w, r)
        candidate = float(np.min(feasible @ vals))
        if candidate < best:
            best = candidate

    evaluate(Q)
    eta0 = 1.0 / scale
    for k in range(grid_resolution):
        eta = eta0 / math.sqrt(k + 1.0)
        kl = _kl_rows(w, Q)
        grad = np.tile(vals, (R, 1))
        grad -= w[None, :] / np.maximum(Q, 1e-300) * (beta * (kl > r))[:, None]
        Q = Q * np.exp(-np.clip(eta * grad, -40.0, 40.0))
        Q = np.maximum(Q, 1e-300)
        Q /= Q.sum(axis=1, keepdims=True)
        if (k + 1) % 25 == 0:
            beta = np.where(_kl_rows(w, Q) > r, beta * 1.6, beta)
        if (k + 1) % 5 == 0 or k == grid_resolution - 1:
            evaluate(Q)

    # derivative-free refinement within the tilt family: the repaired and
    # zero-pushed value is smooth in the tilt parameter, so a golden-section
    # sweep around the best coarse grid point closes the remaining gap
    def tilt_value(log_gamma: float) -> float:
        q = np.maximum(w, 1e-9) / (math.exp(log_gamma) + vals)
        q = q[None, :] / q.sum()
        feasible = _push_to_zero(_repair_rows(q, w, r), w, r)
        return float((feasible @ vals)[0])

    log_grid = np.log(gammas)
    coarse = [tilt_value(lg) for lg in log_grid]
    center = int(np.argmin(coarse))
    lo = log_grid[max(0, center - 1)]
    hi = log_grid[min(log_grid.size - 1, center + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = tilt_value(x1), tilt_value(x2)
    for _ in range(60):
        if hi - lo < 1e-10:
            break
        if f1 > f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = tilt_value(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = tilt_value(x1)
    best = min(best, min(coarse), f1, f2)
    return best


def random_feasible_probe(
    s: Sample,
    r: float,
    trials: int,
    seed: int = 0,
    reference: Optional[DualSolution] = None,
) -> int:
    """Count random feasible distributions with mean below the reference value.

    Candidates are Dirichlet-style perturbations of the witness and of the
    empirical weights (plus a synthetic support point above the sample
    maximum, which can only raise the mean), rejection-checked against the KL
    constraint at radius r. Expected count for a correct solver: 0.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if reference is None:
        reference = solve_kl_dro_dual(s, r)
    vals, w = _support_and_weights(s)
    if vals[-1] == 0.0:
        return 0
    witness = primal_witness(s, reference)
    wit = np.zeros_like(w)
    for point, weight in zip(witness.support, witness.weights):
        idx = int(np.searchsorted(vals, point))
        wit[idx] = weight

    # synthetic point above the maximum: mass there only increases the mean
    vals_ext = np.concatenate([vals, [2.0 * vals[-1] + 1.0]])
    w_ext = np.concatenate([w, [0.0]])
    bases = np.vstack(
        [
            np.concatenate([wit, [0.0]]),
            w_ext,
            0.5 * (np.concatenate([wit, [0.0]]) + w_ext),
        ]
    )
    m = vals_ext.size
    rng = np.random.default_rng(seed)

    concentrations = [np.ones(m), np.concatenate([[5.0], np.ones(m - 1)]), np.concatenate([np.ones(m - 1), [5.0]])]
    violations = 0
    done = 0
    batch = 4096
    while done < trials:
        count = min(batch, trials - done)
        noise = rng.dirichlet(concentrations[done % len(concentrations)], size=count)
        t = rng.uniform(0.0, 0.35, size=count)[:, None]
        base = bases[rng.integers(0, bases.shape[0], size=count)]
        Q = (1.0 - t) * base + t * noise
        feasible = _kl_rows(w_ext, Q) <= r
        means = Q @ vals_ext
        violations += int(np.sum(feasible & (means < reference.value - PROBE_MARGIN)))
        done += count
    return violations


def verify_certificate(
    s: Sample,
    r: float,
    probes: int = 1000,
    seed: int = 0,
    check_radius: Optional[float] = None,
) -> CertificateReport:
    """Solve, reconstruct the witness, and check the full optimality certificate.

    `check_radius` overrides the radius the empirical KL is compared against;
    it exists so the checker itself can be exercised with a deliberately
    inconsistent radius (a negative control).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    sol = solve_kl_dro_dual(s, r)
    witness = primal_witness(s, sol)
    target = r if check_radius is None else check_radius
    if s.max() == 0.0:
        # Degenerate all-zero sample: the constraint is slack at the optimum.
        return CertificateReport(True, 0.0, abs(witness.mean() - sol.value), 0, sol.value)
    kl_gap = abs(witness_empirical_kl(s, sol) - target)
    duality_gap = abs(witness.mean() - sol.value)
    feasible = (
        bool(np.all(witness.weights >= 0.0))
        and abs(float(witness.weights.sum()) - 1.0) <= 1e-10
        and bool(np.all(np.isfinite(witness.weights)))
    )
    violations = random_feasible_probe(s, r, probes, seed=seed, reference=sol)
    return CertificateReport(feasible, kl_gap, duality_gap, violations, sol.value)


def random_instances(count: int, seed: int, max_n: int = 50, r_lo: float = 1e-4, r_hi: float = 2.0):
    """Yield (sample, r) regression instances drawn from heavy- and light-tailed families.

    Families rotate through Pareto(2.5), standard lognormal, and a scaled
    Bernoulli; all-zero Bernoulli draws are re-signed to keep instances
    non-degenerate. Deterministic in (count, seed).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 250)))
    for i in range(count):
        n = int(rng.integers(1, max_n + 1))
        family = i % 3
        if family == 0:
            values = (1.0 - rng.random(n)) ** (-1.0 / 2.5)
        elif family == 1:
            values = np.exp(rng.normal(0.0, 1.0, n))
        else:
            values = 2.0 * (rng.random(n) < 0.5)
            if values.max() == 0.0:
                values[0] = 2.0
        r = float(10.0 ** rng.uniform(math.log10(r_lo), math.log10(r_hi)))
        yield Sample(values), r
