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

from .core import DiscreteDistribution, Sample, _golden_max
from .dual import DualSolution, _exponents, primal_witness, solve_kl_dro_dual, witness_empirical_kl

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
BRUTEFORCE_RESTARTS = 32  # random simplex starting points of the brute-force search
# random_instances: sizes 1..INSTANCE_MAX_N, radii log-uniform on [INSTANCE_R_LO, INSTANCE_R_HI]
INSTANCE_MAX_N = 50
INSTANCE_R_LO, INSTANCE_R_HI = 1e-4, 2.0


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate check.

    Passing means: witness on the simplex, |empirical KL - r| <= 1e-8, value
    >= 0 and |witness mean - value| <= 1e-9 * value, and no probe violations:
    no random candidate with KL at most r and mean below value * (1 -
    PROBE_MARGIN). The probe builds only the candidates whose mean, assembled
    from their parts' means, can fall below that bound.
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
    """KL(w, q) for each row q of Q as one dot over its own contiguous row, so
    it does not depend on the batch (a boolean column mask returns strided rows)."""
    cols = np.flatnonzero(w)
    return np.vecdot(np.log(w[cols] / np.maximum(Q.take(cols, axis=1), 1e-300)), w[cols])


def _toward_feasible(good: np.ndarray, bad: np.ndarray, w: np.ndarray, r: float) -> np.ndarray:
    """The feasible point nearest `bad` on each segment from a feasible `good`
    to `bad` (rows broadcast), to 45 halvings of the mixing weight t: the
    feasible t form an interval containing 1, since KL(w, .) is convex."""
    lo = np.zeros((np.broadcast(good, bad).shape[0], 1))
    hi = lo + 1.0
    for _ in range(45):
        t = 0.5 * (lo + hi)
        ok = (_kl_rows(w, (1 - t) * bad + t * good) <= r)[:, None]
        lo, hi = np.where(ok, lo, t), np.where(ok, t, hi)
    return (1 - hi) * bad + hi * good


def kl_projection_bruteforce(
    s: Sample,
    r: float,
    grid_resolution: int = 600,
    seed: int = 0,
) -> float:
    """Best feasible objective found by randomized primal descent.

    Minimizes sum(q_i z_i) over simplex weights q on {0} union distinct(s)
    subject to the empirical KL constraint. Chains start from the empirical
    weights, from blind down-weighting tilts q ~ w/(gamma + z) over a log grid
    of gamma, and from BRUTEFORCE_RESTARTS random simplex points; each runs a
    penalized multiplicative subgradient iteration with diminishing steps.
    Candidates are repaired to feasibility and pushed toward the zero vertex
    before evaluation, so the returned value is always attained by a verified
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
    Q = np.vstack([w, tilts, rng.dirichlet(np.ones(m), size=BRUTEFORCE_RESTARTS)])
    Q = np.maximum(Q, 1e-12)
    Q /= Q.sum(axis=1, keepdims=True)
    R = Q.shape[0]
    beta = np.full(R, scale)

    e0 = np.zeros(m)
    e0[0] = 1.0

    def feasible_min(chains: np.ndarray) -> float:
        """Smallest mean after mixing infeasible rows toward the empirical
        weights and then moving every row as far toward the zero vertex as
        the ball allows (which always lowers the mean)."""
        chains = chains.copy()
        bad = _kl_rows(w, chains) > r
        if bad.any():
            chains[bad] = _toward_feasible(w, chains[bad], w, r)
        return float(np.min(_toward_feasible(chains, e0, w, r) @ vals))

    best = feasible_min(Q)
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
            best = min(best, feasible_min(Q))

    # derivative-free refinement within the tilt family: the repaired and
    # zero-pushed value is smooth in the tilt parameter, so a golden-section
    # sweep around the best coarse grid point closes the remaining gap
    def tilt_value(log_gamma: float) -> float:
        q = np.maximum(w, 1e-9) / (math.exp(log_gamma) + vals)
        return feasible_min(q[None, :] / q.sum())

    log_grid = np.log(gammas)
    coarse = [tilt_value(lg) for lg in log_grid]
    center = int(np.argmin(coarse))
    lo = log_grid[max(0, center - 1)]
    hi = log_grid[min(log_grid.size - 1, center + 1)]
    refined = tilt_value(_golden_max(lambda lg: -tilt_value(lg), lo, hi, 1e-10))
    return min(best, min(coarse), refined)


def random_feasible_probe(
    s: Sample,
    r: float,
    trials: int,
    seed: int = 0,
    reference: Optional[DualSolution] = None,
    witness: Optional[DiscreteDistribution] = None,
) -> int:
    """Count random feasible distributions with mean below the reference value.

    Candidates mix the witness, the empirical weights or their midpoint with
    Dirichlet noise on the support plus a synthetic point at twice the sample
    maximum, which can only raise the mean. A violation is a candidate with
    mean below value * (1 - PROBE_MARGIN) and KL at most r. Only candidates
    whose mean, assembled from their base's and their noise's means, falls
    within a rounding bound of that are built, and only their KL is
    evaluated; each built candidate's exact mean is one dot over its own row.
    The probe runs on the support scaled by a power of two, so it finds the
    same violations at every scale. Expected count for a correct solver: 0.
    `witness` defaults to the reference's.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if reference is None:
        reference = solve_kl_dro_dual(s, r)
    vals, w = _support_and_weights(s)
    if vals[-1] == 0.0:
        return 0
    if witness is None:
        witness = primal_witness(s, reference)

    # the support scaled by 2**-e to a maximum of at most 1, so the synthetic
    # point 2 * max neither overflows nor rounds, and every mean and the bound
    # are the unscaled ones times 2**-e; the witness lives on vals, the
    # support with zero included
    e = int(_exponents(vals[-1]))
    z = np.ldexp(vals, -e)
    z_ext = np.append(z, 2.0 * z[-1])
    w_ext = np.append(w, 0.0)
    wit_ext = np.append(witness.weights, 0.0)
    bases = np.vstack([wit_ext, w_ext, 0.5 * (wit_ext + w_ext)])
    base_means = bases @ z_ext
    m = z_ext.size
    rng = np.random.default_rng(seed)

    concentrations = [np.ones(m), np.concatenate([[5.0], np.ones(m - 1)]), np.concatenate([np.ones(m - 1), [5.0]])]
    bound = math.ldexp(reference.value, -e) * (1.0 - PROBE_MARGIN)
    # the screen's assembled mean and the exact mean each round a sum of
    # about m nonnegative terms totalling at most z_ext[-1], so they differ
    # by less than this
    slack = 4 * (m + 2) * np.finfo(float).eps * z_ext[-1]
    violations = 0
    done = 0
    batch = 4096
    while done < trials:
        count = min(batch, trials - done)
        noise = rng.dirichlet(concentrations[done % len(concentrations)], size=count)
        t = rng.uniform(0.0, 0.35, size=count)
        pick = rng.integers(0, bases.shape[0], size=count)
        near = np.flatnonzero((1.0 - t) * base_means[pick] + t * (noise @ z_ext) < bound + slack)
        t_near = t.take(near)[:, None]
        q = noise.take(near, axis=0)
        q *= t_near
        q += (1.0 - t_near) * bases.take(pick.take(near), axis=0)
        below = np.vecdot(q, z_ext) < bound
        violations += int(np.count_nonzero(below & (_kl_rows(w_ext, q) <= r)))
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
    violations = random_feasible_probe(s, r, probes, seed=seed, reference=sol, witness=witness)
    return CertificateReport(feasible, kl_gap, duality_gap, violations, sol.value)


def random_instances(count: int, seed: int):
    """Yield (sample, r) regression instances drawn from heavy- and light-tailed families.

    Families rotate through Pareto(2.5), standard lognormal, and a scaled
    Bernoulli; all-zero Bernoulli draws are re-signed to keep instances
    non-degenerate. Deterministic in (count, seed).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 250)))
    for i in range(count):
        n = int(rng.integers(1, INSTANCE_MAX_N + 1))
        family = i % 3
        if family == 0:
            values = (1.0 - rng.random(n)) ** (-1.0 / 2.5)
        elif family == 1:
            values = np.exp(rng.normal(0.0, 1.0, n))
        else:
            values = 2.0 * (rng.random(n) < 0.5)
            if values.max() == 0.0:
                values[0] = 2.0
        r = float(10.0 ** rng.uniform(math.log10(INSTANCE_R_LO), math.log10(INSTANCE_R_HI)))
        yield Sample(values), r
