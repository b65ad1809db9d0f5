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
from .dual import DualSolution, _unscale, _witness, _zero_first, primal_witness, solve_kl_dro_dual
from .dual import witness_empirical_kl  # noqa: F401 -- not called here; perfbench/spans.py wraps this name

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
    """Outcome of one certificate check, its gap and value in the solve's
    scale: the sample divided by 2**exponent, as in DualSolution.

    Passing means: witness on the simplex, |empirical KL - r| <= kl_tol (see
    verify_certificate), value >= 0 and |witness mean - value| <= 1e-9 * value,
    compared in that scale so neither side underflows, and no probe
    violations: no random candidate with KL at most r and mean below
    value * (1 - PROBE_MARGIN). The probe builds only the candidates whose
    mean, assembled from their parts' means, can fall below that bound.
    duality_gap and value read the scaled fields back at the sample's scale.
    """

    primal_feasible: bool
    kl_gap: float
    scaled_duality_gap: float
    probe_violations: int
    scaled_value: float
    exponent: int = 0
    kl_tol: float = KL_GAP_TOL

    duality_gap = property(lambda self: _unscale(self.scaled_duality_gap, self.exponent))
    value = property(lambda self: _unscale(self.scaled_value, self.exponent))

    @property
    def passed(self) -> bool:
        return (
            self.primal_feasible
            and self.kl_gap <= self.kl_tol
            and self.scaled_value >= 0.0
            and self.scaled_duality_gap <= DUALITY_GAP_TOL * abs(self.scaled_value)
            and self.probe_violations == 0
        )


def _support_and_weights(s: Sample):
    """Distinct sample values with empirical weights, zero first as in the witness."""
    return _zero_first(*s.weighted_support())


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


def _probe_noise(rng: np.random.Generator, count: int, m: int, batch: int) -> np.ndarray:
    """Gamma noise for probe batch number `batch`, a row per candidate:
    Gamma(1) = Exp(1) in every column, except Gamma(5) in the first column
    when batch % 3 == 1 and in the last when batch % 3 == 2. A row divided by
    its sum is Dirichlet with those concentrations. Both come from uniforms U
    on the 2**-53 grid, with 1 - U exact in [2**-53, 1]: Exp(1) = -log(1 - U),
    Gamma(5) = -log of a product of five (1 - U), at least 2**-265, so all are
    finite and >= 0. A row sums to 0 only if all its U are 0 (probability
    at most 2**(-53 m)); its screen mean is then NaN and it is not built."""
    G = rng.random((count, m))
    np.subtract(1.0, G, out=G)
    if batch % 3:
        G[:, 0 if batch % 3 == 1 else m - 1] = (1.0 - rng.random((5, count))).prod(axis=0)
    return np.negative(np.log(G, out=G), out=G)


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
    maximum, which can only raise the mean. The noise is drawn as raw gamma
    variates G (see _probe_noise); one (count, m) @ (m, 2) product gives each
    row's G @ z and its sum S, and a candidate is
    q = G * (t / S) + (1 - t) * base. A violation is a candidate with mean
    below value * (1 - PROBE_MARGIN) and KL at most r. Only candidates whose
    mean, assembled as (1 - t) * (base @ z) + t * (G @ z) / S, falls below
    that plus a rounding slack are built, and only their KL is evaluated;
    each built candidate's exact mean is one dot over its own row.

    The slack, 4 (m + 2) eps z_max, bounds |assembled - exact| with room to
    spare. With u = eps / 2, every term nonnegative, and mu = t (G @ z) / S
    + (1 - t) (base @ z) in exact sums over the computed S: a dot of m terms
    summed in any order errs by at most m u relative, so the assembled mean
    is within (m + 3) u of mu (G @ z, the divide and the multiply by t; base
    @ z and its multiply; the add), and so is the exact one (each built q_j
    is within 3 u of its exact value, then its dot). Hence they differ by
    at most (m + 3) eps mu, and mu <= z_max (1 + O(m u)), since S is within
    (m - 1) u of the row sum and the bases sum to 1.

    The probe runs in the reference's scale, on the support divided by
    2**exponent, so it finds the same violations at every scale. Expected
    count for a correct solver: 0.
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

    # the support in the reference's scale, a maximum below 1, so the
    # synthetic point 2 * max neither overflows nor rounds, and every mean is
    # in the scale of the reference's scaled value; the witness lives on vals,
    # the support with zero included
    z = np.ldexp(vals, -reference.exponent)
    z_ext = np.append(z, 2.0 * z[-1])
    w_ext = np.append(w, 0.0)
    wit_ext = np.append(witness.weights, 0.0)
    bases = np.vstack([wit_ext, w_ext, 0.5 * (wit_ext + w_ext)])
    base_means = bases @ z_ext
    m = z_ext.size
    z_and_ones = np.column_stack([z_ext, np.ones(m)])
    rng = np.random.Generator(np.random.SFC64(seed))

    bound = reference.scaled_value * (1.0 - PROBE_MARGIN)
    # a rounding bound on |assembled - exact mean|, derived above
    slack = 4 * (m + 2) * np.finfo(float).eps * z_ext[-1]
    violations = done = 0
    batch = 4096
    while done < trials:
        count = min(batch, trials - done)
        G = _probe_noise(rng, count, m, done // batch)
        t = rng.uniform(0.0, 0.35, size=count)
        pick = rng.integers(0, bases.shape[0], size=count)
        Gz, S = (G @ z_and_ones).T
        near = np.flatnonzero((1.0 - t) * base_means[pick] + t * (Gz / S) < bound + slack)
        t_near = t.take(near)
        q = G.take(near, axis=0)
        q *= (t_near / S.take(near))[:, None]
        q += (1.0 - t_near)[:, None] * bases.take(pick.take(near), axis=0)
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

    The witness's mass, its empirical KL divergence and its mean are taken in
    the solve's own scale (see dual._witness), so the check holds from
    subnormal samples to 2**1021; the report keeps the duality gap and the
    value in that scale too.
    `check_radius` overrides the radius the empirical KL is compared against;
    it exists so the checker itself can be exercised with a deliberately
    inconsistent radius (a negative control).

    The KL gap is held to KL_GAP_TOL * min(1, r), floored at a rounding bound
    B and capped at KL_GAP_TOL. In the solve's scale, with p = alpha* + min z,
    D = log((alpha* + max z) / p), n values of which m distinct, u = eps / 2:
    log nu = log p - mean log(p / (alpha* + z)) - r makes the exact KL r, each
    |log((alpha* + z) / nu)| <= D + r, and with log and exp within 4 ulp the
    solver's log nu errs by 11 u + 10 u |log p| + (n + 10) u D + u r and the
    witness's KL by 3 u + (m + 8) u (D + r); B = eps (8 + 8 |log p| +
    (n + m + 16) (D + r)) is above their sum.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    sol = solve_kl_dro_dual(s, r)
    witness = primal_witness(s, sol)
    _, weights, mass, mean, kl = _witness(s, sol)
    gap = abs(mean - sol.scaled_value)
    if s.max() == 0.0:
        # Degenerate all-zero sample: the constraint is slack at the optimum.
        return CertificateReport(True, 0.0, gap, 0, sol.scaled_value, sol.exponent)
    target = r if check_radius is None else check_radius
    # the mass before renormalizing, which a NaN or inf weight fails
    feasible = bool(np.all(weights >= 0.0)) and abs(mass - 1.0) <= 1e-10
    violations = random_feasible_probe(s, r, probes, seed=seed, reference=sol, witness=witness)
    p, top = np.ldexp(s.values[[0, -1]], -sol.exponent) + sol.scaled_alpha
    m = s.weighted_support()[0].size
    bound = np.finfo(float).eps * (8 + 8 * abs(math.log(p)) + (s.n + m + 16) * (math.log(top / p) + r))
    tol = min(KL_GAP_TOL, max(KL_GAP_TOL * min(1.0, r), bound))
    return CertificateReport(feasible, abs(kl - target), gap, violations, sol.scaled_value, sol.exponent, tol)


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
