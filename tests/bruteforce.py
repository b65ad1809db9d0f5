"""A brute-force primal search for the smallest mean over a KL ball, the
independent check that criterion 2 and tests/test_oracle.py hold the dual
solver to.

It shares no code with the solver in safemean.dual or with the probe in
safemean.oracle: it reads only Sample and the golden-section search
core._golden_max from the package, and has its own _kl_rows and its own
zero-first support layout.
"""

import math

import numpy as np

from safemean.core import Sample, _golden_max

MAX_ORACLE_SUPPORT = 64
BRUTEFORCE_RESTARTS = 32  # random simplex starting points of the brute-force search


def _kl_rows(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """KL(w, q) for each row q of Q, one dot over each contiguous row."""
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
    vals, w = s.weighted_support()
    if vals[0] != 0.0:  # zero first, with weight 0 when the sample has none
        vals, w = np.concatenate(([0.0], vals)), np.concatenate(([0.0], w))
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
