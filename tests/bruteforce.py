"""A brute-force primal search for the smallest mean over a KL ball, the
independent check that criterion 2 and tests/test_oracle.py hold the dual
solver to.

It shares no code with the solver in safemean.dual or with the probe in
safemean.oracle: it reads only Sample from the package, refines its tilt with
scipy's bounded Brent search, and has its own _kl_rows and its own zero-first
support layout.
"""

import math

import numpy as np
from scipy.optimize import minimize_scalar

from safemean.core import Sample

MAX_ORACLE_SUPPORT = 64
BRUTEFORCE_RESTARTS = 32  # random simplex starting points of the brute-force search
SEARCH_BATCH = 4096  # the number of KL terms a round of _toward_feasible aims at


def _kl_rows(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """KL(w, q) for each q along the last axis of Q, one dot over each."""
    if not w.all():
        cols = np.flatnonzero(w)
        w, Q = w[cols], Q[..., cols]
    return np.vecdot(np.log(w / np.maximum(Q, 1e-300)), w)


def _toward_feasible(good: np.ndarray, bad: np.ndarray, w: np.ndarray, r: float) -> np.ndarray:
    """The feasible point nearest `bad` on each segment from a feasible `good`
    to `bad` (rows broadcast), to 2**-45 in the mixing weight t: the feasible
    t form an interval containing 1, since KL(w, .) is convex. Each round
    splits every row's interval [lo, lo + width] into 2**k parts, tests the
    2**k - 1 interior points in one _kl_rows call and moves lo past the
    infeasible ones. These are the dyadic points bisection tests, so any k
    ends on the interval of 45 halvings. k is 5 for a few short rows and
    falls to 1 as rows * columns nears SEARCH_BATCH, where the KL values, not
    the calls, take the time."""
    cols = np.flatnonzero(w)  # a column of weight 0 adds nothing to KL(w, .)
    g, b = np.atleast_2d(good)[:, None, cols], np.atleast_2d(bad)[:, None, cols]
    rows = max(g.shape[0], b.shape[0])
    bits = int(np.clip(np.log2(SEARCH_BATCH / (rows * cols.size)), 1, 5))
    lo, width, done = np.zeros((rows, 1)), 1.0, 0
    while done < 45:
        k = min(bits, 45 - done)
        done += k
        width /= 2**k
        t = (lo + width * np.arange(1.0, 2**k))[:, :, None]
        lo = lo + width * (_kl_rows(w[cols], (1 - t) * b + t * g) > r).sum(axis=1, keepdims=True)
    hi = lo + width
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

    def feasible_means(chains: np.ndarray) -> np.ndarray:
        """Each row's mean after mixing it toward the empirical weights if it
        is infeasible, and then moving it as far toward the zero vertex as the
        ball allows (which always lowers the mean)."""
        chains = chains.copy()
        bad = _kl_rows(w, chains) > r
        if bad.any():
            chains[bad] = _toward_feasible(w, chains[bad], w, r)
        return _toward_feasible(chains, e0, w, r) @ vals

    def feasible_min(chains: np.ndarray) -> float:
        return float(np.min(feasible_means(chains)))

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
    # zero-pushed value is smooth in the tilt parameter, so a bounded Brent
    # search around the best coarse grid point closes the remaining gap
    def tilt_values(log_gammas: np.ndarray) -> np.ndarray:
        q = np.maximum(w, 1e-9) / (np.exp(log_gammas)[:, None] + vals)
        return feasible_means(q / q.sum(axis=1, keepdims=True))

    def tilt_value(log_gamma: float) -> float:
        return float(tilt_values(np.array([log_gamma]))[0])

    log_grid = np.log(gammas)
    coarse = tilt_values(log_grid)
    center = int(np.argmin(coarse))
    lo = log_grid[max(0, center - 1)]
    hi = log_grid[min(log_grid.size - 1, center + 1)]
    refined = minimize_scalar(tilt_value, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10}).fun
    return min(best, min(coarse), refined)
