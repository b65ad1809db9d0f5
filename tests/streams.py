"""The stream contract as a formula: trial i of seed s is what
default_rng(SeedSequence((s, i))) draws, then the inverse-CDF transform.

Test fixtures are built from it, not from the harness's own draw, so each is
the same sample whatever routine the harness draws with; the contract tests
hold montecarlo._draw_tiles and draw_sample to it.
"""

import numpy as np
from scipy.special import ndtri

from safemean import LogNormal, Pareto, ScaledBernoulli


def reference_draw(spec, n: int, seed: int, index: int) -> np.ndarray:
    """Trial `index` of seed `seed`, n values in draw order."""
    u = np.random.default_rng(np.random.SeedSequence((seed, index))).random(n)
    if isinstance(spec, Pareto):
        return spec.scale * (1.0 - u) ** (-1.0 / spec.shape)
    if isinstance(spec, LogNormal):
        u = np.clip(u, 1e-16, 1.0 - 1e-16)
        return np.exp(spec.mu + spec.sigma * ndtri(u))
    if isinstance(spec, ScaledBernoulli):
        return np.where(u < spec.p, spec.high, 0.0)
    return spec.lo + (spec.hi - spec.lo) * u


def reference_block(spec, seed: int, start: int, rows: int, n: int) -> np.ndarray:
    """Trials start, ..., start + rows - 1 of seed `seed` as a (rows, n) array."""
    return np.array([reference_draw(spec, n, seed, start + j) for j in range(rows)])
