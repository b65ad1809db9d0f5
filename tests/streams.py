"""The stream contract as a formula: trial i of seed s is the uniforms U that
default_rng(SeedSequence((s, i))) draws, then the inverse-CDF transform. A
Pareto value is exp(log(1 - U) * (-1/shape)) * scale, which is within
4y + 2 ulp of the correctly rounded (1 - U)**(-1/shape) * scale, where
y = log(1/(1 - U)) / shape (montecarlo._transform derives the bound).

Test fixtures are built from it, not from the harness's own draw, so each is
the same sample whatever routine the harness draws with; the contract tests
hold montecarlo._draw_tiles and draw_sample to it.
"""

import numpy as np
from scipy.special import ndtri

from safemean import LogNormal, Pareto, ScaledBernoulli


def transform(spec, U: np.ndarray) -> np.ndarray:
    """The inverse-CDF transform of uniforms U, the harness's operations in the
    harness's order (the harness skips a Pareto * 1.0, which is exact)."""
    if isinstance(spec, Pareto):
        return np.exp(np.log(1.0 - U) * (-1.0 / spec.shape)) * spec.scale
    if isinstance(spec, LogNormal):
        return np.exp(ndtri(np.clip(U, 1e-16, 1.0 - 1e-16)) * spec.sigma + spec.mu)
    if isinstance(spec, ScaledBernoulli):
        return (U < spec.p) * spec.high
    return U * (spec.hi - spec.lo) + spec.lo


def reference_draw(spec, n: int, seed: int, index: int) -> np.ndarray:
    """Trial `index` of seed `seed`, n values in draw order."""
    return transform(spec, np.random.default_rng(np.random.SeedSequence((seed, index))).random(n))


def reference_block(spec, seed: int, start: int, rows: int, n: int) -> np.ndarray:
    """Trials start, ..., start + rows - 1 of seed `seed` as a (rows, n) array."""
    return np.array([reference_draw(spec, n, seed, start + j) for j in range(rows)])
