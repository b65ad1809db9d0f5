"""One-dimensional dual solver for worst-case means over KL balls.

The worst-case (smallest) mean over distributions Q with empirical KL
divergence KL(P_n, Q) <= r has the concave dual

    g(alpha) = exp(-r) * exp(mean_i log(alpha + z_i)) - alpha,   alpha >= 0.

The sign of g'(alpha) equals the sign of

    d(alpha) = mean_i log(alpha + z_i) + log(mean_i 1/(alpha + z_i)) - r,

which is nonincreasing and convex. One solver takes safeguarded Newton steps
on d, slope m1 - m2/m1 with m_k = mean (alpha + z)^-k, for a (batch, n) matrix
of samples scaled by powers of two; a single sample is a batch of one. Every
mean over a row is its own reduction (one BLAS dot per row, or numpy's mean),
so a row's value is bit-identical alone and inside any batch within one
process; rows of more than 10000 values can still round differently under
another OPENBLAS_NUM_THREADS, since OpenBLAS splits a long dot across threads.
The primal optimizer puts weight (1/n) * nu / (alpha* + z_i) on each sample
point plus an atom at zero, which certifies the solution; the value is that
witness's mean, which unlike nu - alpha* neither cancels nor goes negative.
A solution keeps its dual point and value in the 2**-e scale it was solved
in, and _witness rebuilds the witness, its mean and its empirical KL there,
so certificates hold from subnormal samples to 2**1021, even where alpha*
and nu themselves leave the float range.

Given a threshold, a batch solve decides each value's side of it. At any
iterate a, g(a) bounds the value from below. The law Q_a with weights
proportional to 1 / (a + z_i) has KL(P_n, Q_a) = f = d + r, so, KL being
convex in its second argument, the sample mixed with Q_a at weight
min(1, r / f) lies in the ball and its mean U bounds the value from above. A
row stops once [g(a), U] clears the threshold by _side_margin(threshold,
a + mean z) = 1e-9 (|threshold| + a + mean z), which covers the rounding of
both bounds; only undecided rows are solved to convergence.

Before any solve, kl_value_upper_bound bounds each value from above without
a logarithm, from the row's mean, sum of squares and maximum: it is the mean
of a chi-square tilt of the sample that lies in the ball, evaluated with a
lower bound on the variance and raised by its stated rounding. The Monte
Carlo harness decides the rows it puts below the threshold, most of those
whose mean exceeds it, before they reach the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteDistribution, Sample

__all__ = [
    "DualSolution",
    "DualSolverError",
    "solve_kl_dro_dual",
    "solve_kl_dro_dual_batch",
    "kl_value_upper_bound",
    "primal_witness",
]

# Constants in units of the row scale 2**e, where max z / 2**e lies in [0.5, 1).
_ZERO_START = 1e-12  # first point tried on a row that contains a zero
_ZERO_BRACKET_FLOOR = 1e-300  # no root is sought below this
_STEP_TOL = 1e-10  # Newton step relative to alpha; the error after it is of order its square
_FLAT_TOL = 8 * np.finfo(float).eps
_MAX_ITER = 200
# Values per batch solve: a 1 MB tile and its work buffer stay in a 2 MB per-core L2 cache.
_TILE_VALUES = 2**17


def _side_margin(threshold: float, size):
    """How far a certified bound must clear a threshold to decide a value's
    side of it, for bounds whose terms are of the given size."""
    return 1e-9 * (abs(threshold) + size)


def _tile_rows(n: int) -> int:
    """Rows of n values per tile: at least one, however long the row."""
    return max(1, _TILE_VALUES // max(1, n))


class DualSolverError(RuntimeError):
    """Numeric failure; a solve that did not converge carries its last bracket."""

    def __init__(self, message: str, bracket=None):
        super().__init__(message if bracket is None else f"{message} (last bracket: [{bracket[0]!r}, {bracket[1]!r}])")
        self.bracket = bracket


def _unscale(x: float, e: int) -> float:
    """x * 2**e, which reads inf past the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


@dataclass(frozen=True)
class DualSolution:
    """Solved dual instance, in the scale it was solved in: the sample divided
    by 2**exponent, whose maximum lies in [0.5, 1) (below 0.5 if subnormal).

    scaled_value = scaled_nu * mean(z_i / (scaled_alpha + z_i)) over the
    scaled sample z, which equals scaled_nu - scaled_alpha at the optimum, and
    scaled_nu = exp(mean log(scaled_alpha + z_i) - r); alpha_star, nu and
    value read them back at the sample's scale. The value never leaves the
    float range, but alpha_star and nu can (a sample near 1e300 at r = 1e-12
    has alpha_star near sigma / sqrt(2 r)) and then read inf, while the scaled
    copies that certificates use stay finite. atom is the probability the
    primal optimizer adds at zero (zero whenever alpha_star > 0).
    """

    exponent: int
    scaled_alpha: float
    scaled_nu: float
    scaled_value: float
    atom: float
    iterations: int

    alpha_star = property(lambda self: _unscale(self.scaled_alpha, self.exponent))
    nu = property(lambda self: _unscale(self.scaled_nu, self.exponent))
    value = property(lambda self: _unscale(self.scaled_value, self.exponent))


def _exponents(x: np.ndarray) -> np.ndarray:
    """Binary exponents e with x * 2**-e in [0.5, 1), so scaling a row by 2**-e is
    exact; the clamp keeps 2**-e finite for subnormal x."""
    return np.maximum(np.frexp(x)[1], -1021)


def _row_means(X: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """The mean of each row of X, values >= 0 whose row maxima are tops,
    held within the row's [min, max]: rounding can carry the mean of nearly
    equal values past them. A mean that is not finite (an overflowing sum)
    is left alone, so that it still raises where it is used.

    The minimum is read only on the rows where max <= m (1 + (n + 1)**2 eps)
    + n d, m the computed mean and d = 2**-1074, the only rows where m can
    leave [min, max]. A row with m > max is one of them. For m < min: with
    u = eps / 2, a sum of n values >= 0 in any order and its division by n
    leave m >= zbar (1 - g) - d / 2, g = n u / (1 - n u), zbar the exact
    mean; and zbar >= (max + (n - 1) min) / n. So m < min gives max <=
    n zbar - (n - 1) m < m (1 + n g / (1 - g)) + n d, where n g / (1 - g) =
    n**2 u / (1 - 2 n u) <= n**2 eps; the (2n + 1) eps to spare covers the
    rounding of the test itself.
    """
    n = X.shape[1]
    slack = 1.0 + (n + 1) ** 2 * np.finfo(float).eps
    with np.errstate(over="ignore"):
        means = X.sum(axis=1) / n  # X.mean(axis=1) bit for bit, without its overhead
        near = np.flatnonzero((tops <= means * slack + n * 5e-324) & (means < np.inf))
    if near.size:
        means[near] = np.clip(means[near], X[near].min(axis=1), tops[near])
    return means


def _solve_rows(X: np.ndarray, r: float, threshold=None):
    """Maximize the dual for every row of a (batch, n) matrix of samples.

    Each column carries probability 1/n, and each row is reduced on its own,
    so a row's results do not depend on the other rows. Returns each row's
    exponent e (the row is solved divided by 2**e) and, in that scale,
    alpha*, nu, the value, the atom and the iteration count; all-zero rows
    take no iterations and report zeros.
    With a threshold, a row whose bracket clears it reports the bound on
    that side as its value, and NaN as nu and atom.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    B, n = X.shape
    top = X.max(axis=1)
    if not np.isfinite(top).all():
        raise DualSolverError("non-finite sample value")
    e = _exponents(top)
    Z = X * np.ldexp(1.0, -e)[:, None]
    zmin = Z.min(axis=1)
    w = np.full(n, 1.0 / n)
    alpha, iterations = np.zeros(B), np.zeros(B, dtype=int)
    rows = np.flatnonzero(top)
    # Rows without a zero start at a = 0 (d(0) <= 0 means alpha* = 0). a_lo is
    # the largest point seen left of the root (on rows with a zero, the floor).
    # A subnormal minimum counts as a zero: the slope's 1/p would overflow at a = 0.
    zero = zmin[rows] < np.finfo(float).tiny
    a, a_lo = zero * _ZERO_START, zero * _ZERO_BRACKET_FLOOR
    a_hi = a_lo + np.inf
    T = np.empty_like(Z)
    value = np.full(B, np.nan)
    zbar = None if threshold is None else np.vecdot(Z, w)
    # Non-finite steps, from a = 0 or a vanishing slope, fail the bracket test.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, _MAX_ITER + 1):
            if rows.size == 0:
                break
            u = np.take(Z, rows, axis=0, out=T[: rows.size], mode="clip")  # "raise" buffers out
            u += a[:, None]
            # u = p / (a + z) with p = min(a + z) lies in (0, 1]: its means
            # v_k = p**k * m_k neither overflow nor underflow, and
            # d = log v1 - mean log u - r has no log(a + z) terms to cancel.
            p = a + zmin[rows]
            np.divide(p[:, None], u, out=u)
            v1 = np.vecdot(u, w)
            v2 = np.vecdot(u, u) / n
            mean_log_u = np.vecdot(np.log(u, out=u), w)
            f = np.log(v1) - mean_log_u  # d + r >= 0
            d = f - r
            slope = (v2 / v1 - v1) / p  # -d'(a) = m2/m1 - m1 >= 0
            a_lo = np.where(d > 0.0, a, a_lo)
            a_hi = np.where(d > 0.0, a_hi, a)
            # The Newton step on f**-1/2, exact where f ~ 1/a**2 (small r), or
            # in log a, along which d is linear near a = 0, when the step on d
            # is longer than a.
            nxt = a + (f + f) * (np.sqrt(f / r) - 1.0) / slope
            abs_d, a_slope = np.abs(d), a * slope
            far = abs_d > a_slope
            if np.count_nonzero(far):
                nxt = np.where(far & (a > 0.0), a * np.exp(d / a_slope), nxt)
            # strictly right of a_lo: a step that lands on it (a * exp(d / 0) = 0
            # once a + z rounds to a) would report that point as the root
            ok = (nxt > a_lo) & (nxt < a_hi)
            # Done once the Newton step is below the tolerance or |d| is within
            # rounding (log v1 and mean log u are <= 0, |log v1| <= |mean log u|).
            flat = _FLAT_TOL - 2.0 * _FLAT_TOL * mean_log_u
            done = abs_d <= np.maximum(flat, _STEP_TOL * a_slope)
            if np.count_nonzero(ok) < ok.size:
                # double (no point right of the root yet), shrink or bisect
                fallback = np.where(a_lo > _ZERO_BRACKET_FLOOR, 0.5 * (a_lo + a_hi), 1e-3 * a_hi)
                nxt = np.where(ok, nxt, np.where(a_hi == np.inf, np.maximum(2.0 * a, 1.0), fallback))
                if np.any((nxt > 0.0) & (nxt < _ZERO_BRACKET_FLOOR)):
                    raise DualSolverError("no positive lower bracket for the dual derivative")
                # after a rejected step only a flat d or a closed bracket ends
                # a row, as at a = 0 when d(0) <= 0
                done = (done & ok) | (abs_d <= flat) | (a_hi - a_lo <= _FLAT_TOL * a_lo)
            if zbar is not None:  # a NaN bound or margin decides nothing
                ex, mean_z = e[rows], zbar[rows]
                lower = np.exp(np.log(p) - mean_log_u - r) - a
                upper = mean_z - np.clip(r / f, 0.0, 1.0) * (mean_z - p / v1 + a)
                margin = _side_margin(threshold, np.ldexp(a + mean_z, ex))
                above = np.ldexp(lower, ex) > threshold + margin
                decided = above | (np.ldexp(upper, ex) < threshold - margin)
                value[rows[decided]] = np.where(above, lower, upper)[decided]
                done |= decided
            if np.count_nonzero(done):
                finished = rows[done]
                alpha[finished] = np.where(ok, nxt, a)[done]
                iterations[finished] = it
                rows, nxt, a_lo, a_hi = (x[~done] for x in (rows, nxt, a_lo, a_hi))
            a = nxt
    if rows.size:
        bracket = tuple(np.ldexp([a_lo[0], a_hi[0]], e[rows[0]]))
        raise DualSolverError(f"no convergence in {_MAX_ITER} iterations", bracket)

    # nu, value and atom at alpha* on undecided rows; all-zero rows are evaluated at alpha = 1.
    k = slice(None) if zbar is None else np.flatnonzero(np.isnan(value))
    Z, solved = Z[k], top[k] > 0.0
    # the value's cap, the row mean as estimate(mean) takes it, which at r ~ 1e-100 its rounding can pass
    mean = _row_means(Z, np.ldexp(top[k], -e[k]))
    a, T = alpha[k] + ~solved, T[: len(Z)]
    p = a + zmin[k]
    np.add(Z, a[:, None], out=T)
    witness_mass = np.vecdot(np.divide(Z, T, out=Z), w)
    v1 = np.vecdot(np.divide(p[:, None], T, out=T), w)
    nu, atom = np.full(B, np.nan), np.full(B, np.nan)
    nu[k] = np.exp(np.log(p) - np.vecdot(np.log(T, out=T), w) - r) * solved
    atom[k] = np.maximum(0.0, 1.0 - nu[k] * v1 / p) * solved
    value[k] = np.minimum(nu[k] * witness_mass, mean)
    if not np.isfinite(nu[k]).all():  # value <= nu and alpha <= nu
        raise DualSolverError("non-finite dual solution")
    return e, alpha, nu, value, atom, iterations


def _variance_bracket(means, sumsq, n: int):
    """Bounds (lo, hi) from the computed mean m and sum of squares s of rows
    of n values >= 0: lo is at most the variance sigma**2 about the exact mean
    zbar, and hi at least the variance about m, sigma**2 + (zbar - m)**2.

    With u = eps / 2, m is within n u of zbar and s within (n + 2) u of the
    exact sum of squares S, relative to their size, whatever the order of
    summation (a square below the smallest normal is off by u tiny <= u S / n
    at most). So, with delta = (n + 8) eps, lo = (s / n)(1 - delta) -
    m**2 (1 + delta) and hi = (s / n)(1 + delta) - m**2 (1 - delta) hold
    with their own rounding when m**2 and s / n are normal floats; each
    caller masks the other rows. Call it under np.errstate: squares can
    overflow.
    """
    delta = (n + 8) * np.finfo(float).eps
    msq, mm = sumsq / n, means * means
    return msq * (1.0 - delta) - mm * (1.0 + delta), msq * (1.0 + delta) - mm * (1.0 - delta)


def kl_value_upper_bound(means, sumsq, top, n: int, r: float) -> np.ndarray:
    """Certified upper bounds on the KL values of rows of n values, from each
    row's mean, sum of squares and maximum; NaN where none is certified.

    The chi-square tilt q_i = (1 - t (z_i - zbar) / sigma) / n has mean
    zbar - t sigma, and -log(1 + x) <= -x + x**2 / (2 (1 + min(x, 0))) gives
    KL(P_n, Q) <= t**2 / (2 (1 - t D / sigma)), D = max z - zbar. At the t
    where that equals r the weights are positive and the tilt lies in the
    ball, so its mean

        U = zbar - 2 r sigma**2 / (r D + sqrt(r**2 D**2 + 2 r sigma**2))

    is at least the value and at most zbar. It takes no logarithm. U falls as
    sigma**2 grows and rises as D grows, so a lower bound on sigma**2 and an
    upper bound on D keep it an upper bound.

    Rounding, with u = eps / 2: var, _variance_bracket's lo, is at most
    sigma**2, and with its delta, D = max - m (1 - delta) is at least
    (1 - u) D; the remaining operations and m's own error move U by less than
    (n + 11) u m, and (n + 16) eps m is added to it. The argument needs var
    and 2 r var to be normal floats, so that no product underflows; any other
    row, a constant or subnormal one or one whose sum of squares overflows
    (NaN or inf), gets NaN.
    """
    eps = np.finfo(float).eps
    delta = (n + 8) * eps
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        var = _variance_bracket(means, sumsq, n)[0]
        q = (2.0 * r) * var
        rd = r * (top - means * (1.0 - delta))
        upper = means - q / (rd + np.sqrt(rd * rd + q)) + (n + 16) * eps * means
    tiny = np.finfo(float).tiny
    return np.where((np.minimum(var, q) >= tiny) & (q < np.inf), upper, np.nan)


def solve_kl_dro_dual(s: Sample, r: float) -> DualSolution:
    """Maximize the dual over alpha >= 0 for one sample, with its certificate
    ingredients (nu, atom): a batch of one of the sorted sample, so the value
    is the one the batch solver gives that row anywhere in a batch."""
    return DualSolution(*(x[0].item() for x in _solve_rows(s.values[None, :], r)))


def solve_kl_dro_dual_batch(X: np.ndarray, r: float, threshold=None) -> np.ndarray:
    """Dual values for a batch of samples (rows of X), solved _TILE_VALUES at a time.

    With a threshold only each value's side of it is exact: a row whose
    certified bracket clears the threshold stops there and reports the bound
    on that side, strictly above or below the threshold as its value is.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a (batch, n) array")
    rows = _tile_rows(X.shape[1])
    tiles = (_solve_rows(X[i : i + rows], r, threshold) for i in range(0, max(1, len(X)), rows))
    return np.concatenate([np.ldexp(value, e) for e, _, _, value, *_ in tiles])  # a value <= max x stays finite


def _zero_first(v: np.ndarray, w: np.ndarray, atom: float = 0.0):
    """The layout of every witness and probe: the distinct values v with zero
    first, prepended when absent, and their weights w with atom added at zero."""
    if v[0] == 0.0:
        w = w.copy()
        w[0] += atom
        return v, w
    return np.concatenate(([0.0], v)), np.concatenate(([atom], w))


def _witness(s: Sample, sol: DualSolution):
    """The primal witness of a solution, computed in the solve's scale.

    Weight (1/n) * nu / (alpha* + z_i) sits on each distinct sample point
    z_i (duplicates summed) and the rest, if any, on zero, with the scaled
    alpha* and nu and z the sample divided by 2**exponent. Returns the
    support (the sample's distinct values, zero first), the weights,
    renormalized when the stationarity residual leaves a mass of
    1 + O(1e-16), that mass before renormalizing, the witness mean in the
    solve's scale, and the empirical KL divergence mean log((alpha* + z_i) / nu).
    """
    v, w = s.weighted_support()
    if v[-1] == 0.0:
        return v, np.ones(1), 1.0, 0.0, 0.0
    alpha, nu = sol.scaled_alpha, sol.scaled_nu
    if alpha == 0.0 and v[0] == 0.0:
        raise DualSolverError("inconsistent solution: alpha = 0 with a zero observation")
    t = alpha + np.ldexp(v, -sol.exponent)
    weights = w * nu / t
    kl = float(np.dot(w, np.log(t / nu)))
    mass = float(weights.sum())
    if mass > 1.0:
        weights /= mass
    support, weights = _zero_first(v, weights, max(0.0, 1.0 - mass))
    return support, weights, max(mass, 1.0), float(np.dot(np.ldexp(support, -sol.exponent), weights)), kl


def primal_witness(s: Sample, sol: DualSolution) -> DiscreteDistribution:
    """Reconstruct the optimizing distribution from a dual solution (see
    _witness). Its mean equals the dual value and its empirical KL divergence
    from the sample equals the solve radius, which certifies optimality of
    both."""
    support, weights, _, _, _ = _witness(s, sol)
    return DiscreteDistribution(support, weights)


def witness_empirical_kl(s: Sample, sol: DualSolution) -> float:
    """Empirical KL divergence from the sample to the witness: mean log((alpha*+z_i)/nu)."""
    return _witness(s, sol)[4]

