"""Banded operators on weighted l1 scales and the fixed-point machinery.

A banded operator Q lives on the neighbor relation of a configuration:
Q_{xy} can be nonzero only for y in B_x, and every entry obeys the growth
bound |Q_{xy}| <= C n_x^q.  Such an operator maps the weight-alpha space into
any weight-beta space with a Lipschitz constant that blows up like
L / (beta - alpha)^(1/2), where

    L = 4 exp(a_low * rho) * C * N^(q+1) * sqrt(1 + rho)

and N is the degree-growth constant of the configuration.  That square-root
order makes the Picard iteration for f(t) = z0 + int_0^t Q f(s) ds converge
on every interior weight level; for a linear Q the n-th iterate started from
the constant function z0 is exactly the truncated exponential series

    sum_{k<=n} t^k / k!  Q^k z0,

so iterates are computed term-by-term with no quadrature error, and the
remainder is controlled by the explicit series

    K = sum_n  L^n T^n (beta - alpha)^(-qn) n^(qn) / n!        (0^0 := 1)

which is finite whenever the order q is below one.  The comparison check
turns the domination statement -- any sub-solution of the integral
inequality with nonnegative kernel sits below the solution of the equation --
into a verifiable grid computation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._table import read_table, write_table
from .geometry import Configuration, band_sum, estimate_growth_constant
from .spaces import WeightedSeq, bounded_sums, weighted_sum

__all__ = [
    "BandedOperator",
    "GridFunction",
    "random_banded_operator",
    "ovs_constant",
    "verify_ovs_bound",
    "OvsBoundReport",
    "solve_linear_evolution",
    "norm_bound_series",
    "norm_bound_series_alt",
    "norm_bound_series_log10",
    "comparison_check",
    "ComparisonReport",
    "save_grid_function",
    "load_grid_function",
]

_ENTRY_TOL = 1e-9  # relative play when validating |Q_xy| <= C n_x^q
_WINDOW_NATS = 40.0  # window half-depth of the exact log-sum, in nats below the peak
_LOG_MAX = 709.782712893384  # log(sys.float_info.max), the largest log of a finite float
_CONTRACT_TERMS = 1 << 16  # doubles per buffer of a many-sequence matvec, 512 kB
_DIVERGED = "parameters lie outside the convergent series regime"


def _sum_by(index: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of terms[k] with index[k] == i, added in entry order."""
    return np.bincount(index, weights=terms, minlength=n).astype(float, copy=False)


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Sparse operator stored on the neighbor band of its configuration.

    ``vals[k]`` is Q at (``config.rows[k]``, ``config.indices[k]``), so
    ``(vals, config.indices, config.indptr)`` is Q in compressed-row form and
    its pattern lies in the band by construction.  ``band_constant`` (C) and
    ``band_exponent`` (q) certify the entry growth bound |Q_{xy}| <= C n_x^q;
    both are validated at construction time.
    """

    config: Configuration
    vals: np.ndarray = field(repr=False)
    band_constant: float
    band_exponent: float

    def __post_init__(self):
        vals = np.asarray(self.vals, dtype=float)
        if vals.shape != self.config.indices.shape:
            raise ValueError(f"vals must hold one value per band slot: shape {vals.shape}, "
                             f"band {self.config.indices.shape}")
        if not self.band_constant >= 0:
            raise ValueError("band_constant must be >= 0")
        if not self.band_exponent >= 1:
            raise ValueError("band_exponent must be >= 1")
        if not np.all(np.isfinite(vals)):   # NaN would pass the growth check
            raise ValueError("entries must be finite")
        rows = self.config.rows
        caps = (self.band_constant * self.config.degrees.astype(float) ** self.band_exponent)[rows]
        over = np.abs(vals) > caps * (1.0 + _ENTRY_TOL) + _ENTRY_TOL
        if np.any(over):
            i = int(np.argmax(over))
            raise ValueError(
                f"entry ({rows[i]},{self.config.indices[i]})={vals[i]} "
                f"violates |Q| <= C n_x^q = {caps[i]}"
            )
        object.__setattr__(self, "vals", vals)

    @property
    def n_sites(self) -> int:
        return self.config.n_sites

    def matvec(self, values: np.ndarray) -> np.ndarray:
        """Q applied along the last axis of ``values``; each sequence adds its
        entries in band order from 0.0, as it would alone.

        Many sequences are contracted column by column, a few at a time in
        site-major buffers of _CONTRACT_TERMS doubles by :func:`band_sum`:
        entry j of every row that has more than j entries is multiplied and
        added in place, over a prefix of the rows sorted by degree.
        """
        if values.ndim == 1:
            return _sum_by(self.config.rows, self.vals * values[self.config.indices], self.n_sites)
        order, columns = self._columns
        n = self.n_sites
        flat = values.reshape(math.prod(values.shape[:-1]), n)
        out = np.empty(flat.shape)
        width = max(1, min(len(flat), _CONTRACT_TERMS // max(1, n)))
        x, sums, terms = np.empty((3, n, width))
        for t in range(0, len(flat), width):
            block = flat[t : t + width]
            if len(block) < width:
                x, sums, terms = np.empty((3, n, len(block)))
            x[...] = block.T
            # the band's indices are site indices, as build_neighborhoods made them
            out[t : t + len(block), order] = band_sum(x, columns, sums, terms).T
        return out.reshape(values.shape)

    @cached_property
    def _columns(self):
        """Rows by falling degree, and per band column j the columns and values
        (as a column vector) of entry j of the rows with more than j."""
        counts = self.config.degrees
        order = np.argsort(-counts, kind="stable")
        starts = self.config.indptr[order]
        ranked = counts[order]
        columns = []
        for j in range(int(ranked[0]) if ranked.size else 0):
            entry = starts[: np.count_nonzero(ranked > j)] + j
            columns.append((self.config.indices[entry], self.vals[entry, None]))
        return order, columns

    def column_abs_sums(self) -> np.ndarray:
        return _sum_by(self.config.indices, np.abs(self.vals), self.n_sites)

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.vals >= 0.0))


def random_banded_operator(config, band_constant, band_exponent, seed, nonnegative=False):
    """Fill the whole neighbor band with entries u * C n_x^q, u uniform.

    u is drawn from (-1, 1), or (0, 1) when a nonnegative kernel is requested,
    one draw per band entry in row-major order.
    """
    rng = np.random.default_rng(seed)
    rows = config.rows
    # scalar pow per site: numpy's vectorized power can differ in the last bit
    caps = band_constant * np.array([float(n) ** band_exponent for n in config.degrees.tolist()])
    u = rng.uniform(0.0 if nonnegative else -1.0, 1.0, size=rows.size)
    return BandedOperator(config, caps[rows] * u, band_constant, band_exponent)


def ovs_constant(C, q, N_hat, rho, a_low) -> float:
    """Explicit scale-bound constant 4 e^(a_low rho) C N^(q+1) sqrt(1+rho); inf past floats."""
    if min(C, q, N_hat, rho, a_low) < 0:
        raise ValueError("all arguments must be nonnegative")
    try:
        return 4.0 * math.exp(a_low * rho) * C * N_hat ** (q + 1.0) * math.sqrt(1.0 + rho)
    except OverflowError:  # inf stays a valid one-sided constant
        return math.inf


@dataclass(frozen=True)
class OvsBoundReport:
    max_ratio: float
    bound: float
    ok: bool
    L: float


def verify_ovs_bound(Q: BandedOperator, alpha, beta, trials, seed, a_low=None) -> OvsBoundReport:
    """Measure sup ||Qz||_beta / ||z||_alpha over random z against the bound.

    The bound is L / (beta - alpha)^(1/2) with L from :func:`ovs_constant`,
    using the measured degree-growth constant of the configuration.  The
    report carries the measured maximum rather than asserting it: for
    configurations crowding the origin the stated constant can be beaten
    (the degree bound behind it loses strength where log(1+|x|) is small).
    """
    if alpha >= beta:
        raise ValueError("need alpha < beta")
    if a_low is None:
        a_low = alpha
    n_hat = estimate_growth_constant(Q.config)
    L = ovs_constant(Q.band_constant, Q.band_exponent, n_hat, Q.config.rho, a_low)
    bound = L / math.sqrt(beta - alpha)
    # all trials are drawn as one array (a Generator's draws do not depend on
    # how they are split)
    values = np.random.default_rng(seed).standard_normal((trials, Q.config.n_sites))
    max_ratio = _max_ratio(Q, values, alpha, beta)
    return OvsBoundReport(max_ratio, bound, max_ratio <= bound, L)


def _max_ratio(Q: BandedOperator, values: np.ndarray, alpha, beta) -> float:
    """Max of ||Q v||_beta / ||v||_alpha over the rows v of ``values`` with
    ||v||_alpha != 0, 0.0 if none; each norm a :func:`weighted_sum`.

    The operator is applied to as many rows at a time as fill one
    _CONTRACT_TERMS buffer of its matvec.  The sums are bounded
    (:func:`bounded_sums`), and only a row whose ratio can reach the largest
    lower bound of a ratio is summed exactly.
    """
    radii = Q.config.radii
    trials = len(values)
    denoms, numers = np.empty((2, trials)), np.empty((2, trials))   # rows lo, hi
    per_matvec = max(1, _CONTRACT_TERMS // max(1, Q.n_sites))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in range(0, trials, per_matvec):
            block = values[t : t + per_matvec]
            denoms[:, t : t + len(block)] = bounded_sums(radii, alpha, np.abs(block))
            numers[:, t : t + len(block)] = bounded_sums(radii, beta, np.abs(Q.matvec(block)))
        ratio_low, ratio_high = numers[0] / denoms[1], numers[1] / denoms[0]
        counted = denoms[1] != 0.0
        floor = np.fmax.reduce(ratio_low[counted], initial=0.0)   # NaN ratios never count
        max_ratio = 0.0
        for i in np.flatnonzero(counted & ~(ratio_high < floor) & ~(ratio_high <= 0.0)):
            denom = weighted_sum(radii, alpha, np.abs(values[i]))
            numer = weighted_sum(radii, beta, np.abs(Q.matvec(values[i])))
            max_ratio = max(max_ratio, numer / denom)
    return max_ratio


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values of a site-indexed function on a uniform time grid."""

    config: Configuration
    times: np.ndarray            # shape (n_nodes,)
    values: np.ndarray           # shape (n_nodes, n_sites)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be a nonempty, strictly increasing grid")
        if not np.all(np.isfinite(times)):   # NaN differences pass the check above
            raise ValueError("times must be finite")
        if values.shape != (times.size, self.config.n_sites):
            raise ValueError("values shape does not match grid and configuration")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _grid(T: float, n_nodes: int) -> np.ndarray:
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and > 0, got {T!r}")
    if n_nodes < 2:
        raise ValueError("need at least two grid nodes")
    return np.linspace(0.0, T, n_nodes)


def solve_linear_evolution(Q: BandedOperator, z0: WeightedSeq, T, tol, beta=0.0, n_nodes=33) -> GridFunction:
    """Iterate the Picard map until the grid increment falls below tol.

    The increment between consecutive iterates is measured in the weight-beta
    l1 norm, maximized over the grid (it peaks at t = T); iteration stops once
    two consecutive increments are below tol, which guards against a
    transiently small term of a nonnormal operator.  A hard cap derived from
    the plain l1 operator norm bounds the work; exceeding it, or an iterate
    whose norm leaves the float range, signals parameters outside the
    convergent regime and raises RuntimeError.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    times = _grid(T, n_nodes)
    opnorm = float(np.max(Q.column_abs_sums())) if Q.n_sites else 0.0
    # a huge operator diverges long before any cap; an infinite norm still gives an int
    max_iter = int(min(10 * (math.e * opnorm * T + 10), sys.maxsize - 1))
    if z0.config is not Q.config:
        raise ValueError("operator and sequence live on different configurations")
    radii = Q.config.radii
    # the grid sums t^k/k! Q^k z0 in k order, each term np.outer's products
    power, coeff = z0.values.copy(), np.ones(times.size)
    total = np.outer(coeff, power)
    term = np.empty_like(total)
    below = 0
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the increment
        for k in range(1, max_iter + 1):
            power = Q.matvec(power)
            coeff = coeff * times / k
            total += np.multiply(coeff[:, None], power, out=term)
            # the increment is t^k/k! times the fsum of the terms; its bounds
            # settle it unless they straddle tol or leave the float range
            lo, hi = bounded_sums(radii, beta, np.abs(power)[None])
            low, high = coeff[-1] * lo[0], coeff[-1] * hi[0]
            if not (math.isfinite(high) and (high < tol or low >= tol)):
                high = coeff[-1] * weighted_sum(radii, beta, np.abs(power))
            if not math.isfinite(high):
                raise RuntimeError(f"Picard iterate {k} left the float range; {_DIVERGED}")
            below = below + 1 if high < tol else 0
            if below >= 2:
                return GridFunction(Q.config, times, total)
    raise RuntimeError(f"no convergence within {max_iter} iterations; {_DIVERGED}")


def _log_term(n: int, log_a: float, q: float, per_term: bool) -> float:
    """log(A^n n^p / n!) with power p = q n (per_term) or q, and 0^p = 1 at n = 0."""
    if n == 0:
        return 0.0
    return n * log_a + (q * n if per_term else q) * math.log(n) - math.lgamma(n + 1)


def _series_A(L, T, q, alpha, beta) -> tuple[float, float]:
    """Validated A = L T / (beta-alpha)^q and the K terms' saddle point (inf past floats)."""
    if not 0.0 <= q < 1.0:
        raise ValueError("series order q must lie in [0, 1)")
    if not beta > alpha:
        raise ValueError("need beta > alpha")
    if not (L >= 0 and T >= 0):
        raise ValueError("need L >= 0 and T >= 0")
    A = L * T / (beta - alpha) ** q
    try:
        return A, math.exp((math.log(A) + q) / (1.0 - q)) if A else 0.0
    except OverflowError:
        return A, math.inf


def _log_sum(A: float, q: float, per_term: bool, start: float, cap=math.inf) -> tuple[float, float]:
    """(l(c), sum over n != c of e^(l(n) - l(c))), c the largest term of sum_n A^n n^p / n!.

    c is found by climbing from the saddle estimate ``start``.  The walk then
    goes outward from c until, on each side, a term is _WINDOW_NATS below
    l(c) and still falling: past it the log-terms are concave (for p = q n,
    q > 1/2, up to a dip of at most 2.3 nats over the first few indices), so
    the rest of the side stays under half an ulp of the sum.  A saddle term
    above ``cap`` bounds the sum from below: (inf, 0.0) is returned before
    anything is summed.
    """
    if not math.isfinite(start):
        return math.inf, 0.0
    log_a = math.log(A) if A else -math.inf
    c = int(start)
    top = _log_term(c, log_a, q, per_term)
    if top > cap:
        return math.inf, 0.0
    for step in (1, -1):
        while c + step >= 0:
            log_t = _log_term(c + step, log_a, q, per_term)
            if log_t <= top:
                break
            c, top = c + step, log_t
    floor = top - _WINDOW_NATS
    scaled = []
    for step in (1, -1):
        prev = top
        n = c + step
        while n >= 0:
            log_t = _log_term(n, log_a, q, per_term)
            scaled.append(math.exp(log_t - top))
            if log_t < floor and log_t < prev:
                break
            prev = log_t
            n += step
    return top, math.fsum(scaled)


def norm_bound_series(L, T, q, alpha, beta) -> float:
    """Explicit majorant K = sum_n L^n T^n (beta-alpha)^(-qn) n^(qn) / n!.

    Requires order q < 1 (the series can diverge at q = 1, which is rejected);
    0^0 counts as 1.  The terms are summed over the window around the largest
    one.  A sum past the float range is returned as math.inf -- the bound is
    still a valid (one-sided) ceiling, just not representable.
    """
    A, peak = _series_A(L, T, q, alpha, beta)
    top, rest = _log_sum(A, q, True, peak, _LOG_MAX)
    return math.exp(top) * (1.0 + rest) if top <= _LOG_MAX else math.inf


def norm_bound_series_alt(L, T, q, alpha, beta) -> float:
    """Variant with the level-gap penalty applied once, not per term.

    Evaluates (beta-alpha)^(-q) * sum_n (L T)^n n^q / n!; reported alongside
    the per-term version so the two conventions can be compared.
    """
    _series_A(L, T, q, alpha, beta)
    top, rest = _log_sum(L * T, q, False, L * T, _LOG_MAX)  # terms peak near n = L T
    return (math.exp(top) * (1.0 + rest) if top <= _LOG_MAX else math.inf) / (beta - alpha) ** q


def norm_bound_series_log10(L, T, q, alpha, beta) -> float:
    """Magnitude estimate log10(K), usable even when K overflows floats.

    Exact log-sum-exp over the window of terms around the largest one while
    the saddle point lies at index 1e6 or below; beyond it a saddle-point
    estimate (the peak term dominates the sum), inf if even that overflows.
    """
    A, peak = _series_A(L, T, q, alpha, beta)
    if peak > 1e6:
        return (1.0 - q) * peak / math.log(10.0)
    top, rest = _log_sum(A, q, True, peak)
    return (top + math.log1p(rest)) / math.log(10.0)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the sub-solution domination check."""

    hypothesis_ok: bool
    hypothesis_site: int | None
    hypothesis_time: float | None
    ok: bool | None          # None when the hypothesis already failed
    margin: float | None     # min over sites and grid nodes of f - g


def comparison_check(Q: BandedOperator, z0: WeightedSeq, g: GridFunction, slack=1e-9) -> ComparisonReport:
    """Check g <= solution of f = z0 + int Q f, for sub-solutions g.

    First the hypothesis inequality g_x(t) <= z0_x + [int_0^t Q g]_x is
    verified at every grid node, with the time integral evaluated by
    trapezoidal quadrature on g's own grid (slack absorbs quadrature and
    rounding).  Only when the hypothesis holds is the conclusion tested
    against the converged solution; the reported margin is the worst value of
    f - g over all sites and nodes.
    """
    if not Q.is_nonnegative():
        raise ValueError("comparison requires a nonnegative kernel")
    if np.any(z0.values < 0):
        raise ValueError("comparison requires nonnegative initial data")
    if g.config is not Q.config:
        raise ValueError("grid function lives on a different configuration")
    if g.times.size < 2 or g.times[0] != 0.0:   # the integral runs from t = 0
        raise ValueError("grid must start at t = 0 and have at least two nodes")
    steps = np.diff(g.times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniform")
    dt = steps[0]

    flow = Q.matvec(g.values)
    cumulative = np.zeros_like(g.values)
    cumulative[1:] = np.cumsum(0.5 * dt * (flow[1:] + flow[:-1]), axis=0)
    rhs = z0.values[None, :] + cumulative
    deficit = rhs - g.values
    worst = np.unravel_index(np.argmin(deficit), deficit.shape)
    if deficit[worst] < -slack:
        return ComparisonReport(
            hypothesis_ok=False,
            hypothesis_site=int(worst[1]),
            hypothesis_time=float(g.times[worst[0]]),
            ok=None,
            margin=None,
        )

    f = solve_linear_evolution(Q, z0, float(g.times[-1]), 1e-12, n_nodes=g.times.size)
    margin = float(np.min(f.values - g.values))
    return ComparisonReport(
        hypothesis_ok=True,
        hypothesis_site=None,
        hypothesis_time=None,
        ok=margin >= -slack,
        margin=margin,
    )


def _grid_sites(config) -> int:
    """The site count of a grid table, which holds its time nodes only in site rows."""
    if not config.n_sites:
        raise ValueError("a grid table needs a site: with none it would lose its time nodes")
    return config.n_sites


def save_grid_function(f: GridFunction, path) -> None:
    """CSV table 't,site_index,value': one block of site rows per time node."""
    sites = [f",{i}," for i in range(_grid_sites(f.config))]
    blocks = ((repr(t), sites, row) for t, row in zip(f.times.tolist(), f.values))
    write_table(path, "t,site_index,value", blocks)


def load_grid_function(config, path) -> GridFunction:
    """Read the CSV table, each time node's rows placed by their site index."""
    n = _grid_sites(config)
    _, keys, values = read_table(path, "t,site_index,value", "fs", 1, n_sites=n)
    return GridFunction(config, keys[::n, 0], values.reshape(-1, n))
