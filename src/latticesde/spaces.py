"""Weighted sequence spaces over a configuration.

For a weight a > 0 and order p >= 1 the norm of a real sequence z indexed by
the sites is ``(sum_x exp(-a |x|) |z_x|^p)^(1/p)``.  Raising the weight can
only shrink the norm, which makes the family a scale; that monotonicity and
the summability of the degree sequence are the checkable facts this module
exposes.  Reported sums are exact sums correctly rounded (math.fsum), so the
scale inequalities can be asserted with tiny absolute slack instead of fuzz.
Verdicts on many sums are settled by :func:`bounded_sums` instead: a
``np.sum`` of nonnegative terms lies within a relative gamma_{n-1} of the
exact sum (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
section 4.2), so a verdict that holds over that interval is the one the
``fsum`` value gives, and ``fsum`` is called only on the rows it cannot settle.
Every site-weighted sum of the package is formed by these two functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Configuration, estimate_growth_constant

__all__ = [
    "WeightedSeq",
    "weighted_sum",
    "bounded_sums",
    "verify_scale_monotonicity",
    "degree_summability_check",
]

#: absolute slack absorbed by norm comparisons (rounding of compensated sums)
NORM_SLACK = 1e-12

_U = 2.0**-53    # unit roundoff of a double
_POW_PLAY = 2.0**-44   # relative play of a computed x^(1/p) and of its widening
_TINY = 2.0**-1070   # absolute play of a power near the subnormal range
_EXACT_TERMS = 256   # up to this many terms in all, fsum costs less than a bound


@dataclass(frozen=True)
class WeightedSeq:
    """One real value per configuration site."""

    config: Configuration
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.config.n_sites,):
            raise ValueError(
                f"values shape {values.shape} does not match configuration "
                f"with {self.config.n_sites} sites"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sequence entries must be finite")
        object.__setattr__(self, "values", values)


def weighted_sum(radii: np.ndarray, a: float, values) -> float:
    """Compensated sum of e^(-a |x|) v_x over sites with the given radii, the
    exact sum correctly rounded: inf where ``fsum`` overflows, as the
    nonnegative terms every caller passes then sum past the float range."""
    try:
        return math.fsum((np.exp(-a * radii) * values).tolist())
    except OverflowError:
        return math.inf


def bounded_sums(radii: np.ndarray, a: float, rows: np.ndarray):
    """``(lo, hi)``: per row of nonnegative ``rows`` (row, site) an interval of
    doubles that holds its exact weighted sum, so also its :func:`weighted_sum`.

    The interval is the ``np.sum`` of the row's terms e^(-a |x|) v_x widened
    by 2 gamma_n + 4u, and by one more ulp for the rounding of the widening; a
    row whose sum is 0 has [0, 0].  A row whose interval is not finite (an inf
    or NaN term, or a sum near the float maximum) is summed with
    :func:`weighted_sum` instead, lo = hi = its value, and so are all rows when
    they hold at most _EXACT_TERMS terms in all.  Callers overflow quietly under
    ``np.errstate(over="ignore", invalid="ignore")``.
    """
    if rows.size <= _EXACT_TERMS:
        exact = np.array([weighted_sum(radii, a, row) for row in rows])
        return exact, exact
    # terms lives until the return: freed before lo and hi are built, it left
    # verify's heap such that an address-space cap at its peak mostly ended in
    # numpy's SIGSEGV instead of MemoryError (test_out_of_memory_exits_2_or_runs_unchanged)
    terms = np.exp(-a * radii) * rows
    sums = np.sum(terms, axis=1)
    nu = rows.shape[1] * _U
    play = 2.0 * nu / (1.0 - nu) + 4.0 * _U
    lo = np.nextafter(sums * (1.0 - play), 0.0)
    hi = np.nextafter(sums * (1.0 + play), np.inf)
    hi[sums == 0.0] = 0.0
    for i in np.flatnonzero(~np.isfinite(hi)):
        lo[i] = hi[i] = weighted_sum(radii, a, rows[i])
    return lo, hi


def _power_bounds(lo, hi, p):
    """Doubles below and above ``x ** (1/p)``, as Python computes it, for any x in [lo, hi]."""
    low = np.power(lo, 1.0 / p) * (1.0 - _POW_PLAY) - _TINY
    high = np.power(hi, 1.0 / p) * (1.0 + _POW_PLAY) + _TINY
    return low, high


def verify_scale_monotonicity(config: Configuration, values, alpha: float, beta: float,
                              p: float) -> np.ndarray:
    """Per row of ``values`` (trial, site): whether ||z||_beta <= ||z||_alpha + NORM_SLACK.

    The verdict is the one the norms summed with ``math.fsum`` give; the
    slack absorbs their rounding, and the inequality itself is exact
    mathematics for alpha < beta.  Each norm is bounded from
    :func:`bounded_sums`; a verdict that holds on the whole interval is
    settled without ``fsum``, and only the rows whose bounds reach the
    NORM_SLACK edge are summed exactly.
    """
    if alpha >= beta:
        raise ValueError("need alpha < beta")
    if alpha <= 0.0:
        raise ValueError("weight a must be > 0")
    if p < 1.0:
        raise ValueError("need p >= 1")
    powed = np.abs(np.asarray(values, dtype=float)) ** p
    if powed.ndim != 2 or powed.shape[1] != config.n_sites:
        raise ValueError(f"values of shape {powed.shape} are not rows of {config.n_sites} sites")
    radii = config.radii
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_low, alpha_high = _power_bounds(*bounded_sums(radii, alpha, powed), p)
        beta_low, beta_high = _power_bounds(*bounded_sums(radii, beta, powed), p)
        held = beta_high <= alpha_low + NORM_SLACK
        failed = beta_low > alpha_high + NORM_SLACK
    for i in np.flatnonzero(~(held | failed)):
        norm_alpha = weighted_sum(radii, alpha, powed[i]) ** (1.0 / p)
        norm_beta = weighted_sum(radii, beta, powed[i]) ** (1.0 / p)
        held[i] = norm_beta <= norm_alpha + NORM_SLACK
    return held


def _grid_partition_exponent(dim: int, rho: float) -> int:
    """Smallest integer k with sqrt(dim) / 2^k < rho."""
    k = math.floor(math.log2(math.sqrt(dim) / rho)) + 1
    # guard against boundary rounding of the log; ldexp stays finite where 2^k does not
    while math.ldexp(math.sqrt(dim), -k) >= rho:
        k += 1
    while k > -64 and math.ldexp(math.sqrt(dim), 1 - k) < rho:
        k -= 1
    return k


def degree_summability_check(config: Configuration, a_low: float):
    """Window sum of e^(-a|x|) n_x plus a finite analytic tail bound.

    partial_sum is the exact weighted degree sum over the finite window.  The
    tail bound majorizes the contribution any sites outside the window could
    add, assuming the measured degree-growth constant keeps holding there:
    ``N_hat * 2^(k+2) * sum_{n>m} e^(-K a n) n^3`` with k the smallest integer
    such that sqrt(d)/2^k < rho, m = ceil(max(1/a, 2)) and K = (m-1)/m.  The
    series is summed in closed form: with x = e^(-K a), d = 1 - x and
    N = m + 1 it is x^N [N^3/d + 3N^2 x/d^2 + 3N x(1+x)/d^3 + x(1+4x+x^2)/d^4],
    all of whose terms are positive.  A bound past the float range is inf.
    """
    if not 0.0 < a_low < math.inf:
        raise ValueError(f"a_low must be finite and > 0, got {a_low!r}")
    partial_sum = weighted_sum(config.radii, a_low, config.degrees)
    # the formula still yields a finite tail for the empty window
    n_hat = estimate_growth_constant(config) if config.n_sites else 1.0

    k = _grid_partition_exponent(config.dim if config.dim else 1, config.rho)
    try:  # 1/a_low, N^3 or 2^(k+2) may leave the float range
        m = math.ceil(max(1.0 / a_low, 2.0))
        kappa = (m - 1) / m
        x, d, n = math.exp(-kappa * a_low), -math.expm1(-kappa * a_low), float(m + 1)
        # x^N as one exp keeps its error at an ulp; the bracket divides by d
        # once per power, so no power of d underflows to 0
        bracket = (((x * (1 + 4 * x + x**2) / d + 3 * n * x * (1 + x)) / d
                    + 3 * n**2 * x) / d + n**3) / d
        tail = math.exp(-kappa * a_low * n) * bracket
        tail_bound = n_hat * 2.0 ** (k + 2) * tail
    except OverflowError:
        tail_bound = math.inf
    return partial_sum, tail_bound
