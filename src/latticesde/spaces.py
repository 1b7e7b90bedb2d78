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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Configuration, estimate_growth_constant

__all__ = [
    "ScaleParams",
    "WeightedSeq",
    "weighted_sum",
    "weighted_sums",
    "bounded_sums",
    "lp_norm",
    "verify_scale_monotonicity",
    "scale_monotonicity_verdicts",
    "degree_summability_check",
]

#: absolute slack absorbed by norm comparisons (rounding of compensated sums)
NORM_SLACK = 1e-12

_U = 2.0**-53    # unit roundoff of a double
_POW_PLAY = 2.0**-44   # relative play of a computed x^(1/p) and of its widening
_TINY = 2.0**-1070   # absolute play of a power near the subnormal range
_EXACT_TERMS = 256   # up to this many terms in all, fsum costs less than a bound


@dataclass(frozen=True)
class ScaleParams:
    """Weight interval [a_low, a_high], norm order p and time horizon T."""

    a_low: float
    a_high: float
    p: float
    T: float

    def __post_init__(self):
        if not (0.0 < self.a_low <= self.a_high):
            raise ValueError("need 0 < a_low <= a_high")
        if self.p < 1.0:
            raise ValueError("need p >= 1")
        if self.T <= 0.0:
            raise ValueError("need T > 0")

    def contains(self, a: float) -> bool:
        return self.a_low <= a <= self.a_high


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
    """Compensated sum of e^(-a |x|) v_x over sites with the given radii."""
    return math.fsum((np.exp(-a * radii) * values).tolist())


def weighted_sums(radii: np.ndarray, a: float, rows) -> list:
    """:func:`weighted_sum` of each row of ``rows`` (trial, site), e^(-a |x|) taken once."""
    return [math.fsum(row.tolist()) for row in np.exp(-a * radii) * rows]


def bounded_sums(weights: np.ndarray, rows: np.ndarray):
    """``(terms, lo, hi)``: the products ``weights * rows`` of nonnegative
    ``rows`` (row, site), and per row an interval [lo, hi] of doubles that
    holds the exact sum of its terms, so also their ``math.fsum``.

    The interval is the row's ``np.sum`` widened by 2 gamma_n + 4u, and by one
    more ulp for the rounding of the widening; a row whose sum is 0 has [0, 0].
    A row whose interval is not finite (an inf or NaN term, or a sum near the
    float maximum) is summed with ``math.fsum`` instead, lo = hi = its value,
    and so are all rows when they hold at most _EXACT_TERMS terms in all.
    ``fsum``'s OverflowError propagates.  ``weights`` are the e^(-a |x|).
    Callers overflow quietly under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    terms = weights * rows
    if terms.size <= _EXACT_TERMS:
        exact = np.array([math.fsum(row) for row in terms.tolist()])
        return terms, exact, exact
    sums = np.sum(terms, axis=1)
    nu = terms.shape[1] * _U
    play = 2.0 * nu / (1.0 - nu) + 4.0 * _U
    lo = np.nextafter(sums * (1.0 - play), 0.0)
    hi = np.nextafter(sums * (1.0 + play), np.inf)
    hi[sums == 0.0] = 0.0
    for i in np.flatnonzero(~np.isfinite(hi)):
        lo[i] = hi[i] = math.fsum(terms[i].tolist())
    return terms, lo, hi


def _power_bounds(lo, hi, p):
    """Doubles below and above ``x ** (1/p)``, as Python computes it, for any x in [lo, hi]."""
    low = np.power(lo, 1.0 / p) * (1.0 - _POW_PLAY) - _TINY
    high = np.power(hi, 1.0 / p) * (1.0 + _POW_PLAY) + _TINY
    return low, high


def lp_norm(z: WeightedSeq, a: float, p: float) -> float:
    """Weighted norm (sum_x e^(-a|x|) |z_x|^p)^(1/p)."""
    if a <= 0.0:
        raise ValueError("weight a must be > 0")
    if p < 1.0:
        raise ValueError("need p >= 1")
    return weighted_sum(z.config.radii, a, np.abs(z.values) ** p) ** (1.0 / p)


def _powed_sequences(z, alpha, beta, p):
    """The configuration of ``z``, a list of sequences, and their |z|^p as one (sequence, site) array."""
    if alpha >= beta:
        raise ValueError("need alpha < beta")
    if alpha <= 0.0:
        raise ValueError("weight a must be > 0")
    if p < 1.0:
        raise ValueError("need p >= 1")
    if not z:
        return None, np.zeros((0, 0))
    config = z[0].config
    if any(seq.config is not config for seq in z):
        raise ValueError("the sequences live on different configurations")
    return config, np.abs(np.stack([seq.values for seq in z])) ** p


def verify_scale_monotonicity(z, alpha: float, beta: float, p: float):
    """Evaluate (||z||_alpha, ||z||_beta) and check ||z||_beta <= ||z||_alpha.

    ``z`` is one :class:`WeightedSeq`, or a list of them on one
    configuration, checked together with one result each: the weights are
    taken once, and each sequence is summed with ``math.fsum`` on its own,
    so its result is bitwise that of a call with it alone.

    The comparison allows NORM_SLACK of absolute rounding play; the inequality
    itself is exact mathematics for alpha < beta.
    """
    if isinstance(z, WeightedSeq):
        return verify_scale_monotonicity([z], alpha, beta, p)[0]
    config, powed = _powed_sequences(z, alpha, beta, p)
    if config is None:
        return []
    out = []
    for sum_alpha, sum_beta in zip(weighted_sums(config.radii, alpha, powed),
                                   weighted_sums(config.radii, beta, powed)):
        norm_alpha, norm_beta = sum_alpha ** (1.0 / p), sum_beta ** (1.0 / p)
        out.append((norm_alpha, norm_beta, norm_beta <= norm_alpha + NORM_SLACK))
    return out


def scale_monotonicity_verdicts(z, alpha: float, beta: float, p: float) -> np.ndarray:
    """The verdicts of :func:`verify_scale_monotonicity` on a list of sequences, bitwise.

    Each norm is bounded from :func:`bounded_sums`; a verdict that holds on
    the whole interval is settled without ``fsum``, and only the sequences
    whose bounds reach the NORM_SLACK edge are summed exactly.
    """
    config, powed = _powed_sequences(z, alpha, beta, p)
    if config is None:
        return np.zeros(0, dtype=bool)
    w_alpha, w_beta = np.exp(-alpha * config.radii), np.exp(-beta * config.radii)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_low, alpha_high = _power_bounds(*bounded_sums(w_alpha, powed)[1:], p)
        beta_low, beta_high = _power_bounds(*bounded_sums(w_beta, powed)[1:], p)
        held = beta_high <= alpha_low + NORM_SLACK
        failed = beta_low > alpha_high + NORM_SLACK
    for i in np.flatnonzero(~(held | failed)):
        norm_alpha = math.fsum((w_alpha * powed[i]).tolist()) ** (1.0 / p)
        norm_beta = math.fsum((w_beta * powed[i]).tolist()) ** (1.0 / p)
        held[i] = norm_beta <= norm_alpha + NORM_SLACK
    return held


def _grid_partition_exponent(dim: int, rho: float) -> int:
    """Smallest integer k with sqrt(dim) / 2^k < rho."""
    k = math.floor(math.log2(math.sqrt(dim) / rho)) + 1
    # guard against boundary rounding of the log
    while math.sqrt(dim) / 2.0**k >= rho:
        k += 1
    while k > -64 and math.sqrt(dim) / 2.0 ** (k - 1) < rho:
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
    if a_low <= 0.0:
        raise ValueError("a_low must be > 0")
    partial_sum = weighted_sum(config.radii, a_low, config.degrees)
    # the formula still yields a finite tail for the empty window
    n_hat = estimate_growth_constant(config) if config.n_sites else 1.0

    k = _grid_partition_exponent(config.dim if config.dim else 1, config.rho)
    try:  # 1/a_low or N^3 may leave the float range
        m = math.ceil(max(1.0 / a_low, 2.0))
        kappa = (m - 1) / m
        x, d, n = math.exp(-kappa * a_low), -math.expm1(-kappa * a_low), float(m + 1)
        # x^N as one exp keeps its error at an ulp; the bracket divides by d
        # once per power, so no power of d underflows to 0
        bracket = (((x * (1 + 4 * x + x**2) / d + 3 * n * x * (1 + x)) / d
                    + 3 * n**2 * x) / d + n**3) / d
        tail = math.exp(-kappa * a_low * n) * bracket
    except OverflowError:
        tail = math.inf
    tail_bound = n_hat * 2.0 ** (k + 2) * tail
    return partial_sum, tail_bound
