"""Weighted sequence spaces over a configuration.

For a weight a > 0 and order p >= 1 the norm of a real sequence z indexed by
the sites is ``(sum_x exp(-a |x|) |z_x|^p)^(1/p)``.  Raising the weight can
only shrink the norm, which makes the family a scale; that monotonicity and
the summability of the degree sequence are the checkable facts this module
exposes.  Sums are accumulated with compensated summation (math.fsum) so the
scale inequalities can be asserted with tiny absolute slack instead of fuzz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._table import read_table, write_table
from .geometry import Configuration, estimate_growth_constant

__all__ = [
    "ScaleParams",
    "WeightedSeq",
    "weighted_sum",
    "weighted_sums",
    "lp_norm",
    "verify_scale_monotonicity",
    "degree_summability_check",
    "save_weighted_seq",
    "load_weighted_seq",
]

#: absolute slack absorbed by norm comparisons (rounding of compensated sums)
NORM_SLACK = 1e-12


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


def lp_norm(z: WeightedSeq, a: float, p: float) -> float:
    """Weighted norm (sum_x e^(-a|x|) |z_x|^p)^(1/p)."""
    if a <= 0.0:
        raise ValueError("weight a must be > 0")
    if p < 1.0:
        raise ValueError("need p >= 1")
    return weighted_sum(z.config.radii, a, np.abs(z.values) ** p) ** (1.0 / p)


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
    if alpha >= beta:
        raise ValueError("need alpha < beta")
    if alpha <= 0.0:
        raise ValueError("weight a must be > 0")
    if p < 1.0:
        raise ValueError("need p >= 1")
    if not z:
        return []
    config = z[0].config
    if any(seq.config is not config for seq in z):
        raise ValueError("the sequences live on different configurations")
    powed = np.abs(np.stack([seq.values for seq in z])) ** p
    out = []
    for sum_alpha, sum_beta in zip(weighted_sums(config.radii, alpha, powed),
                                   weighted_sums(config.radii, beta, powed)):
        norm_alpha, norm_beta = sum_alpha ** (1.0 / p), sum_beta ** (1.0 / p)
        out.append((norm_alpha, norm_beta, norm_beta <= norm_alpha + NORM_SLACK))
    return out


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
    series is summed until terms drop below 1e-15; it always terminates.
    """
    if a_low <= 0.0:
        raise ValueError("a_low must be > 0")
    partial_sum = weighted_sum(config.radii, a_low, config.degrees)
    # the formula still yields a finite tail for the empty window
    n_hat = estimate_growth_constant(config) if config.n_sites else 1.0

    k = _grid_partition_exponent(config.dim if config.dim else 1, config.rho)
    m = math.ceil(max(1.0 / a_low, 2.0))
    kappa = (m - 1) / m
    tail = 0.0
    n = m + 1
    while True:
        term = math.exp(-kappa * a_low * n) * n**3
        tail += term
        if term < 1e-15:
            break
        n += 1
    tail_bound = n_hat * 2.0 ** (k + 2) * tail
    return partial_sum, tail_bound


def save_weighted_seq(z: WeightedSeq, path) -> None:
    """CSV table: one 'site_index,value' row per site."""
    keys = [f"{i}," for i in range(z.config.n_sites)]
    write_table(path, "site_index,value", [("", keys, z.values)])


def load_weighted_seq(config: Configuration, path) -> WeightedSeq:
    """Read the CSV table, each row placed by its site index."""
    _, _, values = read_table(path, "site_index,value", "s", 1, n_sites=config.n_sites)
    return WeightedSeq(config, values[:, 0])
