"""Monte Carlo norms, moment ceilings and finite-volume convergence checks.

The process norm estimated here takes, per site, the sup over grid times of
the sample p-th absolute moment, then sums the weighted per-site values.
Commuting the sup with the site sum in this way gives an upper bound on the
sup-of-sum norm, which is exactly the quantity the theoretical ceilings
control, so all comparisons stay one-sided: estimates must fall below the
ceilings built from the declared model constants and the explicit series
majorant.  Those ceilings carry visible slack (they can exceed the float
range -- then they are reported as inf and their base-10 magnitude is echoed);
they are never treated as tight targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import estimate_growth_constant
from .ovsjannikov import norm_bound_series, norm_bound_series_log10, ovs_constant
from .sde import ModelSpec, PathEnsemble, cauchy_pairs
from .sde import simulate_truncated  # noqa: F401 -- bench/tracer.py wraps it under this name
from .spaces import weighted_sum

__all__ = [
    "moment_field",
    "z_norm",
    "moment_constants",
    "cauchy_constants",
    "moment_ceiling",
    "TailBoundReport",
    "tail_bound_check",
    "CauchyRow",
    "CauchyReport",
    "cauchy_table",
]


def moment_field(ensemble: PathEnsemble) -> PathEnsemble:
    """The ensemble, whose ``moment`` and ``stderr`` are its sitewise sup over
    the grid of the sample p-th absolute moment and that mean's standard error;
    ValueError if it has blown-up paths, whose moments are meaningless."""
    if ensemble.has_blowup:
        raise ValueError("ensemble contains blown-up paths; moments are unusable")
    return ensemble


def z_norm(ensemble: PathEnsemble, alpha: float) -> float:
    """(sum_x e^(-alpha |x|) moment_x)^(1/p), the upper-bound process norm."""
    return weighted_sum(ensemble.config.radii, alpha, ensemble.moment) ** (1.0 / ensemble.p)


def moment_constants(model: ModelSpec, T: float) -> dict:
    """Growth constants of the moment inequality chain for one truncation."""
    p, c = model.p, model.growth_c
    b = model.dissipativity_b
    m1, m2 = model.lipschitz_m1, model.lipschitz_m2
    abar = model.kernel.abar
    return {
        "A1": b + 1.0 + 2.0 ** (p - 1.0) * c**2,
        "A2": 4.0 * m1**2 + 4.0 * c**2 * 2.0 ** (p - 1.0),
        "A3": p * abar**2 + p**2 * 4.0 * m2**2,
        "A4": 5.0 * p**2 * 2.0**p * c**2 * T,
    }


def cauchy_constants(model: ModelSpec) -> dict:
    """Growth constants of the level-difference inequality chain."""
    p = model.p
    return {
        "B1": model.dissipativity_b + 1.0 + 2.0 * model.lipschitz_m1**2,
        "B2": p * model.kernel.abar**2 + 2.0 * p**2 * model.lipschitz_m2**2,
    }


def moment_ceiling(model, config, zeta, a_low, alpha, T):
    """Theoretical ceiling K(a_low, alpha) * sum e^(-a_low|x|)(|zeta_x|^p + A4).

    The majorant matrix of the moment chain is banded with entries bounded by
    (p^2 (A1 + A2) + A3) n_x^4, so its scale constant and the series majorant
    are fully determined by the declared model constants.  Returns
    (ceiling, log10 K); the ceiling may be inf -- it stays a valid one-sided
    bound.
    """
    consts = moment_constants(model, T)
    p = model.p
    band_c = p**2 * (consts["A1"] + consts["A2"]) + consts["A3"]
    n_hat = estimate_growth_constant(config) if config.n_sites else 1.0
    L = ovs_constant(band_c, 4.0, n_hat, config.rho, a_low)
    K = norm_bound_series(L, T, 0.5, a_low, alpha)
    log10_K = norm_bound_series_log10(L, T, 0.5, a_low, alpha)
    weighted = weighted_sum(config.radii, a_low, np.abs(zeta.values) ** p + consts["A4"])
    return K * weighted if weighted else 0.0, log10_K


@dataclass(frozen=True)
class TailBoundReport:
    sup_sum: float
    plateau_ok: bool
    ceiling: float
    ceiling_ok: bool
    level_sums: tuple
    log10_K: float


def tail_bound_check(ensembles, alpha, *, model, zeta, a_low) -> TailBoundReport:
    """Uniform-in-level weighted moment sum against plateau and ceiling.

    ``sup_sum`` takes the max over levels sitewise of the ensembles'
    ``moment`` before summing (matching the uniform bound being tested).  The
    plateau criterion asks that each of the last two level-to-level changes
    of the weighted sum stays below 5% relative; the ceiling is from
    :func:`moment_ceiling` at the ensembles' horizon.
    """
    ensembles = list(ensembles)
    if len(ensembles) < 3:
        raise ValueError("need at least 3 truncation levels")
    config = ensembles[0].config
    for e in ensembles:
        if e.config is not config:
            raise ValueError("level ensembles live on different configurations")
    if not alpha > a_low:
        raise ValueError("need alpha > a_low")

    level_sums = tuple(weighted_sum(config.radii, alpha, e.moment) for e in ensembles)
    stacked = np.stack([e.moment for e in ensembles])
    sup_sum = weighted_sum(config.radii, alpha, stacked.max(axis=0))

    def rel_change(a, b):
        return abs(b - a) / max(abs(b), 1e-300)

    plateau_ok = (
        rel_change(level_sums[-2], level_sums[-1]) < 0.05
        and rel_change(level_sums[-3], level_sums[-2]) < 0.05
    )
    T = float(ensembles[0].times[-1])
    ceiling, log10_K = moment_ceiling(model, config, zeta, a_low, alpha, T)
    return TailBoundReport(
        sup_sum=sup_sum,
        plateau_ok=plateau_ok,
        ceiling=ceiling,
        ceiling_ok=sup_sum <= ceiling,
        level_sums=level_sums,
        log10_K=log10_K,
    )


@dataclass(frozen=True)
class CauchyRow:
    level_n: int
    level_m: int
    distance: float
    dominator: float


@dataclass(frozen=True)
class CauchyReport:
    rows: tuple
    decreasing_ok: bool
    dominated_ok: bool


def cauchy_table(ensembles, alpha, *, model, a_low) -> CauchyReport:
    """Pairwise level distances against the weighted tail dominator.

    For each pair (n, m) of :func:`cauchy_pairs` the distance is the weighted
    sum of the sitewise sup-over-time sample E|xi^n - xi^m|^p, read from
    level n's ``diffs``, reduced from the coupled trajectories while they
    were stepped (identical levels therefore give exactly zero).
    The dominator charges only the sites thawed between the two levels:
    2^p K(mid, alpha) sum_{tail} e^(-mid |x|) * (max-over-level moment), with
    mid the midpoint weight between a_low and alpha, and the moment each
    level's ``moment``; each level's sites are its ensemble's active set.
    """
    if not alpha > a_low:
        raise ValueError("need alpha > a_low")
    config = ensembles[0].config
    for e in ensembles:
        if e.seed != ensembles[0].seed or e.dt != ensembles[0].dt:
            raise ValueError("level ensembles must share one seed and grid")
        if e.config is not config:
            raise ValueError("level ensembles live on different configurations")
        if e.p != model.p:
            raise ValueError("level ensembles must hold the model's p-th moments")
    p = model.p
    alpha_mid = 0.5 * (a_low + alpha)
    consts = cauchy_constants(model)
    # a negative B1 (strong dissipation) only helps, so the majorant drops it
    band_c = p**2 * max(consts["B1"], 0.0) + consts["B2"]
    n_hat = estimate_growth_constant(config) if config.n_sites else 1.0
    T = float(ensembles[0].times[-1])
    L = ovs_constant(band_c, 4.0, n_hat, config.rho, alpha_mid)
    K = norm_bound_series(L, T, 0.5, alpha_mid, alpha)

    moment_sup = np.stack([e.moment for e in ensembles]).max(axis=0)

    k = len(ensembles)
    rows = []
    for n_idx, m_idx in cauchy_pairs(k):
        diffs = ensembles[n_idx].diffs
        if m_idx not in diffs:
            raise ValueError(
                f"levels {n_idx} and {m_idx} were not reduced together; "
                "simulate them with sde.simulate_levels(..., cauchy=True)"
            )
        dist = weighted_sum(config.radii, alpha, diffs[m_idx])
        tail = np.setdiff1d(ensembles[m_idx].active, ensembles[n_idx].active,
                            assume_unique=True)
        tail_sum = weighted_sum(config.radii[tail], alpha_mid, moment_sup[tail])
        dominator = 2.0**p * K * tail_sum if tail_sum else 0.0   # K may be inf
        rows.append(CauchyRow(n_idx, m_idx, dist, dominator))

    extremes = [r for r in rows if r.level_m == k - 1 and r.level_n < k - 1]
    extremes.sort(key=lambda r: r.level_n)
    decreasing_ok = True
    for earlier, later in zip(extremes, extremes[1:]):
        tied = np.array_equal(ensembles[earlier.level_n].active, ensembles[later.level_n].active)
        if tied or earlier.distance == 0.0:
            # identical truncations are coupled to identical paths, and a zero
            # distance (every weight underflowed) cannot decrease further
            decreasing_ok = decreasing_ok and later.distance == earlier.distance
        else:
            decreasing_ok = decreasing_ok and later.distance < earlier.distance
    dominated_ok = all(r.distance <= r.dominator for r in rows)
    return CauchyReport(tuple(rows), decreasing_ok, dominated_ok)
