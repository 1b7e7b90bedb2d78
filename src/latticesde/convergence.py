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

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Configuration, estimate_growth_constant
from .ovsjannikov import norm_bound_series, norm_bound_series_log10, ovs_constant
from .sde import ModelSpec, PathEnsemble, simulate_coupled, simulate_truncated
from .spaces import weighted_sum

__all__ = [
    "MomentField",
    "moment_field",
    "z_norm",
    "moment_constants",
    "cauchy_constants",
    "moment_ceiling",
    "TailBoundReport",
    "tail_bound_check",
    "simulate_levels",
    "cauchy_pairs",
    "CauchyRow",
    "CauchyReport",
    "cauchy_table",
    "UniquenessReport",
    "uniqueness_crosscheck",
]


@dataclass(frozen=True, eq=False)
class MomentField:
    """Per-site sup-over-time Monte Carlo estimate of E|xi_x,t|^p."""

    config: Configuration
    p: float
    per_site: np.ndarray
    stderr: np.ndarray
    n_paths: int

    def __post_init__(self):
        if np.any(self.per_site < 0):
            raise ValueError("moment estimates must be nonnegative")


def moment_field(ensemble: PathEnsemble, p: float) -> MomentField:
    """Sitewise sup over the grid of the sample p-th absolute moment.

    Reads the path sums the simulator reduced at the model's moment order
    ``p``.  Standard errors come from the sample variance of |xi|^p at the
    maximizing grid node.  Ensembles with blow-up flags are rejected: their
    moments are meaningless.
    """
    if ensemble.has_blowup:
        raise ValueError("ensemble contains blown-up paths; moments are unusable")
    if p < 1:
        raise ValueError("need p >= 1")
    sums = _sums(ensemble, p)
    n = ensemble.n_paths
    means = sums.power / n                       # (nodes, sites)
    argmax = means.argmax(axis=0)
    sites = np.arange(ensemble.config.n_sites)
    per_site = means[argmax, sites]
    if n > 1:
        stderr = np.sqrt(sums.m2[argmax, sites] / (n - 1)) / math.sqrt(n)
    else:
        stderr = np.zeros(ensemble.config.n_sites)
    return MomentField(ensemble.config, float(p), per_site, stderr, n)


def _sums(ensemble: PathEnsemble, p: float):
    """The ensemble's reductions, checked to be at moment order ``p``."""
    if ensemble.sums is None:
        raise ValueError("the ensemble carries no reductions: it was not simulated")
    if ensemble.sums.p != p:
        raise ValueError(f"the ensemble was reduced at p = {ensemble.sums.p}, not {p}")
    return ensemble.sums


def z_norm(field: MomentField, alpha: float) -> float:
    """(sum_x e^(-alpha |x|) per_site_x)^(1/p), the upper-bound process norm."""
    return weighted_sum(field.config.radii, alpha, field.per_site) ** (1.0 / field.p)


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
    (ceiling, K, log10_K, L); the ceiling may be inf -- it stays a valid
    one-sided bound.
    """
    consts = moment_constants(model, T)
    p = model.p
    band_c = p**2 * (consts["A1"] + consts["A2"]) + consts["A3"]
    n_hat = estimate_growth_constant(config) if config.n_sites else 1.0
    L = ovs_constant(band_c, 4.0, n_hat, config.rho, a_low)
    K = norm_bound_series(L, T, 0.5, a_low, alpha)
    log10_K = norm_bound_series_log10(L, T, 0.5, a_low, alpha)
    weighted = weighted_sum(config.radii, a_low, np.abs(zeta.values) ** p + consts["A4"])
    return K * weighted if weighted else 0.0, K, log10_K, L


@dataclass(frozen=True)
class TailBoundReport:
    sup_sum: float
    plateau_ok: bool
    ceiling: float
    ceiling_ok: bool
    level_sums: tuple
    K: float
    log10_K: float
    L: float


def tail_bound_check(fields, alpha, *, model, zeta, a_low, T) -> TailBoundReport:
    """Uniform-in-level weighted moment sum against plateau and ceiling.

    ``sup_sum`` takes the max over levels sitewise before summing (matching
    the uniform bound being tested).  The plateau criterion asks that each of
    the last two level-to-level changes of the weighted sum stays below 5%
    relative; the ceiling is from :func:`moment_ceiling`.
    """
    fields = list(fields)
    if len(fields) < 3:
        raise ValueError("need at least 3 truncation levels")
    config = fields[0].config
    for f in fields:
        if f.config is not config:
            raise ValueError("fields live on different configurations")
    if not alpha > a_low:
        raise ValueError("need alpha > a_low")

    level_sums = tuple(weighted_sum(config.radii, alpha, f.per_site) for f in fields)
    stacked = np.stack([f.per_site for f in fields])
    sup_sum = weighted_sum(config.radii, alpha, stacked.max(axis=0))

    def rel_change(a, b):
        base = max(abs(b), 1e-300)
        return abs(b - a) / base

    plateau_ok = (
        rel_change(level_sums[-2], level_sums[-1]) < 0.05
        and rel_change(level_sums[-3], level_sums[-2]) < 0.05
    )
    ceiling, K, log10_K, L = moment_ceiling(model, config, zeta, a_low, alpha, T)
    return TailBoundReport(
        sup_sum=sup_sum,
        plateau_ok=plateau_ok,
        ceiling=ceiling,
        ceiling_ok=sup_sum <= ceiling,
        level_sums=level_sums,
        K=K,
        log10_K=log10_K,
        L=L,
    )


def cauchy_pairs(k: int) -> list:
    """The level pairs (n, m) a Cauchy table of ``k`` levels reports: consecutive
    levels, then every level against the last."""
    return [(j, j + 1) for j in range(k - 1)] + [(j, k - 1) for j in range(k - 2)]


def simulate_levels(
    model, config, levels, zeta, T, dt, n_paths, seed, scheme="tamed",
    noise_refine=1, threads=1, cauchy=True, keep_paths=False,
):
    """One coupled ensemble per nested truncation level, from one noise draw.

    With ``cauchy`` the level differences of :func:`cauchy_pairs` are reduced
    too, for :func:`cauchy_table`; ``keep_paths`` stores the path tensors.
    """
    levels = [np.asarray(lv, dtype=np.int64) for lv in levels]
    for smaller, larger in zip(levels, levels[1:]):
        if not set(smaller.tolist()) <= set(larger.tolist()):
            raise ValueError("truncation levels must be nested")
    return simulate_coupled(
        model, config, levels, zeta, T, dt, n_paths, seed, scheme=scheme,
        noise_refine=noise_refine, threads=threads,
        pairs=cauchy_pairs(len(levels)) if cauchy else (), keep_paths=keep_paths,
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
    alpha: float
    alpha_mid: float
    K: float
    log10_K: float
    L: float


def cauchy_table(ensembles, levels, alpha, *, fields, model, a_low) -> CauchyReport:
    """Pairwise level distances against the weighted tail dominator.

    For each pair (n, m) of :func:`cauchy_pairs` the distance is the weighted
    sum of the sitewise sup-over-time sample E|xi^n - xi^m|^p, read from the
    sums reduced from the coupled trajectories while they were stepped
    (identical levels therefore give exactly zero).
    The dominator charges only the sites thawed between the two levels:
    2^p K(mid, alpha) sum_{tail} e^(-mid |x|) * (max-over-level moment), with
    mid the midpoint weight between a_low and alpha.  ``fields`` are the
    p-th moment fields of the ensembles, one per level.
    """
    if not alpha > a_low:
        raise ValueError("need alpha > a_low")
    config = ensembles[0].config
    for e in ensembles:
        if e.seed != ensembles[0].seed or e.dt != ensembles[0].dt:
            raise ValueError("level ensembles must share one seed and grid")
        if e.config is not config:
            raise ValueError("level ensembles live on different configurations")
    p = model.p
    if len(fields) != len(ensembles) or any(f.p != p for f in fields):
        raise ValueError("need one p-th moment field per level ensemble")
    alpha_mid = 0.5 * (a_low + alpha)
    consts = cauchy_constants(model)
    # a negative B1 (strong dissipation) only helps, so the majorant drops it
    band_c = p**2 * max(consts["B1"], 0.0) + consts["B2"]
    n_hat = estimate_growth_constant(config) if config.n_sites else 1.0
    T = float(ensembles[0].times[-1])
    L = ovs_constant(band_c, 4.0, n_hat, config.rho, alpha_mid)
    K = norm_bound_series(L, T, 0.5, alpha_mid, alpha)
    log10_K = norm_bound_series_log10(L, T, 0.5, alpha_mid, alpha)

    moment_sup = np.stack([f.per_site for f in fields]).max(axis=0)

    k = len(ensembles)
    rows = []
    for n_idx, m_idx in cauchy_pairs(k):
        diffs = _sums(ensembles[n_idx], p).diffs
        if m_idx not in diffs:
            raise ValueError(
                f"levels {n_idx} and {m_idx} were not reduced together; "
                "simulate them with simulate_levels(..., cauchy=True)"
            )
        pair_sup = (diffs[m_idx] / ensembles[n_idx].n_paths).max(axis=0)
        dist = weighted_sum(config.radii, alpha, pair_sup)
        tail = np.setdiff1d(levels[m_idx], levels[n_idx])
        tail_sum = weighted_sum(config.radii[tail], alpha_mid, moment_sup[tail])
        dominator = 2.0**p * K * tail_sum if tail_sum else 0.0   # K may be inf
        rows.append(CauchyRow(n_idx, m_idx, dist, dominator))

    extremes = [r for r in rows if r.level_m == k - 1 and r.level_n < k - 1]
    extremes.sort(key=lambda r: r.level_n)
    decreasing_ok = True
    for earlier, later in zip(extremes, extremes[1:]):
        tied = np.array_equal(levels[earlier.level_n], levels[later.level_n])
        if tied or earlier.distance == 0.0:
            # identical truncations are coupled to identical paths, and a zero
            # distance (every weight underflowed) cannot decrease further
            decreasing_ok = decreasing_ok and later.distance == earlier.distance
        else:
            decreasing_ok = decreasing_ok and later.distance < earlier.distance
    dominated_ok = all(r.distance <= r.dominator for r in rows)
    return CauchyReport(
        rows=tuple(rows),
        decreasing_ok=decreasing_ok,
        dominated_ok=dominated_ok,
        alpha=alpha,
        alpha_mid=alpha_mid,
        K=K,
        log10_K=log10_K,
        L=L,
    )


@dataclass(frozen=True)
class UniquenessReport:
    disc_coarse: float    # distance between the dt and dt/2 runs
    disc_fine: float      # distance between the dt/2 and dt/4 runs
    ratio: float


def uniqueness_crosscheck(
    model, config, zeta, T, dt, n_paths, seed, alpha, scheme="tamed",
) -> UniquenessReport:
    """Grid-refinement agreement of the full-volume solution under shared noise.

    Three runs at dt, dt/2 and dt/4 are driven by one Brownian path per
    (path, site); the weighted distance between consecutive refinements is
    evaluated on the shared coarse grid, and their ratio estimates the strong
    convergence order (about 2 for deterministic dynamics, at least sqrt(2)
    with noise).  Shrinking discrepancies are the computable face of
    uniqueness: both refinements chase the same limit path.
    """
    full = np.arange(config.n_sites, dtype=np.int64)
    runs = []
    for factor, refine in ((1, 4), (2, 2), (4, 1)):
        runs.append(
            simulate_truncated(
                model, config, full, zeta, T, dt / factor, n_paths, seed,
                scheme=scheme, noise_refine=refine,
            )
        )
    p = model.p
    weights = np.exp(-alpha * config.radii)

    def distance(fine: PathEnsemble, coarse: PathEnsemble, stride: int) -> float:
        sub = fine.paths[:, :, ::stride]
        diff = np.abs(sub - coarse.paths) ** p
        site_time = diff.mean(axis=0)          # (sites, nodes)
        per_node = weights @ site_time
        return float(np.max(per_node)) ** (1.0 / p)

    disc_coarse = distance(runs[1], runs[0], 2)
    disc_fine = distance(runs[2], runs[1], 2)
    ratio = disc_coarse / disc_fine if disc_fine > 0 else math.nan
    return UniquenessReport(disc_coarse, disc_fine, ratio)
