"""Reference implementations and diagnostics that only the tests run, written
for clarity, not speed; none of the four subcommands calls them."""

import math
from dataclasses import dataclass

import numpy as np

from latticesde.geometry import Configuration
from latticesde.ovsjannikov import _WINDOW_NATS, BandedOperator, GridFunction, _grid
from latticesde.sde import ModelSpec, PathEnsemble, _noise_block, _NoiseSource, simulate_truncated
from latticesde.spaces import WeightedSeq, weighted_sum


def libm(fn, values) -> np.ndarray:
    """``fn`` of each element from the C library: the weights exp(-a |x|) and
    the log1p of the growth constant as the package takes them."""
    return np.array([fn(v) for v in np.asarray(values, dtype=float).tolist()])


def log_term(n: int, log_a: float, q: float, per_term: bool) -> float:
    """log(A^n n^p / n!) with power p = q n (per_term) or q, and 0^p = 1 at n = 0."""
    if n == 0:
        return 0.0
    return n * log_a + (q * n if per_term else q) * math.log(n) - math.lgamma(n + 1)


def log_sum(A: float, q: float, per_term: bool, start: float, cap=math.inf):
    """``(top, rest, last)``: the bound series' window sum one term at a time,
    with ``math.lgamma`` for every log n!, and the largest index it summed.

    top is l(c), c the largest term of sum_n A^n n^p / n! found by climbing
    from ``start``, and rest the fsum over n != c of e^(l(n) - l(c)); a side
    ends at the first term _WINDOW_NATS below l(c) and still falling.  A
    saddle term above ``cap`` gives (inf, 0.0, -1) before anything is summed.
    """
    if not math.isfinite(start):
        return math.inf, 0.0, -1
    log_a = math.log(A) if A else -math.inf
    c = int(start)
    top = log_term(c, log_a, q, per_term)
    if top > cap:
        return math.inf, 0.0, -1
    for step in (1, -1):
        while c + step >= 0:
            log_t = log_term(c + step, log_a, q, per_term)
            if log_t <= top:
                break
            c, top = c + step, log_t
    floor = top - _WINDOW_NATS
    scaled, last = [], c
    for step in (1, -1):
        prev = top
        n = c + step
        while n >= 0:
            log_t = log_term(n, log_a, q, per_term)
            scaled.append(math.exp(log_t - top))
            last = max(last, n)
            if log_t < floor and log_t < prev:
                break
            prev = log_t
            n += step
    return top, math.fsum(scaled), last


def write_table_per_row(path, header, blocks, sep=",") -> None:
    """The table writer as one f-string per row; ``zip`` stops at the shortest input."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for prefix, keys, *columns in blocks:
            columns = [np.asarray(c, dtype=float).tolist() for c in columns]
            fh.write("".join(f"{prefix}{k}{sep.join(map(repr, v))}\n" for k, *v in zip(keys, *columns)))


def lexsort_band(points, rho):
    """``(indptr, indices, distances)`` of the closed-ball band, ordered by ``np.lexsort``.

    All pairs are formed column by column and cut to rho, so the sort by row,
    then column, has every pair to move.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    cols, rows = (grid.ravel() for grid in np.indices((n, n), dtype=np.int64))
    diff = points[cols] - points[rows]
    d2 = np.einsum("ij,ij->i", diff, diff)
    inside = d2 <= rho * rho
    rows, cols, d2 = rows[inside], cols[inside], d2[inside]
    band = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[band], np.sqrt(d2[band])


def drift(model: ModelSpec, x: int, q: float, Z: WeightedSeq) -> float:
    """Phi_x(q, Z) = V(q) + sum_{y in B_x} a(x-y) z_y (self term included)."""
    config = Z.config
    band = config.row(x)
    weights = model.kernel(config.distances[band])
    return float(model.potential(q)) + float(np.dot(weights, Z.values[config.indices[band]]))


def diffusion(model: ModelSpec, x: int, q: float, Z: WeightedSeq) -> float:
    """Psi_x(q, Z) = sigma0 + sigma1 q + sigma2 n_x sum_{y in B_x} z_y."""
    config = Z.config
    band = config.row(x)
    return float(
        model.sigma0
        + model.sigma1 * q
        + model.sigma2 * (band.stop - band.start) * np.sum(Z.values[config.indices[band]])
    )


def a_tilde(model: ModelSpec, config: Configuration) -> np.ndarray:
    """Per-site kernel l2 mass (sum_{y in B_x} a^2(x-y))^(1/2)."""
    w = model.kernel(config.distances)
    return np.sqrt(np.bincount(config.rows, weights=w * w, minlength=config.n_sites))


@dataclass(frozen=True)
class DissipativityReport:
    c_ok: bool
    d_ok: bool
    e_ok: bool
    witnesses: tuple

    @property
    def all_ok(self) -> bool:
        return self.c_ok and self.d_ok and self.e_ok


def check_dissipativity(model: ModelSpec, samples, q_range, seed, config=None) -> DissipativityReport:
    """Validate the declared (c, R, b, M1, M2) against the functional forms.

    The one-sided Lipschitz condition is settled analytically for the
    built-in potentials (the cubic decay term is monotone, the linear one is
    exact) and then confirmed on random pairs; growth and the diffusion
    Lipschitz condition are sampled.  Violations come back as witnesses, not
    exceptions.
    """
    if q_range <= 0 or samples < 1:
        raise ValueError("need q_range > 0 and samples >= 1")
    rng = np.random.default_rng(seed)
    slack = 1e-9
    witnesses = []

    qs = rng.uniform(-q_range, q_range, size=samples)
    v = model.potential(qs)
    c_ok = True
    bad = np.abs(v) > model.growth_c * (1.0 + np.abs(qs) ** model.growth_R) + slack
    if np.any(bad):
        c_ok = False
        i = int(np.argmax(bad))
        witnesses.append(("C", {"q": float(qs[i]), "V": float(v[i])}))

    d_ok = True
    if model.potential.kind == "linear":
        d_ok = model.dissipativity_b >= -model.potential.lam - slack
    elif model.potential.kind == "cubic":
        d_ok = model.dissipativity_b >= model.potential.b - slack
    if not d_ok:
        witnesses.append(("D", {"reason": "declared b below the analytic constant"}))
    q1 = rng.uniform(-q_range, q_range, size=samples)
    q2 = rng.uniform(-q_range, q_range, size=samples)
    lhs = (q1 - q2) * (model.potential(q1) - model.potential(q2))
    rhs = model.dissipativity_b * (q1 - q2) ** 2
    bad = lhs > rhs + slack
    if np.any(bad):
        d_ok = False
        i = int(np.argmax(bad))
        witnesses.append(("D", {"q1": float(q1[i]), "q2": float(q2[i]),
                                "lhs": float(lhs[i]), "rhs": float(rhs[i])}))

    e_ok = (
        model.sigma1 <= model.lipschitz_m1 + slack
        and model.sigma2 <= model.lipschitz_m2 + slack
        and model.sigma0 <= model.growth_c + slack
    )
    if not e_ok:
        witnesses.append(("E", {"reason": "sigma coefficients exceed declared constants"}))
    if config is not None and config.n_sites:
        for _ in range(min(samples, 64)):
            x = int(rng.integers(config.n_sites))
            qa, qb = rng.uniform(-q_range, q_range, size=2)
            za = WeightedSeq(config, rng.uniform(-q_range, q_range, config.n_sites))
            zb = WeightedSeq(config, rng.uniform(-q_range, q_range, config.n_sites))
            lhs_e = abs(diffusion(model, x, qa, za) - diffusion(model, x, qb, zb))
            nbrs = config.indices[config.row(x)]
            rhs_e = model.lipschitz_m1 * abs(qa - qb) + model.lipschitz_m2 * nbrs.size * float(
                np.sum(np.abs(za.values[nbrs] - zb.values[nbrs]))
            )
            if lhs_e > rhs_e + slack:
                e_ok = False
                witnesses.append(("E", {"site": x, "lhs": lhs_e, "rhs": rhs_e}))
                break

    return DissipativityReport(c_ok, d_ok, e_ok, tuple(witnesses))


def wiener_increments(seed, path, site, n_steps, dt, refine=1) -> np.ndarray:
    """Brownian increments of one path of one site's stream on an n_steps grid.

    The site's stream is drawn through paths 0 .. path in one block, each
    M = n_steps * refine normals long, and the last one is returned; so a
    path's increments depend on M, and a longer horizon does not extend them.
    """
    return _noise_block(_NoiseSource(seed), path + 1, [site], n_steps, dt, refine,
                        carry=False)[:, 0, -1]


def ou_moment_oracle(lambda_, sigma, xi0, t):
    """Closed-form mean and second moment of the linear single-site diffusion.

    d xi = -lambda xi dt + sigma dW gives E xi_t = xi0 e^(-lambda t) and
    E xi_t^2 = xi0^2 e^(-2 lambda t) + sigma^2 (1 - e^(-2 lambda t)) / (2 lambda).
    """
    if lambda_ <= 0:
        raise ValueError("need lambda > 0")
    if sigma < 0 or t < 0:
        raise ValueError("need sigma >= 0 and t >= 0")
    mean = xi0 * math.exp(-lambda_ * t)
    second = xi0**2 * math.exp(-2 * lambda_ * t) + sigma**2 * (
        1.0 - math.exp(-2 * lambda_ * t)
    ) / (2.0 * lambda_)
    return mean, second


def exit_time_diagnostic(ensemble: PathEnsemble, thresholds):
    """Empirical probability that |xi_x| reaches each level strictly before T.

    The exit time is the first grid time with |xi| >= level, so level 0 exits
    immediately and gives probability one.  The terminal node is excluded:
    reaching the level only at t = T does not count as exiting before T.
    Reads the kept path tensor.  Returns {level: per-site fraction array}.
    """
    if ensemble.paths is None:
        raise ValueError("exit times are read off the paths: simulate with keep_paths=True")
    peak = np.abs(ensemble.paths[:, :, :-1]).max(axis=2)   # (path, site)
    return {float(level): (peak >= float(level)).mean(axis=0) for level in thresholds}


def moment_ensemble(config: Configuration, p, moment, stderr) -> PathEnsemble:
    """An ensemble of no paths on every site of ``config`` that holds the given
    per-site ``moment`` and ``stderr`` at moment order ``p``."""
    return PathEnsemble(
        config=config, active=np.arange(config.n_sites), times=np.array([0.0, 1.0]), paths=None,
        seed=0, scheme="tamed", dt=1.0, noise_refine=1, blowup=np.zeros(0, dtype=bool),
        p=float(p), moment=np.asarray(moment, dtype=float), stderr=np.asarray(stderr, dtype=float),
        diffs={},
    )


def lp_norm(z: WeightedSeq, a: float, p: float) -> float:
    """Weighted norm (sum_x e^(-a|x|) |z_x|^p)^(1/p)."""
    if a <= 0.0:
        raise ValueError("weight a must be > 0")
    if p < 1.0:
        raise ValueError("need p >= 1")
    return weighted_sum(z.config.radii, a, np.abs(z.values) ** p) ** (1.0 / p)


def zero_operator(config: Configuration) -> BandedOperator:
    return BandedOperator(config, np.zeros(config.indices.size), 0.0, 1.0)


def identity_operator(config: Configuration) -> BandedOperator:
    return BandedOperator(config, (config.indices == config.rows).astype(float), 1.0, 1.0)


def picard_iterate(Q: BandedOperator, z0: WeightedSeq, T, n, n_nodes=33) -> GridFunction:
    """n-th Picard iterate of the linear integral equation, started from z0.

    For linear Q this equals sum_{k<=n} (t^k / k!) Q^k z0 at every grid node;
    the powers Q^k z0 are accumulated directly, so there is no quadrature
    error in the iterates.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    times = _grid(T, n_nodes)
    power, coeff = z0.values.copy(), np.ones(times.size)
    total = np.outer(coeff, power)
    for k in range(1, n + 1):
        power = Q.matvec(power)
        coeff = coeff * times / k
        total += np.outer(coeff, power)
    return GridFunction(Q.config, times, total)


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
    weights = libm(math.exp, -alpha * config.radii)

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
