"""Dissipative interacting diffusions on a configuration, and their truncations.

Each site x carries a real spin driven by

    d xi_x = [ V(xi_x) + sum_{y in B_x} a(x-y) xi_y ] dt + Psi_x dW_x,

with a one-particle potential V that is dissipative (one-sided Lipschitz), a
bounded interaction kernel a supported on the interaction radius, and a
diffusion coefficient Psi_x = sigma0 + sigma1 q + sigma2 n_x sum_{B_x} z_y.
Only finite truncations are simulated: sites outside the active set stay
frozen at their initial value, which is exactly the finite-volume system the
convergence diagnostics compare across.

Noise is organized as one independent stream per site, a counter-based
generator keyed (seed, site) and drawn path-major: path p takes the fine
draws [p M, (p + 1) M) of its site's stream, with M = n_steps * refine.  Two
runs with the same seed and the same M therefore share Wiener increments
sitewise no matter which truncation set is active and no matter how work is
scheduled -- the coupling the finite-volume diagnostics rely on.  A run with
another M (a longer horizon, say) gives every path after the first other
increments, not a longer prefix.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Configuration
from .spaces import WeightedSeq

__all__ = [
    "Potential",
    "InteractionKernel",
    "ModelSpec",
    "make_model",
    "drift",
    "diffusion",
    "a_tilde",
    "check_dissipativity",
    "DissipativityReport",
    "PathEnsemble",
    "EnsembleSums",
    "step_count",
    "simulation_bytes",
    "worker_count",
    "simulate_coupled",
    "simulate_truncated",
    "wiener_increments",
    "ou_moment_oracle",
    "exit_time_diagnostic",
]

_MASK64 = (1 << 64) - 1
_BLOWUP_LIMIT = 1e75
_DRAW_CAP = 1 << 25   # raw draws per noise block, ~256 MB
_PATH_BLOCK = 4096    # paths per noise block, unless _DRAW_CAP binds first
_GATHER_CAP = 1 << 16  # doubles of band neighbors gathered at a time, 512 kB
SCHEMES = ("explicit", "tamed")


@dataclass(frozen=True)
class Potential:
    """One-particle potential V.

    Built-ins: ``linear`` V(q) = -lam q (lam > 0) and ``cubic``
    V(q) = b q - q^3.  A ``custom`` callable can be injected for validation
    experiments; it must accept numpy arrays.
    """

    kind: str
    lam: float = 1.0
    b: float = 0.0
    func: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "cubic", "custom"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "linear" and self.lam <= 0:
            raise ValueError("linear potential needs lam > 0")
        if self.kind == "custom" and self.func is None:
            raise ValueError("custom potential needs a callable")

    def __call__(self, q, out=None, scratch=None):
        """V(q) into ``out``, and the cubic's b q into ``scratch``, if given."""
        q = np.asarray(q, dtype=float)
        if self.kind == "linear":
            return np.multiply(-self.lam, q, out=out)
        if self.kind == "cubic":
            cube = np.multiply(q, q, out=out)
            cube *= q
            return np.subtract(np.multiply(self.b, q, out=scratch), cube, out=out)
        value = np.asarray(self.func(q), dtype=float)
        if out is None:
            return value
        out[...] = value
        return out


@dataclass(frozen=True)
class InteractionKernel:
    """Radial pair kernel a(r) on [0, rho], capped by abar.

    ``constant``: a(r) = abar.  ``triangular``: a(r) = abar (1 - r/rho).
    """

    kind: str
    abar: float
    rho: float

    def __post_init__(self):
        if self.kind not in ("constant", "triangular"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.abar < 0:
            raise ValueError("kernel cap abar must be >= 0")
        if self.rho <= 0:
            raise ValueError("rho must be > 0")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            return np.where(r <= self.rho, self.abar, 0.0)
        return np.where(r <= self.rho, self.abar * (1.0 - r / self.rho), 0.0)


@dataclass(frozen=True)
class ModelSpec:
    """Model coefficients together with their declared growth constants.

    The declared constants are what the moment and convergence ceilings are
    built from; :func:`check_dissipativity` validates them against the chosen
    functional forms.
    """

    potential: Potential
    kernel: InteractionKernel
    sigma0: float
    sigma1: float
    sigma2: float
    growth_c: float          # |V(q)| <= c (1 + |q|^R)
    growth_R: float
    dissipativity_b: float   # one-sided Lipschitz constant of V
    lipschitz_m1: float      # diffusion Lipschitz in q
    lipschitz_m2: float      # diffusion Lipschitz in the neighbor sum
    p: float                 # moment order

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("moment order p must be >= 2")
        if not (1 <= self.growth_R <= self.p):
            raise ValueError("need 1 <= R <= p")
        if min(self.sigma0, self.sigma1, self.sigma2) < 0:
            raise ValueError("sigma coefficients must be >= 0")
        if self.growth_c <= 0:
            raise ValueError("growth constant c must be > 0")
        if self.sigma0 > self.growth_c + 1e-12:
            raise ValueError("need |Psi(0,0)| = sigma0 <= c")


def make_model(
    potential="cubic",
    potential_param=0.0,
    kernel="constant",
    kernel_cap=0.0,
    rho=1.0,
    sigma0=0.0,
    sigma1=0.0,
    sigma2=0.0,
    p=2.0,
    growth_c=None,
    growth_R=None,
    dissipativity_b=None,
    lipschitz_m1=None,
    lipschitz_m2=None,
) -> ModelSpec:
    """Assemble a model; growth constants default to the tight built-in values."""
    if potential == "linear":
        pot = Potential("linear", lam=potential_param)
        c = max(potential_param, sigma0)
        R = 1.0
        b = -potential_param
    elif potential == "cubic":
        pot = Potential("cubic", b=potential_param)
        c = max(abs(potential_param) + 1.0, sigma0)
        R = 3.0
        b = potential_param
    else:
        raise ValueError("make_model builds only the built-in potentials")
    ker = InteractionKernel(kernel, kernel_cap, rho)
    return ModelSpec(
        potential=pot,
        kernel=ker,
        sigma0=sigma0,
        sigma1=sigma1,
        sigma2=sigma2,
        growth_c=c if growth_c is None else growth_c,
        growth_R=R if growth_R is None else growth_R,
        dissipativity_b=b if dissipativity_b is None else dissipativity_b,
        lipschitz_m1=sigma1 if lipschitz_m1 is None else lipschitz_m1,
        lipschitz_m2=sigma2 if lipschitz_m2 is None else lipschitz_m2,
        p=p,
    )


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


class _NoiseSource:
    """Counter-based noise streams, one per site, keyed (seed, site).

    A site's stream is drawn path-major: path p takes fine draws
    [p M, (p + 1) M) of it, with M = n_steps * refine normals per path.
    Ziggurat sampling uses a variable number of raw words per normal, so a
    path's place in the stream cannot be computed from the counter; instead
    the generator state of every site is carried from one path block to the
    next.  A stream is a pure function of its 128-bit key (Salmon et al.,
    SC'11), so any Philox can draw any site: each drawing worker re-keys its
    own generator through its state, and no byte depends on which worker
    drew which site.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._carried = {}   # site -> (next path, generator state)

    def _rekey(self, bitgen, site: int) -> None:
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([self._seed, site & _MASK64], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def fill_normals(self, gen, site: int, first_path: int, out: np.ndarray) -> None:
        """Fill ``out`` (paths, M) with paths first_path, first_path + 1, ... of
        the site's stream; paths skipped since its last carried state are
        drawn and discarded."""
        next_path, state = self._carried.get(site, (0, None))
        if first_path < next_path:
            raise ValueError("a noise stream cannot be drawn backwards")
        if state is None:
            self._rekey(gen.bit_generator, site)
        else:
            gen.bit_generator.state = state
        for _ in range(first_path - next_path):
            gen.standard_normal(out=out[0])
        gen.standard_normal(out=out)

    def carry(self, gen, site: int, next_path: int) -> None:
        """Keep ``gen``'s state as the site's stream at path ``next_path``."""
        self._carried[site] = (next_path, gen.bit_generator.state)


def _noise_block(source, paths, sites, n_steps, dt, refine=1, run=map, workers=1,
                 carry=True) -> np.ndarray:
    """Brownian increments of consecutive ``paths`` at ``sites``, shaped (n_steps, sites, paths).

    ``source`` is a :class:`_NoiseSource`, whose streams continue from its
    previous block, or a seed, which starts them afresh.  Each site's paths
    are drawn with one call at resolution dt/refine into a reusable
    (paths, n_steps * refine) buffer, scaled, summed in blocks of
    ``refine`` and stored transposed, so each time step reads one
    contiguous (site, path) slab.  Runs at compatible step sizes (dt with
    refine 2r versus dt/2 with refine r, same seed) draw bitwise the same
    underlying Brownian path.  The sites are split over ``workers`` tasks
    handed to ``run``, each with its own Philox and buffers.  Unless
    ``carry`` is false, the streams' states are kept for the next block.
    """
    if refine < 1:
        raise ValueError("refine must be >= 1")
    if not isinstance(source, _NoiseSource):
        source = _NoiseSource(source)
    first, width = (int(paths[0]), len(paths)) if len(paths) else (0, 0)
    if list(paths) != list(range(first, first + width)):
        raise ValueError("paths must be consecutive")
    block = np.empty((n_steps, len(sites), width))
    scale = math.sqrt(dt / refine)

    def fill(positions) -> None:
        gen = np.random.Generator(np.random.Philox(key=0))
        fine = np.empty((width, n_steps * refine))
        coarse = fine if refine == 1 else np.empty((width, n_steps))
        for si in positions:
            source.fill_normals(gen, int(sites[si]), first, fine)
            if carry:
                source.carry(gen, int(sites[si]), first + width)
            fine *= scale
            if refine > 1:
                np.sum(fine.reshape(width, n_steps, refine), axis=2, out=coarse)
            block[:, si, :] = coarse.T

    if width:
        parts = np.array_split(np.arange(len(sites)), max(1, min(workers, len(sites))))
        list(run(fill, parts))
    return block


def wiener_increments(seed, path, site, n_steps, dt, refine=1) -> np.ndarray:
    """Brownian increments of one path of one site's stream on an n_steps grid.

    The site's stream is drawn through paths 0 .. path, each M = n_steps *
    refine normals long, and the last one is returned; so a path's
    increments depend on M, and a longer horizon does not extend them.
    """
    return _noise_block(seed, range(path, path + 1), [site], n_steps, dt, refine,
                        carry=False)[:, 0, 0]


@dataclass(frozen=True, eq=False)
class EnsembleSums:
    """Path sums reduced from one truncation's trajectories while it was stepped.

    ``power`` and each ``diffs`` entry are indexed (node, site) and sum over
    the paths in path order, so they are bitwise the sums of one reduction
    over a stored path tensor.  ``m2`` sums the squared deviations of
    |xi|^p from its sample mean, merged across path blocks as in Chan, Golub
    & LeVeque (1983).  ``diffs`` is keyed by the position of the other
    truncation in the coupled set.  The columns of frozen sites were
    settled once per path block, not node by node, with the same bytes;
    a ``diffs`` column is 0 where both truncations freeze the site.
    """

    p: float
    power: np.ndarray       # (node, site) sums of |xi|^p
    m2: np.ndarray          # (node, site) squared deviations of |xi|^p
    peak: np.ndarray        # (site, path) max of |xi| over nodes 0 .. n_steps - 1
    diffs: dict             # m -> (node, site) sums of |xi - xi^m|^p


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Monte Carlo trajectories of one truncated system.

    ``paths[path, site, node]`` covers every site, with rows of frozen sites
    bitwise constant at their initial value; it is None unless the paths
    were kept.  ``sums`` holds what was reduced while stepping.  ``blowup``
    flags paths that left the representable range (possible under the
    explicit scheme with a superlinear potential).
    """

    config: Configuration
    active: np.ndarray
    times: np.ndarray
    paths: np.ndarray | None
    seed: int
    scheme: str
    dt: float
    noise_refine: int
    zeta_values: np.ndarray
    blowup: np.ndarray
    sums: EnsembleSums | None = None

    @property
    def n_paths(self) -> int:
        return self.blowup.size

    @property
    def has_blowup(self) -> bool:
        return bool(np.any(self.blowup))


def step_count(T, dt) -> int:
    """Number of dt steps that make up the horizon T; ValueError unless dt divides T."""
    if not (math.isfinite(T) and math.isfinite(dt)) or dt <= 0 or T <= 0:
        raise ValueError("need finite dt > 0 and T > 0")
    ratio = T / dt
    if not math.isfinite(ratio):
        raise ValueError(f"the step count T/dt = {T!r}/{dt!r} leaves the float range")
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("dt must divide T")
    return n_steps


def _validate_active(config: Configuration, lambda_n) -> np.ndarray:
    active = np.unique(np.asarray(lambda_n, dtype=np.int64))
    if active.size and (active[0] < 0 or active[-1] >= config.n_sites):
        raise ValueError("active set contains out-of-range site indices")
    return active


def _band_slots(model: ModelSpec, config: Configuration, active: np.ndarray):
    """The band rows of the active sites, padded to one width.

    Row i of ``slots`` lists the neighbors of site ``active[i]``, padded up
    to the largest active degree with the site itself.  ``weights[i]`` stacks
    the kernel weights a(x - y) over the adjacency indicator, both 0 on the
    padding, so that one batched product yields the drift and diffusion sums.
    """
    start = config.indptr[active]
    degree = config.indptr[active + 1] - start
    width = np.arange(int(degree.max()) if active.size else 0)
    real = width < degree[:, None]
    pos = np.where(real, start[:, None] + width, 0)
    slots = np.where(real, config.indices[pos], active[:, None])
    kernel = np.where(real, model.kernel(config.distances)[pos], 0.0)
    weights = np.stack([kernel, real.astype(float)], axis=1)
    return slots, weights, degree.astype(float)


def _block_paths(n_sites, n_steps, noise_refine) -> int:
    """Paths per noise block: _PATH_BLOCK, capped at _DRAW_CAP raw draws.

    ``n_sites`` is the size of the configuration, not of an active set, so
    every truncation of one configuration is stepped in the same path
    blocks.  That matters for bitwise reproducibility: the batched
    ``np.matmul`` of the step rounds differently for different block widths.
    """
    if n_sites:
        return min(_PATH_BLOCK, max(1, _DRAW_CAP // (n_sites * n_steps * noise_refine)))
    return _PATH_BLOCK


def _chunk_nodes(n_steps, n_sets, n_pairs) -> int:
    """Nodes per run of steps that the truncations step before they meet.

    A run takes n_sets + 4 (site, path) arrays per node and thread, fewer
    where the sets leave sites frozen: each truncation's states, and per
    thread the path-order rows of the reductions and three temporaries.
    The runs are as long as if each truncation and each pair held rows of
    its own, 2 n_sets + n_pairs + 3 arrays per node: a run of at most
    n_steps / twice that many nodes then holds at most half as many doubles
    as a noise block over every site.  Longer runs would spend the memory
    that sharing the rows saves.
    """
    return max(1, n_steps // (2 * (2 * n_sets + n_pairs + 3)))


def simulation_bytes(n_sites, max_degree, n_sets, n_paths, n_steps, noise_refine=1,
                     n_pairs=0, keep_paths=False, threads=1) -> int:
    """An upper bound on the bytes :func:`simulate_coupled` allocates for its arrays.

    Per truncation (``n_sets`` of them): a block's run buffer (a run's
    nodes and one more row) and spread, its band (``max_degree`` slots and
    weights per site), a few per-site vectors, the running max per (site,
    path) and three (node, site) sums.  Per thread, or per truncation if
    there are more: seven step temporaries and one slice of gathered band
    rows (``_GATHER_CAP`` doubles, or one row).  Per thread: a run's
    path-order rows (one more than the block has paths) and three run
    temporaries.  Per Cauchy pair (``n_pairs``): one (node, site) sum.  One
    step-major noise block over every site.  Per drawing worker (at most
    ``threads``): one site's fine draws for the block and, with
    ``noise_refine > 1``, their sums over each step.  The path tensors
    count only when they are kept.  Everything per site is counted over
    every site, so the estimate stays an upper bound.
    """
    block = min(n_paths, _block_paths(n_sites, n_steps, noise_refine))
    n_nodes = n_steps + 1
    chunk = min(n_nodes, _chunk_nodes(n_steps, n_sets, n_pairs))
    level = (
        n_sites * (block * (chunk + 2) + 3 * max_degree + 8 + n_paths + 3 * n_nodes)
        + n_paths
    )
    per_gather = min(n_sites, max(1, _GATHER_CAP // max(1, max_degree * block)))
    steps = max(threads, n_sets) * (7 * n_sites * block + per_gather * max_degree * block)
    runs = threads * chunk * n_sites * (4 * block + 1)
    workers = min(threads, max(n_sites, 1))
    buffers = workers * block * n_steps * (noise_refine + (noise_refine > 1))
    noise = block * n_sites * n_steps + buffers
    tensors = n_sets * n_paths * n_sites * n_nodes if keep_paths else 0
    return 8 * (n_sets * level + steps + runs + n_pairs * n_sites * n_nodes + noise + tensors)


def worker_count(threads) -> int:
    """``threads``, capped at the number of CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(threads, cpus or 1))


def _abs_power(x, p, out) -> np.ndarray:
    """|x|^p into ``out``, which may be ``x``."""
    return _power(np.abs(x, out=out), p)


def _power(size, p) -> np.ndarray:
    """size^p in place, for a nonnegative ``size``.

    An integer p up to 8 is a chain of squares, left to right over the bits
    of p, with one product by ``size`` per further set bit: at p = 4 two
    squarings take half the time of one ``np.power`` and land within 1e-15
    relative of it.  Any other p uses ``np.power``.
    """
    if p != int(p) or not 1 <= p <= 8:
        return np.power(size, p, out=size)
    bits = bin(int(p))[3:]
    base = size.copy() if "1" in bits else None
    for bit in bits:
        np.multiply(size, size, out=size)
        if bit == "1":
            np.multiply(size, base, out=size)
    return size


def _add_in_path_order(total, values, rows) -> None:
    """Add the sums over paths of ``values`` (..., path) to ``total`` (...), path by path.

    ``rows`` is a (path + 1, ...) buffer: row 0 carries the running total
    and the paths are copied below it, so one reduction down its leading
    axis adds them in path order.  That is bitwise the sum one reduction
    over all paths gives, however the paths are split into blocks (a sum
    along a contiguous axis would be pairwise and round differently).
    """
    rows[0] = total
    rows[1:] = np.moveaxis(values, -1, 0)
    if total.size == 1:   # a lone column would be reduced pairwise
        total[...] = np.add.accumulate(rows.reshape(len(rows)))[-1]
    else:
        np.add.reduce(rows, axis=0, out=total)


def _merge_moments(mean, m2, values, count) -> None:
    """Merge the sample mean and squared deviations of ``values`` (..., path) into
    those of ``count`` earlier paths (Chan, Golub & LeVeque 1983).

    Within a block both sum pairwise along the paths, as ``np.std`` does, so
    a run in one path block gives ``np.std``'s bytes.  ``values`` is
    overwritten with the squared deviations.
    """
    m = values.shape[-1]
    block_mean = values.sum(axis=-1) / m
    values -= block_mean[..., None]
    values *= values
    block_m2 = values.sum(axis=-1)
    if count == 0:
        mean[...] = block_mean
        m2[...] = block_m2
    else:
        n = count + m
        delta = block_mean - mean
        mean += delta * (m / n)
        m2 += block_m2 + delta * delta * (count * m / n)


class _Workspace(threading.local):
    """Buffers that each thread reuses for every step and reduction it runs.

    A fresh numpy temporary above glibc's mmap threshold (128 kB unless a
    larger mapped block was freed earlier) is mapped when it is allocated
    and unmapped when it is freed, so a loop of such temporaries faults
    all of their pages in again on every step.  Reused buffers stay mapped
    and warm in cache.
    """

    def __init__(self):
        self.flat = {}

    def get(self, name, shape) -> np.ndarray:
        size = math.prod(shape)
        flat = self.flat.get(name)
        if flat is None or flat.size < size:
            flat = self.flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


class _Level:
    """One truncation of a coupled set: its band, its run buffer and the sums
    reduced from it; reduction rows and step temporaries are the thread's.

    The run buffer ``nodes`` is (chunk + 1, active site + tail, path): row 0
    is the state a run starts from (zeta, then the last node of the previous
    run), and each node is stepped straight from the row above it.  The
    tail rows hold zeta at the frozen sites of the band, written once per
    block, and ``slots`` index these rows.  The sums cover only the active
    sites; a frozen site's are settled once per path block and spread over
    the nodes when the ensemble is built.  The band is range-checked once,
    before it is remapped (the active sites and noise rows are in range by
    construction), so the step gathers with ``mode="clip"``, which skips
    numpy's checking copy.
    """

    def __init__(self, model, tamed, dt, config, zeta_values, active, union, n_paths, n_nodes,
                 keep_paths):
        n_sites = config.n_sites
        self.model, self.tamed, self.dt, self.p = model, tamed, dt, float(model.p)
        self.active = active
        slots, self.weights, degrees = _band_slots(model, config, active)
        self.spread = model.sigma2 * degrees[:, None]   # sigma2 n_x
        # its sites among the noise block's, None for all
        self.rows = None if active.size == union.size else np.searchsorted(union, active)
        if slots.size and not 0 <= slots.min() <= slots.max() < n_sites:
            raise ValueError(f"a truncation's band names a site outside [0, {n_sites})")
        # the band's frozen sites follow the active ones in the run buffer
        self.tail = np.setdiff1d(slots, active)
        row_of = np.empty(n_sites, dtype=np.int64)
        row_of[active] = np.arange(active.size)
        row_of[self.tail] = np.arange(active.size, active.size + self.tail.size)
        self.slots = row_of[slots]
        self.zeta = zeta_values
        self.frozen = np.setdiff1d(np.arange(n_sites), active)
        self.frozen_size = np.abs(zeta_values[self.frozen])
        # NaN fails the comparison too
        self.frozen_bounded = bool(np.all(self.frozen_size <= _BLOWUP_LIMIT))
        self.frozen_power = _abs_power(self.frozen_size, self.p, out=np.empty(self.frozen.size))
        self.settled = np.zeros((3, self.frozen.size))   # frozen power, mean and m2
        self.blowup = np.empty(n_paths, dtype=bool)
        self.power, self.mean, self.m2 = np.zeros((3, n_nodes, active.size))
        self.peak = np.empty((active.size, n_paths))
        self.paths = None
        if keep_paths:
            self.paths = np.empty((n_paths, n_sites, n_nodes))
            self.paths[:, self.frozen] = zeta_values[self.frozen, None]
        self.nodes = self.spread_paths = None

    def start_block(self, width, chunk) -> None:
        n = self.active.size
        self.nodes = np.empty((chunk + 1, n + self.tail.size, width))
        self.nodes[0, :n] = self.zeta[self.active, None]
        self.nodes[:, n:] = self.zeta[self.tail, None]
        self.spread_paths = np.repeat(self.spread, width, axis=1)   # (active site, path)

    def finish_block(self, start, work) -> None:
        """Settle the block's sums of the frozen sites."""
        width = self.nodes.shape[2]
        if self.frozen.size:
            power, mean, m2 = self.settled
            powed = np.repeat(self.frozen_power[:, None], width, axis=1)   # (site, path)
            with np.errstate(over="ignore", invalid="ignore"):
                _add_in_path_order(power, powed, work.get("rows", (width + 1, self.frozen.size)))
                _merge_moments(mean, m2, powed, start)
        self.nodes = self.spread_paths = None

    def advance(self, noise, start, k0, k1, work) -> None:
        """Step through nodes k0 .. k1 - 1 of the path block (node 0 is the
        start state), reducing each run of nodes after it is stepped."""
        chunk = self.nodes.shape[0] - 1
        for c0 in range(k0, k1, chunk):
            c1 = min(c0 + chunk, k1)
            self._step(noise, c0, c1, work)
            self._reduce(start, c0, c1, work)

    def _step(self, noise, k0, k1, work) -> None:
        """Nodes k0 .. k1 - 1 into rows 1 .. k1 - k0; the last is copied into row 0."""
        model, nodes, slots, weights = self.model, self.nodes, self.slots, self.weights
        n, width = self.active.size, nodes.shape[2]
        # the band rows are gathered and contracted a slice of rows at a time
        per_gather = max(1, _GATHER_CAP // max(1, slots.shape[1] * width))
        gathered = work.get("gathered", (min(per_gather, n), slots.shape[1], width))
        sums = work.get("sums", (2, n, width))   # drift and diffusion sums, one plane each
        parts = []   # per slice: its band rows, gather buffer, weights and (row, 2, path) sums
        for r0 in range(0, n, per_gather):
            band, r1 = slots[r0 : r0 + per_gather], r0 + per_gather
            parts.append((band, gathered[: len(band)], weights[r0:r1],
                          sums[:, r0:r1].transpose(1, 0, 2)))
        phi, psi, tmp, scratch = (work.get(name, (n, width))
                                  for name in ("phi", "psi", "tmp", "scratch"))
        with np.errstate(over="ignore", invalid="ignore"):
            for row, k in enumerate(range(k0, k1), start=1):
                prev, own = nodes[row - 1, :n], nodes[row, :n]
                if not k:
                    own[...] = prev
                    continue
                for band, part, w, out in parts:
                    nodes[row - 1].take(band, axis=0, out=part, mode="clip")
                    np.matmul(w, part, out=out)
                model.potential(prev, out=phi, scratch=scratch)
                phi += sums[0]
                # psi = sigma0 + sigma1 prev + sigma2 n_x (sum over the band)
                np.multiply(model.sigma1, prev, out=psi)
                psi += model.sigma0
                np.multiply(self.spread_paths, sums[1], out=tmp)
                psi += tmp
                phi *= self.dt
                if self.tamed:   # phi dt / (1 + |phi dt|), bitwise phi dt / (1 + dt |phi|)
                    np.abs(phi, out=tmp)
                    tmp += 1.0
                    phi /= tmp
                if self.rows is None:
                    psi *= noise[k - 1]
                else:
                    psi *= noise[k - 1].take(self.rows, axis=0, out=tmp, mode="clip")
                np.add(prev, phi, out=own)
                own += psi
        nodes[0, :n] = nodes[k1 - k0, :n]

    def _reduce(self, start, k0, k1, work) -> None:
        """The running max and the |xi|^p sums and moments of nodes k0 .. k1 - 1;
        after the terminal node, the block's blow-up flags."""
        nodes = self.nodes[1 : k1 - k0 + 1, : self.active.size]
        width = nodes.shape[2]
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.abs(nodes, out=work.get("run", nodes.shape))
            if self.paths is not None:
                self.paths[start : start + width, self.active, k0:k1] = nodes.transpose(2, 1, 0)
            peak = self.peak[:, start : start + width]
            if k0 == 0:
                peak[...] = size[0]
            terminal = k1 == self.power.shape[0]   # the running max skips the terminal node
            for node in size[: k1 - k0 - terminal]:
                np.maximum(peak, node, out=peak)
            if terminal:
                # np.maximum carries NaN into peak, and NaN fails the comparison
                bounded = np.all(peak <= _BLOWUP_LIMIT, axis=0)
                bounded &= np.all(size[-1] <= _BLOWUP_LIMIT, axis=0)
                self.blowup[start : start + width] = ~(bounded & self.frozen_bounded)
            powed = _power(size, self.p)
            rows = work.get("rows", (width + 1, *size.shape[:2]))
            _add_in_path_order(self.power[k0:k1], powed, rows)
            _merge_moments(self.mean[k0:k1], self.m2[k0:k1], powed, start)

    def places(self, sites):
        """How the level's states lay out over ``sites``, a sorted superset of
        its active set: None if they are its active sites, else the positions
        of its active sites among them, and the positions and zeta of the rest."""
        if sites.size == self.active.size:
            return None
        mine = np.isin(sites, self.active)
        return np.flatnonzero(mine), np.flatnonzero(~mine), self.zeta[sites[~mine], None]

    def states_over(self, place, n_nodes, work, name) -> np.ndarray:
        """The first ``n_nodes`` states of the current run over the sites of
        ``place``; unless those are its active sites, laid out in the
        workspace buffer ``name``."""
        nodes = self.nodes[1 : n_nodes + 1, : self.active.size]
        if place is None:
            return nodes
        mine, rest, zeta = place
        out = work.get(name, (n_nodes, mine.size + rest.size, nodes.shape[2]))
        out[:, mine] = nodes
        out[:, rest] = zeta
        return out

    def sums(self, diffs) -> EnsembleSums:
        """The sums over every site, the frozen ones spread over the nodes.
        The level's own sums are released, so each sum is held once."""
        n_nodes, n_sites = self.power.shape[0], self.zeta.size
        power, m2 = np.empty((n_nodes, n_sites)), np.empty((n_nodes, n_sites))
        for full, ours, settled in ((power, self.power, self.settled[0]),
                                    (m2, self.m2, self.settled[2])):
            full[:, self.active] = ours
            full[:, self.frozen] = settled
        peak = np.empty((n_sites, self.peak.shape[1]))
        peak[self.active] = self.peak
        peak[self.frozen] = self.frozen_size[:, None]
        self.power = self.mean = self.m2 = self.peak = None
        return EnsembleSums(self.p, power, m2, peak, diffs)


class _Pair:
    """The path sums of |xi^small - xi^large|^p of two truncations of a coupled set.

    They cover the union of the two active sets.  A site frozen in both
    holds zeta in both, differs by exactly 0 and is skipped; a site frozen
    in one of them reads its zeta there.
    """

    def __init__(self, small, large, n_nodes):
        self.small, self.large = small, large
        self.sites = np.union1d(small.active, large.active)
        self.places = (small.places(self.sites), large.places(self.sites))
        self.diffs = np.zeros((n_nodes, self.sites.size))

    def reduce(self, k0, k1, work) -> None:
        """Add the path sums at nodes k0 .. k1 - 1."""
        width = self.small.nodes.shape[2]
        shape = (k1 - k0, self.sites.size, width)
        ours, theirs = (
            level.states_over(place, k1 - k0, work, name)
            for level, place, name in zip((self.small, self.large), self.places, ("ours", "theirs"))
        )
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.subtract(ours, theirs, out=work.get("run", shape))
            _abs_power(diff, self.small.p, out=diff)
            _add_in_path_order(self.diffs[k0:k1], diff, work.get("rows", (width + 1, *shape[:2])))

    def spread(self, n_sites) -> np.ndarray:
        """The (node, site) sums over every site, 0 where both truncations
        freeze it.  The pair's own sums are released."""
        full = np.zeros((self.diffs.shape[0], n_sites))
        full[:, self.sites] = self.diffs
        self.diffs = None
        return full


def simulate_coupled(model: ModelSpec, config: Configuration, active_sets, zeta: WeightedSeq, T,
                     dt, n_paths, seed, scheme="tamed", noise_refine=1, threads=1, pairs=(),
                     keep_paths=False) -> list:
    """Euler-Maruyama ensembles of several truncations, driven by one noise draw.

    Per block of paths, the site streams of the union of the active sets
    are drawn once, continuing from the previous block, and every
    truncation steps from its own rows of that block.
    States are reduced while stepping into per (node, site) sums (see
    :class:`EnsembleSums`) at the model's moment order: |xi|^p for every
    truncation, and |xi^n - xi^m|^p for each position pair (n, m) in
    ``pairs``, for which the truncations step in lockstep, meeting after
    every short run of nodes.  Only active sites are stepped, stored and
    reduced node by node; frozen sites are settled once per path block.
    Each site stream's generator state is kept for the next block, except
    after the last one.  The path tensors are stored only with
    ``keep_paths``.  With ``threads > 1`` (at most the usable CPUs) the
    sites of each draw, and the truncations, then the pairs, of each run
    are handed to a thread pool; no output byte depends on it.
    Under the tamed scheme the drift increment is Phi dt / (1 + dt |Phi|),
    which keeps the superlinear cubic decay stable where the explicit scheme
    can blow up.  Sites outside a truncation's active set stay bitwise
    frozen at their initial value.  Path blocks depend on the configuration,
    not on the sets, so each truncation's paths are bitwise those of a lone
    :func:`simulate_truncated` run, and sets with a common site share its
    increments bitwise.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    if zeta.config is not config:
        raise ValueError("initial data lives on a different configuration")
    n_steps = step_count(T, dt)
    if n_paths < 1 or noise_refine < 1:
        raise ValueError("need n_paths >= 1 and noise_refine >= 1")
    actives = [_validate_active(config, lv) for lv in active_sets]
    if not actives:
        return []
    threads = worker_count(threads)
    pairs = [(int(n), int(m)) for n, m in pairs]
    if any(not 0 <= n < len(actives) or not 0 <= m < len(actives) for n, m in pairs):
        raise ValueError("pairs must name positions of the active sets")

    union = np.unique(np.concatenate(actives))
    n_nodes = n_steps + 1
    levels = [
        _Level(model, scheme == "tamed", dt, config, zeta.values, a, union, n_paths, n_nodes,
               keep_paths)
        for a in actives
    ]
    cauchy = [_Pair(levels[n], levels[m], n_nodes) for n, m in pairs]
    chunk = _chunk_nodes(n_steps, len(levels), len(pairs))
    # pairs compare the truncations node by node, so with pairs they meet
    # after every run of nodes; without, each steps through its block alone
    span = chunk if pairs else n_nodes
    path_block = _block_paths(config.n_sites, n_steps, noise_refine)

    source, work = _NoiseSource(seed), _Workspace()
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for start in range(0, n_paths, path_block):
            stop = min(start + path_block, n_paths)
            # the streams continue unless this is their last block
            noise = _noise_block(source, range(start, stop), union, n_steps, dt, noise_refine,
                                 run, threads, stop < n_paths)
            for level in levels:
                level.start_block(stop - start, chunk)
            for k0 in range(0, n_nodes, span):
                k1 = min(k0 + span, n_nodes)
                list(run(lambda level: level.advance(noise, start, k0, k1, work), levels))
                list(run(lambda pair: pair.reduce(k0, k1, work), cauchy))
            for level in levels:
                level.finish_block(start, work)
            del noise   # freed before the next block is drawn

    times = np.linspace(0.0, T, n_nodes)
    return [
        PathEnsemble(
            config=config,
            active=level.active,
            times=times,
            paths=level.paths,
            seed=int(seed),
            scheme=scheme,
            dt=float(dt),
            noise_refine=int(noise_refine),
            zeta_values=zeta.values.copy(),
            blowup=level.blowup,
            sums=level.sums({m: pair.spread(config.n_sites)
                             for (n, m), pair in zip(pairs, cauchy) if n == i}),
        )
        for i, level in enumerate(levels)
    ]


def simulate_truncated(model: ModelSpec, config: Configuration, lambda_n, zeta: WeightedSeq, T,
                       dt, n_paths, seed, scheme="tamed", noise_refine=1) -> PathEnsemble:
    """Euler-Maruyama time stepping of one truncated system.

    The one-set case of :func:`simulate_coupled`, with its paths kept.
    The increments of a (path, site) pair depend only on (seed, site index,
    path, n_steps * noise_refine), so ensembles with different active sets
    share increments sitewise.
    """
    return simulate_coupled(
        model, config, [lambda_n], zeta, T, dt, n_paths, seed,
        scheme=scheme, noise_refine=noise_refine, keep_paths=True,
    )[0]


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
    Reads the running max the simulator kept per (site, path).
    Returns {level: per-site fraction array}.
    """
    if ensemble.n_paths == 0:
        raise ValueError("empty ensemble")
    if ensemble.sums is None:
        raise ValueError("the ensemble carries no reductions: it was not simulated")
    peak = ensemble.sums.peak  # (n_sites, n_paths)
    out = {}
    for level in thresholds:
        out[float(level)] = (peak >= float(level)).mean(axis=1)
    return out
