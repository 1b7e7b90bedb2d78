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
sitewise no matter which truncation set is active -- the coupling the
finite-volume diagnostics rely on.  A run with another M (a longer horizon,
say) gives every path after the first other increments, not a longer
prefix.  Nested levels share one site order, level 0's sites and then those
each next level adds, each part ranked by falling degree, so each level's
sites, states and noise rows are a prefix of the next level's, and each band
column of a level's step stops at its last real row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Configuration, _abs_power, _power, band_sum
from .spaces import WeightedSeq

__all__ = [
    "Potential",
    "InteractionKernel",
    "ModelSpec",
    "make_model",
    "PathEnsemble",
    "step_count",
    "simulation_bytes",
    "cauchy_pairs",
    "simulate_levels",
    "simulate_truncated",
]

_BLOWUP_LIMIT = 1e75
_DRAW_CAP = 1 << 25   # raw draws per noise block, ~256 MB
_PATH_BLOCK = 4096    # paths per noise block, unless _DRAW_CAP binds first
_RUN_BYTES = 1 << 21  # run arrays that a run of nodes fills at least, 2 MiB
_NOISE_GROUP = 1 << 16  # fine draws per group of sites drawn into one buffer, 512 kB
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
    built from; ``check_dissipativity`` in ``tests/oracles.py`` validates them
    against the chosen functional forms.
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
) -> ModelSpec:
    """Assemble a model with tight growth constants; ``dataclasses.replace`` declares others."""
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
        growth_c=c,
        growth_R=R,
        dissipativity_b=b,
        lipschitz_m1=sigma1,
        lipschitz_m2=sigma2,
        p=p,
    )


class _NoiseSource:
    """Counter-based noise streams, one per site, keyed (seed, site).

    A site's stream is drawn path-major: path p takes fine draws
    [p M, (p + 1) M) of it, with M = n_steps * refine normals per path.
    Ziggurat sampling uses a variable number of raw words per normal, so a
    path's place in the stream cannot be computed from the counter; instead
    the generator state of every site is carried from one path block to the
    next.  A stream is a pure function of its 128-bit key (Salmon et al.,
    SC'11), so one Philox draws every site: it is re-keyed by writing each
    site into one prepared state, its state at the start of the stream keyed
    (seed, 0).
    """

    def __init__(self, seed: int):
        if not 0 <= operator.index(seed) < 1 << 64:   # TypeError for a float (Philox truncates)
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        self._gen = np.random.Generator(np.random.Philox(key=seed))
        self._prepared = self._gen.bit_generator.state
        self._carried = {}   # site -> generator state

    def fill_normals(self, site: int, out: np.ndarray) -> None:
        """Fill ``out`` (paths, M) with the site's next paths: from path 0, keyed
        by writing the site into the prepared state, or from where its
        carried state stopped."""
        state = self._carried.get(site)
        if state is None:
            self._prepared["state"]["key"][1] = site
            state = self._prepared
        self._gen.bit_generator.state = state
        self._gen.standard_normal(out=out)

    def carry(self, site: int) -> None:
        """Keep the generator's state as where the site's stream continues."""
        self._carried[site] = self._gen.bit_generator.state


def _noise_block(source, width, sites, n_steps, dt, refine=1, carry=True) -> np.ndarray:
    """Brownian increments of the next ``width`` paths at ``sites``, shaped (n_steps, sites, paths).

    The streams of the :class:`_NoiseSource` ``source`` continue where its
    previous block stopped, or start at path 0.  Each site's paths are drawn
    with one call at resolution dt/refine into a reusable (site, path,
    n_steps * refine) buffer of as many sites as fit ``_NOISE_GROUP`` draws,
    or one; each such group is scaled, summed in blocks of ``refine`` and
    stored transposed, so each time step reads one contiguous (site, path)
    slab.  Runs at compatible step sizes (dt with refine 2r versus dt/2
    with refine r, same seed) draw bitwise the same underlying Brownian
    path.  Unless ``carry`` is false, the streams' states are kept for the
    next block.
    """
    if refine < 1:
        raise ValueError("refine must be >= 1")
    block = np.empty((n_steps, len(sites), width))
    if not width:
        return block
    scale, n_fine = math.sqrt(dt / refine), n_steps * refine
    group = max(1, _NOISE_GROUP // max(1, width * n_fine))   # sites per draw
    fine = np.empty((min(group, len(sites)), width, n_fine))
    coarse = fine if refine == 1 else np.empty((len(fine), width, n_steps))
    for g0 in range(0, len(sites), group):
        g1 = min(g0 + group, len(sites))
        draws, sums = fine[: g1 - g0], coarse[: g1 - g0]
        for site, out in zip(sites[g0:g1], draws):
            source.fill_normals(int(site), out)
            if carry:
                source.carry(int(site))
        draws *= scale
        if refine > 1:
            np.sum(draws.reshape(g1 - g0, width, n_steps, refine), axis=3, out=sums)
        block[:, g0:g1] = sums.transpose(2, 0, 1)
    return block


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Monte Carlo trajectories of one truncated system, and the per-site
    moments reduced from them while they were stepped.

    ``paths[path, site, node]`` covers every site, with rows of frozen sites
    bitwise constant at their initial value; it is None unless the paths
    were kept.  ``blowup`` flags paths that left the representable range
    (possible under the explicit scheme with a superlinear potential).

    The rest is per site, and every sum behind it is taken over the paths
    in path order, so no byte depends on how the paths are split into
    blocks.  ``moment`` is the sup over the nodes of the sample mean of
    |xi|^p (bitwise one reduction over a stored path tensor), and at a
    frozen site, where every sample is |zeta|^p, that value itself.
    ``stderr`` is the standard error of that mean at the node where it
    peaks, from the squared deviations from path 0's |xi|^p (see
    ``_Level.moments``); it is exactly 0.0 where every path holds the same
    |xi|^p, as at a frozen site.
    ``diffs`` maps the position m of a larger level in the sequence to the
    sup over the nodes of the sample mean of |xi - xi^m|^p, 0 where both
    levels freeze the site.
    """

    config: Configuration
    active: np.ndarray
    times: np.ndarray
    paths: np.ndarray | None
    seed: int
    scheme: str
    dt: float
    noise_refine: int
    blowup: np.ndarray
    p: float                # the moment order of the sums
    moment: np.ndarray      # per site: sup over the nodes of the mean of |xi|^p
    stderr: np.ndarray      # per site: standard error of that mean at its peak
    diffs: dict             # m -> per site: sup over the nodes of the mean of |xi - xi^m|^p

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
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * T:
        raise ValueError("dt must divide T")
    return n_steps


def _nested_levels(config: Configuration, levels):
    """The sites in nested-prefix order (level 0's, then those each next level
    adds, each part ranked by falling degree, ties in site order) and each
    level's count of them; ValueError unless all are the configuration's
    sites and each level lies inside the next.  Ranked so, few rows of a
    level have fewer than j neighbors before its last row with more, where
    :class:`_Level` cuts band column j."""
    seen, added = np.zeros(config.n_sites, dtype=bool), []
    for level in levels:
        level = np.asarray(level)
        if level.size and not np.issubdtype(level.dtype, np.integer):   # a bool mask too
            raise ValueError(f"a truncation level must list site indices, got dtype {level.dtype}")
        # checked before indexing, so that site -1 cannot wrap to the last one
        if level.size and (level.min() < 0 or level.max() >= config.n_sites):
            raise ValueError("a truncation level contains out-of-range site indices")
        mask = np.zeros(config.n_sites, dtype=bool)
        mask[level.astype(np.int64)] = True   # numpy types an empty level as float
        if np.any(seen & ~mask):
            raise ValueError("truncation levels must be nested")
        part = np.flatnonzero(mask & ~seen)
        added.append(part[np.argsort(-config.degrees[part], kind="stable")])
        seen = mask
    order = np.concatenate(added) if added else np.empty(0, dtype=np.int64)
    return order, np.cumsum([part.size for part in added], dtype=np.int64)


def cauchy_pairs(k: int) -> list:
    """The level pairs (n, m) a Cauchy table of ``k`` levels reports: consecutive
    levels, then every level against the last."""
    return [(j, j + 1) for j in range(k - 1)] + [(j, k - 1) for j in range(k - 2)]


def _block_paths(n_sites, n_steps, noise_refine) -> int:
    """Paths per noise block: _PATH_BLOCK, capped at _DRAW_CAP raw draws.

    ``n_sites`` is the size of the configuration, not of an active set, so
    every truncation of one configuration is stepped in the same path
    blocks.  The step and every sum over the paths give the same bytes for
    any block width, so the blocks bound memory only.
    """
    if n_sites:
        return min(_PATH_BLOCK, max(1, _DRAW_CAP // (n_sites * n_steps * noise_refine)))
    return _PATH_BLOCK


def _chunk_nodes(n_steps, n_sets, n_pairs, plane) -> int:
    """Nodes per run of steps that the truncations step before they meet.

    A run takes n_sets + 4 (site, path) arrays per node, fewer where the
    sets leave sites frozen: each truncation's states, the path-order rows
    of the reductions and three temporaries; ``plane`` is one such array's
    size, every site of the configuration times the paths of a block.  A
    run's reductions cost a fixed number of numpy calls per level and pair,
    however few nodes it has, so a run is at least as long as fills
    ``_RUN_BYTES`` with these arrays.  Past that, the runs are as long as if
    each truncation and each pair held rows of its own, 2 n_sets + n_pairs
    + 3 arrays per node: a run of at most n_steps / twice that many nodes
    then holds at most half as many doubles as a noise block over every
    site.  No run is longer than all n_steps + 1 nodes.
    """
    floor = _RUN_BYTES // (8 * (n_sets + 4) * max(1, plane))
    return min(n_steps + 1, max(1, floor, n_steps // (2 * (2 * n_sets + n_pairs + 3))))


def simulation_bytes(n_sites, max_degree, n_sets, n_paths, n_steps, noise_refine=1,
                     cauchy=True, keep_paths=False) -> int:
    """An upper bound on the bytes :func:`simulate_levels` allocates for its arrays.

    A run's nodes are those of :func:`_chunk_nodes`, for a block over every
    site: at least ``_RUN_BYTES`` of run arrays, and at most every node.
    Per truncation (``n_sets`` of them): a block's run buffer (a run's
    nodes and one more row, over every site and one zero row), spread and
    running max, its band (``max_degree`` slots, band columns and weights
    per site), a few per-site vectors, three (node, site) sums and a
    blow-up flag per path; the states are held per block, not per path, so
    past one full block more paths cost only their flags.  Per truncation,
    though the levels reuse one set: seven step temporaries.  Once: a
    run's path-order rows (one more than the block has paths) and three
    run temporaries, one of which takes each Cauchy pair's differences in
    turn.  Per pair (with ``cauchy``): one (node, site) sum, reduced to a
    per-site sup once the levels have reduced theirs in place and released
    them; the ensembles keep only such per-site vectors.  One step-major
    noise block over every site, and a group of sites' fine draws for the block
    (``_NOISE_GROUP`` doubles, or one site) with, for ``noise_refine > 1``,
    their sums over each step.  The path tensors count only when they are
    kept.  Everything per site is counted over every site, so the estimate
    stays an upper bound.
    """
    n_pairs = max(2 * n_sets - 3, 0) if cauchy else 0   # len(cauchy_pairs(n_sets)), not listed
    block = min(n_paths, _block_paths(n_sites, n_steps, noise_refine))
    n_nodes = n_steps + 1
    chunk = _chunk_nodes(n_steps, n_sets, n_pairs, n_sites * block)
    level = (n_sites * (block * (chunk + 3) + 3 * max_degree + 8 + 3 * n_nodes)
             + (chunk + 1) * block + n_paths)
    steps = max(1, n_sets) * 7 * n_sites * block
    runs = chunk * n_sites * (4 * block + 1)
    per_draw = min(n_sites, max(1, _NOISE_GROUP // max(1, block * n_steps * noise_refine)))
    buffers = per_draw * block * n_steps * (noise_refine + (noise_refine > 1))
    noise = block * n_sites * n_steps + buffers
    tensors = n_sets * n_paths * n_sites * n_nodes if keep_paths else 0
    return 8 * (n_sets * level + steps + runs + n_pairs * n_sites * n_nodes + noise + tensors)


def _add_in_path_order(total, values, work) -> None:
    """Add the sums over paths of ``values`` (..., path) to ``total`` (...), path by path.

    The (path + 1, ...) buffer of ``rows`` in ``work`` carries
    the running total in row 0 and the paths below it, so one reduction
    down its leading axis adds them in path order.  That is bitwise the sum one reduction
    over all paths gives, however the paths are split into blocks (a sum
    along a contiguous axis would be pairwise and round differently).
    """
    rows = work.get("rows", (values.shape[-1] + 1, *values.shape[:-1]))
    rows[0] = total
    rows[1:] = np.moveaxis(values, -1, 0)
    if total.size == 1:   # a lone column would be reduced pairwise
        total[...] = np.add.accumulate(rows.reshape(len(rows)))[-1]
    else:
        np.add.reduce(rows, axis=0, out=total)


class _Workspace:
    """Buffers reused for every step and reduction of a run.

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
    """One level of a coupled run: its band, its run buffer and the sums
    reduced from it; reduction rows and step temporaries are the run's.

    ``active`` lists its sites in nested-prefix order: they are the first
    rows of the noise block and of every larger level's run buffer.  The run
    buffer ``nodes`` is (chunk + 1, active site + tail + 1, path): row 0 is the
    state a run starts from (zeta, then the last node of the previous run),
    and each node is stepped straight from the row above it.  The tail rows
    hold zeta at the frozen sites of the band and then one zero row, written
    once per block.  ``columns`` lists per band column j the rows of each
    active site's neighbor in that column, up to the last site with more
    than j neighbors and the zero row for a site before it with fewer (as
    ``weighted`` lists their kernel weights, 0.0 at the zero row), so
    :func:`band_sum` adds each site's band in band order whatever the block
    width, and a padding entry adds +0.0 to a sum that starts at +0.0.  The
    sums cover only the active sites: of |xi|^p and of its squared
    deviations from the shift, path 0's |xi|^p, in path order; a frozen
    site's moment is its |zeta|^p, computed once.  The band is
    range-checked once, before it is remapped (the active sites are in
    range by construction), so the step gathers with ``mode="clip"``, which
    skips numpy's checking copy.
    """

    def __init__(self, model, tamed, dt, config, zeta_values, active, n_paths, n_nodes,
                 keep_paths):
        n_sites = config.n_sites
        self.model, self.tamed, self.dt, self.p = model, tamed, dt, float(model.p)
        self.active = active
        # the band rows, padded with the site itself and a weight a(x - y) of 0
        pos = config.band_slots(active)
        real = pos >= 0
        slots = np.where(real, config.indices[pos], active[:, None])
        kernel = np.where(real, model.kernel(config.distances)[pos], 0.0)
        self.spread = model.sigma2 * config.degrees[active, None].astype(float)   # sigma2 n_x
        if slots.size and not 0 <= slots.min() <= slots.max() < n_sites:
            raise ValueError(f"a truncation's band names a site outside [0, {n_sites})")
        in_band = np.zeros(n_sites, dtype=bool)
        in_band[slots] = True
        in_band[active] = False
        # the band's frozen sites follow the active ones in the run buffer, then the zero row
        self.tail = np.flatnonzero(in_band)
        self.fixed = np.append(zeta_values[self.tail], 0.0)
        row_of = np.empty(n_sites, dtype=np.int64)
        row_of[np.concatenate([active, self.tail])] = np.arange(active.size + self.tail.size)
        rows = np.where(real, row_of[slots], active.size + self.tail.size).T.copy()
        # column j stops after its last real row, the last with more than j neighbors
        ends = np.max(real * np.arange(1, active.size + 1)[:, None], axis=0, initial=0)
        self.columns = [(column[:end], None) for column, end in zip(rows, ends)]
        weights = kernel[real]
        self.weighted = None   # a kernel equal over the band drifts by cap times the band sum
        if weights.size and weights.min() != weights.max():
            self.weighted = [(column[:end], weight[:end, None])
                             for column, weight, end in zip(rows, kernel.T.copy(), ends)]
        self.cap = weights[0] if weights.size else 0.0
        self.zeta = zeta_values
        self.frozen = np.delete(np.arange(n_sites), active)
        frozen_size = np.abs(zeta_values[self.frozen])
        # NaN fails the comparison too
        self.frozen_bounded = bool(np.all(frozen_size <= _BLOWUP_LIMIT))
        # a frozen site's moment: the mean of n samples that all hold |zeta|^p
        self.frozen_power = _power(frozen_size, self.p)
        self.blowup = np.empty(n_paths, dtype=bool)
        # sums of |xi|^p, path 0's |xi|^p, and sums of the squared deviations from it
        self.power, self.shift, self.squares = np.zeros((3, n_nodes, active.size))
        self.paths = None
        if keep_paths:
            self.paths = np.empty((n_paths, n_sites, n_nodes))
            self.paths[:, self.frozen] = zeta_values[self.frozen, None]
        self.nodes = self.spread_paths = self.peak = None

    def start_block(self, width, chunk) -> None:
        n = self.active.size
        self.nodes = np.empty((chunk + 1, n + self.fixed.size, width))
        self.nodes[0, :n] = self.zeta[self.active, None]
        self.nodes[:, n:] = self.fixed[:, None]
        self.spread_paths = np.repeat(self.spread, width, axis=1)   # (active site, path)
        self.peak = np.zeros((n, width))   # running max of |xi| from 0, for the blow-up flags

    def _step(self, noise, k0, k1, work) -> None:
        """Nodes k0 .. k1 - 1 of the path block (node 0 is the start state; at
        most a run of them) into rows 1 .. k1 - k0; the last is copied into row 0."""
        model, nodes, n = self.model, self.nodes, self.active.size
        band, part, phi, psi, tmp, scratch = (work.get(name, (n, nodes.shape[2])) for name in
                                              ("band", "part", "phi", "psi", "tmp", "scratch"))
        for row, k in enumerate(range(k0, k1), start=1):
            above, own = nodes[row - 1], nodes[row, :n]
            prev = above[:n]
            if not k:
                own[...] = prev
                continue
            band_sum(above, self.columns, band, part)
            model.potential(prev, out=phi, scratch=scratch)
            if self.weighted is None:
                phi += np.multiply(self.cap, band, out=tmp)
            else:
                phi += band_sum(above, self.weighted, tmp, part)
            # psi = sigma0 + sigma1 prev + sigma2 n_x (sum over the band)
            np.multiply(model.sigma1, prev, out=psi)
            psi += model.sigma0
            np.multiply(self.spread_paths, band, out=tmp)
            psi += tmp
            phi *= self.dt
            if self.tamed:   # phi dt / (1 + |phi dt|), bitwise phi dt / (1 + dt |phi|)
                np.abs(phi, out=tmp)
                tmp += 1.0
                phi /= tmp
            psi *= noise[k - 1, :n]
            np.add(prev, phi, out=own)
            own += psi
        nodes[0, :n] = nodes[k1 - k0, :n]

    def _reduce(self, start, k0, k1, work) -> None:
        """The running max and the |xi|^p sums and moments of nodes k0 .. k1 - 1;
        after the terminal node, the block's blow-up flags."""
        nodes = self.nodes[1 : k1 - k0 + 1, : self.active.size]
        width = nodes.shape[2]
        size = np.abs(nodes, out=work.get("run", nodes.shape))
        if self.paths is not None:
            self.paths[start : start + width, self.active, k0:k1] = nodes.transpose(2, 1, 0)
        peak = self.peak   # (active site, path in the block)
        for node in size:
            np.maximum(peak, node, out=peak)
        if k1 == self.power.shape[0]:
            # np.maximum carries NaN into peak, and NaN fails the comparison
            bounded = np.all(peak <= _BLOWUP_LIMIT, axis=0)
            self.blowup[start : start + width] = ~(bounded & self.frozen_bounded)
        powed = _power(size, self.p)
        _add_in_path_order(self.power[k0:k1], powed, work)
        shift = self.shift[k0:k1]
        if not start:
            shift[...] = powed[..., 0]
        powed -= shift[..., None]
        powed *= powed
        _add_in_path_order(self.squares[k0:k1], powed, work)

    def moments(self) -> tuple:
        """``moment`` and ``stderr`` of :class:`PathEnsemble` over every site.

        The squared deviations were summed from a sample, the shift (the
        shifted data of Chan, Golub & LeVeque 1983): at the node where a
        site's mean peaks, D = power - n shift, and the squared deviations
        from the mean are max(squares - D^2 / n, 0), exactly 0 where every
        path holds the same |xi|^p.  A frozen site's moment is its
        |zeta|^p and its standard error 0.0, without a sum over the paths.
        The level's own sums are released.
        """
        n, cols = self.blowup.size, np.arange(self.active.size)
        shifted = np.multiply(self.shift, n, out=self.shift)
        deviation = np.subtract(self.power, shifted, out=shifted)   # D at every node
        means = np.divide(self.power, n, out=self.power)
        peak = means.argmax(axis=0)
        moment, stderr = np.empty(self.zeta.size), np.zeros(self.zeta.size)
        moment[self.active], moment[self.frozen] = means[peak, cols], self.frozen_power
        if n > 1:
            d = deviation[peak, cols]
            m2 = np.maximum(self.squares[peak, cols] - d * d / n, 0.0)
            stderr[self.active] = np.sqrt(m2 / (n - 1)) / math.sqrt(n)
        self.power = self.shift = self.squares = None
        return moment, stderr


class _Pair:
    """The path sums of |xi^n - xi^m|^p for one pair (n, m) of :func:`cauchy_pairs`.

    Level n's sites are the first n_n rows of both run buffers.  With
    ``thawed`` (for m's smallest partner) the pair also covers m's other
    sites, where level n holds zeta; m's other pairs copy those sites' sups
    when the ensembles are built.  A site both levels freeze is skipped.
    """

    def __init__(self, ours, theirs, n_nodes, thawed):
        self.ours, self.theirs, self.n = ours, theirs, ours.active.size
        self.zeta = theirs.zeta[theirs.active[self.n :], None] if thawed else None
        self.sums = np.zeros((n_nodes, theirs.active.size if thawed else self.n))

    def reduce(self, k0, k1, work) -> None:
        """Add the path sums at nodes k0 .. k1 - 1, in the run temporary."""
        n, rows = self.n, slice(1, k1 - k0 + 1)
        theirs = self.theirs.nodes[rows, : self.sums.shape[1]]
        diff = work.get("run", theirs.shape)
        np.subtract(self.ours.nodes[rows, :n], theirs[:, :n], out=diff[:, :n])
        if self.zeta is not None:
            np.subtract(self.zeta, theirs[:, n:], out=diff[:, n:])
        _abs_power(diff, self.theirs.p, out=diff)
        _add_in_path_order(self.sums[k0:k1], diff, work)


def simulate_levels(model: ModelSpec, config: Configuration, levels, zeta: WeightedSeq, T, dt,
                    n_paths, seed, scheme="tamed", noise_refine=1, cauchy=True,
                    keep_paths=False) -> list:
    """Euler-Maruyama ensembles of nested truncation levels, driven by one noise draw.

    Each level is an integer array of sites of the configuration and lies
    inside the next one, as an exhaustion sequence does, and ``seed`` lies
    in [0, 2**64); ValueError otherwise.  Per block
    of paths, the site streams of the last level are drawn once, continuing
    from the previous block, in nested-prefix order (level 0's sites, then
    those each next level adds, each part ranked by falling degree), so
    every level steps from the first rows of that block, and the band
    columns of its step stop at their last real rows.  No byte depends on
    the order inside a part: each site draws from its own stream and every
    per-site result is mapped back through the sites.  States are reduced
    while stepping into per (node, site) sums at the model's moment order:
    |xi|^p for every level and, with
    ``cauchy``, |xi^n - xi^m|^p for each pair (n, m) of
    :func:`cauchy_pairs`, one reduction per pair (see :class:`_Pair`); then
    each is reduced over the nodes to the per-site sups of
    :class:`PathEnsemble`.  The levels step in lockstep, meeting after every
    short run of nodes.  Only active sites are stepped, stored and reduced
    node by node; a frozen site reports |zeta|^p and no spread.  Each site
    stream's generator state is kept for the next block, except after the
    last one.  The path tensors are stored only with ``keep_paths``.  Under
    the tamed scheme the drift increment is Phi dt / (1 + dt |Phi|), which
    keeps the superlinear cubic decay stable where the explicit scheme can
    blow up.  Sites outside a level stay bitwise frozen at their initial
    value.  Every sum is added in path order, so no byte depends on the
    path blocks: each level's paths and sups are bitwise those of a lone
    :func:`simulate_truncated` run, and levels share the increments of
    their common sites bitwise.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    if zeta.config is not config:
        raise ValueError("initial data lives on a different configuration")
    n_steps = step_count(T, dt)
    if n_paths < 1 or noise_refine < 1:
        raise ValueError("need n_paths >= 1 and noise_refine >= 1")
    source = _NoiseSource(seed)
    order, counts = _nested_levels(config, levels)
    if not counts.size:
        return []

    n_nodes = n_steps + 1
    levels = [_Level(model, scheme == "tamed", dt, config, zeta.values, order[:count], n_paths,
                     n_nodes, keep_paths) for count in counts]
    pairs = cauchy_pairs(len(levels)) if cauchy else []
    smallest = {m: min(n for n, large in pairs if large == m) for _, m in pairs}
    reduced = {(n, m): _Pair(levels[n], levels[m], n_nodes, n == smallest[m]) for n, m in pairs}
    path_block, work = _block_paths(config.n_sites, n_steps, noise_refine), _Workspace()
    chunk = _chunk_nodes(n_steps, len(levels), len(pairs),
                         config.n_sites * min(n_paths, path_block))

    # paths that overflow or turn NaN are flagged by the blow-up test, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_paths, path_block):
            stop = min(start + path_block, n_paths)
            # the streams continue unless this is their last block
            noise = _noise_block(source, stop - start, order, n_steps, dt, noise_refine,
                                 stop < n_paths)
            for level in levels:
                level.start_block(stop - start, chunk)
            for k0 in range(0, n_nodes, chunk):
                k1 = min(k0 + chunk, n_nodes)
                for level in levels:   # each run of nodes is reduced once it is stepped
                    level._step(noise, k0, k1, work)
                    level._reduce(start, k0, k1, work)
                for pair in reduced.values():
                    pair.reduce(k0, k1, work)
            for level in levels:   # run buffers and noise are freed before the next block is drawn
                level.nodes = level.spread_paths = level.peak = None
            del noise
        moments = [level.moments() for level in levels]
        sups = {key: np.divide(pair.sums, n_paths, out=pair.sums).max(axis=0)
                for key, pair in reduced.items()}

    times, diffs = np.linspace(0.0, T, n_nodes), [{} for _ in levels]
    for (n, m), sup in sups.items():
        full, sites, size = np.zeros(config.n_sites), levels[m].active, levels[n].active.size
        full[sites[:size]] = sup[:size]
        full[sites[size:]] = sups[smallest[m], m][size:]
        diffs[n][m] = full
    return [
        PathEnsemble(
            config=config,
            active=np.sort(level.active),
            times=times,
            paths=level.paths,
            seed=int(seed),
            scheme=scheme,
            dt=float(dt),
            noise_refine=int(noise_refine),
            blowup=level.blowup,
            p=level.p,
            moment=moment,
            stderr=stderr,
            diffs=level_diffs,
        )
        for level, (moment, stderr), level_diffs in zip(levels, moments, diffs)
    ]


def simulate_truncated(model: ModelSpec, config: Configuration, lambda_n, zeta: WeightedSeq, T,
                       dt, n_paths, seed, scheme="tamed", noise_refine=1) -> PathEnsemble:
    """Euler-Maruyama time stepping of one truncated system.

    The one-level case of :func:`simulate_levels`, with its paths kept.
    The increments of a (path, site) pair depend only on (seed, site index,
    path, n_steps * noise_refine), so ensembles with different active sets
    share increments sitewise, and however the paths are split into
    blocks, its sums are bitwise the same.
    """
    return simulate_levels(
        model, config, [lambda_n], zeta, T, dt, n_paths, seed,
        scheme=scheme, noise_refine=noise_refine, keep_paths=True,
    )[0]
