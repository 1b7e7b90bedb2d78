import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latticesde as lat
from conftest import brute_force_neighbors
from latticesde import sde
from latticesde.sde import (
    _NOISE_GROUP,
    _noise_block,
    _NoiseSource,
    simulate_levels,
    simulation_bytes,
)
import oracles


def full_site_step(config):
    """The step on every site's state in one (site, path) array, the active
    rows scattered back after each node and written into the run buffer's
    rows for the reductions.  The band sums add one band column after the
    other from 0.0, 0.0 past a site's degree; the drift is the kernel's value
    times the band sum where the kernel is equal over the band, else the sum
    of the kernel-weighted columns.  Each site's band and kernel weights are
    read off its own row of the configuration, ``config.row(x)``.  A
    stand-in for ``_Level._step``."""
    def step(level, noise, k0, k1, work):
        model, active = level.model, level.active
        bands = [config.row(x) for x in active]
        degrees = np.array([band.stop - band.start for band in bands])
        # row i: site active[i]'s neighbors and their weights a(x - y), then padding
        slots = np.zeros((active.size, degrees.max()), dtype=np.int64)
        real = np.arange(degrees.max()) < degrees[:, None]
        kernel = np.zeros(slots.shape)
        for i, band in enumerate(bands):
            slots[i, : degrees[i]] = config.indices[band]
            kernel[i, : degrees[i]] = model.kernel(config.distances[band])
        weights = kernel[real]
        if k0 == 0:
            level.state = np.repeat(level.zeta[:, None], level.nodes.shape[2], axis=1)
        state = level.state
        with np.errstate(over="ignore", invalid="ignore"):
            for row, k in enumerate(range(k0, k1), start=1):
                if k:
                    band, drift = np.zeros((2, active.size, state.shape[1]))
                    for j in range(slots.shape[1]):
                        column = np.where(real[:, j, None], state[slots[:, j]], 0.0)
                        band += column
                        drift += kernel[:, j, None] * column
                    if weights.min() == weights.max():
                        drift = weights[0] * band
                    own = state[active]
                    phi = (model.potential(own) + drift) * level.dt
                    if level.tamed:
                        phi = phi / (1.0 + np.abs(phi))
                    psi = (model.sigma1 * own + model.sigma0
                           + model.sigma2 * degrees[:, None] * band)
                    dw = noise[k - 1, : active.size]
                    state[active] = own + phi + psi * dw
                level.nodes[row, : active.size] = state[active]

    return step


def prefix_order(config, levels):
    """The sites of nested levels in the order a coupled run draws them: the
    first level's, then those each next level adds, each part ranked by
    falling degree, ties by site index."""
    parts = [np.unique(levels[0])] + [np.setdiff1d(b, a) for a, b in zip(levels, levels[1:])]
    ranked = [sorted(part.tolist(), key=lambda x: (-int(config.degrees[x]), x)) for part in parts]
    return np.array([x for part in ranked for x in part], dtype=np.int64)


def site_stream(seed, site, n_paths, n_fine):
    """The first n_paths paths of a site's noise stream, drawn directly: one
    standard_normal call of a Philox keyed (seed, site)."""
    key = np.array([seed, site], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((n_paths, n_fine))


def run_nodes(n_sites, n_paths, n_steps, n_sets, n_pairs, noise_refine=1):
    """The nodes per run of :func:`simulate_levels`, from its first path block's width."""
    block = min(n_paths, sde._block_paths(n_sites, n_steps, noise_refine))
    return sde._chunk_nodes(n_steps, n_sets, n_pairs, n_sites * block)


def short_run_nodes(n_steps, n_sets, n_pairs):
    """The run length without the byte floor: n_steps / twice the arrays per node."""
    return max(1, n_steps // (2 * (2 * n_sets + n_pairs + 3)))


@pytest.fixture(scope="module")
def pair_config():
    return lat.configuration_from_points([[0.0], [0.5]], rho=1.0)


class TestDriftDiffusion:
    def test_pure_cubic_potential(self, single_site_config):
        model = lat.make_model("cubic", 0.0, kernel_cap=0.0, rho=1.0, p=4.0, sigma0=0.0)
        Z = lat.WeightedSeq(single_site_config, np.array([7.0]))
        assert oracles.drift(model, 0, 2.0, Z) == pytest.approx(-8.0)

    def test_cubic_with_self_interaction(self, single_site_config):
        model = lat.make_model(
            "cubic", 0.0, kernel="constant", kernel_cap=0.3, rho=1.0, p=4.0
        )
        Z = lat.WeightedSeq(single_site_config, np.array([7.0]))
        assert oracles.drift(model, 0, 2.0, Z) == pytest.approx(-8.0 + 0.3 * 7.0)

    def test_zero_state_zero_drift(self, single_site_config):
        Z = lat.WeightedSeq(single_site_config, np.zeros(1))
        for kind, param in (("linear", 1.5), ("cubic", 0.0)):
            model = lat.make_model(kind, param, kernel_cap=0.2, rho=1.0, p=4.0)
            assert oracles.drift(model, 0, 0.0, Z) == 0.0

    def test_linear_with_neighbor(self, pair_config):
        model = lat.make_model(
            "linear", 1.0, kernel="constant", kernel_cap=0.5, rho=1.0, p=2.0
        )
        Z = lat.WeightedSeq(pair_config, np.array([0.0, 4.0]))
        # V(1) + a(0) * 0 + a(0.5) * 4 = -1 + 2
        assert oracles.drift(model, 0, 1.0, Z) == pytest.approx(1.0)

    def test_additive_noise_only(self, single_site_config):
        model = lat.make_model("linear", 1.0, sigma0=1.0, p=2.0)
        Z = lat.WeightedSeq(single_site_config, np.array([5.0]))
        assert oracles.diffusion(model, 0, 3.0, Z) == pytest.approx(1.0)

    def test_zero_diffusion(self, single_site_config):
        model = lat.make_model("linear", 1.0, p=2.0)
        Z = lat.WeightedSeq(single_site_config, np.array([5.0]))
        assert oracles.diffusion(model, 0, 3.0, Z) == 0.0

    def test_state_dependent_diffusion(self, single_site_config):
        model = lat.make_model("linear", 1.0, sigma0=0.0, sigma1=2.0, sigma2=0.1, p=2.0)
        Z = lat.WeightedSeq(single_site_config, np.array([1.0]))
        # 2*3 + 0.1 * n_x * z_self = 6.1
        assert oracles.diffusion(model, 0, 3.0, Z) == pytest.approx(6.1)

    def test_triangular_kernel_vanishes_at_radius(self):
        cfg = lat.configuration_from_points([[0.0], [1.0]], rho=1.0)
        model = lat.make_model(
            "linear", 1.0, kernel="triangular", kernel_cap=2.0, rho=1.0, p=2.0
        )
        # V(0) = 0, so the drift at q = 0 is the kernel-weighted neighbor sum
        self_only = lat.WeightedSeq(cfg, np.array([1.0, 0.0]))
        other_only = lat.WeightedSeq(cfg, np.array([0.0, 1.0]))
        assert oracles.drift(model, 0, 0.0, self_only) == pytest.approx(2.0)
        assert oracles.drift(model, 0, 0.0, other_only) == pytest.approx(0.0)


class TestDissipativity:
    def test_cubic_passes(self, pair_config):
        model = lat.make_model("cubic", 0.0, kernel_cap=0.1, rho=1.0, p=4.0, sigma0=0.1)
        rep = oracles.check_dissipativity(model, 500, 10.0, 1, config=pair_config)
        assert rep.all_ok and not rep.witnesses

    def test_linear_constants(self):
        model = lat.make_model("linear", 2.0, p=2.0)
        assert model.dissipativity_b == pytest.approx(-2.0)
        assert model.growth_c == pytest.approx(2.0)
        assert model.growth_R == 1.0
        rep = oracles.check_dissipativity(model, 500, 10.0, 2)
        assert rep.all_ok

    def test_injected_expanding_potential_fails(self):
        # V(q) = +q^2 is not one-sided Lipschitz with b = 0: witness expected
        bad = lat.ModelSpec(
            potential=lat.Potential("custom", func=lambda q: np.asarray(q) ** 2),
            kernel=lat.InteractionKernel("constant", 0.0, 1.0),
            sigma0=0.0, sigma1=0.0, sigma2=0.0,
            growth_c=1.0, growth_R=2.0, dissipativity_b=0.0,
            lipschitz_m1=0.0, lipschitz_m2=0.0, p=2.0,
        )
        rep = oracles.check_dissipativity(bad, 2000, 5.0, 3)
        assert not rep.d_ok
        assert any(tag == "D" for tag, _ in rep.witnesses)

    def test_understated_lipschitz_fails(self, pair_config):
        model = dataclasses.replace(
            lat.make_model("linear", 1.0, sigma1=1.0, p=2.0), lipschitz_m1=0.1
        )
        rep = oracles.check_dissipativity(model, 200, 5.0, 4, config=pair_config)
        assert not rep.e_ok


class TestDriftLemmaInequalities:
    @pytest.mark.parametrize("kind,param", [("linear", 1.0), ("cubic", 0.0)])
    def test_growth_and_one_sided_bounds(self, kind, param):
        cfg = lat.sample_configuration(2.0, 4.0, 1, 1.0, 55)
        model = lat.make_model(
            kind, param, kernel="constant", kernel_cap=0.4, rho=1.0, p=4.0
        )
        atil = oracles.a_tilde(model, cfg)
        rng = np.random.default_rng(56)
        b = model.dissipativity_b
        for _ in range(300):
            x = int(rng.integers(cfg.n_sites))
            nbrs = cfg.indices[cfg.row(x)]
            q1, q2 = rng.uniform(-3, 3, size=2)
            Z1 = lat.WeightedSeq(cfg, rng.uniform(-3, 3, cfg.n_sites))
            Z2 = lat.WeightedSeq(cfg, rng.uniform(-3, 3, cfg.n_sites))
            # growth: |Phi| <= c (1 + |q|^R) + a~_x (sum z^2)^(1/2)
            phi = oracles.drift(model, x, q1, Z1)
            growth_rhs = model.growth_c * (1 + abs(q1) ** model.growth_R) + atil[
                x
            ] * math.sqrt(float(np.sum(Z1.values[nbrs] ** 2)))
            assert abs(phi) <= growth_rhs + 1e-9
            # one-sided: (q1-q2)(Phi1-Phi2) <= (b+1/2)(q1-q2)^2 + a~^2/2 sum dz^2
            lhs = (q1 - q2) * (phi - oracles.drift(model, x, q2, Z2))
            dz2 = float(np.sum((Z1.values[nbrs] - Z2.values[nbrs]) ** 2))
            rhs = (b + 0.5) * (q1 - q2) ** 2 + 0.5 * atil[x] ** 2 * dz2
            assert lhs <= rhs + 1e-9


class TestSimulation:
    @pytest.mark.parametrize("T, dt", [(1e300, 1e-300), (1.0, 5e-324)])
    def test_step_count_past_the_float_range_rejected(self, T, dt):
        with pytest.raises(ValueError, match="float range"):
            sde.step_count(T, dt)

    def test_deterministic_linear_decay(self, single_site_config):
        model = lat.make_model("linear", 1.0, p=2.0)
        zeta = lat.WeightedSeq(single_site_config, np.ones(1))
        dt = 1e-3
        ens = lat.simulate_truncated(
            model, single_site_config, [0], zeta, 1.0, dt, 1, 0, scheme="explicit"
        )
        # exact Euler value and the continuous limit
        steps = np.arange(ens.times.size)
        euler = (1.0 - dt) ** steps
        assert np.allclose(ens.paths[0, 0], euler, rtol=1e-12)
        assert np.max(np.abs(ens.paths[0, 0] - np.exp(-ens.times))) < 1e-3

    def test_empty_active_set_freezes_everything(self, poisson_1d):
        model = lat.make_model("cubic", 0.0, kernel_cap=0.2, rho=1.0, p=4.0, sigma0=1.0)
        zeta = lat.WeightedSeq(poisson_1d, np.full(poisson_1d.n_sites, 2.5))
        ens = lat.simulate_truncated(model, poisson_1d, [], zeta, 0.5, 0.01, 8, 3)
        assert np.all(ens.paths == 2.5)

    def test_frozen_sites_bit_exact(self, poisson_1d):
        model = lat.make_model(
            "cubic", 0.0, kernel_cap=0.1, rho=1.0, p=4.0, sigma0=0.3
        )
        rng = np.random.default_rng(8)
        zeta = lat.WeightedSeq(poisson_1d, rng.standard_normal(poisson_1d.n_sites))
        half = list(range(poisson_1d.n_sites // 2))
        ens = lat.simulate_truncated(model, poisson_1d, half, zeta, 0.5, 0.01, 16, 9)
        frozen = np.setdiff1d(np.arange(poisson_1d.n_sites), np.asarray(half))
        for x in frozen:
            column = ens.paths[:, x, :]
            assert np.all(column == zeta.values[x])

    def test_noise_coupling_across_truncations(self, poisson_1d):
        # decoupled dynamics: sites active in both runs follow identical paths
        model = lat.make_model("linear", 1.0, kernel_cap=0.0, rho=1.0,
                               sigma0=0.5, p=2.0)
        zeta = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
        small = list(range(4))
        big = list(range(poisson_1d.n_sites))
        e1 = lat.simulate_truncated(model, poisson_1d, small, zeta, 0.5, 0.01, 12, 77)
        e2 = lat.simulate_truncated(model, poisson_1d, big, zeta, 0.5, 0.01, 12, 77)
        for x in small:
            assert np.array_equal(e1.paths[:, x, :], e2.paths[:, x, :])

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(dim=st.integers(1, 3), seed=st.integers(0, 2**16),
           scheme=st.sampled_from(sde.SCHEMES), kernel=st.sampled_from(["constant", "triangular"]),
           cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    def test_one_step_matches_dense_reference(self, dim, seed, scheme, kernel, cuts):
        # some 25 sites in d = 1, 2 or 3, and nested levels drawn as prefixes
        # of a shuffle of them
        cfg = lat.sample_configuration(2.0, {1: 6.0, 2: 1.8, 3: 1.2}[dim], dim, 1.0, seed)
        assume(cfg.n_sites > 0)
        model = lat.make_model(
            "cubic", 0.5, kernel=kernel, kernel_cap=0.3, rho=1.0,
            sigma0=0.2, sigma1=0.1, sigma2=0.05, p=4.0,
        )
        rng = np.random.default_rng(seed)
        zeta = lat.WeightedSeq(cfg, rng.uniform(-1.0, 1.0, cfg.n_sites))
        sites = rng.permutation(cfg.n_sites)
        levels = [sites[: max(1, math.ceil(cut * cfg.n_sites))] for cut in sorted(cuts)]
        dt, n_paths = 0.01, 2
        ensembles = simulate_levels(model, cfg, levels, zeta, dt, dt, n_paths, seed,
                                    scheme=scheme, keep_paths=True)
        # dense all-pairs reference, independent of the band
        diff = cfg.points[:, None, :] - cfg.points[None, :, :]
        d2 = np.sum(diff**2, axis=2)
        K = np.where(d2 <= 1.0, model.kernel(np.sqrt(d2)), 0.0)
        adj = (d2 <= 1.0).astype(float)
        x0 = zeta.values
        phi = model.potential(x0) + K @ x0
        drift = phi * dt / (1.0 + dt * np.abs(phi)) if scheme == "tamed" else phi * dt
        psi = model.sigma0 + model.sigma1 * x0 + model.sigma2 * adj.sum(axis=1) * (adj @ x0)
        for active, ens in zip(levels, ensembles):
            for path in range(n_paths):
                dw = np.array([oracles.wiener_increments(seed, path, int(x), 1, dt)[0]
                               for x in active])
                want = x0.copy()
                want[active] += drift[active] + psi[active] * dw
                got = ens.paths[path, :, 1]
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_memory_stays_below_one_dense_matrix(self):
        # 2-d window with S = 32: about 8k sites, so one n x n float64 matrix
        # would take about 0.5 GB
        tracemalloc.start()
        try:
            cfg = lat.sample_configuration(2.0, 32.0, 2, 1.0, 3)
            model = lat.make_model("cubic", 0.0, kernel_cap=0.05, rho=1.0, sigma0=0.1,
                                   sigma2=0.02, p=4.0)
            zeta = lat.WeightedSeq(cfg, np.ones(cfg.n_sites))
            lat.random_banded_operator(cfg, 0.5, 1.0, 4)
            lat.simulate_truncated(model, cfg, np.arange(cfg.n_sites), zeta, 0.02, 0.01, 2, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cfg.n_sites > 7000
        assert peak < cfg.n_sites**2 * 8 / 20

    def test_wiener_increment_grid_compatibility(self):
        # dt grid with refine 2 carries the same Brownian path as dt/2 with refine 1
        a = oracles.wiener_increments(5, 2, 3, 50, 0.1, refine=2)
        b = oracles.wiener_increments(5, 2, 3, 100, 0.05, refine=1)
        assert np.array_equal(a, b.reshape(50, 2).sum(axis=1))

    def test_wiener_streams_differ_across_sites_and_paths(self):
        base = oracles.wiener_increments(5, 2, 3, 50, 0.1)
        assert not np.array_equal(base, oracles.wiener_increments(5, 2, 4, 50, 0.1))
        assert not np.array_equal(base, oracles.wiener_increments(5, 3, 3, 50, 0.1))
        assert not np.array_equal(base, oracles.wiener_increments(6, 2, 3, 50, 0.1))

    @pytest.mark.parametrize("refine", [1, 2, 16])
    def test_wiener_increments_are_slices_of_the_site_stream(self, refine):
        # path 3 of site 7 is slice 3 of one path-major draw of the site's
        # stream, keyed (seed, site), scaled and summed in blocks of refine
        direct = site_stream(5, 7, 4, 20 * refine)
        want = (math.sqrt(0.1 / refine) * direct[3]).reshape(20, refine).sum(axis=1)
        assert np.array_equal(oracles.wiener_increments(5, 3, 7, 20, 0.1, refine=refine), want)

    @pytest.mark.parametrize("refine", [1, 3])
    def test_noise_block_is_the_wiener_streams(self, refine):
        paths, sites = [2, 3, 4], [1, 3, 7, 9]
        source = _NoiseSource(5)
        _noise_block(source, 2, sites, 20, 0.1, refine)   # the streams go on at path 2
        block = _noise_block(source, len(paths), sites, 20, 0.1, refine)
        assert block.shape == (20, len(sites), len(paths)) and block.flags.c_contiguous
        for pi, path in enumerate(paths):
            for si, site in enumerate(sites):
                want = oracles.wiener_increments(5, path, site, 20, 0.1, refine=refine)
                assert np.array_equal(block[:, si, pi], want)

    def test_band_naming_a_missing_site_is_refused(self, pair_config):
        # the step gathers with mode="clip", so the band is checked once, up front,
        # instead of a bad index being clamped to the last site
        indices = pair_config.indices.copy()
        indices[indices == 1] = pair_config.n_sites
        broken = dataclasses.replace(pair_config, indices=indices)
        model = lat.make_model("linear", 1.0, kernel_cap=0.1, rho=1.0, sigma0=0.3, p=2.0)
        zeta = lat.WeightedSeq(broken, np.ones(broken.n_sites))
        with pytest.raises(ValueError, match="outside"):
            lat.simulate_truncated(model, broken, [0, 1], zeta, 0.1, 0.01, 3, 0)

    @pytest.mark.parametrize("levels, message", [
        (lambda n: [[-1]], "out-of-range"),   # a site mask would wrap it to the last site
        (lambda n: [[0], [0, n]], "out-of-range"),
        (lambda n: [[0, 1], [1, 2]], "nested"),
        (lambda n: [[n - 1], list(range(n - 1)), list(range(n))], "nested"),
        # a site mask, cast to integers, would name sites 0 and 1 instead
        (lambda n: [np.arange(n) < 8], "dtype bool"),
        (lambda n: [[0.7, 2.9]], "dtype float64"),   # cast, it would name sites 0 and 2
    ])
    def test_levels_outside_the_configuration_or_not_nested_are_refused(
            self, poisson_1d, levels, message):
        n = poisson_1d.n_sites
        model = lat.make_model("linear", 1.0, kernel_cap=0.1, rho=1.0, sigma0=0.3, p=2.0)
        zeta = lat.WeightedSeq(poisson_1d, np.ones(n))
        with pytest.raises(ValueError, match=message):
            simulate_levels(model, poisson_1d, levels(n), zeta, 0.02, 0.01, 2, 0)

    def test_empty_level_is_accepted(self, poisson_1d):
        # numpy types an empty list as float64
        model = lat.make_model("linear", 1.0, kernel_cap=0.1, rho=1.0, sigma0=0.3, p=2.0)
        zeta = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
        empty, first = simulate_levels(model, poisson_1d, [[], [0, 1]], zeta, 0.02, 0.01, 2, 0)
        assert empty.active.size == 0 and first.active.tolist() == [0, 1]
        # two paths of |1|^2 at every site: a mean of 1, without deviations
        assert np.all(empty.moment == 1.0) and np.all(empty.stderr == 0.0)

    def test_ensembles_hold_only_per_site_values(self):
        # ten identical full levels of 51 sites over 401 nodes: their sums
        # and those of their 17 pairs are (node, site) while they are stepped,
        # and what the returned ensembles hold stays per site
        config = lat.configuration_from_points(0.5 * np.arange(51.0)[:, None], rho=1.0)
        model = lat.make_model("linear", 1.0, kernel_cap=0.1, rho=1.0, sigma0=0.3, p=2.0)
        zeta = lat.WeightedSeq(config, np.ones(config.n_sites))
        levels = [np.arange(config.n_sites)] * 10
        vectors = len(levels) + len(sde.cauchy_pairs(len(levels)))
        # a short run first, so that the modules numpy imports lazily are not counted
        simulate_levels(model, config, levels[:2], zeta, 0.002, 0.001, 1, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ensembles = simulate_levels(model, config, levels, zeta, 0.4, 0.001, 1, 3)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ensembles) == 10 and ensembles[0].times.size == 401
        # per level its moments, standard errors and sorted sites, per pair
        # its sups, and the node times: within 8 doubles per vector and site,
        # where a (node, site) array per level and pair takes 401
        assert held <= 8 * 8 * vectors * config.n_sites, held

    @pytest.mark.parametrize("seed, error", [
        # masked to 64 bits, 2**64 + 8 would draw seed 8's noise and -1 that of 2**64 - 1
        (-1, r"seed must lie in \[0, 2\*\*64\)"),
        (2**64 + 8, r"seed must lie in \[0, 2\*\*64\)"),
        (8.5, None),   # Philox would truncate it to 8
    ])
    def test_seed_outside_64_bits_is_refused(self, single_site_config, seed, error):
        model = lat.make_model("linear", 1.0, sigma0=0.3, p=2.0)
        zeta = lat.WeightedSeq(single_site_config, np.ones(1))
        with pytest.raises(ValueError if error else TypeError, match=error):
            simulate_levels(model, single_site_config, [[0]], zeta, 0.02, 0.01, 2, seed)

    def test_largest_seed_is_accepted(self, single_site_config):
        model = lat.make_model("linear", 1.0, sigma0=0.3, p=2.0)
        zeta = lat.WeightedSeq(single_site_config, np.ones(1))
        runs = [lat.simulate_truncated(model, single_site_config, [0], zeta, 0.05, 0.01, 3, seed)
                for seed in (np.uint64(2**64 - 1), 2**64 - 1, 2**64 - 2)]
        assert runs[0].seed == 2**64 - 1
        assert np.array_equal(runs[0].paths, runs[1].paths)
        assert not np.array_equal(runs[0].paths, runs[2].paths)

    @pytest.mark.parametrize("chunk, noise_refine, kernel", [   # id: chunk-refine[-kernel]
        pytest.param(chunk, refine, kernel,
                     id=f"{chunk}-{refine}" + ("" if kernel == "triangular" else f"-{kernel}"))
        for kernel in ("triangular", "constant") for chunk in (1, 2) for refine in (1, 2)
    ])
    def test_run_buffer_steps_like_the_full_site_state(self, monkeypatch, chunk, noise_refine,
                                                        kernel):
        # truncated 2-d levels and their pairs, in blocks of 3 paths and runs
        # of 1 or 2 nodes, on coarse or refined noise, with a drift that is
        # the constant kernel's cap times the band sum or a weighted band sum:
        # paths and sums are bitwise those of the full-site step
        cfg = lat.sample_configuration(2.0, 4.0, 2, 1.0, 12)
        model = lat.make_model("cubic", 0.1, kernel=kernel, kernel_cap=0.3, rho=1.0,
                               sigma0=0.2, sigma1=0.1, sigma2=0.05, p=3.0)
        zeta = lat.WeightedSeq(cfg, np.random.default_rng(4).uniform(-1.0, 1.0, cfg.n_sites))
        sets = [np.flatnonzero(cfg.radii <= r) for r in (1.5, 3.0, np.inf)]
        monkeypatch.setattr(sde, "_PATH_BLOCK", 3)
        monkeypatch.setattr(sde, "_chunk_nodes", lambda *args: chunk)

        def run():
            return simulate_levels(model, cfg, sets, zeta, 0.05, 0.01, 7, 19,
                                   noise_refine=noise_refine, keep_paths=True)

        new = run()
        monkeypatch.setattr(sde._Level, "_step", full_site_step(cfg))
        old = run()
        for ours, want in zip(new, old):
            assert ours.paths.tobytes() == want.paths.tobytes()
            assert ours.blowup.tobytes() == want.blowup.tobytes()
            for name in ("moment", "stderr"):
                assert getattr(ours, name).tobytes() == getattr(want, name).tobytes()
            assert ours.diffs.keys() == want.diffs.keys()
            for m in want.diffs:
                assert ours.diffs[m].tobytes() == want.diffs[m].tobytes()
        assert np.any(new[0].diffs[1] > 0.0)

    @pytest.mark.parametrize("kernel", ["constant", "triangular"])
    def test_path_block_width_leaves_the_bytes(self, monkeypatch, kernel):
        # truncated 2-d levels in blocks of 1, 3 or 7 paths or in one block:
        # the step adds each band in band order and every sum adds path by
        # path, so paths, moments, standard errors, blow-up flags and Cauchy
        # sups are bitwise the same
        cfg = lat.sample_configuration(2.0, 4.0, 2, 1.0, 12)
        model = lat.make_model("cubic", 0.1, kernel=kernel, kernel_cap=0.3, rho=1.0,
                               sigma0=0.2, sigma1=0.1, sigma2=0.05, p=3.0)
        zeta = lat.WeightedSeq(cfg, np.random.default_rng(4).uniform(-1.0, 1.0, cfg.n_sites))
        sets = [np.flatnonzero(cfg.radii <= r) for r in (1.5, 3.0, np.inf)]
        runs = []
        for width in (sde._PATH_BLOCK, 1, 3, 7):
            monkeypatch.setattr(sde, "_PATH_BLOCK", width)
            runs.append(simulate_levels(model, cfg, sets, zeta, 0.05, 0.01, 7, 19,
                                        keep_paths=True))
        for run in runs[1:]:
            for ours, want in zip(run, runs[0]):
                for name in ("paths", "moment", "stderr", "blowup"):
                    assert getattr(ours, name).tobytes() == getattr(want, name).tobytes()
                assert ours.diffs.keys() == want.diffs.keys()
                for m in want.diffs:
                    assert ours.diffs[m].tobytes() == want.diffs[m].tobytes()

    def test_simulation_bytes_counts_tensors_and_one_block(self, poisson_1d, monkeypatch):
        n, steps, degree = poisson_1d.n_sites, 10, int(poisson_1d.degrees.max())
        with monkeypatch.context() as patch:
            patch.setattr(sde, "_PATH_BLOCK", 5)
            plain = simulation_bytes(n, degree, 2, 7, steps, noise_refine=2, cauchy=False)
            # the two path tensors count only when they are kept
            kept = simulation_bytes(n, degree, 2, 7, steps, noise_refine=2, cauchy=False,
                                    keep_paths=True)
            assert kept - plain == 8 * 2 * 7 * n * (steps + 1)
            # the block of 5 paths x n sites x 10 steps does not depend on the
            # refinement; the draw buffer holds every site's 5 paths x 20 fine
            # draws and their 10 sums at refine 2, and 10 draws at refine 1
            assert _NOISE_GROUP >= n * 5 * 2 * steps
            once = simulation_bytes(n, degree, 2, 7, steps, noise_refine=1, cauchy=False)
            assert plain - once == 8 * n * 5 * 2 * steps
            # the one Cauchy pair of two levels adds one (node, site) sum
            pair = simulation_bytes(n, degree, 2, 7, steps, noise_refine=2)
            assert pair - plain == 8 * n * (steps + 1)
            # a group of sites whose draws fill _NOISE_GROUP, or one site
            patch.setattr(sde, "_NOISE_GROUP", 3 * 5 * 2 * steps + 1)
            group = simulation_bytes(n, degree, 2, 7, steps, noise_refine=2, cauchy=False)
            assert plain - group == 8 * (n - 3) * 5 * 3 * steps
            patch.setattr(sde, "_NOISE_GROUP", 1)
            site = simulation_bytes(n, degree, 2, 7, steps, noise_refine=2, cauchy=False)
            assert plain - site == 8 * (n - 1) * 5 * 3 * steps
        # the estimate counts the pairs of cauchy_pairs without listing them
        for k in range(1, 7):
            extra = (simulation_bytes(n, degree, k, 7, steps)
                     - simulation_bytes(n, degree, k, 7, steps, cauchy=False))
            assert extra == 8 * len(sde.cauchy_pairs(k)) * n * (steps + 1)
        # past one full block, more paths cost only their blow-up flag
        big = simulation_bytes(n, degree, 2, 10**9, steps)
        assert big - simulation_bytes(n, degree, 2, 10**8, steps) == 8 * 2 * 9 * 10**8

    @pytest.mark.parametrize("shape, cauchy_runs, plain_runs", [
        ((51, 500, 100, 4), 3, 4),   # levels1d: the floor is below the short runs
        ((2064, 32, 50, 3), 2, 2),   # window2d: the floor is 0 nodes
        ((14, 400, 50, 3), None, None),   # demo: the floor binds
    ])
    def test_run_length_per_shape(self, shape, cauchy_runs, plain_runs):
        # (sites, paths, steps, levels) of the bench workloads: the byte floor
        # lengthens only the runs of small planes, where the reductions' fixed
        # numpy calls per run cost most
        n_sites, n_paths, steps, n_sets = shape
        n_pairs = len(sde.cauchy_pairs(n_sets))
        runs = [run_nodes(n_sites, n_paths, steps, n_sets, k) for k in (n_pairs, 0)]
        if cauchy_runs is None:
            assert [short_run_nodes(steps, n_sets, k) for k in (n_pairs, 0)] == [2, 2]
            assert min(runs) >= 5
        else:
            assert runs == [cauchy_runs, plain_runs]
            assert runs == [short_run_nodes(steps, n_sets, k) for k in (n_pairs, 0)]
        assert max(runs) <= steps + 1

    @pytest.mark.parametrize("noise_refine", [1, 2])
    @pytest.mark.parametrize("keep_paths", [False, True])
    def test_simulation_bytes_bounds_traced_peak(self, poisson_1d, keep_paths, noise_refine):
        model = lat.make_model("cubic", 0.0, kernel_cap=0.2, rho=1.0, sigma0=0.3,
                               sigma2=0.05, p=4.0)
        zeta = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
        levels = lat.exhaustion_sequence(poisson_1d, 3)
        n_paths, steps = 300, 40
        # the byte floor, not n_steps, sets the runs here, so the estimate
        # must cover runs longer than the short rule's
        assert (run_nodes(poisson_1d.n_sites, n_paths, steps, 3, 3, noise_refine)
                > short_run_nodes(steps, 3, 3))
        tracemalloc.start()
        try:
            simulate_levels(model, poisson_1d, levels, zeta, steps * 0.01, 0.01, n_paths, 3,
                            noise_refine=noise_refine, keep_paths=keep_paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        need = simulation_bytes(poisson_1d.n_sites, int(poisson_1d.degrees.max()), 3, n_paths,
                                steps, noise_refine=noise_refine, keep_paths=keep_paths)
        assert peak < need

    def test_simulation_bytes_bounds_traced_peak_of_a_truncated_window(self):
        # a truncated 2-d level: its run buffer carries the frozen sites of
        # its band and the zero row
        cfg = lat.sample_configuration(2.0, 4.0, 2, 1.0, 12)
        model = lat.make_model("cubic", 0.0, kernel_cap=0.2, rho=1.0, sigma0=0.3,
                               sigma2=0.05, p=4.0)
        zeta = lat.WeightedSeq(cfg, np.ones(cfg.n_sites))
        active = np.flatnonzero(cfg.radii <= 3.0)
        n_paths, steps = 300, 40
        level = sde._Level(model, True, 0.01, cfg, zeta.values, active, n_paths, steps + 1,
                           False)
        assert level.tail.size > 0
        simulate_levels(model, cfg, [active], zeta, 0.05, 0.01, 2, 3)   # imports done
        tracemalloc.start()
        try:
            simulate_levels(model, cfg, [active], zeta, steps * 0.01, 0.01, n_paths, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < simulation_bytes(cfg.n_sites, int(cfg.degrees.max()), 1, n_paths, steps)

    @pytest.mark.parametrize("n_paths", [1, 2])
    def test_simulation_bytes_bounds_traced_peak_of_few_paths(self, poisson_1d, n_paths):
        # six levels and all nine Cauchy pairs over 200 steps: the (node, site)
        # sums, not the path block, are most of what is held
        model = lat.make_model("cubic", 0.0, kernel_cap=0.2, rho=1.0, sigma0=0.3,
                               sigma2=0.05, p=4.0)
        zeta = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
        levels = lat.exhaustion_sequence(poisson_1d, 6)
        steps = 200
        simulate_levels(model, poisson_1d, levels, zeta, 0.05, 0.01, 1, 3)   # imports done
        tracemalloc.start()
        try:
            simulate_levels(model, poisson_1d, levels, zeta, steps * 0.01, 0.01, n_paths, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        need = simulation_bytes(poisson_1d.n_sites, int(poisson_1d.degrees.max()), 6, n_paths,
                                steps)
        assert peak < need

    def test_cauchy_pairs_share_the_threads_rows(self, poisson_1d, monkeypatch):
        # with many more paths than steps, one (paths + 1, run, site) buffer
        # of path-order rows per pair would be most of what the pairs add
        model = lat.make_model("cubic", 0.0, kernel_cap=0.2, rho=1.0, sigma0=0.3,
                               sigma2=0.05, p=4.0)
        zeta = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
        sets = lat.exhaustion_sequence(poisson_1d, 4)
        n_paths, steps, chunk = 400, 10, 5
        monkeypatch.setattr(sde, "_chunk_nodes", lambda *args: chunk)
        simulate_levels(model, poisson_1d, sets, zeta, 0.05, 0.01, 2, 3)
        peaks = []
        for cauchy in (True, False):
            tracemalloc.start()
            try:
                simulate_levels(model, poisson_1d, sets, zeta, steps * 0.01, 0.01, n_paths, 3,
                                cauchy=cauchy)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        largest = sets[-1].size
        # each pair's sums over its larger level's sites and spread over every site
        sums = len(sde.cauchy_pairs(4)) * (steps + 1) * (largest + poisson_1d.n_sites)
        rows = (n_paths + 1) * chunk * largest
        assert peaks[0] - peaks[1] <= 8 * (sums + rows)

    def test_dt_must_divide_horizon(self, single_site_config):
        model = lat.make_model("linear", 1.0, p=2.0)
        zeta = lat.WeightedSeq(single_site_config, np.zeros(1))
        with pytest.raises(ValueError):
            lat.simulate_truncated(model, single_site_config, [0], zeta, 1.0, 0.3, 1, 0)
        # 3 steps of 7e-10 cover 2.1e-9: the tolerance is relative to a tiny T too
        with pytest.raises(ValueError):
            lat.simulate_truncated(model, single_site_config, [0], zeta, 2e-9, 7e-10, 1, 0)

    def test_explicit_cubic_blowup_flagged(self, single_site_config):
        model = lat.make_model("cubic", 0.0, p=4.0, sigma0=0.0)
        zeta = lat.WeightedSeq(single_site_config, np.array([100.0]))
        ens = lat.simulate_truncated(
            model, single_site_config, [0], zeta, 1.0, 0.01, 4, 1, scheme="explicit"
        )
        assert ens.has_blowup
        with pytest.raises(ValueError):
            lat.moment_field(ens)

    def test_tamed_cubic_stays_stable(self, single_site_config):
        model = lat.make_model("cubic", 0.0, p=4.0, sigma0=0.0)
        zeta = lat.WeightedSeq(single_site_config, np.array([100.0]))
        ens = lat.simulate_truncated(
            model, single_site_config, [0], zeta, 1.0, 0.01, 4, 1, scheme="tamed"
        )
        assert not ens.has_blowup
        # decay toward the origin under the pure cubic drift
        assert abs(ens.paths[0, 0, -1]) < 100.0

    def test_strong_error_halving(self, single_site_config):
        # linear additive-noise model: halving dt reduces the terminal error
        # against a dt/16 reference driven by the same Brownian path
        model = lat.make_model("linear", 1.0, sigma0=0.8, p=2.0)
        zeta = lat.WeightedSeq(single_site_config, np.ones(1))
        T, dt, n = 1.0, 0.05, 400
        coarse = lat.simulate_truncated(
            model, single_site_config, [0], zeta, T, dt, n, 5, noise_refine=16
        )
        half = lat.simulate_truncated(
            model, single_site_config, [0], zeta, T, dt / 2, n, 5, noise_refine=8
        )
        ref = lat.simulate_truncated(
            model, single_site_config, [0], zeta, T, dt / 16, n, 5, noise_refine=1
        )
        err_c = np.sqrt(np.mean((coarse.paths[:, 0, -1] - ref.paths[:, 0, -1]) ** 2))
        err_h = np.sqrt(np.mean((half.paths[:, 0, -1] - ref.paths[:, 0, -1]) ** 2))
        assert err_c / err_h >= math.sqrt(2.0) * 0.95


class TestNoiseLayout:
    """One counter-based stream per site, keyed (seed, site) and drawn path-major."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_fine_increments_are_one_contiguous_slice(self, r):
        # path p reads fine draws [p M, (p + 1) M) of its site's stream, so dt
        # at refine 2r and dt/2 at refine r are driven by the same fine draws
        n, dt, path = 10, 0.1, 2
        fine = site_stream(5, 3, path + 1, 2 * n * r)[path]
        scale = math.sqrt(dt / (2 * r))
        assert scale == math.sqrt(dt / 2 / r)
        coarse = oracles.wiener_increments(5, path, 3, n, dt, refine=2 * r)
        halved = oracles.wiener_increments(5, path, 3, 2 * n, dt / 2, refine=r)
        assert np.array_equal(coarse, (scale * fine).reshape(n, 2 * r).sum(axis=1))
        assert np.array_equal(halved, (scale * fine).reshape(2 * n, r).sum(axis=1))
        if r == 1:
            assert np.array_equal(coarse, halved.reshape(n, 2).sum(axis=1))

    @pytest.mark.parametrize("noise_refine", [1, 3])
    @pytest.mark.parametrize("path_block", [1, 3, 7])
    def test_block_independent_of_path_split(self, poisson_1d, monkeypatch, path_block,
                                             noise_refine):
        # each site's generator state is carried from one path block to the next
        model = lat.make_model("cubic", 0.0, kernel_cap=0.2, rho=1.0, sigma0=0.3, p=4.0)
        zeta = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
        sets = lat.exhaustion_sequence(poisson_1d, 4)[:3]
        drawn = []
        noise_block = sde._noise_block

        def recorded(*args):
            drawn.append(noise_block(*args))
            return drawn[-1]

        monkeypatch.setattr(sde, "_noise_block", recorded)
        monkeypatch.setattr(sde, "_PATH_BLOCK", path_block)
        simulate_levels(model, poisson_1d, sets, zeta, 0.1, 0.01, 10, 31,
                        noise_refine=noise_refine, cauchy=False)
        assert len(drawn) == -(-10 // path_block)
        whole = noise_block(_NoiseSource(31), 10, prefix_order(poisson_1d, sets), 10, 0.01,
                            noise_refine)
        assert np.concatenate(drawn, axis=2).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("noise_refine", [1, 2])
    def test_states_carried_between_blocks_only(self, poisson_1d, monkeypatch, noise_refine):
        # three path blocks: every site's generator state is kept after the
        # first two, not after the last, and the run is the one-block run
        model = lat.make_model("cubic", 0.0, kernel_cap=0.2, rho=1.0, sigma0=0.3, p=4.0)
        zeta = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
        sets = lat.exhaustion_sequence(poisson_1d, 4)[:3]
        whole = simulate_levels(model, poisson_1d, sets, zeta, 0.1, 0.01, 10, 31,
                                noise_refine=noise_refine, cauchy=False, keep_paths=True)
        drawn, carried = [], []
        noise_block, carry = sde._noise_block, _NoiseSource.carry

        def recorded(*args):
            drawn.append(noise_block(*args))
            return drawn[-1]

        def counted(source, site):
            carried.append(site)
            carry(source, site)

        monkeypatch.setattr(sde, "_noise_block", recorded)
        monkeypatch.setattr(_NoiseSource, "carry", counted)
        monkeypatch.setattr(sde, "_PATH_BLOCK", 4)
        split = simulate_levels(model, poisson_1d, sets, zeta, 0.1, 0.01, 10, 31,
                                noise_refine=noise_refine, cauchy=False, keep_paths=True)
        assert [block.shape[2] for block in drawn] == [4, 4, 2]
        assert sorted(carried) == sorted(2 * sets[-1].tolist())
        one_block = noise_block(_NoiseSource(31), 10, prefix_order(poisson_1d, sets), 10, 0.01,
                                noise_refine)
        assert np.concatenate(drawn, axis=2).tobytes() == one_block.tobytes()
        for a, b in zip(whole, split):
            assert a.paths.tobytes() == b.paths.tobytes()
            assert a.moment.tobytes() == b.moment.tobytes()
            assert a.stderr.tobytes() == b.stderr.tobytes()

    @pytest.mark.parametrize("n_steps", [1, 3])
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("group", [1, 3, None])
    def test_sites_drawn_in_groups_alike(self, monkeypatch, group, refine, n_steps):
        # one site, three sites or as many as _NOISE_GROUP holds per draw
        # buffer, over three carried blocks of one or three steps: each
        # site's paths are its stream's
        sites, dt, widths = [4, 0, 9, 2, 7, 11, 5], 0.1, (2, 3, 1)
        source, blocks = _NoiseSource(13), []
        for width in widths:
            if group is not None:
                monkeypatch.setattr(sde, "_NOISE_GROUP", group * width * n_steps * refine)
            blocks.append(_noise_block(source, width, sites, n_steps, dt, refine))
        drawn = np.concatenate(blocks, axis=2)
        for si, site in enumerate(sites):
            fine = math.sqrt(dt / refine) * site_stream(13, site, sum(widths), n_steps * refine)
            want = fine.reshape(sum(widths), n_steps, refine).sum(axis=2)
            assert drawn[:, si].tobytes() == want.T.tobytes()

    @pytest.mark.parametrize("refine", [1, 3])
    def test_path_zero_is_the_per_path_stream(self, refine):
        # the former layout keyed one stream per (path, site) as
        # (seed, path << 32 | site); a site's key (seed, site) is its path-0
        # key, so path 0 of every site is drawn as before
        sites = [0, 6, 70000]
        block = _noise_block(_NoiseSource(5), 3, sites, 20, 0.1, refine)
        for si, site in enumerate(sites):
            key = np.array([5, (0 << 32) | site], dtype=np.uint64)
            draws = np.random.Generator(np.random.Philox(key=key)).standard_normal(20 * refine)
            want = (math.sqrt(0.1 / refine) * draws).reshape(20, refine).sum(axis=1)
            assert np.array_equal(block[:, si, 0], want)
            assert not np.array_equal(block[:, si, 1], want)

    def test_truncations_coupled_sitewise_across_blocks(self, poisson_1d, monkeypatch):
        # decoupled dynamics over several path blocks: a site active in two
        # truncations follows the same paths, and identical truncations give D == 0
        model = lat.make_model("linear", 1.0, kernel_cap=0.0, rho=1.0, sigma0=0.5, p=2.0)
        zeta = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
        small, big = list(range(4)), list(range(poisson_1d.n_sites))
        monkeypatch.setattr(sde, "_PATH_BLOCK", 3)
        ens = simulate_levels(model, poisson_1d, [small, small, big], zeta, 0.2, 0.01, 8, 77,
                              keep_paths=True)
        for x in small:
            assert np.array_equal(ens[0].paths[:, x], ens[2].paths[:, x])
        assert np.array_equal(ens[0].paths, ens[1].paths)
        assert np.all(ens[0].diffs[1] == 0.0)
        assert np.any(ens[0].diffs[2] > 0.0)

    @pytest.mark.parametrize("zeta", [1e76, 1e77])
    def test_huge_frozen_values_sum_without_warnings(self, poisson_1d, zeta):
        # |zeta|^4 = 1e304 or 1e308: the squared deviations and path sums of
        # frozen sites, and the pair sums, overflow quietly, as the stepped sites' do
        model = lat.make_model("cubic", 0.0, kernel_cap=0.05, rho=1.0, sigma0=0.1,
                               sigma2=0.02, p=4.0)
        zeta = lat.WeightedSeq(poisson_1d, np.full(poisson_1d.n_sites, zeta))
        sets = lat.exhaustion_sequence(poisson_1d, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            simulate_levels(model, poisson_1d, sets, zeta, 0.1, 0.01, 40, 31)


def ranked_window(kernel):
    """A 2-d window, three nested levels of it, a model with the given kernel
    and initial data."""
    cfg = lat.sample_configuration(2.0, 4.0, 2, 1.0, 12)
    sets = [np.flatnonzero(cfg.radii <= r) for r in (1.5, 3.0, np.inf)]
    model = lat.make_model("cubic", 0.1, kernel=kernel, kernel_cap=0.3, rho=1.0,
                           sigma0=0.2, sigma1=0.1, sigma2=0.05, p=3.0)
    zeta = lat.WeightedSeq(cfg, np.random.default_rng(4).uniform(-1.0, 1.0, cfg.n_sites))
    return cfg, sets, model, zeta


def parts_arranged(nested, arrange, orders):
    """``_nested_levels`` with each part put in the order ``arrange`` gives it;
    each order it returns is appended to ``orders``."""
    def levels_in(config, levels):
        order, counts = nested(config, levels)
        bounds = np.concatenate([[0], counts])
        order = np.concatenate([arrange(order[a:b]) for a, b in zip(bounds, bounds[1:])])
        orders.append(order)
        return order, counts
    return levels_in


class TestRankedParts:
    """Each nested part runs ranked by falling degree, and each band column
    of the step stops at its last real row."""

    @pytest.mark.parametrize("scheme", sde.SCHEMES)
    @pytest.mark.parametrize("kernel", ["constant", "triangular"])
    def test_row_order_leaves_every_byte(self, monkeypatch, kernel, scheme):
        # each part in site order and in a drawn order: a site draws from its
        # own stream, a padding entry adds +0.0 to a sum that starts at +0.0
        # and every per-site result is mapped back through the sites, so every
        # field of every ensemble is bitwise that of the ranked parts
        cfg, sets, model, zeta = ranked_window(kernel)
        monkeypatch.setattr(sde, "_PATH_BLOCK", 3)
        nested, orders, runs = sde._nested_levels, [], []
        for arrange in (lambda part: part, np.sort, np.random.default_rng(5).permutation):
            monkeypatch.setattr(sde, "_nested_levels", parts_arranged(nested, arrange, orders))
            runs.append(simulate_levels(model, cfg, sets, zeta, 0.05, 0.01, 7, 19, scheme=scheme,
                                        cauchy=True, keep_paths=True))
        ranked = runs[0]
        for run in runs[1:]:
            for ours, want in zip(run, ranked, strict=True):
                for field in dataclasses.fields(want):
                    got, expected = getattr(ours, field.name), getattr(want, field.name)
                    if isinstance(expected, np.ndarray):
                        assert got.dtype == expected.dtype and got.shape == expected.shape
                        assert got.tobytes() == expected.tobytes(), field.name
                    elif isinstance(expected, dict):
                        assert got.keys() == expected.keys()
                        assert all(got[m].tobytes() == expected[m].tobytes() for m in expected)
                    else:
                        assert got == expected, field.name
        assert len({order.tobytes() for order in orders}) == 3
        assert np.any(ranked[0].diffs[1] > 0.0)

    @pytest.mark.parametrize("kernel", ["constant", "triangular"])
    def test_each_column_stops_at_its_last_real_row(self, kernel):
        # column j of a level (and of its weights) holds every row up to the
        # last with more than j neighbors, and each real band entry once, in
        # its own row and slot; the rows between name the zero row
        cfg, sets, model, zeta = ranked_window(kernel)
        oracle = brute_force_neighbors(cfg.points, 1.0)
        order, counts = sde._nested_levels(cfg, sets)
        lengths, full = [], []
        for count in counts.tolist():
            active = order[:count]
            level = sde._Level(model, True, 0.01, cfg, zeta.values, active, 7, 6, False)
            degrees = [oracle[x].size for x in active.tolist()]
            rows = np.concatenate([active, level.tail]).tolist()
            row_of, zero = {x: i for i, x in enumerate(rows)}, len(rows)
            want = sorted((i, j, row_of[y]) for i, x in enumerate(active.tolist())
                          for j, y in enumerate(oracle[x].tolist()))
            assert (level.weighted is None) == (kernel == "constant")
            for columns in filter(None, (level.columns, level.weighted)):
                assert len(columns) == max(degrees)
                got = []
                for j, (column, weights) in enumerate(columns):
                    assert column.size == 1 + max(i for i, d in enumerate(degrees) if d > j)
                    got += [(i, j, r) for i, r in enumerate(column.tolist()) if r != zero]
                    if weights is not None:
                        assert weights.shape == (column.size, 1)
                        np.testing.assert_array_equal(weights[column == zero], 0.0)
                assert sorted(got) == want
            lengths.append(sum(column.size for column, _ in level.columns))
            full.append(count * max(degrees))
        assert any(length < size for length, size in zip(lengths, full))


class TestOuOracle:
    def test_time_zero(self):
        assert oracles.ou_moment_oracle(1.0, 1.0, 3.0, 0.0) == (3.0, 9.0)

    def test_deterministic_decay(self):
        mean, second = oracles.ou_moment_oracle(2.0, 0.0, 1.5, 0.7)
        assert mean == pytest.approx(1.5 * math.exp(-1.4))
        assert second == pytest.approx(mean**2)

    def test_stationary_variance(self):
        _, second = oracles.ou_moment_oracle(1.0, math.sqrt(2.0), 0.0, 60.0)
        assert second == pytest.approx(1.0, abs=1e-12)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            oracles.ou_moment_oracle(0.0, 1.0, 0.0, 1.0)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(st.floats(0.2, 2.0), st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(0.1, 1.0),
           st.integers(0, 2**32 - 1))
    def test_drawn_linear_models_match_the_closed_form(self, single_site_config, lam, sigma,
                                                       zeta, T, seed):
        # lambda dt <= 0.01 keeps the Euler bias of E xi_T^2 far below one standard error
        n_steps, n_paths = max(10, math.ceil(100 * lam * T)), 2000
        model = lat.make_model("linear", lam, sigma0=sigma, p=2.0)
        start = lat.WeightedSeq(single_site_config, np.full(1, zeta))
        (ens,) = simulate_levels(model, single_site_config, [[0]], start, T, T / n_steps,
                                 n_paths, seed, scheme="explicit", cauchy=False, keep_paths=True)
        # the terminal node, which the sup over the nodes misses when the moment decreases
        terminal = ens.paths[:, 0, -1] ** 2
        se = terminal.std(ddof=1) / math.sqrt(n_paths)
        _, second = oracles.ou_moment_oracle(lam, sigma, zeta, T)
        assert abs(terminal.mean() - second) <= 4.0 * se

    def test_monte_carlo_match(self, single_site_config, ou_ensemble):
        terminal = ou_ensemble.paths[:, 0, -1] ** 2
        _, second = oracles.ou_moment_oracle(1.0, math.sqrt(2.0), 0.0, 1.0)
        se = terminal.std(ddof=1) / math.sqrt(terminal.size)
        assert abs(terminal.mean() - second) <= 3.0 * se


class TestExitTimes:
    def test_bounded_trajectory_never_exits(self, single_site_config):
        model = lat.make_model("linear", 1.0, p=2.0)
        zeta = lat.WeightedSeq(single_site_config, np.ones(1))
        ens = lat.simulate_truncated(
            model, single_site_config, [0], zeta, 1.0, 0.01, 4, 2
        )
        probs = oracles.exit_time_diagnostic(ens, [5.0])
        assert np.all(probs[5.0] == 0.0)

    def test_zero_threshold_exits_immediately(self, single_site_config):
        model = lat.make_model("linear", 1.0, p=2.0)
        zeta = lat.WeightedSeq(single_site_config, np.zeros(1))
        ens = lat.simulate_truncated(
            model, single_site_config, [0], zeta, 1.0, 0.01, 4, 2
        )
        probs = oracles.exit_time_diagnostic(ens, [0.0])
        assert np.all(probs[0.0] == 1.0)

    def test_decay_in_threshold(self, ou_ensemble):
        probs = oracles.exit_time_diagnostic(ou_ensemble, [2.0, 4.0, 8.0])
        p2, p4, p8 = (float(probs[k][0]) for k in (2.0, 4.0, 8.0))
        assert p2 >= p4 >= p8
