import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticesde as lat
from latticesde import sde
from latticesde.convergence import cauchy_constants, cauchy_table, moment_constants
from latticesde.sde import cauchy_pairs, simulate_levels
from latticesde.spaces import weighted_sum
import oracles


def frozen_power(ens, p):
    """The sites ``ens`` freezes and their |zeta|^p, read off node 0 of path
    0: the mean of n samples that all hold it, without a sum over the paths."""
    frozen = np.setdiff1d(np.arange(ens.config.n_sites), ens.active)
    zeta = ens.paths[0, frozen, 0]
    return frozen, sde._abs_power(zeta, p, np.empty_like(zeta))


def reference_moment_field(ens, p):
    """Per-site sup-over-time moment and its standard error from the stored
    path tensor of ``ens``, by the formulas the moment field used before the
    simulator reduced while stepping: one mean over the paths, then np.std
    at the argmax node; a frozen site's moment is its |zeta|^p.  |xi|^p is
    taken as the simulator takes it (sde._abs_power, which test_sde checks
    against np.power)."""
    paths = ens.paths
    powed = sde._abs_power(paths, p, np.empty_like(paths))
    means = powed.mean(axis=0)
    argmax = means.argmax(axis=1)
    sites = np.arange(paths.shape[1])
    at_peak = powed[:, sites, argmax]
    stderr = at_peak.std(axis=0, ddof=1) / math.sqrt(paths.shape[0])
    moment = means[sites, argmax]
    frozen, power = frozen_power(ens, p)
    moment[frozen] = power
    return moment, stderr


def reference_pair_sup(a, b, p):
    """Per-site sup over the grid of the sample E|xi^a - xi^b|^p, from stored paths."""
    diff = a.paths - b.paths
    return sde._abs_power(diff, p, out=diff).mean(axis=0).max(axis=1)


def reference_sums(paths, p):
    """power, shift and S2 from a stored path tensor (path, site, node), as
    (node, site) at every site and node: |xi|^p summed path by path, path
    0's |xi|^p, and the squares of the deviations from it summed path by path."""
    powed = sde._abs_power(paths, p, np.empty_like(paths))
    shift = powed[0].T
    power, s2 = np.zeros_like(shift), np.zeros_like(shift)
    for path in powed:
        power = power + path.T
        s2 = s2 + (path.T - shift) ** 2
    return power, shift, s2


def reference_moments(ens, p):
    """``moment`` and ``stderr`` from the stored path tensor of ``ens``: per
    site, the largest mean over the nodes of :func:`reference_sums`, the
    standard error at that node from the shifted sums, and the node itself;
    a frozen site's moment is its |zeta|^p."""
    power, shift, s2 = reference_sums(ens.paths, p)
    n, sites = ens.paths.shape[0], np.arange(ens.paths.shape[1])
    means = power / n
    peak = means.argmax(axis=0)
    d = power[peak, sites] - n * shift[peak, sites]
    m2 = np.maximum(s2[peak, sites] - d * d / n, 0.0)
    stderr = np.sqrt(m2 / (n - 1)) / math.sqrt(n)
    moment = means[peak, sites]
    frozen, power = frozen_power(ens, p)
    moment[frozen] = power
    return moment, stderr, peak


def reference_diffs(a, b, p):
    """Per site, the sup over the nodes of the path-order mean of |xi^a - xi^b|^p,
    from two stored path tensors, and the nodes where it peaks."""
    diff = a - b
    means = sde._abs_power(diff, p, out=diff).sum(axis=0).T / a.shape[0]
    return means.max(axis=0), means.argmax(axis=0)


def assert_reductions_match_paths(ensembles, levels, model):
    """The ensembles' moments and cauchy_table against the reference formulas
    on the stored paths."""
    p = model.p
    for ens in ensembles:
        per_site, stderr = reference_moment_field(ens, p)
        assert ens.moment.tobytes() == per_site.tobytes()
        assert ens.stderr.tobytes() == reference_moments(ens, p)[1].tobytes()
        # against np.std: 1e-12 relative, beyond the shifted sums' own
        # rounding, a few ulps of |xi|^p where the variance is zero
        ulps = 4 * np.finfo(float).eps * per_site
        assert np.all(np.abs(ens.stderr - stderr) <= 1e-12 * stderr + ulps)
    if len(ensembles) < 2:
        return
    config = ensembles[0].config
    report = cauchy_table(ensembles, 0.5, model=model, a_low=0.25)
    assert [(r.level_n, r.level_m) for r in report.rows] == cauchy_pairs(len(levels))
    for row in report.rows:
        sup = reference_pair_sup(ensembles[row.level_n], ensembles[row.level_m], p)
        assert row.distance == weighted_sum(config.radii, 0.5, sup)


@pytest.fixture(scope="module")
def decoupled_setup():
    """Interaction-free model: sites evolve independently."""
    config = lat.sample_configuration(2.0, 5.0, 1, 1.0, 400)
    model = lat.make_model("linear", 1.0, kernel_cap=0.0, rho=1.0,
                           sigma0=0.5, p=2.0)
    zeta = lat.WeightedSeq(config, np.ones(config.n_sites))
    return config, model, zeta


class TestMomentField:
    def test_zero_model_is_identically_zero(self, single_site_config):
        model = lat.make_model("linear", 1.0, p=2.0)
        zeta = lat.WeightedSeq(single_site_config, np.zeros(1))
        ens = lat.simulate_truncated(
            model, single_site_config, [0], zeta, 0.5, 0.01, 8, 0
        )
        assert lat.moment_field(ens) is ens
        assert np.all(ens.moment == 0.0)

    def test_frozen_sites_report_exact_power(self, poisson_1d):
        model = lat.make_model("cubic", 0.0, kernel_cap=0.1, rho=1.0,
                               p=4.0, sigma0=0.2)
        rng = np.random.default_rng(1)
        zeta = lat.WeightedSeq(poisson_1d, rng.standard_normal(poisson_1d.n_sites))
        ens = lat.simulate_truncated(model, poisson_1d, [0], zeta, 0.5, 0.01, 16, 2)
        # the simulator's own power of zeta, which test_sde checks against np.power
        power = sde._abs_power(zeta.values, 4.0, np.empty(poisson_1d.n_sites))
        assert ens.moment[1:].tobytes() == power[1:].tobytes()
        assert ens.stderr[1:].tobytes() == np.zeros(poisson_1d.n_sites - 1).tobytes()

    @pytest.mark.parametrize("path_block", [1, 7, 4096])
    def test_frozen_moment_is_the_power_not_a_path_sum(self, poisson_1d, monkeypatch,
                                                       path_block):
        # 400 paths of 0.9^4: a sum of the 400 equal samples, divided by 400,
        # lands ulps off 0.9^4, so only the power itself passes
        n = poisson_1d.n_sites
        model = lat.make_model("linear", 1.0, kernel_cap=0.1, rho=1.0, sigma0=0.3, p=4.0)
        zeta = lat.WeightedSeq(poisson_1d, np.full(n, 0.9))
        monkeypatch.setattr(sde, "_PATH_BLOCK", path_block)
        ens, = simulate_levels(model, poisson_1d, [np.arange(n // 2)], zeta, 0.02, 0.01, 400, 3)
        power = sde._abs_power(np.full(n - n // 2, 0.9), 4.0, np.empty(n - n // 2))
        assert ens.moment[n // 2 :].tobytes() == power.tobytes()
        assert ens.stderr[n // 2 :].tobytes() == np.zeros(n - n // 2).tobytes()

    def test_ou_sup_matches_oracle(self, ou_ensemble):
        ens = lat.moment_field(ou_ensemble)
        _, stationary = oracles.ou_moment_oracle(1.0, math.sqrt(2.0), 0.0, 1.0)
        assert ens.moment[0] == pytest.approx(stationary, abs=3.5 * ens.stderr[0])


class TestStandardError:
    """stderr from the squared deviations about path 0's |xi|^p, in blocks of 3 paths."""

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_zero_where_every_path_holds_the_same_power(self, poisson_1d, monkeypatch, sigma):
        # a decoupled linear decay from zeta in [0.8, 1]: every mean peaks at
        # node 0, where all paths hold zeta, and at sigma = 0 they agree at
        # every node; the first level leaves two sites frozen
        n, n_paths = poisson_1d.n_sites, 10
        model = lat.make_model("linear", 1.0, kernel_cap=0.0, rho=1.0, sigma0=sigma, p=2.0)
        zeta = lat.WeightedSeq(poisson_1d, np.random.default_rng(5).uniform(0.8, 1.0, n))
        levels = [np.arange(n - 2), np.arange(n)]
        monkeypatch.setattr(sde, "_PATH_BLOCK", 3)
        ensembles = simulate_levels(model, poisson_1d, levels, zeta, 0.1, 0.01, n_paths, 9,
                                    keep_paths=True)
        assert_reductions_match_paths(ensembles, levels, model)
        for ens in ensembles:
            power, shift, _ = reference_sums(ens.paths, model.p)
            assert np.all(reference_moments(ens, model.p)[2] == 0)
            # at the active sites the equal powers sum to other than n times
            # their value, so D != 0 and the unclamped S2 - D^2 / n would be
            # negative
            assert np.any(power[0, ens.active] != n_paths * shift[0, ens.active])
            assert np.all(ens.stderr == 0.0) and not np.any(np.signbit(ens.stderr))

    @pytest.mark.parametrize("sigma", [1e-9, 1e-6, 1e-3])
    def test_small_spread_follows_np_std(self, poisson_1d, monkeypatch, sigma):
        # a cubic growth from |zeta| near 0.1 peaks at later nodes, where the
        # paths spread by about sigma: S2 - D^2 / n cancels, and stderr stays
        # within 1e-12 relative plus a few ulps of the moment of np.std
        model = lat.make_model("cubic", 1.0, kernel_cap=0.1, rho=1.0, sigma0=sigma, p=4.0)
        zeta = lat.WeightedSeq(poisson_1d, np.random.default_rng(6).uniform(0.1, 0.15,
                                                                          poisson_1d.n_sites))
        levels = [np.arange(poisson_1d.n_sites)]
        monkeypatch.setattr(sde, "_PATH_BLOCK", 3)
        ensembles = simulate_levels(model, poisson_1d, levels, zeta, 0.1, 0.01, 10, 10,
                                    keep_paths=True)
        assert_reductions_match_paths(ensembles, levels, model)
        assert np.all(reference_moments(ensembles[0], model.p)[2] > 0)
        assert np.all(ensembles[0].stderr > 0.0)


class TestZNorm:
    def test_zero_field(self, single_site_config):
        ens = oracles.moment_ensemble(single_site_config, 2.0, np.zeros(1), np.zeros(1))
        assert lat.z_norm(ens, 1.0) == 0.0

    def test_single_site_at_origin(self, single_site_config):
        ens = oracles.moment_ensemble(single_site_config, 2.0, np.ones(1), np.zeros(1))
        assert lat.z_norm(ens, 1.0) == pytest.approx(1.0)

    def test_two_site_value(self):
        cfg = lat.configuration_from_points([[0.0], [1.0]], rho=0.5)
        ens = oracles.moment_ensemble(cfg, 2.0, np.ones(2), np.zeros(2))
        assert lat.z_norm(ens, 1.0) == pytest.approx(
            math.sqrt(1.0 + math.exp(-1.0))
        )
        assert lat.z_norm(ens, 1.0) == pytest.approx(1.1695638, abs=1e-6)

    def test_monotone_in_weight(self, poisson_1d):
        rng = np.random.default_rng(3)
        ens = oracles.moment_ensemble(
            poisson_1d, 2.0, rng.uniform(0, 2, poisson_1d.n_sites),
            np.zeros(poisson_1d.n_sites),
        )
        for alpha, beta in [(0.3, 0.5), (0.5, 1.0), (1.0, 2.0)]:
            assert lat.z_norm(ens, beta) <= lat.z_norm(ens, alpha) + 1e-12


class TestConstants:
    def test_moment_constants_formulas(self):
        model = lat.make_model(
            "cubic", 0.0, kernel_cap=0.05, rho=1.0,
            sigma0=0.1, sigma1=0.2, sigma2=0.02, p=4.0,
        )
        c = model.growth_c  # |b| + 1 = 1
        consts = moment_constants(model, 2.0)
        assert consts["A1"] == pytest.approx(0.0 + 1.0 + 2.0**3 * c**2)
        assert consts["A2"] == pytest.approx(4 * 0.2**2 + 4 * c**2 * 2.0**3)
        assert consts["A3"] == pytest.approx(4 * 0.05**2 + 16 * 4 * 0.02**2)
        assert consts["A4"] == pytest.approx(5 * 16 * 16 * c**2 * 2.0)

    def test_cauchy_constants_formulas(self):
        model = lat.make_model(
            "cubic", 0.0, kernel_cap=0.05, rho=1.0,
            sigma1=0.2, sigma2=0.02, p=4.0,
        )
        consts = cauchy_constants(model)
        assert consts["B1"] == pytest.approx(0.0 + 1.0 + 2 * 0.2**2)
        assert consts["B2"] == pytest.approx(4 * 0.05**2 + 2 * 16 * 0.02**2)


class TestTailBound:
    def test_fully_frozen_levels_level_independent(self, poisson_1d):
        model = lat.make_model("cubic", 0.0, kernel_cap=0.05, rho=1.0,
                               p=4.0, sigma0=0.1)
        rng = np.random.default_rng(5)
        zeta = lat.WeightedSeq(poisson_1d, rng.standard_normal(poisson_1d.n_sites))
        ensembles = [
            lat.simulate_truncated(model, poisson_1d, [], zeta, 0.5, 0.01, 8, 6)
            for _ in range(3)
        ]
        report = lat.tail_bound_check(ensembles, 0.5, model=model, zeta=zeta, a_low=0.25)
        exact = math.fsum(
            (np.exp(-0.5 * poisson_1d.radii) * np.abs(zeta.values) ** 4).tolist()
        )
        assert report.sup_sum == pytest.approx(exact, rel=1e-14)
        assert report.level_sums[0] == report.level_sums[1] == report.level_sums[2]
        assert report.plateau_ok
        assert report.ceiling_ok

    def test_zero_model_zero_sum_positive_ceiling(self, poisson_1d):
        model = lat.make_model("linear", 1.0, p=2.0)
        zeta = lat.WeightedSeq(poisson_1d, np.zeros(poisson_1d.n_sites))
        ensembles = [
            lat.simulate_truncated(
                model, poisson_1d, range(poisson_1d.n_sites), zeta, 0.5, 0.01, 8, 7
            )
            for _ in range(3)
        ]
        report = lat.tail_bound_check(ensembles, 0.5, model=model, zeta=zeta, a_low=0.25)
        assert report.sup_sum == 0.0
        assert report.ceiling > 0.0
        assert report.plateau_ok and report.ceiling_ok

    def test_needs_three_levels(self, poisson_1d):
        model = lat.make_model("linear", 1.0, p=2.0)
        zeta = lat.WeightedSeq(poisson_1d, np.zeros(poisson_1d.n_sites))
        ens = lat.simulate_truncated(
            model, poisson_1d, [], zeta, 0.5, 0.01, 4, 8
        )
        with pytest.raises(ValueError):
            lat.tail_bound_check([ens] * 2, 0.5, model=model, zeta=zeta, a_low=0.25)


class TestCauchy:
    def test_identical_levels_give_exact_zero(self, decoupled_setup):
        config, model, zeta = decoupled_setup
        full = np.arange(config.n_sites)
        ensembles = simulate_levels(
            model, config, [full, full, full], zeta, 0.5, 0.01, 16, 9
        )
        report = cauchy_table(ensembles, 0.5, model=model, a_low=0.25)
        for row in report.rows:
            assert row.distance == 0.0
            assert row.dominator == 0.0

    def test_decoupled_distance_identity(self, decoupled_setup):
        # with a == 0 and sigma2 == 0, only newly-thawed sites contribute,
        # and their contribution is exactly the single-level moment of
        # |xi - zeta| on the larger truncation
        config, model, zeta = decoupled_setup
        levels = lat.exhaustion_sequence(config, 3)
        ensembles = simulate_levels(
            model, config, levels, zeta, 0.5, 0.01, 64, 10, keep_paths=True
        )
        p = model.p
        report = cauchy_table(ensembles, 0.5, model=model, a_low=0.25)
        weights = np.exp(-0.5 * config.radii)
        for row in report.rows:
            big = ensembles[row.level_m]
            thawed = np.setdiff1d(levels[row.level_m], levels[row.level_n])
            drift_pow = np.abs(big.paths - zeta.values[None, :, None]) ** p
            per_site = drift_pow.mean(axis=0).max(axis=1)
            expected = math.fsum((weights[thawed] * per_site[thawed]).tolist())
            assert row.distance == pytest.approx(expected, rel=1e-12)

    def test_coupled_levels_decrease(self, level_ensembles):
        config, model, zeta, levels, ensembles = level_ensembles
        report = cauchy_table(ensembles, 0.5, model=model, a_low=0.25)
        assert report.decreasing_ok

    def test_weight_order_enforced(self, decoupled_setup):
        config, model, zeta = decoupled_setup
        full = np.arange(config.n_sites)
        ensembles = simulate_levels(model, config, [full, full], zeta, 0.5, 0.01, 8, 11)
        with pytest.raises(ValueError):
            cauchy_table(ensembles, 0.2, model=model, a_low=0.25)

    def test_mismatched_seeds_rejected(self, decoupled_setup):
        config, model, zeta = decoupled_setup
        full = np.arange(config.n_sites)
        a = lat.simulate_truncated(model, config, full, zeta, 0.25, 0.01, 4, 1)
        b = lat.simulate_truncated(model, config, full, zeta, 0.25, 0.01, 4, 2)
        with pytest.raises(ValueError, match="seed"):
            cauchy_table([a, b], 0.5, model=model, a_low=0.25)

    def test_moments_of_another_order_rejected(self, decoupled_setup):
        config, model, zeta = decoupled_setup
        full = np.arange(config.n_sites)
        ensembles = simulate_levels(model, config, [full, full], zeta, 0.25, 0.01, 4, 1)
        other = lat.make_model("linear", 1.0, kernel_cap=0.0, rho=1.0, sigma0=0.5, p=4.0)
        with pytest.raises(ValueError, match="p-th moments"):
            cauchy_table(ensembles, 0.5, model=other, a_low=0.25)

    def test_non_nested_levels_rejected(self, decoupled_setup):
        config, model, zeta = decoupled_setup
        with pytest.raises(ValueError):
            simulate_levels(
                model, config, [np.array([1]), np.array([0])], zeta,
                0.5, 0.01, 4, 12,
            )


@pytest.fixture(scope="module")
def coupled_setup():
    """Interacting model with state-dependent diffusion on a short window."""
    config = lat.sample_configuration(2.0, 5.0, 1, 1.0, 400)
    model = lat.make_model("cubic", 0.0, kernel="triangular", kernel_cap=0.3, rho=1.0,
                           sigma0=0.2, sigma1=0.1, sigma2=0.05, p=4.0)
    rng = np.random.default_rng(17)
    zeta = lat.WeightedSeq(config, rng.uniform(-1.0, 1.0, config.n_sites))
    return config, model, zeta


class TestSharedDraw:
    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("noise_refine", [1, 2])
    @pytest.mark.parametrize("path_block", [1, 3, None])
    @pytest.mark.parametrize("depth", ["full", "partial"])
    def test_levels_match_lone_runs(self, coupled_setup, monkeypatch, depth, path_block,
                                    noise_refine, chunk):
        # the levels meet after every run of one or three nodes
        config, model, zeta = coupled_setup
        monkeypatch.setattr(sde, "_chunk_nodes", lambda *args: chunk)
        levels = lat.exhaustion_sequence(config, 3)
        if depth == "partial":
            # the largest of these levels leaves the outer sites out
            levels = lat.exhaustion_sequence(config, 4)[:2]
            assert levels[-1].size < config.n_sites
        if path_block is not None:
            monkeypatch.setattr(sde, "_PATH_BLOCK", path_block)
        ensembles = simulate_levels(model, config, levels, zeta, 0.1, 0.01, 7, 21,
                                    noise_refine=noise_refine, keep_paths=True)
        for level, ens in zip(levels, ensembles):
            lone = lat.simulate_truncated(
                model, config, level, zeta, 0.1, 0.01, 7, 21, noise_refine=noise_refine,
            )
            assert np.array_equal(ens.active, lone.active)
            assert np.array_equal(ens.paths, lone.paths)
            assert np.array_equal(ens.blowup, lone.blowup)
        # the sums reduced while stepping match the tensor formulas on the kept paths
        assert_reductions_match_paths(ensembles, levels, model)

    @pytest.mark.parametrize("noise_refine", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 3, 4, 11])
    def test_runs_of_nodes_reduce_like_single_nodes(self, coupled_setup, monkeypatch, chunk,
                                                    noise_refine):
        # 10 steps in runs of 3 or 4 nodes leave the terminal node inside a longer run
        config, model, zeta = coupled_setup
        levels = lat.exhaustion_sequence(config, 3)
        monkeypatch.setattr(sde, "_chunk_nodes", lambda *args: chunk)
        ensembles = simulate_levels(model, config, levels, zeta, 0.1, 0.01, 7, 24,
                                    noise_refine=noise_refine, keep_paths=True)
        assert_reductions_match_paths(ensembles, levels, model)

    @pytest.mark.parametrize("noise_refine", [1, 2])
    def test_draw_cap_blocks_by_configuration(self, coupled_setup, monkeypatch, noise_refine):
        # With the raw-draw cap binding, every level and every lone run steps
        # in blocks sized for the whole configuration, so they stay bitwise
        # equal; the cap counts the refined draws.
        config, model, zeta = coupled_setup
        levels = lat.exhaustion_sequence(config, 4)[:3]
        n_steps, n_paths = 10, 11
        monkeypatch.setattr(sde, "_DRAW_CAP", 3 * config.n_sites * n_steps * noise_refine)
        blocks = []
        noise_block = sde._noise_block

        def recorded(source, width, sites, *args):
            blocks.append((width, len(sites)))
            return noise_block(source, width, sites, *args)

        monkeypatch.setattr(sde, "_noise_block", recorded)
        ensembles = simulate_levels(model, config, levels, zeta, 0.1, 0.01, n_paths, 23,
                                    noise_refine=noise_refine, keep_paths=True)
        assert blocks == [(3, levels[-1].size)] * 3 + [(2, levels[-1].size)]
        for level, ens in zip(levels, ensembles):
            blocks.clear()
            lone = lat.simulate_truncated(model, config, level, zeta, 0.1, 0.01, n_paths, 23,
                                          noise_refine=noise_refine)
            assert [b for b, _ in blocks] == [3, 3, 3, 2]
            assert np.array_equal(ens.paths, lone.paths)

    def test_each_site_keyed_once(self, coupled_setup, monkeypatch):
        config, model, zeta = coupled_setup
        levels = lat.exhaustion_sequence(config, 4)[:3]
        # four paths per noise block, so the streams run over three blocks
        monkeypatch.setattr(sde, "_PATH_BLOCK", 4)
        keyed, prepared, fills = [], [], []
        init, fill = sde._NoiseSource.__init__, sde._NoiseSource.fill_normals

        class RecordedKey(np.ndarray):
            def __setitem__(self, index, site):
                keyed.append(int(site))
                super().__setitem__(index, site)

        def recorded_init(source, seed):
            init(source, seed)
            state = source._prepared
            assert state["state"]["key"].tolist() == [22, 0]
            state["state"]["key"] = state["state"]["key"].view(RecordedKey)
            prepared.append(state)

        def counted_fill(source, site, out):
            fills.append((site, len(out)))
            fill(source, site, out)

        monkeypatch.setattr(sde._NoiseSource, "__init__", recorded_init)
        monkeypatch.setattr(sde._NoiseSource, "fill_normals", counted_fill)
        drawn = levels[-1].tolist()
        simulate_levels(model, config, levels, zeta, 0.05, 0.01, 9, 22)
        # each site is keyed once, through the one state the source prepared
        # for all three blocks
        assert sorted(keyed) == drawn
        assert len(prepared) == 1
        assert sorted(fills) == sorted((site, width) for site in drawn for width in (4, 4, 1))


@pytest.fixture(scope="module")
def small_setups():
    """A 1-d and a 2-d configuration of some 20 sites, with state-dependent diffusion."""
    setups = {}
    for dim, half, p in ((1, 5.0, 4.0), (2, 1.6, 3.0)):
        config = lat.sample_configuration(2.0, half, dim, 1.0, 40 + dim)
        model = lat.make_model("cubic", 0.1, kernel="triangular", kernel_cap=0.3, rho=1.0,
                               sigma0=0.2, sigma1=0.1, sigma2=0.05, p=p)
        values = np.random.default_rng(dim).uniform(-1.0, 1.0, config.n_sites)
        setups[dim] = config, model, lat.WeightedSeq(config, values)
    return setups


class TestPrefixOrder:
    """Nested levels run in one site order: the first level's, then those each next one adds."""

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("path_block", [3, None])
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(dim=st.sampled_from([1, 2]), shuffle=st.integers(0, 2**16),
           cuts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5))
    # a one-site first level, two identical levels and the whole configuration
    @example(dim=2, shuffle=0, cuts=[0.0, 0.5, 0.5, 1.0])
    @example(dim=1, shuffle=1, cuts=[0.0, 1.0, 1.0])
    def test_shuffled_levels_match_lone_runs(self, small_setups, path_block, chunk, dim,
                                             shuffle, cuts):
        config, model, zeta = small_setups[dim]
        rng = np.random.default_rng(shuffle)
        sites = rng.permutation(config.n_sites)
        counts = sorted(max(1, math.ceil(cut * config.n_sites)) for cut in cuts)
        levels = [rng.permutation(sites[:count]) for count in counts]
        n_paths = 10   # above 8, where numpy starts summing pairwise
        with pytest.MonkeyPatch.context() as patch:
            # the levels meet after every run of one or three nodes
            patch.setattr(sde, "_chunk_nodes", lambda *args: chunk)
            if path_block is not None:
                patch.setattr(sde, "_PATH_BLOCK", path_block)
            ensembles = simulate_levels(model, config, levels, zeta, 0.1, 0.01, n_paths, 29,
                                        keep_paths=True)
            for level, ens in zip(levels, ensembles):
                assert np.array_equal(ens.active, np.sort(level))
                lone = lat.simulate_truncated(model, config, level, zeta, 0.1, 0.01, n_paths, 29)
                assert ens.paths.tobytes() == lone.paths.tobytes()
                assert ens.blowup.tobytes() == lone.blowup.tobytes()
                moment, stderr, _ = reference_moments(ens, model.p)
                assert ens.moment.tobytes() == moment.tobytes()
                assert ens.stderr.tobytes() == stderr.tobytes()
        for small, large in cauchy_pairs(len(levels)):
            want, _ = reference_diffs(ensembles[small].paths, ensembles[large].paths, model.p)
            assert ensembles[small].diffs[large].tobytes() == want.tobytes()


class TestFrozenRows:
    """Run buffers and sums cover the active sites; a frozen site reports its |zeta|^p."""

    @pytest.mark.parametrize("noise_refine", [1, 3])
    @pytest.mark.parametrize("chunk", [1, None])
    @pytest.mark.parametrize("path_block", [3, None])
    def test_sums_match_every_site_reductions(self, coupled_setup, monkeypatch, path_block,
                                              chunk, noise_refine):
        config, model, zeta = coupled_setup
        n = config.n_sites
        sets = [
            np.array([n // 2]),          # one active site: one sum column per node
            np.arange(n // 3, n - 1),    # this level and the first freeze site n - 1,
            np.arange(n // 3, n - 1),    # and so do these two identical levels
            np.arange(1, n),             # one frozen site
            np.arange(n),
        ]
        if path_block is not None:
            monkeypatch.setattr(sde, "_PATH_BLOCK", path_block)
        if chunk is not None:
            monkeypatch.setattr(sde, "_chunk_nodes", lambda *args: chunk)
        n_paths = 10   # above 8, where numpy starts summing pairwise
        ensembles = simulate_levels(model, config, sets, zeta, 0.1, 0.01, n_paths, 25,
                                    noise_refine=noise_refine, keep_paths=True)
        for active, ens in zip(sets, ensembles):
            assert np.array_equal(ens.active, active)
            moment, stderr, peak = reference_moments(ens, model.p)
            assert ens.moment.tobytes() == moment.tobytes()
            assert ens.stderr.tobytes() == stderr.tobytes()
            frozen = np.setdiff1d(np.arange(n), active)
            assert np.all(ens.paths[:, frozen] == zeta.values[frozen, None])
            assert not ens.has_blowup
        # the whole level's means peak at several nodes, so a sup or a
        # standard error read at the wrong node shows
        assert np.unique(peak).size > 2
        for small, large in cauchy_pairs(len(sets)):
            want, peak = reference_diffs(ensembles[small].paths, ensembles[large].paths, model.p)
            assert ensembles[small].diffs[large].tobytes() == want.tobytes()
            if (small, large) == (0, 4):
                assert np.unique(peak).size > 1
        # site n - 1 is frozen in both levels of the first pair
        assert ensembles[0].diffs[1][n - 1] == 0.0
        assert np.any(ensembles[0].diffs[1] > 0.0)
        # identical levels are coupled to identical paths
        assert not np.any(ensembles[1].diffs[2])

    @pytest.mark.parametrize("noise_refine", [1, 3])
    def test_frozen_site_beyond_the_limit_flags_every_path(self, decoupled_setup, monkeypatch,
                                                           noise_refine):
        # sites do not interact, so only the huge site itself can flag a path:
        # frozen in the first truncation, stepped in the second
        config, model, _ = decoupled_setup
        n = config.n_sites
        sets = [np.arange(n - 1), np.arange(n)]
        monkeypatch.setattr(sde, "_PATH_BLOCK", 3)
        for last, flagged in ((1e80, True), (1e75, False)):
            values = np.ones(n)
            values[-1] = last
            zeta = lat.WeightedSeq(config, values)
            ensembles = simulate_levels(model, config, sets, zeta, 0.05, 0.01, 7, 26,
                                        noise_refine=noise_refine, keep_paths=True)
            assert [bool(e.blowup.all()) for e in ensembles] == [flagged, flagged]
            assert [bool(e.blowup.any()) for e in ensembles] == [flagged, flagged]
            for got, want in zip((ensembles[0].moment, ensembles[0].stderr),
                                 reference_moments(ensembles[0], model.p)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("noise_refine", [1, 3])
    @pytest.mark.parametrize("chunk", [1, 4, None])
    @pytest.mark.parametrize("path_block", [3, None])
    def test_blowup_flags_match_the_kept_paths(self, decoupled_setup, monkeypatch, path_block,
                                               chunk, noise_refine):
        # the flags are read off the running max over every node of a run,
        # the terminal node too: a drift kicks chosen paths of site 0 out of
        # range at chosen nodes, some of them only for one node; runs of 1
        # and 4 nodes leave path 5 out for one node, while the default rule
        # makes one run of all 51 nodes here, where path 5 is out from node 1
        config, model, zeta = decoupled_setup
        n, n_steps, n_paths, dt = config.n_sites, 50, 8, 1 / 64   # kicks scale exactly
        if path_block is not None:
            monkeypatch.setattr(sde, "_PATH_BLOCK", path_block)
        if chunk is not None:
            monkeypatch.setattr(sde, "_chunk_nodes", lambda *args: chunk)
        width = sde._block_paths(n, n_steps, noise_refine)
        run = sde._chunk_nodes(n_steps, 2, 1, n * min(n_paths, width))
        last = n_steps // run * run   # the first node of the last run
        kicks = [   # (path, node, kick)
            (1, n_steps, 1e80),                        # out of range at the terminal node only
            (2, n_steps, math.nan),                    # NaN at the terminal node only
            (4, 25, math.nan),                         # NaN from the middle of a run on
            (5, last, 1e80), (5, last + 1, -1e80),     # out only at the last run's first node
            (6, 20, 1e75), (6, 21, -1e75),             # at the limit, which is in range
        ]
        calls = {}   # per truncation, told apart by its active site count

        def kicked(q):
            count = calls[q.shape[0]] = calls.get(q.shape[0], 0) + 1
            block, node = divmod(count - 1, n_steps)
            drift = np.zeros_like(q)
            for path, at, kick in kicks:
                if at == node + 1 and 0 <= path - block * width < q.shape[1]:
                    drift[0, path - block * width] = kick / dt
            return drift

        model = dataclasses.replace(model, potential=sde.Potential("custom", func=kicked))
        sets = [np.arange(n - 1), np.arange(n)]
        ensembles = simulate_levels(model, config, sets, zeta, n_steps * dt, dt, n_paths, 27,
                                    scheme="explicit", noise_refine=noise_refine,
                                    keep_paths=True)
        for ens in ensembles:
            in_range = np.all(np.abs(ens.paths) <= 1e75, axis=(1, 2))
            assert np.array_equal(ens.blowup, ~in_range)
            assert np.flatnonzero(ens.blowup).tolist() == [1, 2, 4, 5]
            assert np.max(np.abs(ens.paths[6])) == 1e75


class TestUniqueness:
    def test_deterministic_linear_first_order(self, decoupled_setup):
        config, _, _ = decoupled_setup
        model = lat.make_model("linear", 1.0, kernel_cap=0.0, rho=1.0, p=2.0)
        zeta = lat.WeightedSeq(config, np.ones(config.n_sites))
        report = oracles.uniqueness_crosscheck(
            model, config, zeta, 1.0, 0.05, 4, 14, alpha=0.5, scheme="explicit"
        )
        # deterministic Euler: halving dt halves the defect
        assert report.ratio == pytest.approx(2.0, abs=0.25)

    def test_frozen_system_has_zero_discrepancy(self, single_site_config):
        model = lat.make_model("linear", 1.0, p=2.0)
        zeta = lat.WeightedSeq(single_site_config, np.zeros(1))
        report = oracles.uniqueness_crosscheck(
            model, single_site_config, zeta, 0.5, 0.05, 4, 15, alpha=0.5
        )
        assert report.disc_coarse == 0.0 and report.disc_fine == 0.0
        assert math.isnan(report.ratio)

    def test_noisy_cubic_strong_order(self, single_site_config):
        model = lat.make_model("cubic", 0.0, sigma0=0.5, p=4.0)
        zeta = lat.WeightedSeq(single_site_config, np.ones(1))
        report = oracles.uniqueness_crosscheck(
            model, single_site_config, zeta, 1.0, 0.05, 400, 16, alpha=0.5
        )
        assert report.ratio >= math.sqrt(2.0) * 0.9
