import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticesde as lat
from conftest import brute_force_neighbors, corrupt_table, lattice_1d, small_bands
from latticesde import geometry
from latticesde.geometry import configuration_bytes
from latticesde.sde import _nested_levels
import oracles
from oracles import lexsort_band

LOG2 = math.log(2.0)


def band_lists(points, rho):
    """Per-site neighbor arrays and degrees from build_neighborhoods."""
    indptr, indices, _ = lat.build_neighborhoods(points, rho)
    return [indices[a:b] for a, b in zip(indptr[:-1], indptr[1:])], np.diff(indptr)


class TestSampleConfiguration:
    def test_zero_intensity_gives_empty_configuration(self):
        cfg = lat.sample_configuration(0.0, 5.0, 1, 1.0, 7)
        assert cfg.n_sites == 0
        assert cfg.points.shape[0] == 0

    def test_poisson_mean_1d(self):
        # lambda (2S)^d = 10; Monte Carlo over seeds against the Poisson mean
        counts = [
            lat.sample_configuration(1.0, 5.0, 1, 1.0, seed).n_sites
            for seed in range(1000)
        ]
        assert abs(np.mean(counts) - 10.0) < 3.0 * math.sqrt(10.0 / 1000)

    def test_poisson_mean_2d(self):
        # lambda (2S)^d = 3 * 4 = 12, same Monte Carlo oracle
        counts = [
            lat.sample_configuration(3.0, 1.0, 2, 0.5, seed).n_sites
            for seed in range(500)
        ]
        assert abs(np.mean(counts) - 12.0) < 3.0 * math.sqrt(12.0 / 500)

    def test_points_inside_box(self):
        cfg = lat.sample_configuration(2.0, 3.0, 2, 0.5, 11)
        assert np.all(np.abs(cfg.points) <= 3.0)

    def test_bit_reproducible(self):
        a = lat.sample_configuration(2.0, 5.0, 1, 1.0, 99)
        b = lat.sample_configuration(2.0, 5.0, 1, 1.0, 99)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.degrees, b.degrees)

    def test_unsupported_dim_rejected(self):
        with pytest.raises(ValueError):
            lat.sample_configuration(1.0, 5.0, 4, 1.0, 1)

    def test_seed_range(self):
        # the noise streams key on 64 bits: seed 2**64 + 8 would replay seed 8's noise
        lat.sample_configuration(1.0, 2.0, 1, 1.0, 2**64 - 1)
        for seed in (-1, 2**64, 2**64 + 8):
            with pytest.raises(ValueError, match="seed"):
                lat.sample_configuration(1.0, 2.0, 1, 1.0, seed)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            lat.sample_configuration(math.nan, 5.0, 1, 1.0, 1)
        with pytest.raises(ValueError):
            lat.sample_configuration(1.0, math.inf, 1, 1.0, 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rho_too_small_for_the_window_rejected(self, dim):
        # S / rho or sqrt(d) / rho past the float range: cell coordinates overflow
        for box_halfwidth, rho in [(4.0, 1e-310), (0.25, 5e-309)]:
            with pytest.raises(ValueError, match="rho = .* is too small"):
                lat.sample_configuration(1.0, box_halfwidth, dim, rho, 1)
        # the smallest rho that keeps both finite is accepted
        rho = math.nextafter(math.sqrt(dim) / sys.float_info.max, math.inf)
        assert lat.sample_configuration(1.0, 0.25, dim, rho, 1).rho == rho

    @pytest.mark.parametrize("args", [(2.0, 20.0, 2, 1.0), (1.0, 6.0, 3, 1.0)])
    def test_configuration_bytes_estimates_points_and_band(self, args):
        # at the Poisson mean and without boundary effects, so a little above
        cfg = lat.sample_configuration(*args, 3)
        built = cfg.points.nbytes + cfg.indices.nbytes + cfg.distances.nbytes
        assert 1.0 < configuration_bytes(*args) / built < 1.25

    def test_configuration_bytes_edge_cases(self):
        assert configuration_bytes(0.0, 5.0, 1, 1.0) == 0.0
        assert configuration_bytes(1.0, 1e200, 3, 1.0) == math.inf  # volume overflows
        # a huge radius makes every site a neighbor of every other, no more
        assert configuration_bytes(1.0, 1.0, 1, 1e300) == 8.0 * 2.0 * (1 + 2 * 2.0)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    @example(None)
    def test_first_copies_match_unique(self, data):
        # the same index set as np.unique: each distinct point once, 0.0 and
        # -0.0 one coordinate, at the index of its first copy
        if data is None:
            cases = [np.zeros((0, dim)) for dim in (1, 2, 3)] + [np.full((1, dim), -0.0) for dim in (1, 2, 3)]
        else:
            dim = data.draw(st.integers(1, 3))
            coordinate = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(-2.0, 2.0))
            points = data.draw(st.lists(st.tuples(*[coordinate] * dim), max_size=12))
            for i, at in data.draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 12)), max_size=6)):
                if points:  # plant a copy of point i at position at
                    points.insert(min(at, len(points)), points[i % len(points)])
            cases = [np.array(points, dtype=float).reshape(-1, dim)]
        for points in cases:
            want = np.unique(points, axis=0, return_index=True)[1]
            assert np.array_equal(np.sort(geometry._first_copies(points)), np.sort(want))

    def test_duplicate_points_rejected_in_from_points(self):
        with pytest.raises(ValueError):
            lat.configuration_from_points([[0.0], [0.0]], rho=1.0)

    def test_sampled_points_checked_for_duplicates_once(self, monkeypatch):
        # sampling resamples duplicates itself; points given from outside are checked
        calls = []
        first_copies = geometry._first_copies
        monkeypatch.setattr(geometry, "_first_copies", lambda p: calls.append(1) or first_copies(p))
        sampled = lat.sample_configuration(2.0, 10.0, 2, 1.0, 3)
        given = lat.configuration_from_points(sampled.points, 1.0, 10.0, seed=3)
        assert len(calls) == 2 and sampled.n_sites > 1
        for name in ("points", "indptr", "indices", "distances", "radii"):
            assert getattr(given, name).tobytes() == getattr(sampled, name).tobytes()


class TestNeighborhoods:
    def test_single_point_self_inclusion(self):
        nbrs, deg = band_lists([[0.0]], 1.0)
        assert list(nbrs[0]) == [0]
        assert deg[0] == 1

    def test_boundary_distance_included(self):
        nbrs, deg = band_lists([[0.0], [1.0]], 1.0)
        assert deg[0] == 2 and deg[1] == 2

    def test_three_collinear_points(self):
        # spacing 0.6 rho: middle sees both ends, ends see only the middle
        rho = 1.0
        pts = [[0.0], [0.6 * rho], [1.2 * rho]]
        nbrs, deg = band_lists(pts, rho)
        assert deg[1] == 3
        assert deg[0] == 2 and deg[2] == 2
        oracle = brute_force_neighbors(pts, rho)
        for got, want in zip(nbrs, oracle):
            assert np.array_equal(got, want)

    def test_empty_input(self):
        indptr, indices, distances = lat.build_neighborhoods(np.zeros((0, 2)), 1.0)
        assert indptr.tolist() == [0] and indices.size == 0 and distances.size == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_cell_grid_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        dim = 1 + seed % 3
        n = int(rng.integers(2, 120))
        pts = rng.uniform(-4, 4, size=(n, dim))
        rho = float(rng.uniform(0.3, 2.5))
        nbrs, _ = band_lists(pts, rho)
        oracle = brute_force_neighbors(pts, rho)
        for got, want in zip(nbrs, oracle):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_band_matches_brute_force_with_ties(self, dim):
        # integer lattice at rho = 1: every axis neighbor sits at exactly rho
        # and on a cell boundary; far-out points spread the cell grid widely
        axis = np.arange(-3.0, 4.0)
        lattice = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), -1).reshape(-1, dim)
        far = np.array([[1e12] * dim, [1e12 + 1.0] + [1e12] * (dim - 1), [-7e11] * dim])
        pts = np.concatenate([lattice, far])
        indptr, indices, distances = lat.build_neighborhoods(pts, 1.0)
        oracle = brute_force_neighbors(pts, 1.0)
        assert np.array_equal(np.diff(indptr), [row.size for row in oracle])
        assert np.array_equal(indices, np.concatenate(oracle))
        rows = np.repeat(np.arange(len(pts)), np.diff(indptr))
        want = np.sqrt(np.sum((pts[indices] - pts[rows]) ** 2, axis=1))
        assert np.array_equal(distances, want)
        assert np.all(distances <= 1.0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(small_bands())
    @example((np.array([[0.0], [5e-324], [-5e-324], [1.0], [-1.0], [2.0]]), 1.0))
    @example((np.array([[0.0, 0.0], [0.3, 0.0], [0.0, -0.3], [0.6, 0.3], [-0.3, -0.6]]), 0.3))
    def test_band_matches_brute_force_on_drawn_configurations(self, case):
        points, rho = case
        band = lat.build_neighborhoods(points, rho)
        indptr, indices, _ = band
        oracle = brute_force_neighbors(points, rho)
        assert np.array_equal(np.diff(indptr), [row.size for row in oracle])
        assert np.array_equal(indices, np.concatenate(oracle))
        for got, want in zip(band, lexsort_band(points, rho), strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_neighbor_symmetry(self, seed):
        cfg = lat.sample_configuration(1.5, 3.0, 2, 0.8, seed)
        pairs = dict(zip(zip(cfg.rows.tolist(), cfg.indices.tolist()), cfg.distances))
        for (x, y), r in pairs.items():
            assert pairs[(y, x)] == r

    def test_build_peak_is_a_few_results(self):
        # each of the 27 offset cells is filtered before the candidates are
        # joined; joined unfiltered, the 3-d build peaks at about 21 results
        points = lat.sample_configuration(2.0, 5.0, 3, 1.0, 7).points
        tracemalloc.start()
        try:
            band = lat.build_neighborhoods(points, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) > 1500
        assert peak < 8 * sum(part.nbytes for part in band)


class TestBandSlots:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_match_brute_force(self, dim):
        # the far point is its own only neighbor; the site lists are sorted,
        # in the simulator's nested-prefix order (each part ranked by falling
        # degree), all ranked by falling degree as the matvec ranks them,
        # that lone site, and empty
        rng = np.random.default_rng(dim)
        pts = np.concatenate([rng.uniform(-3.0, 3.0, size=(60, dim)), np.full((1, dim), 50.0)])
        config = lat.configuration_from_points(pts, 1.2, box_halfwidth=3.0)
        oracle = brute_force_neighbors(pts, 1.2)
        nested, _ = _nested_levels(config, lat.exhaustion_sequence(config, 3))
        assert not np.array_equal(nested, np.sort(nested)) and oracle[-1].tolist() == [60]
        ranked = np.argsort([-row.size for row in oracle], kind="stable")
        for sites in (np.arange(61), nested, ranked, np.array([60]), np.zeros(0, dtype=np.int64)):
            slots = config.band_slots(sites)
            assert slots.shape == (sites.size, max((oracle[x].size for x in sites), default=0))
            for x, row in zip(sites, slots):
                want = oracle[x]
                assert np.array_equal(config.indices[row[: want.size]], want)
                np.testing.assert_allclose(config.distances[row[: want.size]],
                                           np.linalg.norm(pts[want] - pts[x], axis=1), rtol=1e-15)
                assert np.all(row[want.size :] == -1)


class TestGrowthConstant:
    def test_single_origin_point(self):
        cfg = lat.configuration_from_points([[0.0]], rho=1.0)
        assert lat.estimate_growth_constant(cfg) == pytest.approx(1.0 / LOG2)

    def test_integer_lattice(self):
        cfg = lattice_1d()
        n_hat = lat.estimate_growth_constant(cfg)
        assert n_hat == pytest.approx(3.0 / LOG2)
        # attained near the origin where the guard floor is active
        assert cfg.degrees[np.argmin(np.abs(cfg.points[:, 0]))] == 3

    def test_two_far_points_at_e_minus_one(self):
        r = math.e - 1.0
        cfg = lat.configuration_from_points([[r], [-r]], rho=0.5)
        # both sites isolated, log(1 + |x|) = 1 exactly
        assert lat.estimate_growth_constant(cfg) == pytest.approx(1.0)
        cfg2 = lat.configuration_from_points([[0.0], [r]], rho=0.5)
        assert lat.estimate_growth_constant(cfg2) == pytest.approx(1.0 / LOG2)

    def test_minimality(self):
        cfg = lat.sample_configuration(2.0, 4.0, 1, 1.0, 23)
        n_hat = lat.estimate_growth_constant(cfg)
        guard = np.maximum(oracles.libm(math.log1p, cfg.radii), LOG2)
        assert n_hat == np.max(cfg.degrees / guard)   # libm's log1p, bitwise
        assert np.all(cfg.degrees <= n_hat * guard + 1e-12)
        shrunk = n_hat * (1.0 - 1e-9)
        assert np.any(cfg.degrees > shrunk * guard)

    def test_lone_points_take_libm_log1p(self):
        # numpy's AVX-512 log1p differs from libm's in the last bit for about
        # one radius in forty; a lone point's constant is 1 / log1p(|x|)
        for r in np.random.default_rng(6).uniform(1.0, 200.0, 400).tolist():
            cfg = lat.configuration_from_points([[r]], rho=0.5)
            assert lat.estimate_growth_constant(cfg) == 1.0 / math.log1p(r)

    def test_empty_configuration_rejected(self):
        cfg = lat.sample_configuration(0.0, 5.0, 1, 1.0, 7)
        with pytest.raises(ValueError):
            lat.estimate_growth_constant(cfg)


class TestAbsPower:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0])
    def test_integer_power_is_a_chain_of_squares(self, p):
        x = np.random.default_rng(3).standard_normal(10_000) * 4.0
        x[:3] = [0.0, -0.0, -2.5]
        kept = x.copy()
        got = geometry._abs_power(x, p)
        np.testing.assert_allclose(got, np.abs(x) ** p, rtol=1e-15, atol=0.0)
        assert x.tobytes() == kept.tobytes()
        # in place, as the reductions call it
        assert geometry._abs_power(x, p, out=x).tobytes() == got.tobytes()

    def test_other_powers_are_np_power(self):
        x = np.random.default_rng(4).standard_normal(10_000)
        got = geometry._abs_power(x, 2.5)
        assert got.tobytes() == np.power(np.abs(x), 2.5).tobytes()


class TestExhaustion:
    def test_single_level_is_everything(self):
        cfg = lat.sample_configuration(2.0, 4.0, 1, 1.0, 5)
        (only,) = lat.exhaustion_sequence(cfg, 1)
        assert np.array_equal(only, np.arange(cfg.n_sites))

    def test_empty_configuration(self):
        cfg = lat.sample_configuration(0.0, 5.0, 1, 1.0, 7)
        levels = lat.exhaustion_sequence(cfg, 3)
        assert len(levels) == 3
        assert all(lv.size == 0 for lv in levels)

    def test_lattice_split(self):
        cfg = lattice_1d()
        lv1, lv2 = lat.exhaustion_sequence(cfg, 2)
        assert lv1.size == 11 and lv2.size == 21

    def test_nesting(self):
        cfg = lat.sample_configuration(3.0, 5.0, 2, 1.0, 8)
        levels = lat.exhaustion_sequence(cfg, 4)
        for small, big in zip(levels, levels[1:]):
            assert set(small.tolist()) <= set(big.tolist())

    def test_invalid_levels(self):
        cfg = lat.sample_configuration(1.0, 2.0, 1, 1.0, 1)
        with pytest.raises(ValueError):
            lat.exhaustion_sequence(cfg, 0)


def write_configuration_per_value(cfg, path):
    """Reference writer: one formatted value at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{cfg.dim} {cfg.rho!r} {cfg.box_halfwidth!r} {cfg.seed}\n")
        for i in range(cfg.n_sites):
            fh.write(f"{i} " + " ".join(repr(float(c)) for c in cfg.points[i]) + "\n")


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        edge = lat.configuration_from_points([[-0.0, 1.0], [5e-324, 2.0], [0.1, -3.7]], 0.7, 5.0)
        for cfg in (lat.sample_configuration(2.0, 5.0, 2, 0.7, 77), edge):
            path = tmp_path / "config.txt"
            lat.save_configuration(cfg, path)
            write_configuration_per_value(cfg, tmp_path / "ref.txt")
            assert path.read_bytes() == (tmp_path / "ref.txt").read_bytes()
            back = lat.load_configuration(path)
            assert back.dim == cfg.dim
            assert back.rho == cfg.rho
            assert back.seed == cfg.seed
            assert back.points.tobytes() == cfg.points.tobytes()
            # the neighbor band is recomputed, never stored
            assert np.array_equal(back.indptr, cfg.indptr)
            assert np.array_equal(back.indices, cfg.indices)
            assert np.array_equal(back.distances, cfg.distances)

    def test_empty_roundtrip(self, tmp_path):
        cfg = lat.sample_configuration(0.0, 5.0, 1, 1.0, 7)
        path = tmp_path / "empty.txt"
        lat.save_configuration(cfg, path)
        write_configuration_per_value(cfg, tmp_path / "ref.txt")
        assert path.read_bytes() == (tmp_path / "ref.txt").read_bytes()
        back = lat.load_configuration(path)
        assert back.n_sites == 0
        assert back.points.shape == (0, 1)

    def test_rows_placed_by_index(self, tmp_path):
        cfg = lat.sample_configuration(2.0, 5.0, 2, 0.7, 77)
        path = tmp_path / "config.txt"
        lat.save_configuration(cfg, path)
        head, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(head + "".join(reversed(rows)))
        assert lat.load_configuration(path).points.tobytes() == cfg.points.tobytes()

    @pytest.mark.parametrize(
        "kind", ["header", "dim0", "cut", "repeated", "out_of_range", "wrong_indices"]
    )
    def test_malformed_table_rejected(self, tmp_path, kind):
        cfg = lat.sample_configuration(2.0, 5.0, 2, 0.7, 77)
        path = tmp_path / "config.txt"
        lat.save_configuration(cfg, path)
        corrupt_table(path, kind, cfg.n_sites, sep=" ")
        with pytest.raises(ValueError):
            lat.load_configuration(path)
