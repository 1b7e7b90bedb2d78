import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticesde as lat
from conftest import lattice_1d
import oracles


@pytest.fixture(scope="module")
def two_site_config():
    # |x| = 0 and |x| = 1
    return lat.configuration_from_points([[0.0], [1.0]], rho=0.5)


class TestLpNorm:
    def test_zero_sequence(self, poisson_1d):
        z = lat.WeightedSeq(poisson_1d, np.zeros(poisson_1d.n_sites))
        assert oracles.lp_norm(z, 1.0, 2.0) == 0.0

    def test_unit_mass_single_site(self):
        cfg = lat.configuration_from_points([[2.0]], rho=1.0)
        z = lat.WeightedSeq(cfg, np.ones(1))
        for a, p in [(0.5, 1.0), (1.0, 2.0), (2.0, 3.0)]:
            assert oracles.lp_norm(z, a, p) == pytest.approx(math.exp(-a * 2.0 / p))

    def test_two_site_value(self, two_site_config):
        z = lat.WeightedSeq(two_site_config, np.array([1.0, 2.0]))
        # (1 + 4 e^{-1})^{1/2}, evaluated directly
        expected = math.sqrt(1.0 + 4.0 * math.exp(-1.0))
        got = oracles.lp_norm(z, 1.0, 2.0)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(1.5721062, abs=1e-6)

    def test_invalid_args(self, two_site_config):
        z = lat.WeightedSeq(two_site_config, np.ones(2))
        with pytest.raises(ValueError):
            oracles.lp_norm(z, 0.0, 2.0)
        with pytest.raises(ValueError):
            oracles.lp_norm(z, 1.0, 0.5)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.integers(0, 2**16),
    )
    def test_homogeneity(self, c, seed):
        cfg = lattice_1d(-5, 5)
        values = np.random.default_rng(seed).standard_normal(cfg.n_sites)
        z = lat.WeightedSeq(cfg, values)
        zc = lat.WeightedSeq(cfg, c * values)
        base = oracles.lp_norm(z, 0.7, 2.0)
        assert oracles.lp_norm(zc, 0.7, 2.0) == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.floats(1.0, 4.0))
    def test_triangle_inequality(self, seed, p):
        cfg = lattice_1d(-5, 5)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(cfg.n_sites)
        v = rng.standard_normal(cfg.n_sites)
        lhs = oracles.lp_norm(lat.WeightedSeq(cfg, u + v), 0.9, p)
        rhs = oracles.lp_norm(lat.WeightedSeq(cfg, u), 0.9, p) + oracles.lp_norm(
            lat.WeightedSeq(cfg, v), 0.9, p
        )
        assert lhs <= rhs + 1e-12


def norms_and_verdict(z, alpha, beta, p):
    """The two norms of ``z`` from the oracle, and the library's verdict on ``z``."""
    (verdict,) = lat.verify_scale_monotonicity(z.config, z.values[None], alpha, beta, p)
    return oracles.lp_norm(z, alpha, p), oracles.lp_norm(z, beta, p), bool(verdict)


class TestScaleMonotonicity:
    def test_zero_sequence(self, poisson_1d):
        z = lat.WeightedSeq(poisson_1d, np.zeros(poisson_1d.n_sites))
        na, nb, ok = norms_and_verdict(z, 0.5, 1.0, 2.0)
        assert (na, nb, ok) == (0.0, 0.0, True)

    def test_support_at_origin_gives_equality(self):
        cfg = lat.configuration_from_points([[0.0], [1.5]], rho=0.5)
        z = lat.WeightedSeq(cfg, np.array([3.0, 0.0]))
        na, nb, ok = norms_and_verdict(z, 0.5, 1.0, 2.0)
        assert na == nb and ok

    @pytest.mark.parametrize("p", [2.0, 4.0, 2.5])
    def test_list_matches_one_norm_per_sequence(self, p):
        # the batched trials of `verify`: 100 sequences drawn as one array
        # equal 100 draws one after another, and checked together each gets
        # the verdict of the norms lp_norm gives it alone
        cfg = lat.sample_configuration(2.0, 6.0, 2, 1.0, 102)
        rows = np.random.default_rng(3).standard_normal((100, cfg.n_sites))
        rng = np.random.default_rng(3)
        one_by_one = []
        for _ in range(100):
            z = lat.WeightedSeq(cfg, rng.standard_normal(cfg.n_sites))
            na, nb = oracles.lp_norm(z, 0.5, p), oracles.lp_norm(z, 1.25, p)
            one_by_one.append(nb <= na + lat.spaces.NORM_SLACK)
        assert lat.verify_scale_monotonicity(cfg, rows, 0.5, 1.25, p).tolist() == one_by_one
        assert lat.verify_scale_monotonicity(cfg, rows[:0], 0.5, 1.25, p).tolist() == []
        with pytest.raises(ValueError):
            lat.verify_scale_monotonicity(cfg, rows, 1.25, 0.5, p)
        with pytest.raises(ValueError):
            lat.verify_scale_monotonicity(cfg, rows[:, 1:], 0.5, 1.25, p)

    def test_random_sequences_hold_strictly(self):
        cfg = lat.sample_configuration(2.0, 5.0, 1, 1.0, 101)  # about 20 sites
        assert cfg.n_sites > 0
        for seed in range(1000):
            values = np.random.default_rng(seed).standard_normal(cfg.n_sites)
            z = lat.WeightedSeq(cfg, values)
            na, nb, ok = norms_and_verdict(z, 0.5, 1.0, 2.0)
            assert ok
            if np.any(values[cfg.radii > 0] != 0.0):
                assert nb < na

    def test_bad_weight_order_rejected(self, poisson_1d):
        values = np.ones((1, poisson_1d.n_sites))
        with pytest.raises(ValueError):
            lat.verify_scale_monotonicity(poisson_1d, values, 1.0, 0.5, 2.0)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.floats(0.1, 1.0),
        st.floats(1.05, 3.0),
    )
    def test_monotone_for_all_weight_pairs(self, seed, alpha, ratio):
        cfg = lattice_1d(-6, 6)
        beta = alpha * ratio
        values = np.random.default_rng(seed).standard_normal(cfg.n_sites)
        assert lat.verify_scale_monotonicity(cfg, values[None], alpha, beta, 2.0).all()


class TestDegreeSummability:
    def test_empty_configuration(self):
        cfg = lat.sample_configuration(0.0, 5.0, 1, 1.0, 7)
        partial, tail = lat.degree_summability_check(cfg, 1.0)
        assert partial == 0.0
        assert math.isfinite(tail) and tail > 0.0

    def test_single_origin_site(self):
        cfg = lat.configuration_from_points([[0.0]], rho=1.0)
        partial, _ = lat.degree_summability_check(cfg, 1.0)
        assert partial == pytest.approx(1.0)

    def test_lattice_window_sum(self):
        # brute-force site sum: degrees 3 in the interior, 2 at the ends
        cfg = lattice_1d()
        partial, tail = lat.degree_summability_check(cfg, 1.0)
        brute = math.fsum(
            math.exp(-abs(float(j))) * (3 if abs(j) < 10 else 2)
            for j in range(-10, 11)
        )
        assert partial == pytest.approx(brute, rel=1e-14)
        assert partial == pytest.approx(6.4916109, abs=1e-6)
        assert math.isfinite(tail)

    def test_tail_terminates_for_small_weight(self):
        cfg = lat.configuration_from_points([[0.0]], rho=1.0)
        _, tail = lat.degree_summability_check(cfg, 0.05)
        assert math.isfinite(tail)

    @pytest.mark.parametrize("a_low", [3.0, 0.5, 0.25, 1e-3, 1e-7])
    def test_tail_matches_mpmath_series(self, a_low):
        import mpmath as mp

        cfg = lat.configuration_from_points([[0.0]], rho=1.0)
        scale = lat.estimate_growth_constant(cfg) * 2.0**3  # k = 1: 1 / 2^k < rho
        m = math.ceil(max(1.0 / a_low, 2.0))
        with mp.workdps(40):
            ka = mp.mpf((m - 1) / m) * a_low
            exact = scale * mp.nsum(lambda n: mp.exp(-ka * n) * n**3, [m + 1, mp.inf])
            _, tail = lat.degree_summability_check(cfg, a_low)
            assert abs(tail - exact) <= 4 * 2.0**-52 * exact

    @pytest.mark.parametrize("a_low", [1e-90, 1e-308, 1e-320])
    def test_tail_past_the_float_range_is_inf(self, a_low):
        cfg = lat.configuration_from_points([[0.0]], rho=1.0)
        assert lat.degree_summability_check(cfg, a_low) == (1.0, math.inf)

    @pytest.mark.parametrize("rho", [1.01e-308, 1.2e-308])
    def test_tail_for_a_tiny_rho_is_inf(self, rho):
        # sqrt(d) / rho near the float maximum: 2^k and 2^(k+2) leave the float range
        cfg = lat.configuration_from_points([[0.0]], rho=rho)
        assert lat.degree_summability_check(cfg, 0.25) == (1.0, math.inf)

    @pytest.mark.parametrize("a_low", [math.inf, math.nan, 0.0, -1.0])
    def test_a_low_must_be_finite_and_positive(self, a_low):
        cfg = lat.configuration_from_points([[0.0]], rho=1.0)
        with pytest.raises(ValueError, match="a_low must be finite and > 0"):
            lat.degree_summability_check(cfg, a_low)


class TestTypes:
    def test_weighted_seq_validation(self, poisson_1d):
        with pytest.raises(ValueError):
            lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites + 1))
        bad = np.ones(poisson_1d.n_sites)
        bad[0] = math.inf
        with pytest.raises(ValueError):
            lat.WeightedSeq(poisson_1d, bad)
