import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import latticesde as lat
from conftest import brute_force_neighbors, corrupt_table, dense_operator, small_bands
from latticesde import ovsjannikov
from latticesde.ovsjannikov import (
    BandedOperator,
    load_grid_function,
    norm_bound_series_alt,
    norm_bound_series_log10,
    save_grid_function,
)
from latticesde.spaces import weighted_sum
import oracles


def make_pair_config():
    # two sites within interaction range
    return lat.configuration_from_points([[0.0], [0.5]], rho=1.0)


def banded_from_dense(config, dense, C, q):
    Q = BandedOperator(config, dense[config.rows, config.indices].astype(float), C, q)
    assert np.array_equal(dense_operator(Q), dense), "entries off the neighbor band"
    return Q


def weighted_l1(config, values, a):
    return math.fsum((np.exp(-a * config.radii) * np.abs(values)).tolist())


class TestBandedOperator:
    def test_apply_zero(self, poisson_1d):
        Q = oracles.zero_operator(poisson_1d)
        assert Q.vals.shape == poisson_1d.indices.shape
        z = np.ones(poisson_1d.n_sites)
        assert np.array_equal(Q.matvec(z), np.zeros(poisson_1d.n_sites))

    def test_apply_identity(self, poisson_1d):
        Q = oracles.identity_operator(poisson_1d)
        assert np.array_equal(dense_operator(Q), np.eye(poisson_1d.n_sites))
        z = np.random.default_rng(0).standard_normal(poisson_1d.n_sites)
        assert np.array_equal(Q.matvec(z), z)

    def test_apply_two_site_swap(self):
        cfg = make_pair_config()
        Q = banded_from_dense(cfg, np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, 1.0)
        assert np.array_equal(Q.matvec(np.array([3.0, 5.0])), np.array([5.0, 3.0]))

    def test_growth_bound_enforced(self):
        cfg = make_pair_config()
        with pytest.raises(ValueError):
            banded_from_dense(cfg, np.array([[9.0, 0.0], [0.0, 0.0]]), 1.0, 1.0)

    @pytest.mark.parametrize("size", [0, 3, 5])
    def test_wrong_length_vals_rejected(self, size):
        # the pair's band has four slots: (0,0), (0,1), (1,0), (1,1)
        cfg = make_pair_config()
        with pytest.raises(ValueError, match="band slot"):
            BandedOperator(cfg, np.full(size, 0.1), 1.0, 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matvec_matches_dense(self, seed):
        cfg = lat.sample_configuration(3.0, 6.0, 1, 1.2, seed)
        Q = lat.random_banded_operator(cfg, 0.8, 1.0, seed + 50)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(cfg.n_sites)
        got = Q.matvec(z)
        want = dense_operator(Q) @ z
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
        # same entry order as an unbuffered scatter-add, so bitwise equal
        scattered = np.zeros(cfg.n_sites)
        np.add.at(scattered, cfg.rows, Q.vals * z[cfg.indices])
        assert np.array_equal(got, scattered)
        columns = np.zeros(cfg.n_sites)
        np.add.at(columns, cfg.indices, np.abs(Q.vals))
        assert np.array_equal(Q.column_abs_sums(), columns)

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_random_operator_matches_per_entry_draws(self, nonnegative):
        cfg = lat.sample_configuration(1.5, 3.0, 2, 0.9, 21)
        Q = lat.random_banded_operator(cfg, 0.7, 1.5, 22, nonnegative=nonnegative)
        rng = np.random.default_rng(22)
        rows, cols, vals = [], [], []
        for x, nbrs in enumerate(brute_force_neighbors(cfg.points, 0.9)):
            cap = 0.7 * float(nbrs.size) ** 1.5
            for y in nbrs:
                u = rng.uniform(0.0, 1.0) if nonnegative else rng.uniform(-1.0, 1.0)
                rows.append(x)
                cols.append(y)
                vals.append(cap * u)
        assert np.array_equal(cfg.rows, rows)
        assert np.array_equal(cfg.indices, cols)
        assert np.array_equal(Q.vals, vals)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entry_rejected(self, value):
        # an infinite C caps no entry, and NaN fails every comparison
        cfg = make_pair_config()
        with pytest.raises(ValueError, match="finite"):
            BandedOperator(cfg, np.array([0.0, value, 0.0, 0.0]), math.inf, 1.0)

    @pytest.mark.parametrize("constant, exponent",
                             [(math.nan, 1.0), (-1.0, 1.0), (1.0, math.nan), (1.0, 0.5)])
    def test_growth_constants_validated(self, constant, exponent):
        cfg = make_pair_config()
        with pytest.raises(ValueError, match="band_"):
            BandedOperator(cfg, np.full(4, 0.1), constant, exponent)


class TestOvsConstant:
    def test_reference_value(self):
        assert lat.ovs_constant(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
            4.0 * math.e * math.sqrt(2.0)
        )

    def test_zero_c(self):
        assert lat.ovs_constant(0.0, 1.0, 1.0, 1.0, 1.0) == 0.0

    def test_overflow_is_inf(self):
        # e^(a_low rho) leaves the float range; inf stays a valid ceiling
        assert lat.ovs_constant(1.0, 1.0, 1.0, 1e12, 0.25) == math.inf

    def test_scaling_in_growth_constant(self):
        # scales as N^(q+1): doubling N with q = 1 quadruples L
        assert lat.ovs_constant(1.0, 1.0, 2.0, 1.0, 1.0) == pytest.approx(
            4.0 * math.e * 4.0 * math.sqrt(2.0)
        )


class TestVerifyOvsBound:
    def test_zero_operator(self, poisson_1d):
        Q = oracles.zero_operator(poisson_1d)
        r = lat.verify_ovs_bound(Q, 0.5, 1.5, 20, 1)
        assert r.max_ratio == 0.0 and r.ok

    def test_identity_single_site(self):
        cfg = lat.configuration_from_points([[2.0]], rho=1.0)
        Q = oracles.identity_operator(cfg)
        r = lat.verify_ovs_bound(Q, 0.5, 1.5, 50, 2)
        assert r.max_ratio <= 1.0
        assert r.ok

    def test_degree_valued_entries(self, poisson_1d):
        # Q_{xy} = n_x on the whole band, C = 1, q = 1
        vals = poisson_1d.degrees[poisson_1d.rows].astype(float)
        Q = BandedOperator(poisson_1d, vals, 1.0, 1.0)
        r = lat.verify_ovs_bound(Q, 0.5, 1.5, 200, 3)
        assert r.ok

    def test_bad_weights_rejected(self, poisson_1d):
        Q = oracles.zero_operator(poisson_1d)
        with pytest.raises(ValueError):
            lat.verify_ovs_bound(Q, 1.5, 0.5, 10, 1)

    @pytest.mark.parametrize("terms", [1, 500, None])
    def test_batched_trials_match_per_trial_loop(self, monkeypatch, terms):
        # one trial per matvec, two per matvec (218 sites), and all at once
        if terms is not None:
            monkeypatch.setattr(ovsjannikov, "_CONTRACT_TERMS", terms)
        cfg = lat.sample_configuration(2.0, 5.0, 2, 1.0, 9)
        Q = lat.random_banded_operator(cfg, 0.5, 1.0, 4)
        rng = np.random.default_rng(6)
        max_ratio = 0.0
        for _ in range(30):
            values = rng.standard_normal(cfg.n_sites)
            denom = weighted_sum(cfg.radii, 0.5, np.abs(values))
            if denom == 0.0:
                continue
            numer = weighted_sum(cfg.radii, 1.5, np.abs(Q.matvec(values)))
            max_ratio = max(max_ratio, numer / denom)
        assert lat.verify_ovs_bound(Q, 0.5, 1.5, 30, 6).max_ratio == max_ratio

    def test_batched_matvec_matches_each_row(self):
        # the column contraction of many rows against the entry-order bincount of one
        for case in ["random", "identity", "zero", "uneven", "nonfinite", "empty"]:
            Q, rows = matvec_case(case)
            with np.errstate(invalid="ignore"):
                batched = Q.matvec(rows)
                assert batched.shape == rows.shape
                for i, j in np.ndindex(rows.shape[:-1]):
                    assert batched[i, j].tobytes() == Q.matvec(rows[i, j]).tobytes(), case
                assert Q.matvec(rows[0]).tobytes() == batched[0].tobytes(), case


def matvec_case(case):
    """An operator and (2, 3, site) rows: random entries on the whole band;
    the identity on a band of many neighbors; stored zeros only; a random
    third of the band kept and the rest zeroed, some rows all zero; inf, -inf
    and NaN rows; or an empty configuration."""
    cfg = lat.sample_configuration(2.0, 5.0, 2, 1.0 if case == "random" else 2.0, 9)
    rng = np.random.default_rng(7)
    Q = lat.random_banded_operator(cfg, 0.5, 1.0, 4)
    if case == "identity":
        Q = oracles.identity_operator(cfg)
    elif case == "zero":
        Q = oracles.zero_operator(cfg)
    elif case == "uneven":
        keep = rng.random(Q.vals.size) < 0.3
        Q = BandedOperator(cfg, np.where(keep, Q.vals, 0.0), 0.5, 1.0)
    elif case == "empty":
        cfg = lat.sample_configuration(0.0, 5.0, 2, 1.0, 9)
        Q = lat.random_banded_operator(cfg, 0.5, 1.0, 4)
    rows = rng.standard_normal((2, 3, cfg.n_sites))
    if case == "nonfinite":
        rows[0, 1, :3] = [np.inf, -np.inf, np.nan]
        rows[1, 2, ::5] = np.inf
    # rows differ in how many nonzero entries they hold
    nonzeros = np.bincount(cfg.rows[Q.vals != 0.0], minlength=cfg.n_sites)
    assert (len(set(nonzeros.tolist())) > 1) == (case in ("random", "uneven", "nonfinite"))
    return Q, rows


class TestPicard:
    def test_zero_operator_keeps_initial_value(self, poisson_1d):
        Q = oracles.zero_operator(poisson_1d)
        z0 = lat.WeightedSeq(poisson_1d, np.arange(poisson_1d.n_sites, dtype=float))
        for n in (0, 1, 5):
            f = oracles.picard_iterate(Q, z0, 1.0, n, n_nodes=5)
            assert np.array_equal(f.values[-1], z0.values)

    def test_identity_partial_exponential(self, single_site_config):
        z0 = lat.WeightedSeq(single_site_config, np.array([2.0]))
        f = oracles.picard_iterate(
            oracles.identity_operator(single_site_config), z0, 1.0, 2, n_nodes=3
        )
        # 1 + 1 + 1/2 = 2.5 at t = 1
        assert f.values[-1][0] == pytest.approx(5.0, rel=1e-15)

    def test_truncated_series_identity(self, poisson_1d):
        # iterate n equals sum_{k<=n} t^k/k! Q^k z0 term by term
        Q = lat.random_banded_operator(poisson_1d, 0.5, 1.0, 9)
        rng = np.random.default_rng(10)
        z0 = lat.WeightedSeq(poisson_1d, rng.standard_normal(poisson_1d.n_sites))
        n = 7
        f = oracles.picard_iterate(Q, z0, 0.8, n, n_nodes=9)
        dense = dense_operator(Q)
        for j, t in enumerate(f.times):
            acc = np.zeros_like(z0.values)
            power = z0.values.copy()
            fact = 1.0
            for k in range(n + 1):
                if k > 0:
                    power = dense @ power
                    fact *= k
                acc = acc + t**k / fact * power
            assert np.allclose(f.values[j], acc, rtol=1e-12, atol=1e-12)

    def test_matches_dense_exponential(self):
        cfg = lat.sample_configuration(5.0, 5.0, 1, 1.0, 33)  # about 50 sites
        Q = lat.random_banded_operator(cfg, 0.3, 1.0, 44)
        rng = np.random.default_rng(3)
        z0 = lat.WeightedSeq(cfg, rng.standard_normal(cfg.n_sites))
        f = oracles.picard_iterate(Q, z0, 1.0, 40, n_nodes=5)
        ref = scipy.linalg.expm(dense_operator(Q)) @ z0.values
        err = np.max(np.abs(f.values[-1] - ref)) / np.max(np.abs(ref))
        assert err < 1e-10


@pytest.mark.parametrize("T", [math.inf, math.nan, -1.0, 0.0])
@pytest.mark.parametrize("solve", ["picard_iterate", "solve_linear_evolution"])
def test_horizon_validated(poisson_1d, solve, T):
    # NaN grid differences would pass the increasing-grid check, and an
    # infinite horizon read as a divergence
    Q = oracles.zero_operator(poisson_1d)
    z0 = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
    with pytest.raises(ValueError, match="^T must be finite and > 0"):
        module = oracles if solve == "picard_iterate" else lat
        getattr(module, solve)(Q, z0, T, 2 if module is oracles else 1e-10)


class TestSolveLinearEvolution:
    def test_zero_initial_data(self, poisson_1d):
        Q = lat.random_banded_operator(poisson_1d, 0.5, 1.0, 11)
        z0 = lat.WeightedSeq(poisson_1d, np.zeros(poisson_1d.n_sites))
        f = lat.solve_linear_evolution(Q, z0, 1.0, 1e-10)
        assert np.array_equal(f.values, np.zeros_like(f.values))

    def test_scalar_decay(self, single_site_config):
        Q = banded_from_dense(single_site_config, np.array([[-1.0]]), 1.0, 1.0)
        z0 = lat.WeightedSeq(single_site_config, np.ones(1))
        f = lat.solve_linear_evolution(Q, z0, 1.0, 1e-12, n_nodes=5)
        assert f.values[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_matches_dense_exponential(self):
        cfg = lat.sample_configuration(5.0, 5.0, 1, 1.0, 60)
        Q = lat.random_banded_operator(cfg, 0.3, 1.0, 61)
        rng = np.random.default_rng(6)
        z0 = lat.WeightedSeq(cfg, rng.standard_normal(cfg.n_sites))
        f = lat.solve_linear_evolution(Q, z0, 1.0, 1e-12, n_nodes=9)
        for j, t in enumerate(f.times):
            ref = scipy.linalg.expm(t * dense_operator(Q)) @ z0.values
            assert np.allclose(f.values[j], ref, rtol=1e-9, atol=1e-11)

    def test_tolerance_validated(self, poisson_1d):
        Q = oracles.zero_operator(poisson_1d)
        z0 = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
        with pytest.raises(ValueError):
            lat.solve_linear_evolution(Q, z0, 1.0, 0.0)

    def test_overflowing_iterates_raise_without_warnings(self, poisson_1d):
        # iterates grow like (C n_x)^k t^k / k! and leave the float range
        # long before the iteration cap
        Q = lat.random_banded_operator(poisson_1d, 1e3, 1.0, 12, nonnegative=True)
        z0 = lat.WeightedSeq(poisson_1d, np.ones(poisson_1d.n_sites))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="float range"):
                lat.solve_linear_evolution(Q, z0, 50.0, 1e-12)

    @pytest.mark.parametrize("entry, constant", [(1e299, 1e300), (1e308, math.inf)])
    def test_huge_operator_raises_runtime_error(self, entry, constant):
        # the iteration cap would pass sys.maxsize (and at C = inf the column
        # sums overflow): the iterates leave the float range first
        cfg = make_pair_config()
        Q = banded_from_dense(cfg, np.full((2, 2), entry), constant, 1.0)
        z0 = lat.WeightedSeq(cfg, np.ones(2))
        with pytest.raises(RuntimeError, match="float range"):
            lat.solve_linear_evolution(Q, z0, 1.0, 1e-12)


LOG_MAX = math.log(sys.float_info.max)


def mpmath_log_series(A, q, per_term=True, cutoff=None):
    """Natural log of sum_n A^n n^p / n! at 40 digits, p = q n (per_term) or q.

    0^p counts as 1.  Log-terms are stepped by their exact increments outward
    from the largest term, on each side until 104 nats (1e-45) below it.
    When the log of the term at the saddle estimate exceeds ``cutoff``, that
    lower bound is returned instead: it already shows the sum overflows.
    """
    import mpmath as mp

    with mp.workdps(40):
        log_a, q = mp.log(A), mp.mpf(q)
        logs = {}

        def power_log(n):  # p log n, 0 at n = 0
            if n not in logs:
                logs[n] = mp.log(n) if n else mp.mpf(0)
            return (n if per_term else 1) * q * logs[n]

        def log_term(n):
            return n * log_a + power_log(n) - mp.loggamma(n + 1)

        def rise(n):  # l(n + 1) - l(n)
            return log_a + power_log(n + 1) - power_log(n) - logs[n + 1]

        c = int(mp.exp((log_a + q) / (1 - q))) if per_term else int(A)
        if cutoff is not None and log_term(c) > cutoff:
            return log_term(c)
        while rise(c) > 0:
            c += 1
        while c > 0 and rise(c - 1) < 0:
            c -= 1
        top = log_term(c)
        total = mp.mpf(1)
        for step in (1, -1):
            n, log_t = c, top
            while n + step >= 0:
                log_t += rise(n) if step == 1 else -rise(n - 1)
                n += step
                total += mp.exp(log_t - top)
                if log_t < top - 104:
                    break
        return top + mp.log(total)


def mpmath_log10_series(A, q):
    """log10 of sum_n A^n n^(qn) / n! at 40 digits (0^0 = 1)."""
    import mpmath as mp

    with mp.workdps(40):
        return float(mpmath_log_series(A, q) / mp.log(10))


def _reference_log_terms(A, q):
    yield 0.0
    log_a = math.log(A)
    n = 1
    while True:
        yield n * log_a + q * n * math.log(n) - math.lgamma(n + 1)
        n += 1


def reference_series(L, T, q, alpha, beta, tol=1e-12):
    """Forward term loop that norm_bound_series used before the window sum.

    It stops at an absolute tol and cuts off to inf once (1 - q) peak > 700.
    """
    A = L * T / (beta - alpha) ** q
    if A == 0.0:
        return 1.0
    peak = math.exp((math.log(A) + q) / (1.0 - q))
    if (1.0 - q) * peak > 700.0:
        return math.inf
    terms = []
    prev = math.inf
    for log_t in _reference_log_terms(A, q):
        term = math.exp(log_t)
        terms.append(term)
        if term < tol and term < prev:
            break
        prev = term
    total = math.fsum(terms)
    return total if total < math.inf else math.inf


def reference_series_alt(L, T, q, alpha, beta, tol=1e-12):
    """Forward term loop that norm_bound_series_alt used before the window sum.

    It stops at an absolute tol past n = A and cuts off to inf once A > 690.
    """
    A = L * T
    if A == 0.0:
        return 1.0 / (beta - alpha) ** q
    if A > 690.0:
        return math.inf
    terms = [1.0]
    n = 1
    while True:
        term = math.exp(n * math.log(A) + q * math.log(n) - math.lgamma(n + 1))
        terms.append(term)
        if term < tol and n > A:
            break
        n += 1
    return math.fsum(terms) / (beta - alpha) ** q


ORACLE_A = (1e-3, 1e-1, 1.0, 10.0, 361.0, 1e3)
ORACLE_Q = (0.0, 0.25, 0.5, 0.75, 0.9)
ORACLE_CASES = [
    (A, q)
    for A in ORACLE_A
    for q in ORACLE_Q
    if math.exp((math.log(A) + q) / (1.0 - q)) <= 1e6  # exact branch only
]

SERIES_ARGS = [
    (L, T, q, alpha, beta)
    for L in (0.0, 1e-3, 0.7, 3.0, 40.0, 361.0, 5e3)
    for T in (0.1, 0.5, 1.0)
    for q in (0.0, 0.3, 0.5, 0.75, 0.9, 0.99)
    for alpha, beta in ((0.0, 1.0), (0.25, 0.5), (0.5, 2.0))
]


class TestNormBoundSeries:
    def test_q_zero_is_plain_exponential(self):
        assert lat.norm_bound_series(1.0, 1.0, 0.0, 0.0, 1.0) == pytest.approx(
            math.e, rel=1e-12
        )
        assert lat.norm_bound_series(3.0, 0.5, 0.0, 0.0, 1.0) == pytest.approx(
            math.exp(1.5), rel=1e-12
        )

    def test_l_zero(self):
        assert lat.norm_bound_series(0.0, 1.0, 0.5, 0.0, 1.0) == 1.0
        assert norm_bound_series_alt(0.0, 1.0, 0.5, 0.0, 0.25) == 0.25**-0.5
        assert norm_bound_series_log10(0.0, 1.0, 0.5, 0.0, 1.0) == 0.0

    @staticmethod
    def _mpmath_series(A, q):
        # arbitrary-precision partial summation with monotone-tail stopping
        import mpmath as mp

        with mp.workdps(40):
            total = mp.mpf(1)
            n = 1
            while True:
                term = mp.power(A, n) * mp.power(n, q * n) / mp.factorial(n)
                total += term
                if term < mp.mpf("1e-30") and n > 10:
                    return float(total)
                n += 1

    def test_frozen_value_against_high_precision_oracle(self):
        # q = 1/2, L = T = 1, unit gap; frozen from the oracle below
        got = lat.norm_bound_series(1.0, 1.0, 0.5, 0.0, 1.0)
        assert got == pytest.approx(5.686443765941575523, rel=1e-12)
        assert got == pytest.approx(self._mpmath_series(1.0, 0.5), rel=1e-12)

    def test_second_frozen_value(self):
        # A = L T / gap^q = 2; frozen from the oracle below
        got = lat.norm_bound_series(2.0, 0.5, 0.5, 0.0, 0.25)
        assert got == pytest.approx(328.1219956523110619, rel=1e-12)
        assert got == pytest.approx(self._mpmath_series(2.0, 0.5), rel=1e-12)

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            lat.norm_bound_series(1.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            lat.norm_bound_series(1.0, 1.0, 1.5, 0.0, 1.0)

    def test_overflow_returns_inf(self):
        assert lat.norm_bound_series(1e8, 1.0, 0.5, 0.25, 0.5) == math.inf

    def test_log10_matches_finite_value(self):
        K = lat.norm_bound_series(2.0, 0.5, 0.5, 0.0, 0.25)
        assert norm_bound_series_log10(2.0, 0.5, 0.5, 0.0, 0.25) == pytest.approx(
            math.log10(K), abs=1e-6
        )

    def test_alt_variant_sane(self):
        # flat-exponent variant: gap factor applied once
        got = norm_bound_series_alt(1.0, 1.0, 0.0, 0.0, 1.0)
        assert got == pytest.approx(math.e, rel=1e-10)
        assert norm_bound_series_alt(2.0, 1.0, 0.5, 0.0, 1.0) > 0.0

    @pytest.mark.parametrize("A, q", ORACLE_CASES)
    def test_log10_against_mpmath_oracle(self, A, q):
        got = norm_bound_series_log10(A, 1.0, q, 0.0, 1.0)
        assert got == pytest.approx(mpmath_log10_series(A, q), rel=1e-13)

    def test_log10_frozen_demo_value(self):
        # verify's log10_K on configs/demo.cfg; equals the 40-digit sum, while
        # a streaming log-sum-exp from n = 0 drifted to 76922.83067960729
        got = norm_bound_series_log10(360.9963452130178, 0.5, 0.5, 0.25, 0.5)
        assert got == pytest.approx(76922.83067960788, rel=4e-15)

    @pytest.mark.parametrize("q", ORACLE_Q)
    @pytest.mark.parametrize("A", ORACLE_A + (709.0, 709.9))
    @pytest.mark.parametrize("variant", ["K", "alt"])
    def test_sums_against_mpmath_oracle(self, variant, A, q):
        # A = 709 and 709.9 straddle the float range at q = 0, where K = e^A
        per_term = variant == "K"
        series = lat.norm_bound_series if per_term else norm_bound_series_alt
        got = series(A, 1.0, q, 0.0, 1.0)
        log_sum = float(mpmath_log_series(A, q, per_term, cutoff=LOG_MAX + 1.0))
        if log_sum > LOG_MAX:
            assert got == math.inf
        else:
            want = math.exp(log_sum)
            assert got == pytest.approx(want, rel=2e-15 * max(1.0, log_sum), abs=0.0)

    def test_sums_close_to_reference_loops(self):
        # the forward loops stopped at an absolute tol of 1e-12 (K >= 1), which
        # cost them up to about 1e-12 relative; they cut off to inf only near
        # the top of the float range
        for args in SERIES_ARGS:
            try:
                old = reference_series(*args)
            except OverflowError:  # its saddle-point location overflowed
                old = math.inf
            for new, ref in (
                (lat.norm_bound_series(*args), old),
                (norm_bound_series_alt(*args), reference_series_alt(*args)),
            ):
                if ref == math.inf:
                    assert new == math.inf or new > math.exp(690.0), args
                else:
                    tol = 1e-11 + 4e-15 * max(1.0, math.log(ref))
                    assert new == pytest.approx(ref, rel=tol, abs=0.0), args

    def test_arguments_validated_alike(self):
        for series in (lat.norm_bound_series, norm_bound_series_alt, norm_bound_series_log10):
            for args in ((-1.0, 1.0, 0.5, 0.0, 1.0), (1.0, -1.0, 0.5, 0.0, 1.0),
                         (math.nan, 1.0, 0.5, 0.0, 1.0), (1.0, 1.0, math.nan, 0.0, 1.0),
                         (1.0, 1.0, 0.5, 1.0, math.nan), (1.0, 1.0, 0.5, 1.0, 1.0)):
                with pytest.raises(ValueError):
                    series(*args)

    def test_saddle_branch_unchanged(self):
        # peak index beyond 1e6: the saddle estimate (1 - q) peak / ln 10
        for L, q in ((1e4, 0.5), (50.0, 0.75), (3.0, 0.9)):
            A = L * 0.5 / 0.25**q
            peak = math.exp((math.log(A) + q) / (1.0 - q))
            assert peak > 1e6
            assert norm_bound_series_log10(L, 0.5, q, 0.25, 0.5) == (
                (1.0 - q) * peak / math.log(10.0)
            )

    def test_order_near_one_overflows_to_inf(self):
        # the saddle-point location exp((log A + q)/(1 - q)) leaves the float range
        assert lat.norm_bound_series(361.0, 0.5, 0.99, 0.25, 0.5) == math.inf
        assert norm_bound_series_log10(361.0, 0.5, 0.99, 0.25, 0.5) == math.inf

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.0, 50.0), st.floats(0.0, 2.0), st.floats(0.0, 0.9),
           st.floats(0.0, 2.0), st.floats(0.05, 2.0))
    def test_at_least_one_and_log10_agrees(self, L, T, q, alpha, gap):
        # A = L T / gap^q stays below 1.5e3
        K = lat.norm_bound_series(L, T, q, alpha, alpha + gap)
        assert K >= 1.0
        if K < math.inf:
            # log10(K) of a K within an ulp or two of 1 is only that close
            assert norm_bound_series_log10(L, T, q, alpha, alpha + gap) == pytest.approx(
                math.log10(K), rel=1e-12, abs=1e-15)


@pytest.fixture(scope="module")
def comparison_setup():
    cfg = lat.sample_configuration(2.0, 3.0, 1, 1.0, 70)
    Q = lat.random_banded_operator(cfg, 0.3, 1.0, 71, nonnegative=True)
    rng = np.random.default_rng(72)
    z0 = lat.WeightedSeq(cfg, 1.0 + np.abs(rng.standard_normal(cfg.n_sites)))
    return cfg, Q, z0


class TestComparison:
    @pytest.fixture
    def setup(self, comparison_setup):
        return comparison_setup

    def test_zero_subsolution(self, setup):
        cfg, Q, z0 = setup
        g = lat.GridFunction(cfg, np.linspace(0, 0.5, 33), np.zeros((33, cfg.n_sites)))
        rep = lat.comparison_check(Q, z0, g)
        assert rep.hypothesis_ok and rep.ok
        assert rep.margin >= 0.0

    def test_solution_is_equality_case(self, setup):
        cfg, Q, z0 = setup
        f = lat.solve_linear_evolution(Q, z0, 0.5, 1e-12, n_nodes=65)
        rep = lat.comparison_check(Q, z0, f)
        assert rep.hypothesis_ok and rep.ok
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_reduced_initial_data_dominated_with_margin(self, setup):
        cfg, Q, z0 = setup
        shaved = z0.values.copy()
        shaved[0] -= 0.5
        g = lat.solve_linear_evolution(
            Q, lat.WeightedSeq(cfg, shaved), 0.5, 1e-12, n_nodes=65
        )
        rep = lat.comparison_check(Q, z0, g)
        assert rep.hypothesis_ok and rep.ok
        assert rep.margin >= 0.0
        # at the shaved site the domination is strict for every grid time
        f = lat.solve_linear_evolution(Q, z0, 0.5, 1e-12, n_nodes=65)
        assert np.all(f.values[:, 0] - g.values[:, 0] >= 0.5 - 1e-9)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(small_bands(), st.floats(0.005, 0.05), st.floats(1.0, 1.5), st.integers(0, 2**32 - 1),
           st.floats(0.05, 0.2), st.floats(0.5, 0.95))
    def test_comparison_principle_on_drawn_configurations(self, case, C, q, seed, T, s):
        # the solution g from s z0 is a sub-solution (the trapezoid rule only
        # overestimates the integral of the convex Q g), and so is f itself
        points, rho = case
        cfg = lat.configuration_from_points(points, rho)
        Q = lat.random_banded_operator(cfg, C, q, seed, nonnegative=True)
        z0 = lat.WeightedSeq(cfg, np.random.default_rng(seed).uniform(0.1, 2.0, cfg.n_sites))
        f = lat.solve_linear_evolution(Q, z0, T, 1e-12, n_nodes=33)
        g = lat.solve_linear_evolution(Q, lat.WeightedSeq(cfg, s * z0.values), T, 1e-12,
                                       n_nodes=33)
        for sub in (g, f):
            rep = lat.comparison_check(Q, z0, sub)
            assert rep.hypothesis_ok and rep.ok

    def test_violating_function_fails_hypothesis(self, setup):
        cfg, Q, z0 = setup
        times = np.linspace(0, 0.5, 33)
        bad = np.tile(z0.values * 10.0, (33, 1))
        rep = lat.comparison_check(Q, z0, lat.GridFunction(cfg, times, bad))
        assert not rep.hypothesis_ok
        assert rep.hypothesis_site is not None
        assert rep.hypothesis_time is not None
        assert rep.ok is None

    def test_signed_kernel_rejected(self, setup):
        cfg, _, z0 = setup
        Qsigned = lat.random_banded_operator(cfg, 0.3, 1.0, 99)
        g = lat.GridFunction(cfg, np.linspace(0, 0.5, 9), np.zeros((9, cfg.n_sites)))
        if not Qsigned.is_nonnegative():
            with pytest.raises(ValueError):
                lat.comparison_check(Qsigned, z0, g)

    def test_negative_initial_data_rejected(self, setup):
        cfg, Q, _ = setup
        g = lat.GridFunction(cfg, np.linspace(0, 0.5, 9), np.zeros((9, cfg.n_sites)))
        with pytest.raises(ValueError):
            lat.comparison_check(Q, lat.WeightedSeq(cfg, -np.ones(cfg.n_sites)), g)

    def test_grid_not_from_zero_rejected(self, setup):
        # on [1, 2], g would be integrated from 0 and compared with f at other times
        cfg, Q, z0 = setup
        g = lat.GridFunction(cfg, np.linspace(1.0, 2.0, 9), np.zeros((9, cfg.n_sites)))
        with pytest.raises(ValueError, match="start at t = 0"):
            lat.comparison_check(Q, z0, g)

    def test_one_node_grid_rejected(self, setup):
        cfg, Q, z0 = setup
        g = lat.GridFunction(cfg, np.zeros(1), np.zeros((1, cfg.n_sites)))
        with pytest.raises(ValueError, match="at least two nodes"):
            lat.comparison_check(Q, z0, g)


class TestIterateEstimate:
    def test_increment_below_series_bound(self):
        # measured ||I^{n+1} - I^n|| against L^n T^n (beta-alpha)^{-n/2} n^{n/2}/n!
        cfg = lat.sample_configuration(2.0, 5.0, 1, 1.0, 80)
        Q = lat.random_banded_operator(cfg, 0.3, 1.0, 81)
        rng = np.random.default_rng(82)
        z0 = lat.WeightedSeq(cfg, rng.standard_normal(cfg.n_sites))
        a_low, alpha, beta, T = 0.25, 0.3, 1.3, 0.25
        n_hat = lat.estimate_growth_constant(cfg)
        L = lat.ovs_constant(0.3, 1.0, n_hat, cfg.rho, a_low)
        base = T * weighted_l1(cfg, Q.matvec(z0.values), alpha)
        powers = [z0.values]
        for _ in range(31):
            powers.append(Q.matvec(powers[-1]))
        for n in range(30):
            measured = (
                T ** (n + 1) / math.factorial(n + 1)
                * weighted_l1(cfg, powers[n + 1], beta)
            )
            n_term = 1.0 if n == 0 else float(n) ** (0.5 * n)
            bound = (
                L**n * T**n / (beta - alpha) ** (0.5 * n)
                * n_term / math.factorial(n) * base
            )
            assert measured <= bound * (1.0 + 1e-9)


def saved_grid_function(config, path):
    Q = lat.random_banded_operator(config, 0.3, 1.0, 6)
    z0 = lat.WeightedSeq(config, np.ones(config.n_sites))
    f = lat.solve_linear_evolution(Q, z0, 0.5, 1e-10, n_nodes=9)
    f.values[3, :2] = [-0.0, 5e-324]
    save_grid_function(f, path)
    return f


class TestSerialization:
    def test_grid_function_roundtrip(self, tmp_path, poisson_1d):
        path = tmp_path / "grid.csv"
        f = saved_grid_function(poisson_1d, path)
        back = load_grid_function(poisson_1d, path)
        assert back.times.tobytes() == f.times.tobytes()
        assert back.values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize(
        "table, kind",
        [("grid", k) for k in ["header", "cut", "first_rows", "no_rows", "repeated", "out_of_range"]],
    )
    def test_malformed_table_rejected(self, tmp_path, poisson_1d, table, kind):
        path = tmp_path / f"{table}.csv"
        saved_grid_function(poisson_1d, path)
        corrupt_table(path, kind, poisson_1d.n_sites, index_field=1)
        with pytest.raises(ValueError):
            load_grid_function(poisson_1d, path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_times_rejected(self, poisson_1d, bad):
        times = np.array([0.0, 0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            lat.GridFunction(poisson_1d, times, np.zeros((3, poisson_1d.n_sites)))

    def test_empty_configuration_grid_rejected(self, tmp_path):
        # a grid table keeps its time nodes only in site rows
        empty = lat.sample_configuration(0.0, 5.0, 1, 1.0, 7)
        assert empty.n_sites == 0
        f = lat.GridFunction(empty, np.linspace(0.0, 1.0, 3), np.zeros((3, 0)))
        path = tmp_path / "grid.csv"
        with pytest.raises(ValueError, match="needs a site"):
            save_grid_function(f, path)
        assert not path.exists()
        path.write_text("t,site_index,value\n", encoding="utf-8")
        with pytest.raises(ValueError, match="needs a site"):
            load_grid_function(empty, path)

    def test_grid_function_bytes_match_per_value_writer(self, tmp_path, poisson_1d):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((9, poisson_1d.n_sites)) * 10.0 ** rng.integers(
            -300, 300, (9, poisson_1d.n_sites)
        )
        values[0, :3] = [-0.0, 5e-324, 1.0]
        f = lat.GridFunction(poisson_1d, np.linspace(0.0, 0.7, 9), values)
        save_grid_function(f, tmp_path / "grid.csv")
        with open(tmp_path / "ref.csv", "w", encoding="utf-8") as fh:
            fh.write("t,site_index,value\n")
            for j, t in enumerate(f.times):
                for i in range(poisson_1d.n_sites):
                    fh.write(f"{float(t)!r},{i},{float(f.values[j, i])!r}\n")
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
