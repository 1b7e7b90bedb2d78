"""Verdicts and values settled by bounded sums against all-``fsum`` references.

Each reference below sums every row with ``math.fsum``, as verify did before
its sums were bounded; the library must give the same verdicts, the same
``max_ratio`` and the same Picard stop iteration, bitwise, also on rows at a
tolerance or slack edge, near the float maximum, subnormal, NaN or zero.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import latticesde as lat
from latticesde import spaces
from latticesde.ovsjannikov import BandedOperator, _max_ratio
from latticesde.spaces import bounded_sums, verify_scale_monotonicity, weighted_sum
import oracles
from test_ovsjannikov import banded_from_dense

TINY = 5e-324


@pytest.fixture(autouse=True, params=["bounded", "exact"])
def small_sums(request, monkeypatch):
    """Every test twice: with tiny inputs bounded too, and summed exactly as the library does."""
    if request.param == "bounded":
        monkeypatch.setattr(spaces, "_EXACT_TERMS", 0)
    return request.param


def fsum_of(weights, row):
    """The fsum of the nonnegative terms, inf where it overflows (their exact sum rounded)."""
    try:
        return math.fsum((weights * row).tolist())
    except OverflowError:
        return math.inf


def fsum_verdicts(config, values, alpha, beta, p):
    """The monotonicity verdicts of the rows of ``values``, one fsum per norm."""
    radii = config.radii
    out = []
    for row in values:
        powed = np.abs(row) ** p
        norm_alpha = fsum_of(np.exp(-alpha * radii), powed) ** (1.0 / p)
        norm_beta = fsum_of(np.exp(-beta * radii), powed) ** (1.0 / p)
        out.append(norm_beta <= norm_alpha + spaces.NORM_SLACK)
    return out


def fsum_max_ratio(Q, values, alpha, beta):
    """max ||Qv||_beta / ||v||_alpha over rows with ||v||_alpha != 0, one fsum per norm."""
    radii = Q.config.radii
    denoms = [fsum_of(np.exp(-alpha * radii), np.abs(v)) for v in values]
    numers = [fsum_of(np.exp(-beta * radii), np.abs(Q.matvec(v))) for v in values]
    best = 0.0
    for numer, denom in zip(numers, denoms):
        if denom != 0.0:
            best = max(best, numer / denom)
    return best


def fsum_solve(Q, z0, T, tol, beta=0.0, n_nodes=33):
    """(total, k, increments) of the Picard solve with one fsum per increment;
    total is an error message where the solve raises."""
    times = np.linspace(0.0, T, n_nodes)
    opnorm = float(np.max(Q.column_abs_sums())) if Q.n_sites else 0.0
    max_iter = int(10 * (math.e * opnorm * T + 10))
    power, coeff = z0.values.copy(), np.ones(times.size)
    total = np.outer(coeff, power)
    below, increments = 0, []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            power = Q.matvec(power)
            coeff = coeff * times / k
            total += np.outer(coeff, power)
            increment = coeff[-1] * fsum_of(np.exp(-beta * Q.config.radii), np.abs(power))
            increments.append(increment)
            if not math.isfinite(increment):
                return f"Picard iterate {k} left the float range", k, increments
            below = below + 1 if increment < tol else 0
            if below >= 2:
                return total, k, increments
    return f"no convergence within {max_iter} iterations", max_iter, increments


def solve_counting(Q, z0, T, tol, monkeypatch, beta=0.0, n_nodes=33):
    """The library's (total, k): k counts the matvecs, one per Picard iterate."""
    calls = []
    matvec = BandedOperator.matvec
    monkeypatch.setattr(BandedOperator, "matvec", lambda self, v: calls.append(1) or matvec(self, v))
    try:
        total = lat.solve_linear_evolution(Q, z0, T, tol, beta=beta, n_nodes=n_nodes).values
    except RuntimeError as exc:
        total = str(exc)
    finally:
        monkeypatch.setattr(BandedOperator, "matvec", matvec)
    return total, len(calls)


def assert_same_solve(mine, ref):
    (total, k), (ref_total, ref_k, _) = mine, ref
    assert k == ref_k
    if isinstance(ref_total, str):
        assert isinstance(total, str) and total.startswith(ref_total)
    else:
        assert total.tobytes() == ref_total.tobytes()


ADVERSARIAL_ROWS = {
    "zeros": [0.0, 0.0, 0.0, 0.0],
    "subnormal": [TINY, 3 * TINY, 0.0, 2.0**-1060],
    "mixed": [1e-300, 1.0, 1e300, TINY],
    "near_max": [sys.float_info.max / 2, 0.0, 0.0, sys.float_info.max / 2],   # fsum finite, bound not
    "inf": [np.inf, 1.0, 0.0, 0.0],
    "nan": [np.nan, 1.0, 0.0, 0.0],
}


# site radii 0, 1, 2, 0 at weight log 2: the weights 1, 1/2, 1/4, 1
RADII, A = np.array([0.0, 1.0, 2.0, 0.0]), math.log(2.0)

SPECIAL_VALUES = [0.0, TINY, 2.0**-1060, sys.float_info.min, 1.0,
                  sys.float_info.max / 4, sys.float_info.max, math.inf, math.nan]


class TestBoundedSums:
    @pytest.mark.parametrize("name", ADVERSARIAL_ROWS)
    def test_interval_holds_the_fsum(self, name):
        row = np.array(ADVERSARIAL_ROWS[name])
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = bounded_sums(RADII, A, row[None])
        exact = weighted_sum(RADII, A, row)
        if math.isnan(exact):
            assert math.isnan(lo[0]) and math.isnan(hi[0])
        else:
            assert lo[0] <= exact <= hi[0]
        if name in ("zeros", "near_max", "inf"):   # [0, 0], or fsum itself
            assert lo[0] == hi[0] == exact

    def test_overflowing_fsum_raises(self):
        row = np.array([1.7e308, 1.7e308])
        assert fsum_of(np.ones(2), row) == weighted_sum(np.zeros(2), 1.0, row) == math.inf
        with np.errstate(over="ignore"):
            lo, hi = bounded_sums(np.zeros(2), 1.0, row[None])
        assert lo[0] == hi[0] == math.inf

    def test_lossy_sum(self):
        # np.sum drops the tiny terms that meet 1.0 in its accumulator: an
        # error of several ulps, which only the gamma_n term covers
        row = np.full(8000, 2.0**-53)
        row[0] = 1.0
        lo, hi = bounded_sums(np.zeros(row.size), 1.0, row[None])
        exact = math.fsum(row.tolist())
        assert abs(float(np.sum(row)) - exact) > 4 * 2.0**-52 * exact
        assert lo[0] <= exact <= hi[0]

    def test_interval_is_tight(self):
        rows = np.random.default_rng(1).random((50, 3000))
        lo, hi = bounded_sums(np.zeros(3000), 1.0, rows)
        exact = np.array([math.fsum(row.tolist()) for row in rows])
        assert np.all((lo <= exact) & (exact <= hi))
        assert np.all(hi - lo <= 2e-12 * exact)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 3), st.sampled_from([1.0, 2.0]), st.integers(0, 2**32 - 1),
           st.floats(0.0, 4.0), st.data())
    def test_interval_holds_weighted_sum(self, dim, box, seed, a, data):
        config = lat.sample_configuration(1.0, box, dim, 1.0, seed)
        value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(0.0, sys.float_info.max))
        n_rows = data.draw(st.integers(1, 6))
        rows = np.array([[data.draw(value) for _ in range(config.n_sites)]
                         for _ in range(n_rows)]).reshape(n_rows, config.n_sites)
        exact_all = rows.size <= spaces._EXACT_TERMS
        with np.errstate(over="ignore", invalid="ignore"):
            want = [weighted_sum(config.radii, a, row) for row in rows]
            lo, hi = bounded_sums(config.radii, a, rows)
        for low, high, exact in zip(lo.tolist(), hi.tolist(), want):
            if math.isnan(exact):
                assert math.isnan(low) and math.isnan(high)
            elif exact_all or exact in (0.0, math.inf):   # summed exactly, or [0, 0]
                assert low == high == exact
            else:
                assert low <= exact <= high


class TestMonotonicityVerdicts:
    def test_slack_edge(self, monkeypatch):
        # a negative slack moves the edge onto the norms themselves: sweep it
        # over the few doubles around the gap between two norms
        cfg = lat.sample_configuration(2.0, 5.0, 1, 1.0, 101)
        values = np.random.default_rng(2).standard_normal((3, cfg.n_sites))
        z = lat.WeightedSeq(cfg, values[0])
        na, nb = oracles.lp_norm(z, 0.5, 2.0), oracles.lp_norm(z, 1.0, 2.0)
        gap = nb - na
        at_edge, seen = 0, set()
        for k in range(-4, 5):
            slack = gap
            for _ in range(abs(k)):
                slack = math.nextafter(slack, math.copysign(math.inf, k))
            monkeypatch.setattr(spaces, "NORM_SLACK", slack)
            at_edge += nb == na + slack
            verdicts = verify_scale_monotonicity(cfg, values, 0.5, 1.0, 2.0)
            assert verdicts.tolist() == fsum_verdicts(cfg, values, 0.5, 1.0, 2.0)
            seen.add(bool(verdicts[0]))
        assert at_edge and seen == {True, False}

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_adversarial_sequences(self, p):
        # site 2 at |x| = 800: e^(-800) underflows to 0, and 0 * (1e200)^p is NaN for p > 1
        cfg = lat.configuration_from_points([[0.0], [0.5], [800.0]], rho=1.0)
        values = np.array([[0.0, 0.0, 0.0], [TINY, 2 * TINY, 0.0], [1.0, -TINY, 3.0],
                           [1e200, 1.0, 1e200], [8e307, 8e307, 0.0], [1e154, 1e154, 0.0],
                           [sys.float_info.max / 2, 0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            want = fsum_verdicts(cfg, values, 0.5, 1.0, p)
            assert verify_scale_monotonicity(cfg, values, 0.5, 1.0, p).tolist() == want
        assert (False in want) == (p > 1.0)
        assert verify_scale_monotonicity(cfg, np.zeros((0, 3)), 0.5, 1.0, p).tolist() == []

    def test_overflowing_sum_raises_like_fsum(self):
        cfg = lat.configuration_from_points([[0.0], [0.5]], rho=1.0)
        values = np.array([[1.7e308, 1.7e308]])
        want = fsum_verdicts(cfg, values, 0.5, 1.0, 1.0)
        assert want == [True]   # both norms are inf, and inf <= inf + NORM_SLACK
        assert verify_scale_monotonicity(cfg, values, 0.5, 1.0, 1.0).tolist() == want

    def test_random_verdicts_need_no_fsum(self, monkeypatch):
        cfg = lat.sample_configuration(2.0, 6.0, 2, 1.0, 102)
        values = np.random.default_rng(3).standard_normal((100, cfg.n_sites))
        want = fsum_verdicts(cfg, values, 0.5, 1.25, 4.0)
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
        assert verify_scale_monotonicity(cfg, values, 0.5, 1.25, 4.0).tolist() == want
        assert not calls


class TestMaxRatio:
    @pytest.fixture
    def operator(self):
        cfg = lat.sample_configuration(2.0, 5.0, 1, 1.0, 9)
        return lat.random_banded_operator(cfg, 0.5, 1.0, 4)

    def test_adversarial_rows(self, operator):
        n = operator.n_sites
        rng = np.random.default_rng(5)
        values = rng.standard_normal((12, n))
        values[0] = 0.0                          # zero denominator
        values[1] = values[2] * 2.0**-40         # ties with row 2
        values[3] = values[4] * 2.0**600
        values[5] = TINY * rng.integers(0, 4, n)   # subnormal
        values[6, 0] = np.nan
        values[7, :] = 0.0
        values[7, -1] = 1e-320                   # a subnormal denominator
        values[8] *= 1e306                       # near the float maximum
        with np.errstate(over="ignore", invalid="ignore"):
            want = fsum_max_ratio(operator, values, 0.5, 1.5)
            assert _max_ratio(operator, values, 0.5, 1.5) == want
            # one subnormal site per row: denominators of a few ulps of 5e-324
            single = np.diag(np.full(n, 2 * TINY))
            assert _max_ratio(operator, single, 0.5, 1.5) == fsum_max_ratio(operator, single, 0.5, 1.5)
            for rows in (values[:1], values[5:8], values[[0, 6]]):
                assert _max_ratio(operator, rows, 0.5, 1.5) == fsum_max_ratio(operator, rows, 0.5, 1.5)

    def test_infinite_ratio(self, operator):
        # the numerator overflows where the denominator does not
        big = BandedOperator(operator.config, np.abs(operator.vals) * 1e300, 1e300, 1.0)
        values = np.abs(np.random.default_rng(6).standard_normal((5, operator.n_sites))) * 1e10
        with np.errstate(over="ignore", invalid="ignore"):
            want = fsum_max_ratio(big, values, 0.5, 1.5)
            assert want == math.inf
            assert _max_ratio(big, values, 0.5, 1.5) == want

    def test_overflowing_sum_raises_like_fsum(self, operator):
        values = np.full((3, operator.n_sites), 1.7e308)
        with np.errstate(over="ignore", invalid="ignore"):
            want = fsum_max_ratio(operator, values, 0.01, 1.5)
        assert _max_ratio(operator, values, 0.01, 1.5) == want

    def test_verify_sums_few_trials_exactly(self, monkeypatch):
        cfg = lat.sample_configuration(2.0, 8.0, 2, 1.0, 7)
        Q = lat.random_banded_operator(cfg, 0.5, 1.0, 8)
        values = np.random.default_rng(9).standard_normal((200, cfg.n_sites))
        want = fsum_max_ratio(Q, values, 1.0, 1.5)
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
        assert _max_ratio(Q, values, 1.0, 1.5) == want
        assert 0 < len(calls) <= 10   # a numerator and a denominator per candidate


class TestPicardIncrements:
    def test_tolerance_at_each_increment(self, monkeypatch):
        # tol exactly at, and one double either side of, every increment of a run
        cfg = lat.sample_configuration(2.0, 5.0, 1, 1.0, 80)
        Q = lat.random_banded_operator(cfg, 0.3, 1.0, 81)
        z0 = lat.WeightedSeq(cfg, np.random.default_rng(82).standard_normal(cfg.n_sites))
        _, _, increments = fsum_solve(Q, z0, 1.0, 1e-300, beta=0.5, n_nodes=9)
        tols = {t for inc in increments if inc > 0.0
                for t in (math.nextafter(inc, 0.0), inc, math.nextafter(inc, math.inf))}
        stops = set()
        for tol in sorted(tols):
            ref = fsum_solve(Q, z0, 1.0, tol, beta=0.5, n_nodes=9)
            assert_same_solve(solve_counting(Q, z0, 1.0, tol, monkeypatch, 0.5, 9), ref)
            stops.add(ref[1])
        assert len(stops) > 5

    @pytest.mark.parametrize(
        "values",
        [[1e308, 1e308], [0.9e308, 0.9e308], [0.89e308, 0.9e308], [8e307, 8e307],
         [TINY, 2e-320], [0.0, 0.0]],
        ids=["overflow", "just_over_max", "just_under_max", "large", "subnormal", "zero"],
    )
    def test_adversarial_iterates(self, monkeypatch, values):
        cfg = lat.configuration_from_points([[0.0], [0.5]], rho=1.0)
        z0 = lat.WeightedSeq(cfg, np.array(values))
        for Q in (oracles.identity_operator(cfg), oracles.zero_operator(cfg)):
            ref = fsum_solve(Q, z0, 1.0, 1e-12)
            assert_same_solve(solve_counting(Q, z0, 1.0, 1e-12, monkeypatch), ref)

    def test_nan_iterate(self, monkeypatch):
        # Q z0 adds inf and -inf: the first iterate is NaN
        cfg = lat.configuration_from_points([[0.0], [0.5]], rho=1.0)
        Q = banded_from_dense(cfg, np.array([[2.0, -2.0], [0.0, 1.0]]), 2.0, 1.0)
        z0 = lat.WeightedSeq(cfg, np.full(2, 1.7e308))
        ref = fsum_solve(Q, z0, 1.0, 1e-12)
        assert ref[0].startswith("Picard iterate 1 left")
        assert_same_solve(solve_counting(Q, z0, 1.0, 1e-12, monkeypatch), ref)
