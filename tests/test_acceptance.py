"""Acceptance suite: one test per release criterion, each printing a verdict.

The criteria pin the quantitative machinery end to end: scale axioms, degree
summability, the explicit operator bound, the Picard solver against a dense
matrix-exponential oracle, the iterate and norm series estimates, the
comparison principle, Monte Carlo agreement with the closed-form linear
model, uniform moments and the Cauchy property of coupled truncations,
exit-time decay, and byte-level CLI determinism.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import latticesde as lat
from conftest import dense_operator
from latticesde.convergence import cauchy_table
from latticesde.cli import main
import oracles


def report(criterion, ok, detail, elapsed, limit):
    flag = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {flag}  {detail}  ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, detail
    assert elapsed < limit, f"criterion {criterion} exceeded its {limit}s budget"


def weighted_l1(config, values, a):
    return math.fsum((oracles.libm(math.exp, -a * config.radii) * np.abs(values)).tolist())


def origin_free_config(seed, intensity=2.0, box=5.0, rho=1.0):
    """Poisson window with the unit ball at the origin removed."""
    base = lat.sample_configuration(intensity, box, 1, rho, seed)
    keep = base.points[base.radii > 1.0]
    if keep.shape[0] == 0:
        return None
    return lat.configuration_from_points(keep, rho=rho, box_halfwidth=box)


@pytest.fixture(scope="module")
def picard_instances():
    """Ten random banded operators (<= 100 sites) shared by criteria 4 and 5."""
    instances = []
    rng = np.random.default_rng(4242)
    seed = 0
    while len(instances) < 10:
        seed += 1
        config = lat.sample_configuration(
            float(rng.uniform(1.5, 4.0)), float(rng.uniform(3.0, 6.0)), 1, 1.0, seed
        )
        if not 2 <= config.n_sites <= 100:
            continue
        C = float(rng.uniform(0.1, 0.5))
        Q = lat.random_banded_operator(config, C, 1.0, seed + 1000)
        z0 = lat.WeightedSeq(config, rng.standard_normal(config.n_sites))
        instances.append((config, Q, z0))
    return instances


def test_criterion_01_scale_axioms():
    t0 = time.time()
    config = lat.sample_configuration(20.0, 5.0, 1, 1.0, 1001)  # mean 200 sites
    rng = np.random.default_rng(7)
    sequences = [
        lat.WeightedSeq(config, rng.standard_normal(config.n_sites))
        for _ in range(1000)
    ]
    pairs = []
    while len(pairs) < 10:
        a, b = sorted(rng.uniform(0.25, 2.0, size=2))
        if b - a > 1e-3:
            pairs.append((float(a), float(b)))
    worst = math.inf
    values = np.stack([z.values for z in sequences])
    for alpha, beta in pairs:
        for z in sequences:
            worst = min(worst, oracles.lp_norm(z, alpha, 2.0) - oracles.lp_norm(z, beta, 2.0))
        if not lat.verify_scale_monotonicity(config, values, alpha, beta, 2.0).all():
            report(1, False, f"violated at pair ({alpha}, {beta})", time.time() - t0, 5)
    report(
        1, True,
        f"{config.n_sites} sites, 1000 sequences x 10 pairs, min slack {worst:.3e}",
        time.time() - t0, 5,
    )


def test_criterion_02_degree_summability():
    t0 = time.time()
    rng = np.random.default_rng(2002)
    checked = 0
    for _ in range(20):
        intensity = float(rng.uniform(0.2, 3.0))
        box = float(rng.uniform(2.0, 20.0))
        dim = int(rng.integers(1, 3))
        rho = float(rng.uniform(0.4, 1.5))
        a_low = float(rng.uniform(0.2, 1.0))
        config = lat.sample_configuration(intensity, box, dim, rho, int(rng.integers(1 << 30)))
        partial, tail = lat.degree_summability_check(config, a_low)
        assert math.isfinite(partial) and math.isfinite(tail) and tail >= 0.0
        assert partial <= partial + tail
        checked += 1
    report(2, checked == 20, f"{checked} random windows, all sums finite", time.time() - t0, 5)


def test_criterion_03_operator_scale_bound():
    t0 = time.time()
    rng = np.random.default_rng(3003)
    a_low, a_high = 0.25, 2.0
    margins = []
    count = 0
    seed = 0
    while count < 20:
        seed += 1
        config = origin_free_config(seed)
        if config is None or config.n_sites < 2:
            continue
        C = float(rng.uniform(0.2, 1.5))
        q = float(rng.choice([1.0, 2.0]))
        Q = lat.random_banded_operator(config, C, q, seed + 7000)
        alpha = float(rng.uniform(a_low, a_high - 0.3))
        beta = float(rng.uniform(alpha + 0.3, a_high))
        res = lat.verify_ovs_bound(Q, alpha, beta, trials=200,
                                   seed=seed + 9000, a_low=a_low)
        margins.append(res.max_ratio / res.bound)
        if not res.ok:
            report(3, False,
                   f"ratio {res.max_ratio:.3g} > bound {res.bound:.3g} at seed {seed}",
                   time.time() - t0, 30)
        count += 1
    report(
        3, True,
        f"20 operators x 200 trials, worst ratio/bound {max(margins):.3f}",
        time.time() - t0, 30,
    )


def test_criterion_04_picard_matches_exponential(picard_instances):
    t0 = time.time()
    T = 0.25
    worst = 0.0
    for config, Q, z0 in picard_instances:
        f = lat.solve_linear_evolution(Q, z0, T, 1e-10, n_nodes=9)
        ref = scipy.linalg.expm(T * dense_operator(Q)) @ z0.values
        err = np.sum(np.abs(f.values[-1] - ref)) / np.sum(np.abs(ref))
        worst = max(worst, err)
    report(4, worst < 1e-8, f"10 instances, worst relative error {worst:.2e}",
           time.time() - t0, 30)


def test_criterion_05_iterate_and_norm_bounds(picard_instances):
    t0 = time.time()
    T, a_low, alpha, beta = 0.25, 0.25, 0.3, 1.3
    ok = True
    worst_ratio = 0.0
    for config, Q, z0 in picard_instances:
        n_hat = lat.estimate_growth_constant(config)
        L = lat.ovs_constant(Q.band_constant, Q.band_exponent, n_hat, config.rho, a_low)
        base = T * weighted_l1(config, Q.matvec(z0.values), alpha)
        power = z0.values.copy()
        powers = [power]
        for _ in range(41):
            powers.append(Q.matvec(powers[-1]))
        for n in range(41):
            measured = (
                T ** (n + 1) / math.factorial(n + 1)
                * weighted_l1(config, powers[n + 1], beta)
            )
            n_term = 1.0 if n == 0 else float(n) ** (0.5 * n)
            bound = (
                L**n * T**n / (beta - alpha) ** (0.5 * n)
                * n_term / math.factorial(n) * base
            )
            if bound > 0:
                worst_ratio = max(worst_ratio, measured / bound)
            ok = ok and measured <= bound * (1 + 1e-9)
        # final norm against the series majorant
        f = lat.solve_linear_evolution(Q, z0, T, 1e-12, n_nodes=9)
        K = lat.norm_bound_series(L, T, 0.5, a_low, beta)
        lhs = weighted_l1(config, f.values[-1], beta)
        rhs = K * weighted_l1(config, z0.values, a_low)
        ok = ok and lhs <= rhs
    report(5, ok, f"iterate increments n<=40, worst measured/bound {worst_ratio:.3g}",
           time.time() - t0, 30)


def test_criterion_06_comparison_theorem():
    t0 = time.time()
    rng = np.random.default_rng(6006)
    failures = 0
    trial = 0
    done = 0
    while done < 50:
        trial += 1
        config = lat.sample_configuration(
            2.0, 3.5, 1, 1.0, 60_000 + trial
        )
        if config.n_sites < 2:
            continue
        done += 1
        Q = lat.random_banded_operator(
            config, float(rng.uniform(0.1, 0.4)), 1.0, 61_000 + trial,
            nonnegative=True,
        )
        z0 = lat.WeightedSeq(config, 0.5 + np.abs(rng.standard_normal(config.n_sites)))
        kind = done % 3
        if kind == 0:
            g = lat.GridFunction(
                config, np.linspace(0, 0.5, 33), np.zeros((33, config.n_sites))
            )
        elif kind == 1:
            g = lat.solve_linear_evolution(Q, z0, 0.5, 1e-12, n_nodes=33)
        else:
            shrunk = lat.WeightedSeq(config, float(rng.uniform(0.5, 0.95)) * z0.values)
            g = lat.solve_linear_evolution(Q, shrunk, 0.5, 1e-12, n_nodes=33)
        rep = lat.comparison_check(Q, z0, g)
        if not (rep.hypothesis_ok and rep.ok):
            failures += 1
    report(6, failures == 0, f"50 randomized sub-solution triples, {failures} counterexamples",
           time.time() - t0, 60)


def test_criterion_07_ou_oracle_match(ou_ensemble):
    t0 = time.time()
    terminal = ou_ensemble.paths[:, 0, -1] ** 2
    _, second = oracles.ou_moment_oracle(1.0, math.sqrt(2.0), 0.0, 1.0)
    est = float(terminal.mean())
    se = float(terminal.std(ddof=1)) / math.sqrt(terminal.size)
    ok = abs(est - second) <= 3.0 * se
    report(7, ok, f"E[xi_1^2] = {est:.4f} vs {second:.4f} ({abs(est-second)/se:.2f} se)",
           time.time() - t0, 30)


def test_criterion_08_uniform_moment_bound(level_ensembles):
    t0 = time.time()
    config, model, zeta, levels, ensembles = level_ensembles
    tb = lat.tail_bound_check(ensembles, 0.5, model=model, zeta=zeta, a_low=0.25)
    changes = [
        abs(tb.level_sums[i + 1] - tb.level_sums[i]) / tb.level_sums[i + 1]
        for i in range(len(tb.level_sums) - 1)
    ]
    ok = tb.plateau_ok and tb.ceiling_ok
    report(
        8, ok,
        f"sup {tb.sup_sum:.4f} <= ceiling (log10 K ~ {tb.log10_K:.3g}); "
        f"last changes {changes[-2]:.2%}, {changes[-1]:.2%}",
        time.time() - t0, 300,
    )


def test_criterion_09_cauchy_property(level_ensembles):
    t0 = time.time()
    config, model, zeta, levels, ensembles = level_ensembles
    table = cauchy_table(ensembles, 0.5, model=model, a_low=0.25)
    extremes = sorted(
        (r for r in table.rows if r.level_m == len(levels) - 1),
        key=lambda r: r.level_n,
    )
    dists = [r.distance for r in extremes]
    ok = table.decreasing_ok and table.dominated_ok
    report(
        9, ok,
        "D(n,k) = " + ", ".join(f"{d:.3e}" for d in dists) + " strictly decreasing, dominated",
        time.time() - t0, 300,
    )


def test_criterion_10_exit_time_decay(ou_ensemble):
    t0 = time.time()
    probs = oracles.exit_time_diagnostic(ou_ensemble, [2.0, 4.0, 8.0])
    p2, p4, p8 = (float(probs[k][0]) for k in (2.0, 4.0, 8.0))
    ok = p2 >= p4 >= p8 and p8 <= 1e-3
    report(10, ok, f"P(exit before T) = {p2:.4f}, {p4:.4f}, {p8:.4f}",
           time.time() - t0, 30)


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.time()
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.cfg"
    small = tmp_path / "small.cfg"
    small.write_text(
        demo.read_text().replace("n_paths = 400", "n_paths = 60")
        .replace("dump_paths = false", "dump_paths = true"),
        encoding="utf-8",
    )
    mismatches = []
    for command in ("generate", "simulate", "verify", "picard"):
        out1 = tmp_path / f"{command}-a"
        out2 = tmp_path / f"{command}-b"
        code1 = main([command, "--config", str(small), "--out", str(out1), "--threads", "1"])
        code2 = main([command, "--config", str(small), "--out", str(out2), "--threads", "2"])
        if code1 != code2:
            mismatches.append(f"{command}: exit codes differ")
            continue
        files1 = {p.name: p.read_bytes() for p in sorted(out1.iterdir())}
        files2 = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
        if files1.keys() != files2.keys():
            mismatches.append(f"{command}: file sets differ")
            continue
        for name in files1:
            if files1[name] != files2[name]:
                mismatches.append(f"{command}: {name} differs")
    report(11, not mismatches, "generate/simulate/verify/picard byte-identical across thread counts"
           if not mismatches else "; ".join(mismatches), time.time() - t0, 300)
