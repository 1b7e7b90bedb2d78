import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import latticesde as lat
from latticesde import cli, sde
from latticesde.cli import (
    ConfigError,
    ExperimentConfig,
    _write_moments_csv,
    _write_paths_csv,
    main,
    parse_config,
)
from latticesde.convergence import CauchyReport, CauchyRow, MomentField
from latticesde.sde import simulation_bytes

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "configs" / "demo.cfg"
REQUIRED = [f for f in fields(ExperimentConfig) if f.metadata["default"] is MISSING]

SMALL = """
[geometry]
intensity = 1.2
box_halfwidth = 3.0
dim = 1
rho = 1.0
seed = 5

[scale]
a_low = 0.25
a_high = 2.0
p = 4.0
horizon = 0.2
order = 0.5

[model]
potential = cubic
potential_param = 0.0
kernel = constant
kernel_cap = 0.05
sigma0 = 0.1
sigma2 = 0.02

[simulation]
dt = 0.01
n_paths = 40
scheme = tamed
levels = 3
dump_paths = true
zeta = 1.0

[report]
alphas = 0.5, 1.0
"""


def write_config(tmp_path, text=SMALL, **overrides):
    lines = text.strip().splitlines()
    if overrides:
        out = []
        for line in lines:
            key = line.split("=")[0].strip()
            if key in overrides:
                out.append(f"{key} = {overrides.pop(key)}")
            else:
                out.append(line)
        for key, val in overrides.items():
            out.append(f"{key} = {val}")  # appended to the last section
        lines = out
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_tree(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestParsing:
    def test_demo_config_parses(self):
        cfg = parse_config(DEMO)
        assert cfg.potential == "cubic"
        assert cfg.alphas == (0.5, 1.0)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("no-such-file.cfg")

    def test_order_one_rejected(self, tmp_path):
        path = write_config(tmp_path, order="1.0")
        with pytest.raises(ConfigError, match="order"):
            parse_config(path)

    def test_alpha_outside_scale_rejected(self, tmp_path):
        path = write_config(tmp_path, alphas="0.1")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_dt_must_divide_horizon(self, tmp_path):
        path = write_config(tmp_path, dt="0.03")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_potential_rejected(self, tmp_path):
        path = write_config(tmp_path, potential="quartic")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_readme_documents_every_key(self):
        # the README's "Config file" table: | `key` | section | type | default |
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        table = text.split("## Config file", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `\[(\w+)\]` \| [^|]+ \| ([^|]+?) \|$", table, re.M)
        documented = {key: (section, default) for key, section, default in rows}
        assert documented == {
            f.name: (f.metadata["section"], "required" if f.metadata["default"] is MISSING
                     else f"`{str(f.metadata['default']).lower()}`")
            for f in fields(ExperimentConfig)
        }


class TestExitCodes:
    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, order="1.0")
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "order" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["generate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"intensity": "nan"},
            {"a_low": "2.5"},
            {"horizon": "nan"},
            {"horizon": "inf"},
            {"zeta": "nan"},
            {"kernel_cap": "-1"},
            {"sigma0": "-0.1"},
            {"potential": "linear", "potential_param": "0"},
            {"p": "1e12"},
            {"sigma2": "1e300"},
            {"zeta": "1e300"},
            {"horizon": "1e300", "dt": "1e-300"},
            {"seed": str(2**64 + 8)},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_library_rejections_exit_2(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **overrides)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("key", REQUIRED, ids=lambda f: f.name)
    def test_missing_required_key_exits_2(self, tmp_path, capsys, key):
        lines = [line for line in SMALL.splitlines() if line.split("=")[0].strip() != key.name]
        path = write_config(tmp_path, text="\n".join(lines))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: missing key '{key.name}' in section [{key.metadata['section']}]\n"

    @pytest.mark.parametrize(
        "case", ["repeated-option", "no-section-header", "not-utf-8", "directory"]
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, case):
        path = tmp_path / "exp.cfg"
        if case == "repeated-option":
            path.write_text(SMALL.replace("dt = 0.01", "dt = 0.01\ndt = 0.02"), encoding="utf-8")
        elif case == "no-section-header":
            path.write_text(SMALL.replace("[geometry]", ""), encoding="utf-8")
        elif case == "not-utf-8":
            path.write_bytes(SMALL.encode() + b"note = \xff\xfe\n")
        else:
            path.mkdir()
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_seed_override_validated(self, tmp_path, capsys):
        # seed 2**64 + 8 would silently reuse the noise of seed 8
        code = main(["generate", "--config", str(DEMO), "--out", str(tmp_path / "o"),
                     "--seed", str(2**64 + 8)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: seed must lie in [0, 2**64)")

    @pytest.mark.parametrize("command", ["generate", "verify"])
    def test_tiny_a_low_exits_by_verdicts(self, tmp_path, capsys, command):
        # 1/a_low overflows: the degree tail bound is inf and summability fails
        path = write_config(tmp_path, text=DEMO.read_text(), a_low="1e-320")
        out = tmp_path / "o"
        code = main([command, "--config", str(path), "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        if command == "generate":
            assert code == 0
            assert json.loads((out / "growth_report.json").read_text())["degree_tail_bound"] == "inf"
        else:
            report = json.loads((out / "verify_report.json").read_text())
            checks = {c["name"]: c for c in report["checks"]}
            assert checks["degree_summability"]["tail_bound"] == "inf"
            assert code == 1 and not checks["degree_summability"]["ok"]

    def test_order_near_one_exits_by_verdicts(self, tmp_path, capsys):
        # the saddle-point location of the series overflows floats at order 0.99
        path = write_config(tmp_path, text=DEMO.read_text(), order="0.99")
        out = tmp_path / "o"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "verify_report.json").read_text())
        assert code == (0 if all(c["ok"] for c in report["checks"]) else 1)
        assert report["constants"]["K"] == "inf"
        assert report["constants"]["log10_K"] == "inf"

    def test_strongly_dissipative_linear_model_verifies(self, tmp_path, capsys):
        # lam = 2 makes B1 = b + 1 + 2 M1^2 negative; the Cauchy majorant drops it
        path = write_config(tmp_path, text=DEMO.read_text(), potential="linear",
                            potential_param="2.0")
        out = tmp_path / "o"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "verify_report.json").read_text())
        assert report["constants"]["B1"] < 0
        assert "cauchy" in {c["name"] for c in report["checks"]}
        assert code == (0 if all(c["ok"] for c in report["checks"]) else 1)

    @pytest.mark.parametrize("command", ["verify", "picard"])
    @pytest.mark.parametrize(
        "overrides", [{"rho": "1e12"}, {"a_high": "1e12", "alphas": "1e12"}],
        ids=["rho-1e12", "alpha-1e12"],
    )
    def test_overflowing_constants_exit_by_verdicts(self, tmp_path, capsys, command,
                                                    overrides):
        # e^(a rho) of a scale-bound constant leaves the float range: L = K = inf
        path = write_config(tmp_path, text=DEMO.read_text(), **overrides)
        out = tmp_path / "o"
        code = main([command, "--config", str(path), "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / f"{command}_report.json").read_text())
        if command == "verify":
            assert code == (0 if all(c["ok"] for c in report["checks"]) else 1)
            assert "nan" not in (out / "cauchy_table.csv").read_text()  # inf K x zero tail
            report = report["constants"]
        else:
            assert code == (0 if report["bound_ok"] else 1)
        if "rho" in overrides:
            assert report["L"] == "inf"

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_huge_frozen_zeta_fails_quietly(self, tmp_path, capsys, command):
        # |zeta|^4 = 1e304: the path sums overflow, the run fails, and stderr stays empty
        path = write_config(tmp_path, text=DEMO.read_text(), zeta="1e76")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == ""

    def test_zero_cauchy_distances_pass(self, tmp_path):
        # at report weight 1e12 every weighted distance underflows to 0.0
        path = write_config(tmp_path, text=DEMO.read_text(), a_high="1e12", alphas="1e12")
        out = tmp_path / "o"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "cauchy_table.csv").read_text().splitlines()[1:]
        assert {row.split(",")[2] for row in rows} == {"0.0"}
        report = json.loads((out / "verify_report.json").read_text())
        cauchy = next(c for c in report["checks"] if c["name"] == "cauchy")
        assert cauchy["decreasing"] and cauchy["ok"]

    @pytest.mark.parametrize("command, horizon", [("verify", "50"), ("picard", "2000")])
    def test_solver_failure_exits_1(self, tmp_path, capsys, command, horizon):
        # the Picard iterates leave the float range before the iteration cap
        path = write_config(tmp_path, text=DEMO.read_text(), dt="0.5", horizon=horizon)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "convergent series regime" in err

    def test_verify_reports_solver_failure(self, tmp_path, capsys):
        # the comparison check's Picard solve fails; the other checks still run
        path = write_config(tmp_path, text=DEMO.read_text(), dt="0.5", horizon="50")
        out = tmp_path / "o"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "verify_report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        assert not checks["comparison"]["ok"]
        assert "left the float range" in checks["comparison"]["error"]
        assert "cauchy" in checks and "tail_bound" in checks
        assert code == 1 == (0 if all(c["ok"] for c in report["checks"]) else 1)

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_oversized_ensemble_refused(self, tmp_path, capsys, command):
        # the running max per (site, path) alone would take hundreds of gigabytes
        path = write_config(tmp_path, text=DEMO.read_text(), n_paths="1000000000")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: simulating needs ") and "bytes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, overrides, task, unbuilt",
        [
            ("simulate", {"levels": "1000000"}, "simulating", "exhaustion_sequence"),
            ("verify", {"levels": "100000000"}, "simulating", "exhaustion_sequence"),
            ("generate", {"intensity": "1e12"}, "sampling", "sample_configuration"),
            ("picard", {"box_halfwidth": "1e200", "dim": "3"}, "sampling",
             "sample_configuration"),
        ],
        ids=["levels-1e6", "levels-1e8", "intensity-1e12", "volume-overflow"],
    )
    def test_oversized_input_refused_before_building(self, tmp_path, capsys, monkeypatch,
                                                     command, overrides, task, unbuilt):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{unbuilt} ran before the memory guard")

        monkeypatch.setattr(cli, unbuilt, unreachable)
        path = write_config(tmp_path, text=DEMO.read_text(), **overrides)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {task} needs ") and "physical memory" in err
        assert "Traceback" not in err

    def test_blowup_flagged_as_failure(self, tmp_path):
        # explicit scheme + cubic decay + large initial value diverges
        path = write_config(tmp_path, scheme="explicit", zeta="60.0", dump_paths="false")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "ensemble_summary.json").read_text())
        assert any(lv["blowup_paths"] > 0 for lv in summary["levels"])


class TestGenerate:
    def test_empty_configuration(self, tmp_path):
        path = write_config(tmp_path, intensity="0.0")
        out = tmp_path / "o"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "growth_report.json").read_text())
        assert report["site_count"] == 0
        assert report["n_hat"] is None

    def test_rerun_reproduces_site_count(self, tmp_path):
        path = write_config(tmp_path, intensity="2.0", box_halfwidth="10.0", seed="9")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(path), "--out", str(out1)])
        main(["generate", "--config", str(path), "--out", str(out2)])
        r1 = json.loads((out1 / "growth_report.json").read_text())
        r2 = json.loads((out2 / "growth_report.json").read_text())
        assert r1["site_count"] == r2["site_count"]

    def test_seed_override_changes_sample(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(path), "--out", str(out1)])
        main(["generate", "--config", str(path), "--out", str(out2), "--seed", "77"])
        b1 = (out1 / "configuration.txt").read_bytes()
        b2 = (out2 / "configuration.txt").read_bytes()
        assert b1 != b2


class TestSimulate:
    def test_frozen_dynamics_dump_constant(self, tmp_path):
        # zeta = 0 with zero noise: trajectories stay at zero
        path = write_config(
            tmp_path, potential="linear", potential_param="1.0",
            kernel_cap="0.0", sigma0="0.0", sigma2="0.0", zeta="0.0",
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        dump = (out / "trajectories_level0.csv").read_text().splitlines()
        values = {line.rsplit(",", 1)[1] for line in dump[1:]}
        assert values == {"0.0"}

    def test_moments_written_per_level(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        for j in range(3):
            assert (out / f"moments_level{j}.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("dump_paths", ["true", "false"])
    def test_path_tensors_kept_only_for_dump_paths(self, tmp_path, monkeypatch, command,
                                                   dump_paths):
        runs = []
        simulate_levels = cli.simulate_levels

        def recorded(*args, **kwargs):
            runs.append(simulate_levels(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "simulate_levels", recorded)
        path = write_config(tmp_path, dump_paths=dump_paths)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) in (0, 1)
        kept = command == "simulate" and dump_paths == "true"
        assert [ens.paths is not None for ens in runs[0]] == [kept] * 3
        # verify reduces the level pairs of its Cauchy table, simulate none
        pairs = {(n, m) for n, ens in enumerate(runs[0]) for m in ens.sums.diffs}
        assert pairs == ({(0, 1), (1, 2), (0, 2)} if command == "verify" else set())

    def test_moments_csv_bytes_match_per_value_writer(self, tmp_path, poisson_1d):
        rng = np.random.default_rng(3)
        per_site = np.abs(rng.standard_normal(poisson_1d.n_sites)) * 10.0 ** rng.integers(
            -300, 300, poisson_1d.n_sites
        )
        per_site[:2] = [0.0, 5e-324]
        stderr = rng.standard_normal(poisson_1d.n_sites) ** 2
        field = MomentField(poisson_1d, 4.0, per_site, stderr, 40)
        _write_moments_csv(field, tmp_path / "moments.csv")
        with open(tmp_path / "ref.csv", "w", encoding="utf-8") as fh:
            fh.write("site,per_site,stderr\n")
            for i in range(poisson_1d.n_sites):
                fh.write(f"{i},{float(per_site[i])!r},{float(stderr[i])!r}\n")
        assert (tmp_path / "moments.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_paths_csv_bytes_match_per_value_writer(self, tmp_path, poisson_1d):
        rng = np.random.default_rng(4)
        n_sites, nodes = poisson_1d.n_sites, 6
        values = rng.standard_normal((3, n_sites, nodes)) * 10.0 ** rng.integers(
            -300, 300, (3, n_sites, nodes)
        )
        values[0, 0, :3] = [0.0, -0.0, 5e-324]
        times = np.linspace(0.0, 0.05, nodes)
        ens = lat.PathEnsemble(poisson_1d, np.arange(n_sites), times, values, 1, "tamed",
                               0.01, 1, np.zeros(n_sites), np.zeros(3, dtype=bool))
        _write_paths_csv(ens, tmp_path / "paths.csv")
        with open(tmp_path / "ref.csv", "w", encoding="utf-8") as fh:
            fh.write("path,site,t,value\n")
            for pi in range(3):
                for si in range(n_sites):
                    for ti, t in enumerate(times):
                        fh.write(f"{pi},{si},{float(t)!r},{float(values[pi, si, ti])!r}\n")
        assert (tmp_path / "paths.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestVerifyTables:
    def test_cauchy_csv_bytes_match_per_value_writer(self, tmp_path, monkeypatch):
        values = [0.0, -0.0, 5e-324, 1.2345678901234567e-300, 3.0, float("inf")]
        rows = tuple(CauchyRow(n, n + 1, d, e) for n, (d, e) in enumerate(zip(values, values[::-1])))
        report = CauchyReport(rows, True, True, 1.0, 0.75, 2.0, 0.3, 1.0)
        monkeypatch.setattr(cli, "cauchy_table", lambda *args, **kwargs: report)
        out = tmp_path / "o"
        main(["verify", "--config", str(write_config(tmp_path)), "--out", str(out)])
        with open(tmp_path / "ref.csv", "w", encoding="utf-8") as fh:
            fh.write("n,m,D,dominator\n")
            for r in rows:
                fh.write(f"{r.level_n},{r.level_m},{r.distance!r},{r.dominator!r}\n")
        assert (out / "cauchy_table.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("command", ["generate", "simulate", "verify", "picard"])
    def test_rerun_and_thread_count_byte_identical(self, tmp_path, command):
        path = write_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        code1 = main([command, "--config", str(path), "--out", str(out1),
                      "--threads", "1"])
        code2 = main([command, "--config", str(path), "--out", str(out2),
                      "--threads", "2"])
        assert code1 == code2
        tree1, tree2 = read_tree(out1), read_tree(out2)
        assert tree1.keys() == tree2.keys()
        for name in tree1:
            assert tree1[name] == tree2[name], f"{command}: {name} differs"

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_thread_count_capped_at_usable_cpus(self, tmp_path, monkeypatch, command):
        # on one usable CPU, --threads 10^9 is one worker for the memory
        # estimate and for the run: no pool is started
        path = write_config(tmp_path)
        main([command, "--config", str(path), "--out", str(tmp_path / "one")])
        estimated = []

        def recorded(*args, **kwargs):
            estimated.append(kwargs["threads"])
            return simulation_bytes(*args, **kwargs)

        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} threads was started")

        monkeypatch.setattr(cli, "simulation_bytes", recorded)
        monkeypatch.setattr(sde, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(sde.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        main([command, "--config", str(path), "--out", str(tmp_path / "many"),
              "--threads", str(10**9)])
        assert estimated == [1]
        assert read_tree(tmp_path / "many") == read_tree(tmp_path / "one")


class TestVerify:
    def test_demo_config_passes(self, tmp_path):
        out = tmp_path / "o"
        code = main(["verify", "--config", str(DEMO), "--out", str(out)])
        report = json.loads((out / "verify_report.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["ok"]]
        assert code == 0 and not failed
        assert (out / "cauchy_table.csv").exists()
        assert (out / "moments.csv").exists()
        assert "N_hat" in report["constants"]
        assert "L" in report["constants"]
        assert "A4" in report["constants"]

    def test_empty_configuration_trivially_passes(self, tmp_path):
        path = write_config(tmp_path, intensity="0.0")
        out = tmp_path / "o"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0


class TestPicard:
    def test_demo_bound_holds(self, tmp_path):
        out = tmp_path / "o"
        code = main(["picard", "--config", str(DEMO), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "picard_report.json").read_text())
        assert report["bound_ok"]
        # K may sanitize to the string "inf"; the bound still holds one-sided
        if isinstance(report["K"], float):
            assert report["final_norm"] <= report["K"] * report["initial_norm"]
