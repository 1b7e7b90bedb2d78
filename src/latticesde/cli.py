"""Batch front end: declarative experiment configs in, CSV/JSON reports out.

Subcommands: ``generate`` (configuration + degree-growth report),
``simulate`` (truncated-system ensembles + moment CSVs), ``verify`` (bounds
report with machine-readable pass/fail) and ``picard`` (linear-evolution
solve with its norm ceiling).  Every command is deterministic given the
config file and seed; the simulator runs on one thread, and ``--threads``
(at least 1) changes nothing.  Exit codes: 0 pass, 1 check failed, 2
invalid input.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401 -- numpy loads it on first use; here a memory limit cannot fail it mid-run

from ._table import write_table
from .convergence import (
    cauchy_table,
    moment_constants,
    cauchy_constants,
    moment_field,
    tail_bound_check,
    z_norm,
)
from .geometry import (
    check_sampling_args,
    configuration_bytes,
    estimate_growth_constant,
    exhaustion_sequence,
    sample_configuration,
    save_configuration,
)
from .ovsjannikov import (
    comparison_check,
    norm_bound_series,
    norm_bound_series_alt,
    norm_bound_series_log10,
    ovs_constant,
    random_banded_operator,
    save_grid_function,
    solve_linear_evolution,
    verify_ovs_bound,
)
from .sde import SCHEMES, make_model, simulate_levels, simulation_bytes, step_count
from .spaces import (
    WeightedSeq,
    degree_summability_check,
    verify_scale_monotonicity,
    weighted_sum,
)

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "main"]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _key(section: str, default=MISSING):
    """A field read from the key of its name in INI ``section``; required unless it has a default."""
    return field(metadata={"section": section, "default": default})


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment file's keys, each declared once with its section and default.

    Building one validates it, so every instance, one made by
    ``dataclasses.replace`` included, is a valid experiment; ConfigError
    names the first fault found.
    """

    intensity: float = _key("geometry")
    box_halfwidth: float = _key("geometry")
    dim: int = _key("geometry")
    rho: float = _key("geometry")
    seed: int = _key("geometry")
    a_low: float = _key("scale")
    a_high: float = _key("scale")
    p: float = _key("scale")
    horizon: float = _key("scale")
    order: float = _key("scale", 0.5)
    potential: str = _key("model")
    potential_param: float = _key("model", 0.0)
    kernel: str = _key("model", "constant")
    kernel_cap: float = _key("model", 0.0)
    sigma0: float = _key("model", 0.0)
    sigma1: float = _key("model", 0.0)
    sigma2: float = _key("model", 0.0)
    dt: float = _key("simulation")
    n_paths: int = _key("simulation")
    scheme: str = _key("simulation", "tamed")
    levels: int = _key("simulation", 3)
    dump_paths: bool = _key("simulation", False)
    zeta: float = _key("simulation", 0.0)
    alphas: tuple = _key("report")

    def __post_init__(self) -> None:
        floats = [(k, v) for k, v in self.__dict__.items() if isinstance(v, float)]
        for name, value in floats + [("alphas", a) for a in self.alphas]:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        try:
            check_sampling_args(self.intensity, self.box_halfwidth, self.dim, self.rho, self.seed)
            step_count(self.horizon, self.dt)
            model = self.build_model()
            # the report's constants and the initial moments must be floats
            moment_constants(model, self.horizon)
            cauchy_constants(model)
            abs(self.zeta) ** self.p
        except OverflowError as exc:
            raise ConfigError(
                "the constants A1..A4, B1, B2 or |zeta|^p leave the float range"
            ) from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not (0 <= self.order < 1):
            raise ConfigError(
                f"series order must lie in [0, 1), got {self.order}: "
                "the series majorant may diverge at order 1"
            )
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.levels < 1 or self.n_paths < 1:
            raise ConfigError("need levels >= 1 and n_paths >= 1")
        if self.a_low <= 0:
            raise ConfigError(f"a_low must be > 0, got {self.a_low}")
        if not self.alphas:
            raise ConfigError("at least one report weight is required")
        for a in self.alphas:
            if not (self.a_low < a <= self.a_high):
                raise ConfigError(
                    f"report weight {a} must satisfy a_low < alpha <= a_high"
                )

    def build_model(self):
        return make_model(
            potential=self.potential,
            potential_param=self.potential_param,
            kernel=self.kernel,
            kernel_cap=self.kernel_cap,
            rho=self.rho,
            sigma0=self.sigma0,
            sigma1=self.sigma1,
            sigma2=self.sigma2,
            p=self.p,
        )


# the ConfigParser getter of each field type; "getfloats" is the converter below
_GETTERS = {"float": "getfloat", "int": "getint", "str": "get", "bool": "getboolean",
            "tuple": "getfloats"}


def parse_config(path) -> ExperimentConfig:
    """Read and validate an INI experiment file; ConfigError names any fault in it."""
    parser = configparser.ConfigParser(
        default_section="",   # so that [DEFAULT] is one more undeclared section
        converters={"floats": lambda s: tuple(float(tok) for tok in s.split(",") if tok.strip())},
    )
    section_of = {f.name: f.metadata["section"] for f in fields(ExperimentConfig)}
    values = {}
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in section_of.values():
                raise ConfigError(f"unknown section [{section}]")
            for key in parser.options(section):
                if section_of.get(key) != section:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
        for f in fields(ExperimentConfig):
            section, default = f.metadata["section"], f.metadata["default"]
            if parser.has_option(section, f.name):
                values[f.name] = getattr(parser, _GETTERS[f.type])(section, f.name)
            elif default is MISSING:
                raise ConfigError(f"missing key {f.name!r} in section [{section}]")
            else:
                values[f.name] = default
    except ConfigError:
        raise
    except (configparser.Error, UnicodeDecodeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return ExperimentConfig(**values)


def _sanitize(obj):
    """Make a report JSON-safe: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


SCHEMA_VERSION = 1


def _write_json(payload: dict, path: Path) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(
        json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def _write_moments_csv(ensemble, path: Path) -> None:
    keys = [f"{i}," for i in range(ensemble.config.n_sites)]
    write_table(path, "site,per_site,stderr", [("", keys, ensemble.moment, ensemble.stderr)])


def _write_paths_csv(ensemble, path: Path) -> None:
    times = [f"{t!r}," for t in ensemble.times.tolist()]
    blocks = ((f"{p},{s},", times, ensemble.paths[p, s]) for p, s in np.ndindex(ensemble.paths.shape[:2]))
    write_table(path, "path,site,t,value", blocks)


def _check_memory(need, task, items, remedy) -> None:
    """Refuse ``task`` with ConfigError when its ``need`` bytes exceed physical memory."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # not reported on this platform
        return
    if need > have:
        raise ConfigError(
            f"{task} needs {need:.0f} bytes ({need / 2**30:.2f} GiB) for {items}, "
            f"more than the {have} bytes of physical memory; reduce {remedy}"
        )


def _build_configuration(cfg: ExperimentConfig):
    _check_memory(
        configuration_bytes(cfg.intensity, cfg.box_halfwidth, cfg.dim, cfg.rho),
        "sampling", "the configuration's points and neighbor band",
        "intensity or box_halfwidth",
    )
    return sample_configuration(
        cfg.intensity, cfg.box_halfwidth, cfg.dim, cfg.rho, cfg.seed
    )


def _simulation_levels(cfg: ExperimentConfig, config, cauchy, keep_paths):
    """The exhaustion levels, once the arrays of simulating them are known to fit in memory."""
    n_steps = step_count(cfg.horizon, cfg.dt)
    need = simulation_bytes(
        config.n_sites, int(config.degrees.max()), cfg.levels, cfg.n_paths, n_steps,
        cauchy=cauchy, keep_paths=keep_paths,
    )
    items = "states, noise and path sums" + (" and path tensors" if keep_paths else "")
    _check_memory(need, "simulating", items, "n_paths, levels or horizon/dt")
    return exhaustion_sequence(config, cfg.levels)


def cmd_generate(cfg: ExperimentConfig, out_dir: Path) -> int:
    config = _build_configuration(cfg)
    save_configuration(config, out_dir / "configuration.txt")
    if config.n_sites:
        n_hat = estimate_growth_constant(config)
        degrees, counts = np.unique(config.degrees, return_counts=True)
        histogram = {str(int(d)): int(c) for d, c in zip(degrees, counts)}
    else:
        n_hat = None
        histogram = {}
    partial, tail = degree_summability_check(config, cfg.a_low)
    _write_json(
        {
            "site_count": config.n_sites,
            "n_hat": n_hat,
            "degree_histogram": histogram,
            "degree_sum": partial,
            "degree_tail_bound": tail,
            "growth_note": "n_hat uses the log2 floor near the origin",
            "config": asdict(cfg),
        },
        out_dir / "growth_report.json",
    )
    return 0


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    config = _build_configuration(cfg)
    save_configuration(config, out_dir / "configuration.txt")
    summary = {"config": asdict(cfg), "levels": [], "site_count": config.n_sites}
    failed = False
    if config.n_sites:
        model = cfg.build_model()
        zeta = WeightedSeq(config, np.full(config.n_sites, cfg.zeta))
        levels = _simulation_levels(cfg, config, cauchy=False, keep_paths=cfg.dump_paths)
        ensembles = simulate_levels(
            model, config, levels, zeta, cfg.horizon, cfg.dt, cfg.n_paths,
            cfg.seed, scheme=cfg.scheme, cauchy=False, keep_paths=cfg.dump_paths,
        )
        for j, ens in enumerate(ensembles):
            entry = {
                "level": j,
                "active_sites": int(ens.active.size),
                "blowup_paths": int(np.sum(ens.blowup)),
                "dt": ens.dt,
                "scheme": ens.scheme,
                "seed": ens.seed,
            }
            if ens.has_blowup:
                failed = True
            else:
                moment_field(ens)
                _write_moments_csv(ens, out_dir / f"moments_level{j}.csv")
                entry["z_norms"] = {repr(a): z_norm(ens, a) for a in cfg.alphas}
            if cfg.dump_paths:
                _write_paths_csv(ens, out_dir / f"trajectories_level{j}.csv")
            summary["levels"].append(entry)
    _write_json(summary, out_dir / "ensemble_summary.json")
    return 1 if failed else 0


def cmd_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.levels < 3:
        raise ConfigError("verify needs at least 3 truncation levels")
    config = _build_configuration(cfg)
    checks = []
    constants: dict = {}
    if config.n_sites == 0:
        checks.append({"name": "empty_configuration", "ok": True})
        _write_json(
            {"checks": checks, "constants": constants, "config": asdict(cfg)},
            out_dir / "verify_report.json",
        )
        return 0

    levels = _simulation_levels(cfg, config, cauchy=True, keep_paths=False)
    model = cfg.build_model()
    rng = np.random.default_rng(cfg.seed)
    alpha_lo = min(cfg.alphas)
    alpha_hi = max(cfg.alphas)
    pair = (alpha_lo, alpha_hi) if alpha_lo < alpha_hi else (cfg.a_low, cfg.a_high)

    # scale axioms on 100 random sequences, drawn as one array and checked together
    trials = rng.standard_normal((100, config.n_sites))
    mono_ok = bool(np.all(verify_scale_monotonicity(config, trials, pair[0], pair[1], cfg.p)))
    checks.append({"name": "scale_monotonicity", "ok": mono_ok})

    # degree summability
    partial, tail = degree_summability_check(config, cfg.a_low)
    summ_ok = math.isfinite(partial) and math.isfinite(tail)
    checks.append(
        {"name": "degree_summability", "ok": summ_ok,
         "window_sum": partial, "tail_bound": tail}
    )
    n_hat = estimate_growth_constant(config)
    constants["N_hat"] = n_hat

    # scale bound of a random banded operator
    bound_report = verify_ovs_bound(
        random_banded_operator(config, 0.5, 1.0, cfg.seed + 1),
        pair[0], pair[1], trials=200, seed=cfg.seed + 2, a_low=cfg.a_low,
    )
    checks.append(
        {"name": "scale_bound", "ok": bound_report.ok,
         "max_ratio": bound_report.max_ratio, "bound": bound_report.bound}
    )
    constants["L"] = bound_report.L

    # series majorant for the first report weight
    K = norm_bound_series(bound_report.L, cfg.horizon, cfg.order, cfg.a_low, cfg.alphas[0])
    K_alt = norm_bound_series_alt(
        bound_report.L, cfg.horizon, cfg.order, cfg.a_low, cfg.alphas[0]
    )
    constants["K"] = K
    constants["K_single_exponent_variant"] = K_alt
    constants["log10_K"] = norm_bound_series_log10(
        bound_report.L, cfg.horizon, cfg.order, cfg.a_low, cfg.alphas[0]
    )
    checks.append({"name": "series_majorant", "ok": K >= 1.0, "K": K})

    # comparison: sub-solution built from shrunken initial data
    Qpos = random_banded_operator(config, 0.3, 1.0, cfg.seed + 3, nonnegative=True)
    z0 = WeightedSeq(config, 1.0 + np.abs(rng.standard_normal(config.n_sites)))
    try:
        g = solve_linear_evolution(
            Qpos, WeightedSeq(config, 0.9 * z0.values), cfg.horizon, 1e-12, n_nodes=65
        )
        comp = comparison_check(Qpos, z0, g)
    except RuntimeError as exc:  # a Picard solve left its convergent regime
        print(f"error: {exc}", file=sys.stderr)
        checks.append({"name": "comparison", "ok": False, "error": str(exc)})
    else:
        checks.append(
            {"name": "comparison", "ok": bool(comp.hypothesis_ok and comp.ok),
             "margin": comp.margin}
        )
    del Qpos   # with its matvec tables, before the ensembles are simulated

    # simulations: uniform moments and level distances
    zeta = WeightedSeq(config, np.full(config.n_sites, cfg.zeta))
    ensembles = simulate_levels(model, config, levels, zeta, cfg.horizon, cfg.dt, cfg.n_paths,
                                cfg.seed, scheme=cfg.scheme)
    blowups = int(sum(np.sum(e.blowup) for e in ensembles))
    if blowups:
        checks.append({"name": "simulation", "ok": False, "blowup_paths": blowups})
    else:
        ensembles = [moment_field(e) for e in ensembles]
        tb = tail_bound_check(ensembles, cfg.alphas[0], model=model, zeta=zeta, a_low=cfg.a_low)
        checks.append(
            {"name": "tail_bound", "ok": bool(tb.plateau_ok and tb.ceiling_ok),
             "sup_sum": tb.sup_sum, "ceiling": tb.ceiling,
             "log10_ceiling_factor": tb.log10_K}
        )
        cr = cauchy_table(ensembles, cfg.alphas[0], model=model, a_low=cfg.a_low)
        checks.append(
            {"name": "cauchy", "ok": bool(cr.decreasing_ok and cr.dominated_ok),
             "decreasing": cr.decreasing_ok, "dominated": cr.dominated_ok}
        )
        keys = [f"{r.level_n},{r.level_m}," for r in cr.rows]
        columns = ([r.distance for r in cr.rows], [r.dominator for r in cr.rows])
        write_table(out_dir / "cauchy_table.csv", "n,m,D,dominator", [("", keys, *columns)])
        _write_moments_csv(ensembles[-1], out_dir / "moments.csv")
        mc = moment_constants(model, cfg.horizon)
        cc = cauchy_constants(model)
        constants.update(mc)
        constants.update(cc)

    all_ok = all(c["ok"] for c in checks)
    _write_json(
        {"checks": checks, "constants": constants, "config": asdict(cfg)},
        out_dir / "verify_report.json",
    )
    return 0 if all_ok else 1


def cmd_picard(cfg: ExperimentConfig, out_dir: Path) -> int:
    config = _build_configuration(cfg)
    if config.n_sites == 0:
        _write_json({"note": "empty configuration", "config": asdict(cfg)},
                    out_dir / "picard_report.json")
        return 0
    model = cfg.build_model()
    consts = moment_constants(model, cfg.horizon)
    zeta = WeightedSeq(config, np.full(config.n_sites, cfg.zeta))
    z0 = WeightedSeq(config, np.abs(zeta.values) ** cfg.p + consts["A4"])
    Q = random_banded_operator(config, 0.05, 1.0, cfg.seed + 5, nonnegative=True)
    beta = max(cfg.alphas)
    f = solve_linear_evolution(Q, z0, cfg.horizon, 1e-10, beta=beta, n_nodes=65)
    save_grid_function(f, out_dir / "picard_solution.csv")

    n_hat = estimate_growth_constant(config)
    L = ovs_constant(Q.band_constant, Q.band_exponent, n_hat, config.rho, cfg.a_low)
    K = norm_bound_series(L, cfg.horizon, cfg.order, cfg.a_low, beta)
    final = weighted_sum(config.radii, beta, np.abs(f.values[-1]))
    initial = weighted_sum(config.radii, cfg.a_low, np.abs(z0.values))
    ok = final <= K * initial
    _write_json(
        {
            "final_norm": final,
            "initial_norm": initial,
            "L": L,
            "K": K,
            "bound_ok": ok,
            "config": asdict(cfg),
        },
        out_dir / "picard_report.json",
    )
    return 0 if ok else 1


_COMMANDS = {
    "generate": cmd_generate,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "picard": cmd_picard,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="latticesde",
        description="Truncated dissipative lattice diffusions: generation, "
        "simulation and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility; changes nothing (must be >= 1)")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)   # in the try: under a memory limit any allocation may fail
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a solver left its convergent regime: a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an allocation the estimates let through
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
