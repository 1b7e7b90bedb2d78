"""Span tracing from outside the program, and per-layer metrics from spans.

The worker installs wrappers on the module globals where latticesde looks
functions up at call time (``cli`` and ``convergence`` import by name, so the
binding in ``geometry`` or ``ovsjannikov`` alone would miss those calls).
A span is ``(name, start, end, parent, run)``: ``parent`` is the index of the
enclosing span or -1, ``run`` numbers the subcommand within the instance.
Spans stay in memory and are written once, after the last subcommand.
"""

from __future__ import annotations

import functools
import time

# (module, attribute) -> span name.  Every name maps to one layer metric.
WRAPPED = {
    ("cli", "parse_config"): "cli.parse",
    ("cli", "sample_configuration"): "geometry.sample",
    ("cli", "save_configuration"): "geometry.save",
    ("geometry", "build_neighborhoods"): "geometry.neighbors",
    ("cli", "verify_scale_monotonicity"): "spaces.monotonicity",
    ("cli", "degree_summability_check"): "spaces.summability",
    ("cli", "norm_bound_series"): "ovsjannikov.series",
    ("cli", "norm_bound_series_alt"): "ovsjannikov.series",
    ("cli", "norm_bound_series_log10"): "ovsjannikov.series",
    ("convergence", "norm_bound_series"): "ovsjannikov.series",
    ("convergence", "norm_bound_series_log10"): "ovsjannikov.series",
    ("cli", "random_banded_operator"): "ovsjannikov.operator_build",
    ("cli", "verify_ovs_bound"): "ovsjannikov.ovs_bound",
    ("cli", "solve_linear_evolution"): "ovsjannikov.picard_solve",
    ("ovsjannikov", "solve_linear_evolution"): "ovsjannikov.picard_solve",
    ("cli", "comparison_check"): "ovsjannikov.comparison",
    ("cli", "save_grid_function"): "ovsjannikov.grid_write",
    ("convergence", "simulate_truncated"): "sde.simulate",
    ("cli", "simulate_levels"): "convergence.simulate_levels",
    ("cli", "moment_field"): "convergence.moment_field",
    ("convergence", "moment_field"): "convergence.moment_field",
    ("cli", "tail_bound_check"): "convergence.tail_bound",
    ("convergence", "moment_ceiling"): "convergence.moment_ceiling",
    ("cli", "cauchy_table"): "convergence.cauchy",
}

COMMANDS = ("generate", "simulate", "verify", "picard")


def _info(name, result):
    """Counts read off a wrapped call's result; attribute reads only."""
    if name == "geometry.sample":
        return {"sites": int(result.n_sites), "nnz": int(result.degrees.sum())}
    if name == "ovsjannikov.operator_build":
        return {"entries": int(result.vals.size)}
    if name == "sde.simulate":
        n_paths, _, n_nodes = result.paths.shape
        streams = n_paths * int(result.active.size)
        steps = n_nodes - 1
        return {
            "streams": streams,
            "path_site_steps": streams * steps,
            "normals": streams * steps * int(result.noise_refine),
            "path_bytes": int(result.paths.nbytes),
            "blowup_paths": int(result.blowup.sum()),
        }
    return None


class Tracer:
    """Records spans of one instance; single-threaded (--threads 1)."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent, run, info]
        self.matvec_calls = 0
        self.run = 0
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.run, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        record[5] = _info(name, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self, modules):
        """Rebind every entry of WRAPPED in ``modules`` (name -> module)."""
        for (mod, attr), name in WRAPPED.items():
            module = modules[mod]
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        operator = modules["ovsjannikov"].BandedOperator
        matvec = operator.matvec

        def counted(op, values):
            self.matvec_calls += 1
            return matvec(op, values)

        operator.matvec = counted


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[1]
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], reach), spans[c][2]
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[2] - s[1]) - covered)
    return out


def layer_metrics(spans, matvec_calls, output_bytes, speed):
    """Per-layer metrics of one traced instance (sums over its subcommands).

    ``speed[run]`` converts the times of subcommand ``run`` to reference
    host speed, as for the end-to-end metrics.
    """
    selfs = [own * speed[s[4]] for s, own in zip(spans, self_times(spans))]
    totals, calls = {}, {}
    info = {}
    for s, own in zip(spans, selfs):
        name = s[0]
        totals[name] = totals.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for k, v in (s[5] or {}).items():
            info[k] = info.get(k, 0) + v
    t = lambda name: totals.get(name, 0.0)  # noqa: E731
    sim_s = t("sde.simulate")
    m = {
        "geometry.sample_s": t("geometry.sample"),
        "geometry.neighbors_s": t("geometry.neighbors"),
        "geometry.save_s": t("geometry.save"),
        "geometry.calls": calls.get("geometry.sample", 0),
        "geometry.sites": info.get("sites", 0),
        "geometry.nnz": info.get("nnz", 0),
        "spaces.monotonicity_s": t("spaces.monotonicity"),
        "spaces.summability_s": t("spaces.summability"),
        "ovsjannikov.series_s": t("ovsjannikov.series"),
        "ovsjannikov.series_calls": calls.get("ovsjannikov.series", 0),
        "ovsjannikov.operator_build_s": t("ovsjannikov.operator_build"),
        "ovsjannikov.operator_entries": info.get("entries", 0),
        "ovsjannikov.ovs_bound_s": t("ovsjannikov.ovs_bound"),
        "ovsjannikov.picard_solve_s": t("ovsjannikov.picard_solve"),
        "ovsjannikov.comparison_s": t("ovsjannikov.comparison"),
        "ovsjannikov.matvec_calls": matvec_calls,
        "ovsjannikov.grid_write_s": t("ovsjannikov.grid_write"),
        "sde.simulate_s": sim_s,
        "sde.simulate_calls": calls.get("sde.simulate", 0),
        "sde.path_site_steps": info.get("path_site_steps", 0),
        "sde.streams": info.get("streams", 0),
        "sde.normals": info.get("normals", 0),
        "sde.normals_per_s": info.get("normals", 0) / sim_s if sim_s > 0 else 0.0,
        "sde.path_tensor_mb": info.get("path_bytes", 0) / 1e6,
        "sde.blowup_paths": info.get("blowup_paths", 0),
        "convergence.moment_field_s": t("convergence.moment_field"),
        "convergence.moment_field_calls": calls.get("convergence.moment_field", 0),
        "convergence.cauchy_s": t("convergence.cauchy"),
        "convergence.tail_bound_s": t("convergence.tail_bound"),
        "convergence.moment_ceiling_s": t("convergence.moment_ceiling"),
        "convergence.simulate_levels_s": t("convergence.simulate_levels"),
        "cli.parse_s": t("cli.parse"),
        "cli.output_bytes": output_bytes,
    }
    for cmd in COMMANDS:
        m[f"cli.{cmd}.self_s"] = t(f"cli.{cmd}")
    return m, sum(selfs)
