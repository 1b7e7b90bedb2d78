"""latticesde benchmark: runs one workload through the four CLI subcommands.

    python3 bench/run.py --workload demo --seed 8 --seconds 36 --trace 0

Each instance of a workload is a generated INI run by bench/worker.py in a
fresh interpreter (one BLAS thread, ``--threads 1``), so set-up time and
peak RSS belong to that instance alone.  Instances run one after another
until --seconds have passed (at least MIN_INSTANCES of them); every metric
is the median over instances.  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 each instance runs twice, untraced
and traced, and the line holds the per-layer metrics of the traced runs.
All files go under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
MIN_INSTANCES = 3          # per kind (untraced, traced) and run
INSTANCE_TIMEOUT_S = 120
SEARCH_LIMIT = 200_000     # candidate seeds tried per instance seed
# worker.probe() on an idle vCPU of a 2-vCPU Intel Xeon host; see host_speed().
PROBE_REFERENCE_S = 0.0016
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_spec():
    return json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))


def write_ini(params, seed, path):
    lines = []
    for section, values in params.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
        if section == "geometry":
            lines.append(f"seed = {seed}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def replica_in_class(geo, size_class, seed, np):
    """Whether the configuration drawn for ``seed`` lies in the size class.

    Repeats the draws of geometry.sample_configuration with numpy and counts
    neighbors by brute force, innermost sites first: they carry the largest
    degree-to-log-radius ratios, so most seeds with N_hat above the class are
    rejected after a few dozen sites.  It only prefilters: instance_seeds
    confirms every hit through the library.
    """
    rng = np.random.default_rng(seed)
    half, dim = float(geo["box_halfwidth"]), int(geo["dim"])
    count = int(rng.poisson(float(geo["intensity"]) * (2.0 * half) ** dim))
    (sites_lo, sites_hi), (hat_lo, hat_hi) = size_class["sites"], size_class["n_hat"]
    if not sites_lo <= count <= sites_hi:
        return False
    points = rng.uniform(-half, half, size=(count, dim))
    points = points[np.argsort((points**2).sum(axis=1), kind="stable")]
    sq = (points**2).sum(axis=1)
    denom = np.maximum(np.log1p(np.sqrt(sq)), np.log(2.0))
    n_hat = 0.0
    for lo in range(0, count, 64):
        block = points[lo : lo + 64]
        d2 = sq[lo : lo + 64, None] + sq[None, :] - 2.0 * (block @ points.T)
        degrees = (d2 <= float(geo["rho"]) ** 2).sum(axis=1)
        n_hat = max(n_hat, float(np.max(degrees / denom[lo : lo + 64])))
        if n_hat > hat_hi:
            return False
    return n_hat >= hat_lo


def instance_seeds(workload, seed):
    """--seed itself, then seeds derived from it, all inside the size class."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from latticesde.geometry import estimate_growth_constant, sample_configuration

    geo = workload["ini"]["geometry"]
    sites_lo, sites_hi = workload["size_class"]["sites"]
    hat_lo, hat_hi = workload["size_class"]["n_hat"]

    def in_class(sites, n_hat):
        return sites_lo <= sites <= sites_hi and hat_lo <= n_hat <= hat_hi

    def library_in_class(candidate):
        config = sample_configuration(geo["intensity"], geo["box_halfwidth"],
                                      geo["dim"], geo["rho"], candidate)
        return config.n_sites > 0 and in_class(config.n_sites, estimate_growth_constant(config))

    prefilter = True
    j = 0
    while True:
        for _ in range(SEARCH_LIMIT):
            if j == 0:
                candidate = seed
            else:
                candidate = int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
            j += 1
            if prefilter and not replica_in_class(geo, workload["size_class"], candidate, np):
                continue
            if library_in_class(candidate):
                yield candidate
                break
            # the replica no longer matches the library: search without it
            prefilter = False
        else:
            raise RuntimeError(f"no seed in the size class after {SEARCH_LIMIT} tries")


def run_worker(ini, out, trace, spans_path):
    """Run the subcommands in a fresh worker process: (result, error text)."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(SRC), str(ini), str(out),
           "1" if trace else "0", str(spans_path), *load_spec()["subcommands"]]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env={**os.environ, **THREAD_ENV}, timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {INSTANCE_TIMEOUT_S} s"
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        pass
    return None, f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"


def run_instance(params, seed, trace, work_dir, reference):
    """Run one instance in a worker process; check its outputs."""
    ini = work_dir / f"seed{seed}.cfg"
    out = work_dir / f"out-seed{seed}-trace{int(trace)}"
    spans_path = work_dir / f"spans-seed{seed}.json"
    write_ini(params, seed, ini)
    result, error = run_worker(ini, out, trace, spans_path)
    if result is None:
        n = len(load_spec()["subcommands"])
        return {"seed": seed, "trace": trace, "attempted": n, "failed": n,
                "failures": {"worker": [error]}}

    failures = checks.check_instance(out, result["runs"], params, reference)
    digest, out_bytes = checks.tree_digest(out)
    speed = host_speed(result["probes"])
    inst = {
        "seed": seed,
        "trace": trace,
        "attempted": len(result["runs"]),
        "failed": len(failures),
        "failures": failures,
        "sha256": digest,
        "output_bytes": out_bytes,
        "probes": result["probes"],
        "setup_s": result["setup_s"] * speed[0],
        "setup_raw_s": result["setup_s"],
        "wall_raw_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "python_threads": result["python_threads"],
        "blas": result["blas"],
        "exit_codes": {r["cmd"]: r["rc"] for r in result["runs"]},
    }
    for r, factor in zip(result["runs"], speed[1:]):
        inst[f"{r['cmd']}_s"] = r["seconds"] * factor
        inst[f"{r['cmd']}_raw_s"] = r["seconds"]
        inst[f"{r['cmd']}_cpu_s"] = r["cpu_seconds"]
    inst["wall_s"] = sum(inst[f"{r['cmd']}_s"] for r in result["runs"])
    inst["path_site_steps"] = simulated_work(out, params)
    if inst["path_site_steps"] and inst.get("simulate_s"):
        inst["path_site_steps_per_s"] = inst["path_site_steps"] / inst["simulate_s"]
    if trace and spans_path.exists():
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        layers, self_total = tracer.layer_metrics(
            data["spans"], data["matvec_calls"], out_bytes, speed[1:])
        inst["layers"] = layers
        inst["self_total_s"] = self_total
        spans_path.unlink()
    shutil.rmtree(out, ignore_errors=True)
    return inst


def host_speed(probes):
    """Factors that convert each measured interval to reference host speed.

    On a shared host each vCPU runs up to 1.6x slower, for seconds to tens of
    seconds, while its sibling is busy; interpreter loops, libm calls and
    BLAS slow by about the same factor.  Memory-bandwidth contention shows
    less in the probe, so memory-bound work keeps more of its noise.  The
    worker times each interval on the vCPU that probed fastest just before
    it, and probes that vCPU again just after.  The interval is reported as
    measured x PROBE_REFERENCE_S / mean(probe before, probe after): the
    first factor is for set-up, then one per subcommand.
    """
    return [2.0 * PROBE_REFERENCE_S / (before + after) for _, before, after in probes]


def simulated_work(out, params):
    """Sum over levels of n_paths x active sites x n_steps for `simulate`."""
    try:
        summary = json.loads((out / "ensemble_summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return 0
    sim = params["simulation"]
    n_steps = round(float(params["scale"]["horizon"]) / float(sim["dt"]))
    return sum(int(sim["n_paths"]) * lv["active_sites"] * n_steps for lv in summary["levels"])


def summarize(values):
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "percentile": None, "value": None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            out["percentile"] = pct
            out["value"] = statistics.quantiles(values, n=1000, method="inclusive")[
                int(round(pct * 10)) - 1]
            break
    return out


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine():
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "src_lines": src_lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latticesde" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'latticesde'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    seed = workload["default_seed"] if args.seed is None else args.seed
    if seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    references = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    params = workload["ini"]
    work_dir = WORK / f"{args.workload}-seed{seed}-trace{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)

    seeds = instance_seeds(workload, seed)
    untraced, traced = [], []
    started = time.perf_counter()
    try:
        while True:
            s = next(seeds)
            ref = references.get(args.workload) if s == workload["default_seed"] else None
            untraced.append(run_instance(params, s, False, work_dir, ref))
            if args.trace:
                traced.append(run_instance(params, s, True, work_dir, ref))
            enough = len(untraced) >= MIN_INSTANCES
            if enough and time.perf_counter() - started >= args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    instances = untraced + traced
    attempted = sum(i["attempted"] for i in instances)
    failed = sum(i["failed"] for i in instances)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok_untraced = [i for i in untraced if "wall_s" in i]
    ok_traced = [i for i in traced if "layers" in i]

    summaries = {}
    metrics = {}
    if not args.trace:
        for m in bench["end_to_end"]:
            values = [i[m["name"]] for i in ok_untraced if m["name"] in i]
            if values:
                summaries[m["name"]] = summarize(values)
                metrics[m["name"]] = {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
    elif ok_traced and ok_untraced:
        base = statistics.median(i["wall_s"] for i in ok_untraced)
        for i in ok_traced:
            i["layers"]["trace_overhead_s"] = i["wall_s"] - base
        for m in bench["per_layer"]:
            values = [i["layers"][m["name"]] for i in ok_traced]
            summaries[m["name"]] = summarize(values)
            metrics[m["name"]] = {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
        summaries["traced wall_s"] = summarize([i["wall_s"] for i in ok_traced])
        summaries["untraced wall_s"] = summarize([i["wall_s"] for i in ok_untraced])
        summaries["traced self_total_s"] = summarize([i["self_total_s"] for i in ok_traced])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    correct = failed == 0 and all(m["name"] in metrics for m in wanted)
    blas = next((i["blas"] for i in instances if "blas" in i), None)
    detail = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "machine": {**machine(), "blas": blas},
        "params": params,
        "size_class": workload["size_class"],
        "instance_seeds": [i["seed"] for i in untraced],
        "failures": {str(i["seed"]): i["failures"] for i in instances if i["failures"]},
        "summaries": summaries,
        "instances": instances,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    m = detail["machine"]
    print(f"workload {args.workload}  seed {seed}  commit {detail['git_commit'][:12]}  "
          f"nproc {m['nproc']}  {m['cpu_model']}  python {m['python']}  "
          f"blas {blas and blas['name']} threads {blas and blas['threads']}  "
          f"src lines {m['src_lines']}")
    print(f"instances {len(untraced)} untraced, {len(traced)} traced; seeds {detail['instance_seeds']}")
    if untraced and "sha256" in untraced[0]:
        print(f"out tree sha256 (seed {untraced[0]['seed']}): {untraced[0]['sha256']}")
    for name, s in summaries.items():
        tail = f"  p{s['percentile']:g} {s['value']:.6g}" if s["percentile"] else ""
        print(f"  {name:34s} median {s['median']:.6g}  n={s['n']}{tail}")
    print(f"failed_ops {failed}/{attempted} subcommand invocations")
    for seed_key, fails in detail["failures"].items():
        print(f"FAILED seed {seed_key}: {fails}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
