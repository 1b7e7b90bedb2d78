"""Self-test of the benchmark harness on the seconds-long `tiny` workload.

    python3 bench/selftest.py

Proves three things and exits 0 only if all hold:
1. run.py prints every metric named in BENCHMARK.json with its unit, for
   --trace 0 (end-to-end) and --trace 1 (per layer);
2. a corrupted report -- a flipped verdict, a perturbed L, a nonzero
   distance between identical truncations -- is counted as a failed
   subcommand by the output check;
3. in the traced run, the self times of all spans plus trace_overhead_s
   account for the untraced wall_s.
"""

import json
import shutil
import subprocess
import sys

import checks
import run

WORKLOAD = "tiny"


def bench_run(trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", WORKLOAD,
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    seed = run.load_spec()["workloads"][WORKLOAD]["default_seed"]
    detail_path = run.WORK / "results" / f"{WORKLOAD}-seed{seed}-trace{trace}.json"
    return result, json.loads(detail_path.read_text(encoding="utf-8"))


def check_metrics_named():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    details = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, details[trace] = bench_run(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0, details[trace]["failures"]
        assert result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted, (set(wanted) ^ set(got), key)
    print("ok: every named metric is printed with its unit")
    return details[1]


def check_corruption_counted():
    spec = run.load_spec()["workloads"][WORKLOAD]
    params, seed = spec["ini"], spec["default_seed"]
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ini, out = work / "tiny.cfg", work / "out"
        run.write_ini(params, seed, ini)
        result, error = run.run_worker(ini, out, False, work / "spans.json")
        assert result is not None, error
        runs = result["runs"]
        assert checks.check_instance(out, runs, params) == {}, "clean run must pass"
        reference = checks.extract_reference(out, runs, params)
        assert checks.check_instance(out, runs, params, reference) == {}

        report_path = out / "verify_report.json"
        pristine = report_path.read_text(encoding="utf-8")

        report = json.loads(pristine)
        report["checks"][0]["ok"] = not report["checks"][0]["ok"]
        report_path.write_text(json.dumps(report), encoding="utf-8")
        failed = checks.check_instance(out, runs, params, reference)
        assert "verify" in failed, f"flipped verdict not counted: {failed}"

        report = json.loads(pristine)
        report["constants"]["L"] *= 1.0 + 1e-6
        report_path.write_text(json.dumps(report), encoding="utf-8")
        failed = checks.check_instance(out, runs, params, reference)
        assert "verify" in failed, f"perturbed L not counted: {failed}"
        report_path.write_text(pristine, encoding="utf-8")

        table = out / "cauchy_table.csv"
        lines = table.read_text(encoding="utf-8").splitlines()
        box, radii = checks.load_configuration(out)
        sets = checks.level_sets(box, radii, int(params["simulation"]["levels"]))
        for i, line in enumerate(lines[1:], start=1):
            n, m, _, dom = line.split(",")
            if sets[int(n)] == sets[int(m)]:
                lines[i] = f"{n},{m},1e-300,{dom}"
                break
        else:
            raise AssertionError("tiny workload has no identical truncations to corrupt")
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        failed = checks.check_instance(out, runs, params)
        assert "verify" in failed, f"nonzero D for identical truncations not counted: {failed}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("ok: flipped verdict, perturbed L and nonzero D are each counted in failed")


def check_self_times(detail):
    s = detail["summaries"]
    untraced = s["untraced wall_s"]["median"]
    overhead = s["trace_overhead_s"]["median"]
    self_total = s["traced self_total_s"]["median"]
    gap = abs(self_total - overhead - untraced)
    assert gap <= 0.02 * untraced + 0.005, (self_total, overhead, untraced)
    for inst in detail["instances"]:
        if inst.get("layers"):
            assert abs(inst["self_total_s"] - inst["wall_s"]) <= 0.01 * inst["wall_s"] + 0.002
    print(f"ok: self times {self_total:.4f} s - overhead {overhead:.4f} s "
          f"= untraced wall {untraced:.4f} s (gap {gap:.5f} s)")


def main():
    detail = check_metrics_named()
    check_corruption_counted()
    check_self_times(detail)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
