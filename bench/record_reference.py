"""Record bench/reference.json: the checked values of each workload's default seed.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs one untraced instance per workload at its default seed, requires it to
pass every seed-independent check, and stores the values that
checks.compare_reference judges.  Re-record only when a change is meant to
move them, and say so where the change is described.
"""

import json
import shutil
import sys

import checks
import run


def main(names):
    spec = run.load_spec()
    names = names or [n for n, w in spec["workloads"].items() if not w.get("selftest_only")]
    path = run.BENCH / "reference.json"
    references = json.loads(path.read_text(encoding="utf-8"))
    for name in names:
        workload = spec["workloads"][name]
        params, seed = workload["ini"], workload["default_seed"]
        work_dir = run.WORK / f"reference-{name}"
        work_dir.mkdir(parents=True, exist_ok=True)
        ini, out = work_dir / "ref.cfg", work_dir / "out"
        run.write_ini(params, seed, ini)
        result, error = run.run_worker(ini, out, False, work_dir / "spans.json")
        if result is None:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        failures = checks.check_instance(out, result["runs"], params)
        if failures:
            print(f"{name}: checks failed, nothing recorded: {failures}", file=sys.stderr)
            return 1
        references[name] = {"seed": seed, **checks.extract_reference(out, result["runs"], params)}
        shutil.rmtree(work_dir)
        print(f"{name}: recorded seed {seed}")
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
