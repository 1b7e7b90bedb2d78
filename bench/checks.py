"""Output checks of one workload instance, and its reference values.

Every check names the subcommand whose output it judges; a subcommand with
at least one failed check counts once in ``failed``.  The checks hold for
every seed; the reference comparison applies only to a workload's default
seed, whose values are recorded in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9     # deterministic constants
MC_SIGMAS = 5.0    # Monte Carlo quantities, in reported standard errors


def tree_digest(out_dir):
    """SHA-256 over (relative path, bytes) of every file, and the byte total."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def _has_nan(obj):
    if isinstance(obj, dict):
        return any(_has_nan(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_nan(v) for v in obj)
    if isinstance(obj, float):
        return math.isnan(obj)
    if isinstance(obj, str):
        return obj.strip().lower() == "nan"
    return False


def _load_json(path, fail, cmd):
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(cmd, f"{Path(path).name}: {exc}")
        return None
    if _has_nan(data):
        fail(cmd, f"{Path(path).name} holds a NaN")
    return data


def _csv_rows(path, fail, cmd):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        fail(cmd, f"{Path(path).name}: {exc}")
        return []
    if "nan" in text.lower():
        fail(cmd, f"{Path(path).name} holds a NaN")
    lines = text.splitlines()
    return [line.split(",") for line in lines[1:] if line]


def load_configuration(out_dir):
    """(box_halfwidth, radii) from configuration.txt, read independently."""
    lines = (Path(out_dir) / "configuration.txt").read_text(encoding="utf-8").splitlines()
    dim, _, box, _ = lines[0].split()
    radii = []
    for line in lines[1:]:
        coords = [float(v) for v in line.split()[1 : 1 + int(dim)]]
        radii.append(math.sqrt(sum(c * c for c in coords)))
    return float(box), radii


def level_sets(box, radii, levels):
    """The exhaustion rule: level j keeps |x| <= j S / k, the last level all."""
    out = []
    for j in range(1, levels + 1):
        if j == levels:
            out.append(frozenset(range(len(radii))))
        else:
            out.append(frozenset(i for i, r in enumerate(radii) if r <= j * (box / levels)))
    return out


def check_instance(out_dir, runs, params, reference=None):
    """Judge one instance; returns {subcommand: [reason, ...]} of failures."""
    out_dir = Path(out_dir)
    failures: dict = {}

    def fail(cmd, reason):
        failures.setdefault(cmd, []).append(reason)

    rc = {}
    for run in runs:
        cmd = run["cmd"]
        rc[cmd] = run["rc"]
        if run["traceback"] or "Traceback" in (run["stderr"] or ""):
            fail(cmd, "traceback printed")
        if run["rc"] not in (0, 1, 2):
            fail(cmd, f"exit code {run['rc']!r} outside {{0, 1, 2}}")
        elif run["rc"] == 2:
            fail(cmd, f"valid input refused: {run['stderr'].strip()}")
    if failures:
        return failures

    if "generate" in rc:
        growth = _load_json(out_dir / "growth_report.json", fail, "generate")
        if growth is not None and rc["generate"] != 0:
            fail("generate", f"exit code {rc['generate']} for a report-only command")

    if "simulate" in rc:
        summary = _load_json(out_dir / "ensemble_summary.json", fail, "simulate")
        if summary is not None:
            blown = any(lv["blowup_paths"] for lv in summary["levels"])
            if rc["simulate"] != (1 if blown else 0):
                fail("simulate", f"exit code {rc['simulate']} disagrees with blow-up flags")
            for j, _ in enumerate(summary["levels"]):
                path = out_dir / f"moments_level{j}.csv"
                if path.exists():
                    _csv_rows(path, fail, "simulate")

    if "verify" in rc:
        report = _load_json(out_dir / "verify_report.json", fail, "verify")
        if report is not None:
            all_ok = all(c["ok"] is True for c in report["checks"])
            if rc["verify"] != (0 if all_ok else 1):
                fail("verify", f"exit code {rc['verify']} disagrees with the check verdicts")
        table = out_dir / "cauchy_table.csv"
        if table.exists():
            box, radii = load_configuration(out_dir)
            sets = level_sets(box, radii, int(params["simulation"]["levels"]))
            for n, m, dist, _ in _csv_rows(table, fail, "verify"):
                if sets[int(n)] == sets[int(m)] and float(dist) != 0.0:
                    fail("verify", f"identical truncations {n},{m} give D = {dist}")
        if (out_dir / "moments.csv").exists():
            _csv_rows(out_dir / "moments.csv", fail, "verify")

    if "picard" in rc:
        report = _load_json(out_dir / "picard_report.json", fail, "picard")
        if report is not None and "bound_ok" in report:
            if rc["picard"] != (0 if report["bound_ok"] else 1):
                fail("picard", f"exit code {rc['picard']} disagrees with bound_ok")
        if (out_dir / "picard_solution.csv").exists():
            _csv_rows(out_dir / "picard_solution.csv", fail, "picard")

    if reference is not None and not failures:
        try:
            current = extract_reference(out_dir, runs, params)
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            fail("verify", f"reference values unreadable: {exc!r}")
        else:
            for cmd, reason in compare_reference(current, reference):
                fail(cmd, reason)
    return failures


def _weighted_sum_and_se(out_dir, csv_name, radii, alpha):
    """Weighted moment sum sum_x e^(-alpha|x|) m_x and its standard error."""
    rows = (Path(out_dir) / csv_name).read_text(encoding="utf-8").splitlines()[1:]
    total, var = 0.0, 0.0
    for line in rows:
        site, per_site, stderr = line.split(",")
        w = math.exp(-alpha * radii[int(site)])
        total += w * float(per_site)
        var += (w * float(stderr)) ** 2
    return total, math.sqrt(var)


def extract_reference(out_dir, runs, params):
    """The values the reference comparison judges, read from one instance."""
    out_dir = Path(out_dir)
    _, radii = load_configuration(out_dir)
    p = float(params["scale"]["p"])
    alphas = [float(a) for a in str(params["report"]["alphas"]).split(",")]
    growth = json.loads((out_dir / "growth_report.json").read_text(encoding="utf-8"))
    verify = json.loads((out_dir / "verify_report.json").read_text(encoding="utf-8"))
    picard = json.loads((out_dir / "picard_report.json").read_text(encoding="utf-8"))
    summary = json.loads((out_dir / "ensemble_summary.json").read_text(encoding="utf-8"))
    sums = {}
    for j, level in enumerate(summary["levels"]):
        for a in alphas:
            s, se = _weighted_sum_and_se(out_dir, f"moments_level{j}.csv", radii, a)
            sums[f"simulate level {j} alpha {a!r}"] = {"value": s, "se": se}
            z = float(level["z_norms"][repr(a)])
            sums[f"simulate z_norm^p level {j} alpha {a!r}"] = {"value": z**p, "se": se}
    tail = next(c for c in verify["checks"] if c["name"] == "tail_bound")
    _, se = _weighted_sum_and_se(out_dir, "moments.csv", radii, alphas[0])
    sums["verify tail_bound sup_sum"] = {"value": float(tail["sup_sum"]), "se": se}
    return {
        "exit_codes": {r["cmd"]: r["rc"] for r in runs},
        "verdicts": [[c["name"], c["ok"]] for c in verify["checks"]],
        "constants": {
            "generate site_count": growth["site_count"],
            "generate n_hat": growth["n_hat"],
            "verify N_hat": verify["constants"]["N_hat"],
            "verify L": verify["constants"]["L"],
            "verify log10_K": verify["constants"]["log10_K"],
            "picard final_norm": picard["final_norm"],
            "picard L": picard["L"],
        },
        "monte_carlo": sums,
    }


def compare_reference(current, reference):
    """Yield (subcommand, reason) for every value off its reference."""
    for cmd, code in reference["exit_codes"].items():
        if current["exit_codes"].get(cmd) != code:
            yield cmd, f"exit code {current['exit_codes'].get(cmd)} != reference {code}"
    if current["verdicts"] != reference["verdicts"]:
        yield "verify", f"verdicts {current['verdicts']} != reference {reference['verdicts']}"
    for key, ref in reference["constants"].items():
        cur = current["constants"].get(key)
        cmd = key.split()[0]
        if isinstance(ref, str) or isinstance(cur, str):
            ok = cur == ref
        else:
            ok = cur is not None and abs(cur - ref) <= REL_TOL * abs(ref)
        if not ok:
            yield cmd, f"{key} = {cur!r}, reference {ref!r}"
    for key, ref in reference["monte_carlo"].items():
        cur = current["monte_carlo"].get(key)
        cmd = key.split()[0]
        if cur is None:
            yield cmd, f"{key} missing"
            continue
        slack = MC_SIGMAS * math.hypot(cur["se"], ref["se"]) + REL_TOL * abs(ref["value"])
        if abs(cur["value"] - ref["value"]) > slack:
            yield cmd, f"{key} = {cur['value']!r}, reference {ref['value']!r} +- {slack!r}"
