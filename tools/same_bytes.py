"""Check that two versions of latticesde write the same bytes.

    python tools/same_bytes.py OLD NEW

OLD and NEW are each a ``src`` directory (one that holds the ``latticesde``
package) or a git revision of this repository, whose ``src`` is extracted
with ``git archive``.  Each side runs ``generate``, ``simulate``, ``verify``
and ``picard`` into one output tree per case:

- demo: ``configs/demo.cfg``
- levels1d, window2d: the INIs of ``bench/workloads.json`` at their default
  seeds, written as ``bench/run.py`` writes them
- demo2d: the 2-d window of the CI workflow (``configs/demo.cfg`` with
  ``dim = 2``, ``box_halfwidth = 3.0`` and ``levels = 5``)
- demo2d-dump: demo2d with ``dump_paths = true``
- demo-zeta: demo with ``zeta = 0.9``, where a sum of equal |zeta|^p over
  the paths would land off |zeta|^p itself, so a frozen site's moment shows
- demo-finite: demo on a sparse window (``intensity = 0.1``,
  ``box_halfwidth = 80.0``, ``rho = 0.5``) with ``p = 2.0``, a ``linear``
  potential at 1.0, ``horizon = 0.02`` and ``dt = 0.001``, where the growth
  constant and horizon are small enough that K, the moment ceiling and every
  Cauchy dominator are finite, so the bound code shows in the bytes

The configs are read from the checkout that holds this script, so both sides
run the same inputs, and each subcommand runs in a fresh interpreter with one
BLAS thread.  The script compares the trees, the exit codes and stderr, lists
each difference (for a CSV or text table, with the largest relative
difference of its numeric fields), and exits 1 on any difference, else 0.
Before its verdict the script prints the numpy version, BLAS library and
OpenBLAS core it ran under; the bytes depend on the numpy version, not on
the BLAS kernel.  Standard library only, apart from the child process that
reads that line from numpy.
"""

from __future__ import annotations

import argparse
import filecmp
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("generate", "simulate", "verify", "picard")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TABLES = (".csv", ".txt")


def edited(text, edits):
    """``text`` with each whole line ``old`` of ``edits`` replaced by ``new``; each must occur once."""
    lines = text.split("\n")
    for old, new in edits.items():
        if lines.count(old) != 1:
            raise SystemExit(f"error: the line {old!r} does not occur exactly once")
        lines[lines.index(old)] = new
    return "\n".join(lines)


def bench_ini(workload):
    """The INI of a ``bench/workloads.json`` workload at its default seed."""
    lines = []
    for section, values in workload["ini"].items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        if section == "geometry":
            lines.append(f"seed = {workload['default_seed']}")
    return "\n".join(lines) + "\n"


def cases():
    """Case name -> config text."""
    demo = (ROOT / "configs" / "demo.cfg").read_text(encoding="utf-8")
    spec = json.loads((ROOT / "bench" / "workloads.json").read_text(encoding="utf-8"))
    two_d = edited(demo, {"dim = 1": "dim = 2", "box_halfwidth = 4.0": "box_halfwidth = 3.0",
                          "levels = 3": "levels = 5"})
    return {
        "demo": demo,
        "levels1d": bench_ini(spec["workloads"]["levels1d"]),
        "window2d": bench_ini(spec["workloads"]["window2d"]),
        "demo2d": two_d,
        "demo2d-dump": edited(two_d, {"dump_paths = false": "dump_paths = true"}),
        "demo-zeta": edited(demo, {"zeta = 1.0": "zeta = 0.9"}),
        "demo-finite": edited(demo, {
            "intensity = 2.0": "intensity = 0.1", "box_halfwidth = 4.0": "box_halfwidth = 80.0",
            "rho = 1.0": "rho = 0.5", "p = 4.0": "p = 2.0", "horizon = 0.5": "horizon = 0.02",
            "potential = cubic": "potential = linear", "potential_param = 0.0": "potential_param = 1.0",
            "dt = 0.01": "dt = 0.001"}),
    }


def source_dir(side, dest):
    """The ``src`` directory of ``side``: the directory itself, or a revision's, extracted to ``dest``."""
    if (Path(side) / "latticesde").is_dir():
        return Path(side).resolve()
    dest.mkdir(parents=True)
    archive = dest / "src.tar"
    made = subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive), side, "src"],
                          capture_output=True, text=True)
    if made.returncode:
        raise SystemExit(f"error: {side!r} is neither a src directory nor a git revision: "
                         f"{made.stderr.strip()}")
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)
    archive.unlink()
    return dest / "src"


def run_side(src, configs, work):
    """Run every subcommand of every case with ``src`` first on the path, in ``work``.

    Returns (case, subcommand) -> (exit code, stderr).  The paths on each
    command line are relative and the same for both sides, and ``src`` is
    written ``<src>`` in stderr, so the two sides' stderr can be compared.
    """
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src)}
    found = subprocess.run([sys.executable, "-c", "import latticesde; print(latticesde.__file__)"],
                           env=env, cwd=work, capture_output=True, text=True, check=True)
    if Path(found.stdout.strip()).resolve().parent != (src / "latticesde").resolve():
        raise SystemExit(f"error: latticesde is imported from {found.stdout.strip()}, not {src}")
    results = {}
    for case, command in itertools.product(configs, SUBCOMMANDS):
        run = subprocess.run([sys.executable, "-m", "latticesde.cli", command,
                              "--config", f"../configs/{case}.cfg", "--out", f"out/{case}"],
                             env=env, cwd=work, capture_output=True, text=True)
        results[case, command] = (run.returncode, run.stderr.replace(str(src), "<src>"))
    return results


def table_difference(old, new) -> str:
    """The largest relative difference of two tables' numeric fields, or where their layout parts."""
    largest, where, count = 0.0, None, 0
    with open(old, encoding="utf-8") as fa, open(new, encoding="utf-8") as fb:
        for line, (a, b) in enumerate(itertools.zip_longest(fa, fb), start=1):
            if a is None or b is None:
                return f"one table ends at line {line - 1}"
            fields_a, fields_b = re.split(r"[,\s]+", a.strip()), re.split(r"[,\s]+", b.strip())
            if len(fields_a) != len(fields_b):
                return f"line {line} has {len(fields_a)} against {len(fields_b)} fields"
            for x, y in zip(fields_a, fields_b):
                if x == y:
                    continue
                try:
                    x, y = float(x), float(y)
                except ValueError:
                    return f"line {line} differs in a non-numeric field ({x!r}, {y!r})"
                count += 1
                scale = max(abs(x), abs(y))
                if not (math.isfinite(scale) and x == x and y == y):
                    rel = math.inf
                else:   # 0.0 against -0.0 differ by 0 relative, in the sign only
                    rel = abs(x - y) / scale if scale else 0.0
                if where is None or rel > largest:
                    largest, where = rel, line
    return f"numeric fields differ: {count}, the largest by {largest:.3g} relative (line {where})"


def compare_trees(old, new):
    """One line per file that is in one tree only or differs between them."""
    files = {side: {p.relative_to(side) for p in side.rglob("*") if p.is_file()} for side in (old, new)}
    lines = []
    for rel in sorted(files[old] | files[new]):
        if rel not in files[new]:
            lines.append(f"{rel}: only in OLD")
        elif rel not in files[old]:
            lines.append(f"{rel}: only in NEW")
        elif not filecmp.cmp(old / rel, new / rel, shallow=False):
            detail = table_difference(old / rel, new / rel) if rel.suffix in TABLES else "bytes differ"
            lines.append(f"{rel}: {detail}")
    return lines, len(files[old] | files[new])


BLAS_PROBE = """
import ctypes
import numpy as np

blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
core = "unknown"
try:
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
except (AttributeError, OSError):
    lib = None
for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):   # wheel, system
    corename = getattr(lib, name, None)
    if corename is not None:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
        break
print(f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, core {core}")
"""


def blas_line() -> str:
    """The numpy version, BLAS library and OpenBLAS core of a child run with ``THREAD_ENV``."""
    probe = subprocess.run([sys.executable, "-c", BLAS_PROBE], env={**os.environ, **THREAD_ENV},
                           capture_output=True, text=True)
    if probe.returncode:
        return f"BLAS unknown: {(probe.stderr.strip().splitlines() or ['no output'])[-1]}"
    return probe.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="a src directory or a git revision")
    parser.add_argument("new", help="a src directory or a git revision")
    args = parser.parse_args(argv)
    configs = cases()
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        (tmp / "configs").mkdir()
        for case, text in configs.items():
            (tmp / "configs" / f"{case}.cfg").write_text(text, encoding="utf-8")
        results = {}
        for label, side in (("old", args.old), ("new", args.new)):
            src = source_dir(side, tmp / f"src-{label}")
            (tmp / label).mkdir()
            results[label] = run_side(src, configs, tmp / label)
        differences = []
        for (case, command), (code, stderr) in results["old"].items():
            new_code, new_stderr = results["new"][case, command]
            if code != new_code:
                differences.append(f"{case} {command}: exit code {code} against {new_code}")
            if stderr != new_stderr:
                differences.append(f"{case} {command}: stderr differs:\n  OLD {stderr!r}\n  NEW {new_stderr!r}")
        lines, n_files = compare_trees(tmp / "old" / "out", tmp / "new" / "out")
        differences += lines
    for line in differences:
        print(line)
    print(blas_line())
    verdict = "differ" if differences else "identical"
    print(f"{len(configs)} cases x {len(SUBCOMMANDS)} subcommands, {n_files} files: {verdict} "
          f"({args.old} against {args.new})")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
