"""The bytes of the output files, pinned, and the same under every BLAS core.

``output_bytes.json`` holds the SHA-256 of every file ``generate``,
``simulate``, ``verify`` and ``picard`` write for ``configs/demo.cfg``, the
levels1d and window2d workloads of ``bench/workloads.json``, the 2-d window
of the CI workflow, demo at ``zeta = 0.9`` and demo on a sparse window whose
theory bounds are finite (the demo, levels1d, window2d, demo2d, demo-zeta and
demo-finite cases of ``tools/same_bytes.py``; all but demo2d-dump), run in
process.  Every sum that reaches them is added in a fixed order by
elementwise ufuncs or ``math.fsum``, never by a BLAS kernel, and over the
paths in path order, so the simulated files come out the same under every
OpenBLAS core and however the paths are split into blocks.  numpy does not
promise the same ``Generator`` streams across versions (NEP 19), so the
manifest names the numpy version it was written under, and on any other the
test fails.

After a change that moves these bytes on purpose, rewrite the manifest with

    PYTHONPATH=src python tests/test_output_bytes.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from latticesde import sde
from latticesde.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("output_bytes.json")
CASES = ("demo", "levels1d", "demo2d", "demo-zeta", "demo-finite", "window2d")
CORE_CASES = ("demo", "demo2d")   # the 1-d and 2-d cases run under each BLAS core
COMMANDS = ("generate", "simulate", "verify", "picard")
CORES = (None, "Haswell", "Sandybridge", "Prescott")   # None: the core OpenBLAS detects
CHILD = f"""
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_output_bytes import output_hashes
print(json.dumps(output_hashes(Path(sys.argv[2]), ("simulate", "verify"), {CORE_CASES!r})))
"""


def output_hashes(work: Path, commands=COMMANDS, names=CASES) -> dict:
    """``case/file`` -> SHA-256 of the files ``commands`` write for each of the
    cases ``names`` under ``work``."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from same_bytes import cases
    finally:
        sys.path.remove(str(ROOT / "tools"))
    configs, hashes = cases(), {}
    for case in names:
        config, out = work / f"{case}.cfg", work / case
        config.write_text(configs[case], encoding="utf-8")
        for command in commands:
            assert main([command, "--config", str(config), "--out", str(out)]) == 0, command
        for path in sorted(out.iterdir()):
            hashes[f"{case}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def pinned() -> dict:
    """The manifest's ``case/file`` -> SHA-256, once its numpy version is checked."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert np.__version__ == manifest["numpy"], (
        f"the manifest pins the bytes of numpy {manifest['numpy']}, "
        f"but this is numpy {np.__version__}"
    )
    return manifest["sha256"]


def test_output_bytes_match_the_manifest(tmp_path):
    got, want = output_hashes(tmp_path), pinned()
    differ = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not differ, f"output bytes differ from the manifest in {', '.join(differ)}"


def test_uneven_path_blocks_write_the_manifest_bytes(tmp_path, monkeypatch):
    # demo's 400 paths in 57 blocks of 7 and one of 1
    monkeypatch.setattr(sde, "_PATH_BLOCK", 7)
    got, want = output_hashes(tmp_path, ("simulate", "verify"), ("demo",)), pinned()
    differ = sorted(name for name in got if got[name] != want.get(name))
    assert not differ, f"in blocks of 7 paths the bytes differ in {', '.join(differ)}"


def test_simulated_bytes_are_the_same_under_every_blas_core(tmp_path):
    # simulate and verify of each case in a child process per OpenBLAS core
    trees = {}
    for core in CORES:
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        env["OPENBLAS_NUM_THREADS"] = "1"
        if core:
            env["OPENBLAS_CORETYPE"] = core
        work = tmp_path / (core or "detected")
        work.mkdir()
        child = subprocess.run([sys.executable, "-c", CHILD, str(Path(__file__).parent), str(work)],
                               env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        trees[core] = json.loads(child.stdout.splitlines()[-1])
    detected = trees.pop(None)
    assert len(detected) > 2 * len(CORE_CASES)
    for core, tree in trees.items():
        differ = sorted(name for name in tree.keys() | detected.keys()
                        if tree.get(name) != detected.get(name))
        assert not differ, f"under OPENBLAS_CORETYPE={core} the bytes differ in {', '.join(differ)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {"numpy": np.__version__, "sha256": output_hashes(Path(tmp))}
    MANIFEST.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned['sha256'])} files under numpy {np.__version__} in {MANIFEST}")
