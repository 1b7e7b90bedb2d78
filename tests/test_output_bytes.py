"""The bytes of the output files, pinned, and the same under every BLAS core
and SIMD dispatch level.

``output_bytes.json`` holds the SHA-256 of every file ``generate``,
``simulate``, ``verify`` and ``picard`` write for ``configs/demo.cfg``, the
levels1d and window2d workloads of ``bench/workloads.json``, the 2-d window
of the CI workflow, demo at ``zeta = 0.9`` and demo on a sparse window whose
theory bounds are finite (the demo, levels1d, window2d, demo2d, demo-zeta and
demo-finite cases of ``tools/same_bytes.py``; all but demo2d-dump), run in
process.  Every sum that reaches them is added in a fixed order by
elementwise ufuncs or ``math.fsum``, never by a BLAS kernel, and over the
paths in path order; every exp, log, log1p and lgamma in them comes from
libm, and every moment-order |x|^p (at p = 2 or 4 in every case) from the
products of ``geometry._abs_power``, so the files come out the same under
every OpenBLAS core, with numpy's AVX-512 loops on or off, and however the
paths are split into blocks.  glibc picks its libm variants by the CPU's
features, and its variants without FMA round some results otherwise, so a
child process writes every case once more on them.  numpy does not promise
the same ``Generator`` streams across versions (NEP 19), so the manifest
names the numpy version it was written under, and on any other the test
fails.

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
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"   # numpy's AVX-512 dispatch targets
NO_FMA = "glibc.cpu.hwcaps=-AVX2,-FMA"   # glibc's libm on its code paths without FMA
CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_output_bytes import output_hashes
print(json.dumps(output_hashes(Path(sys.argv[2]), *json.loads(sys.argv[3]))))
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


def child_hashes(work: Path, commands, names, **env) -> dict:
    """:func:`output_hashes` in a child process with one BLAS thread and the
    environment variables ``env``."""
    env = {**{key: value for key, value in os.environ.items()
              if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES",
                             "GLIBC_TUNABLES")},
           "OPENBLAS_NUM_THREADS": "1", **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work.mkdir()
    child = subprocess.run([sys.executable, "-c", CHILD, str(Path(__file__).parent), str(work),
                            json.dumps([commands, names])], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_simulated_bytes_are_the_same_under_every_blas_core(tmp_path):
    # simulate and verify of each case in a child process per OpenBLAS core
    trees = {core: child_hashes(tmp_path / (core or "detected"), ("simulate", "verify"), CORE_CASES,
                                **({"OPENBLAS_CORETYPE": core} if core else {}))
             for core in CORES}
    detected = trees.pop(None)
    assert len(detected) > 2 * len(CORE_CASES)
    for core, tree in trees.items():
        differ = sorted(name for name in tree.keys() | detected.keys()
                        if tree.get(name) != detected.get(name))
        assert not differ, f"under OPENBLAS_CORETYPE={core} the bytes differ in {', '.join(differ)}"


def test_bytes_are_the_same_without_avx512_dispatch(tmp_path):
    # numpy's AVX-512 exp, log, log1p and power differ from its AVX2 ones in
    # the last bit; on a host without AVX-512 this runs the manifest cases once more
    got = child_hashes(tmp_path / "no-avx512", COMMANDS, CASES, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    want = pinned()
    differ = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not differ, (f"under NPY_DISABLE_CPU_FEATURES={NO_AVX512!r} the bytes differ from "
                        f"the manifest in {', '.join(differ)}")


def test_bytes_are_the_same_under_libm_without_fma(tmp_path):
    # glibc picks libm's exp, log, log1p and pow variants by the CPU's
    # features, and without FMA they give other last bits on some arguments
    # (lgamma does not); the output files must not see them
    got = child_hashes(tmp_path / "no-fma", COMMANDS, CASES, GLIBC_TUNABLES=NO_FMA)
    want = pinned()
    differ = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not differ, (f"under GLIBC_TUNABLES={NO_FMA} the bytes differ from the manifest "
                        f"in {', '.join(differ)}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {"numpy": np.__version__, "sha256": output_hashes(Path(tmp))}
    MANIFEST.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned['sha256'])} files under numpy {np.__version__} in {MANIFEST}")
