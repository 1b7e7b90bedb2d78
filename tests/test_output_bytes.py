"""The bytes of the output files that do not depend on the host, pinned.

``output_bytes.json`` holds the SHA-256 of every file ``generate`` and
``picard`` write, and of ``verify_report.json``, for ``configs/demo.cfg`` and
the 2-d window of the CI workflow (the demo and demo2d cases of
``tools/same_bytes.py``), run in process.  Of these, only the ``sup_sum`` of
a verify report is simulated; it came out the same under the OpenBLAS cores
Haswell, Sandybridge and Prescott and the detected one.  The moment and
Cauchy tables did not, so they are left out.  numpy does not promise the
same ``Generator`` streams across versions (NEP 19), so the manifest names
the numpy version it was written under, and on any other the test fails.

After a change that moves these bytes on purpose, rewrite the manifest with

    PYTHONPATH=src python tests/test_output_bytes.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from latticesde.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("output_bytes.json")
CASES = ("demo", "demo2d")
UNPINNED = ("cauchy_table.csv", "moments.csv")   # their last bits move with the BLAS kernel


def output_hashes(work: Path) -> dict:
    """``case/file`` -> SHA-256 of the pinned files of each case, written under ``work``."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from same_bytes import cases
    finally:
        sys.path.remove(str(ROOT / "tools"))
    configs, hashes = cases(), {}
    for case in CASES:
        config, out = work / f"{case}.cfg", work / case
        config.write_text(configs[case], encoding="utf-8")
        for command in ("generate", "picard", "verify"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 0, command
        for path in sorted(out.iterdir()):
            if path.name not in UNPINNED:
                hashes[f"{case}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_output_bytes_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert np.__version__ == manifest["numpy"], (
        f"the manifest pins the bytes of numpy {manifest['numpy']}, "
        f"but this is numpy {np.__version__}"
    )
    got, want = output_hashes(tmp_path), manifest["sha256"]
    differ = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not differ, f"output bytes differ from the manifest in {', '.join(differ)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {"numpy": np.__version__, "sha256": output_hashes(Path(tmp))}
    MANIFEST.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned['sha256'])} files under numpy {np.__version__} in {MANIFEST}")
