"""One workload instance in a fresh interpreter: set-up, then the subcommands.

Usage: worker.py SRC INI OUT TRACE SPANS SUBCOMMAND...

Prints one JSON object on stdout.  Set-up time starts just before
``import latticesde.cli`` and ends after ``parse_config`` of the INI, so it
holds only the program's own import and config parsing.  Before set-up and
before each subcommand the worker pins itself to the fastest allowed CPU;
``probes`` holds (cpu, probe before, probe after) per timed interval, taken
outside it.  With TRACE = 1 the spans are written to SPANS after the last
subcommand.
"""

import math
import os
import sys
import time

# read once: after the first pin, sched_getaffinity returns only that CPU
ALLOWED_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def probe():
    """Host-speed probe: median seconds of five runs of a fixed loop of
    interpreter arithmetic and libm calls (about 1.5 ms each)."""
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0.0
        for i in range(1, 6_000):
            acc += math.exp(-i * 1e-6) + math.lgamma(i + 1.0) + i * i
        runs.append(time.perf_counter() - start)
    return sorted(runs)[2]


def pin_fastest_cpu():
    """Pin this process to the allowed CPU on which the probe runs fastest.

    Each vCPU of a shared host is slowed by whatever runs on its sibling, and
    independently of the other vCPUs.  Returns (cpu, probe seconds there);
    cpu is None where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None, probe()
    timings = []
    for cpu in sorted(ALLOWED_CPUS):
        os.sched_setaffinity(0, {cpu})
        timings.append((probe(), cpu))
    seconds, cpu = min(timings)
    os.sched_setaffinity(0, {cpu})
    return cpu, seconds


def main(argv):
    src, ini, out, trace, spans_path, *commands = argv
    cpu, before = pin_fastest_cpu()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import latticesde.cli as cli

    cli.parse_config(ini)
    setup_s = time.perf_counter() - t0
    probes = [[cpu, before, probe()]]
    import contextlib
    import io
    import json
    import resource
    import threading
    import traceback

    tracer = None
    if trace == "1":
        import tracer as tracing
        from latticesde import convergence, geometry, ovsjannikov

        tracer = tracing.Tracer()
        tracer.install(
            {"cli": cli, "convergence": convergence, "geometry": geometry,
             "ovsjannikov": ovsjannikov}
        )

    runs = []
    for i, cmd in enumerate(commands):
        args = [cmd, "--config", ini, "--out", out, "--threads", "1"]
        err = io.StringIO()
        rc, tb = None, None
        cpu, before = pin_fastest_cpu()
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.main(args)
                else:
                    tracer.run = i
                    rc = tracer.span(f"cli.{cmd}", cli.main, args)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback escaping main is what the check counts
            tb = traceback.format_exc()
        runs.append({"cmd": cmd, "rc": rc, "seconds": time.perf_counter() - start,
                     "cpu_seconds": time.process_time() - cpu_start,
                     "traceback": tb, "stderr": err.getvalue()})
        probes.append([cpu, before, probe()])
    wall_s = sum(r["seconds"] for r in runs)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "runs": runs,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python_threads": threading.active_count(),
        "blas": blas_info(),
    }
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "matvec_calls": tracer.matvec_calls}, fh)
    print(json.dumps(result))
    return 0


def blas_info():
    """BLAS library name/version as numpy was built, and its live thread count."""
    import ctypes
    import glob

    import numpy as np

    info = {"numpy": np.__version__, "name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    root = os.path.dirname(np.__file__)
    libs = glob.glob(os.path.join(root, "..", "numpy.libs", "*openblas*"))
    libs += glob.glob(os.path.join(root, ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
