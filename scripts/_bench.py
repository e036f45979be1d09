"""Helpers shared by the bench scripts: the BLAS-thread and glibc malloc
settings, the recorded environment, the timers, the tracemalloc peak, the
JSON writer, the grid's size filter, the two bench inputs and the relative
error.

A script calls ``configure()`` under its ``__main__`` check, before it
imports numpy: BLAS reads its thread count when it loads, and glibc reads
its malloc settings once, at start-up, so the process replaces itself with
a copy that has them set. This module imports no numpy, and no levsketch,
at import time.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# freed blocks stay in the heap between calls, as in benchmark/run.py
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}


def configure() -> None:
    """Cap BLAS threads at nproc and, unless they are set already, re-exec
    the running script with ``MALLOC_ENV`` set."""
    for var in BLAS_ENV:
        os.environ[var] = str(NPROC)
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **MALLOC_ENV})


def environment() -> dict:
    """Library versions, the levsketch backend, CPU, thread count and malloc
    settings of the run, with the ``levsketch`` that ``sys.path`` finds."""
    import numpy as np
    import scipy

    import levsketch
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "backend": levsketch.backend_name(), "nproc": NPROC,
            "blas_threads": NPROC, "malloc": MALLOC_ENV, "cpu": cpu}


def timed(fn):
    """(the result of ``fn()``, its seconds)."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def best_time(fn, reps: int):
    """(best seconds, the last call's result) over ``reps`` calls."""
    best, out = math.inf, None
    for _ in range(reps):
        out, seconds = timed(fn)
        best = min(best, seconds)
    return best, out


def traced_peak_mib(fn) -> float:
    """The tracemalloc peak of one ``fn()`` call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def write_json(path, doc: dict) -> None:
    """Write ``doc`` as indented JSON with a final newline."""
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def grid(ns, ds, max_bytes: int):
    """Every (n, d) of ``ns`` x ``ds`` whose float64 n x d input takes at
    most ``max_bytes``."""
    for n in ns:
        for d in ds:
            if n * d * 8 <= max_bytes:
                yield n, d


def make_input(n: int, d: int, seed: int):
    """A Gaussian n x d input with 50 of its rows scaled by 30."""
    import numpy as np
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    A[rng.choice(n, size=50, replace=False)] *= 30.0
    return A


def planted_input(n: int, d: int, seed: int):
    """The ``cross-pairs`` benchmark workload's input (``CrossPairs.generate``
    in ``benchmark/workloads.py``) at n x d."""
    bench = str(ROOT / "benchmark")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import CrossPairs
    return type("Grid", (CrossPairs,), {"n": n, "d": d}).generate(seed)


def max_rel_err(got, ref) -> float:
    """The largest |got - ref| / ref over the entries where ref > 0."""
    import numpy as np
    nz = ref > 0
    return float(np.max(np.abs(got[nz] - ref[nz]) / ref[nz]))
