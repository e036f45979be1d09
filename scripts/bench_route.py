"""Route grid: the gram route against the default-size sketch and the exact
baselines, in one process.

Usage (from the repository root):

    python3 scripts/bench_route.py --out BENCH_24.json

The grid is n in {2^15, 2^17}, d in {32, 64, ..., 1024} with n d 8 bytes
<= ``--max-bytes`` (1 GiB), eps 0.5, on a Gaussian input with 50 rows
scaled by 30, under two seeds. Each entry records the route
``make_plan`` chose and, each the best of ``--reps`` calls:

- the gram route (r1 = n, r2 = d, one guarded Cholesky of A^T A);
- the sketch route at the default sizes r1 = ceil(20 d ln n), clamped to
  n, and r2 = ceil(12 ln n / eps^2);
- CholeskyQR2 exact, the explicit exact plan (r1 = n, r2 = d);
- the thin SVD, ``exact_leverage``, timed once: its scores are the
  reference for every err. Above ``--svd-max-bytes`` (512 MiB) of input
  the SVD's copies of A and U would triple the memory, so it is not run
  and CholeskyQR2's scores are the reference.

Each route's entry holds its time, per-phase times, orthogonalizer route,
max relative error over rows and tracemalloc peak. ``disagreements``
lists the entries where ``make_plan``'s choice is not the faster
measured route. BLAS threads are capped at nproc and glibc keeps freed
memory, as in ``benchmark/run.py``.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(NPROC)
# glibc reads these once, at start-up: the script replaces itself with a
# copy that has them set, so freed blocks stay in the heap between calls
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}
if __name__ == "__main__" and any(os.environ.get(k) != v
                                  for k, v in MALLOC_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, **MALLOC_ENV})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import levsketch  # noqa: E402
from levsketch.sketch import SketchPlan, default_r1, make_plan  # noqa: E402

GRID_N = (1 << 15, 1 << 17)
GRID_D = (32, 64, 128, 256, 512, 1024)
SEEDS = (0, 1)
EPS = 0.5


def grid(max_bytes: int):
    for n in GRID_N:
        for d in GRID_D:
            if n * d * 8 <= max_bytes:
                yield n, d


def make_input(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    A[rng.choice(n, size=50, replace=False)] *= 30.0
    return A


def best_time(fn, reps: int):
    """(best seconds, the last call's result) over ``reps`` calls."""
    best, out = math.inf, None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def max_rel_err(scores: np.ndarray, exact: np.ndarray) -> float:
    nz = exact > 0
    return float(np.max(np.abs(scores[nz] - exact[nz]) / exact[nz]))


def run_route(A, plan, seed, exact, reps: int) -> dict:
    """One route's best time, its last call's phases, route and error, and
    its tracemalloc peak."""
    call = (lambda: levsketch.approx_leverage(A, plan, seed))
    total, (report, basis) = best_time(call, reps)
    return {"r1": plan.r1, "r2": plan.r2, "total_s": total,
            **{k.replace("_ms", "_s"): v / 1e3
               for k, v in basis.timings_ms.items()},
            "orthogonalizer": basis.route, "rank": report.extras["rank"],
            "err": max_rel_err(report.scores, exact),
            "peak_mib": traced_peak_mib(call)}


def run_point(n: int, d: int, seed: int, reps: int,
              svd_max_bytes: int) -> dict:
    A = make_input(n, d, seed)
    chosen = make_plan(n, d, EPS)
    exact_plan = make_plan(n, d, EPS, r1=n, r2=d)
    if n * d * 8 <= svd_max_bytes:
        reference = "thin_svd"
        svd_s, ref = best_time(lambda: levsketch.exact_leverage(A), 1)
    else:
        reference, svd_s = "cholqr2", None
        ref, _ = levsketch.approx_leverage(A, exact_plan, None)
    exact = ref.scores
    entry = {"n": n, "d": d, "seed": seed, "route": chosen.route,
             "svd_s": svd_s, "reference": reference}
    entry["gram"] = run_route(A, SketchPlan(EPS, n, d, route="gram"), None,
                              exact, reps)
    entry["sketch"] = run_route(A, make_plan(n, d, EPS, r1=default_r1(n, d)),
                                seed, exact, reps)
    entry["cholqr2"] = run_route(A, exact_plan, None, exact, reps)
    faster = "gram" if entry["gram"]["total_s"] <= entry["sketch"]["total_s"] \
        else "sketch"
    entry["measured_winner"] = faster
    return entry


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    import scipy
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "backend": levsketch.backend_name(), "nproc": NPROC,
            "blas_threads": NPROC, "malloc": MALLOC_ENV, "cpu": cpu}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_route.json")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--max-bytes", type=int, default=1 << 30,
                    help="largest n d 8 in the grid")
    ap.add_argument("--svd-max-bytes", type=int, default=1 << 29,
                    help="largest n d 8 the thin SVD runs on")
    args = ap.parse_args(argv)
    entries = []
    for n, d in grid(args.max_bytes):
        for seed in SEEDS:
            entry = run_point(n, d, seed, args.reps, args.svd_max_bytes)
            entries.append(entry)
            print(json.dumps(entry), file=sys.stderr, flush=True)
    doc = {"what": "leverage scores by route on a Gaussian n x d input with "
                   f"50 rows x30, eps {EPS}: best of {args.reps} times, the "
                   "thin SVD timed once, and tracemalloc peaks",
           "environment": environment(), "reps": args.reps,
           "seeds": list(SEEDS),
           "disagreements": [{k: e[k] for k in ("n", "d", "seed", "route",
                                                 "measured_winner")}
                             for e in entries
                             if e["route"] != e["measured_winner"]],
           "entries": entries}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
