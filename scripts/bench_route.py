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

import sys

import _bench

if __name__ == "__main__":
    _bench.configure()

import argparse  # noqa: E402
import json  # noqa: E402

sys.path.insert(0, str(_bench.ROOT / "src"))

import levsketch  # noqa: E402
from levsketch.sketch import SketchPlan, default_r1, make_plan  # noqa: E402

GRID_N = (1 << 15, 1 << 17)
GRID_D = (32, 64, 128, 256, 512, 1024)
SEEDS = (0, 1)
EPS = 0.5


def run_route(A, plan, seed, exact, reps: int) -> dict:
    """One route's best time, its last call's phases, route and error, and
    its tracemalloc peak."""
    call = (lambda: levsketch.approx_leverage(A, plan, seed))
    total, (report, basis) = _bench.best_time(call, reps)
    return {"r1": plan.r1, "r2": plan.r2, "total_s": total,
            **{k.replace("_ms", "_s"): v / 1e3
               for k, v in basis.timings_ms.items()},
            "orthogonalizer": basis.route, "rank": report.extras["rank"],
            "err": _bench.max_rel_err(report.scores, exact),
            "peak_mib": _bench.traced_peak_mib(call)}


def run_point(n: int, d: int, seed: int, reps: int,
              svd_max_bytes: int) -> dict:
    A = _bench.make_input(n, d, seed)
    chosen = make_plan(n, d, EPS)
    exact_plan = make_plan(n, d, EPS, r1=n, r2=d)
    if n * d * 8 <= svd_max_bytes:
        reference = "thin_svd"
        ref, svd_s = _bench.timed(lambda: levsketch.exact_leverage(A))
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
    for n, d in _bench.grid(GRID_N, GRID_D, args.max_bytes):
        for seed in SEEDS:
            entry = run_point(n, d, seed, args.reps, args.svd_max_bytes)
            entries.append(entry)
            print(json.dumps(entry), file=sys.stderr, flush=True)
    doc = {"what": "leverage scores by route on a Gaussian n x d input with "
                   f"50 rows x30, eps {EPS}: best of {args.reps} times, the "
                   "thin SVD timed once, and tracemalloc peaks",
           "environment": _bench.environment(), "reps": args.reps,
           "seeds": list(SEEDS),
           "disagreements": [{k: e[k] for k in ("n", "d", "seed", "route",
                                                 "measured_winner")}
                             for e in entries
                             if e["route"] != e["measured_winner"]],
           "entries": entries}
    _bench.write_json(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
