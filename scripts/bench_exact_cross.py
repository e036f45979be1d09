"""Exact cross-leverage pairs: the thin SVD plus ``heavy_pairs`` against the
exact-plan search that ``levsketch cross --exact-pairs`` runs.

Usage (from the repository root):

    python3 scripts/bench_exact_cross.py --out BENCH_23.json

The grid is n in {32768, 60000, 131072} and d in {16, 32, 64, 128}, each
under two seeds, on a Gaussian input with 16 planted near-duplicate row
pairs scaled by 30, built by the ``cross-pairs`` benchmark workload's own
``CrossPairs.generate`` at that n and d (``_bench.planted_input``), at
kappa = n ln n. Each entry records the best of ``--reps`` times, the two
methods alternating call by call:

- ``svd``: ``thin_svd(A)`` (``svd_s``), then ``heavy_pairs(U, kappa)``
  (``search_s``);
- ``exact_plan``: ``approx_cross_leverage(A, make_plan(n, d, 0.5, r1=n,
  r2=d), kappa, None)`` end to end (``total_s``), with its own
  ``sketch_s`` and ``search_s``, and the sketch phase split by separate
  calls into the factorization (``factorization_s``), the row norms
  (``scores_s``) and the Gram of A R^-1 (``gram_s``).

It adds each method's tracemalloc peak, whether the two pair sets are
equal, their size, and the largest relative difference between the pair
values. BLAS threads are capped at nproc and glibc keeps freed memory, as
in ``benchmark/run.py``.
"""

from __future__ import annotations

import sys

import _bench

if __name__ == "__main__":
    _bench.configure()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402

sys.path.insert(0, str(_bench.ROOT / "src"))

import levsketch  # noqa: E402
from levsketch._kernels import product_gram  # noqa: E402

GRID_N = (32768, 60000, 131072)
GRID_D = (16, 32, 64, 128)
SEEDS = (1, 2)


def run_point(n: int, d: int, seed: int, reps: int) -> dict:
    A = _bench.planted_input(n, d, seed)
    kappa = n * math.log(n)
    plan = levsketch.make_plan(n, d, 0.5, r1=n, r2=d)

    def svd_pairs():
        U, svd_s = _bench.timed(lambda: levsketch.thin_svd(A).U)
        hp, search_s = _bench.timed(lambda: levsketch.heavy_pairs(U, kappa))
        return hp, {"total_s": svd_s + search_s, "svd_s": svd_s,
                    "search_s": search_s}

    def exact_plan_pairs():
        hp, total_s = _bench.timed(
            lambda: levsketch.approx_cross_leverage(A, plan, kappa, None))
        return hp, {"total_s": total_s,
                    "sketch_s": hp.timings_ms["sketch_ms"] / 1e3,
                    "search_s": hp.timings_ms["search_ms"] / 1e3}

    def exact_plan_phases():
        (report, basis), _ = _bench.timed(
            lambda: levsketch.approx_leverage(A, plan, None))
        _, gram_s = _bench.timed(lambda: product_gram(A, basis.W))
        return {"factorization_s": basis.timings_ms["factorization_ms"] / 1e3,
                "scores_s": basis.timings_ms["product_ms"] / 1e3,
                "gram_s": gram_s}

    best = {"svd": {}, "exact_plan": {}}

    def keep(side: str, times: dict) -> None:
        for k, v in times.items():
            best[side][k] = min(best[side].get(k, math.inf), v)

    for _ in range(reps):  # the methods alternate, call by call
        ref, times = svd_pairs()
        keep("svd", times)
        got, times = exact_plan_pairs()
        keep("exact_plan", times)
        keep("exact_plan", exact_plan_phases())
    best["svd"]["peak_mib"] = _bench.traced_peak_mib(svd_pairs)
    best["exact_plan"]["peak_mib"] = _bench.traced_peak_mib(exact_plan_pairs)
    same = ref.indices() == got.indices()
    values = dict(((i, j), c) for i, j, c in ref.pairs)
    max_rel = max((abs(c - values[i, j]) / values[i, j]
                   for i, j, c in got.pairs), default=0.0) if same else None
    return {"n": n, "d": d, "seed": seed, "kappa": kappa, **best,
            "route": got.extras["route"], "rank": got.extras["rank"],
            "pairs": len(ref), "same_pairs": same,
            "pair_value_max_rel_diff": max_rel,
            "speedup": best["svd"]["total_s"] / best["exact_plan"]["total_s"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_exact_cross.json")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)
    entries = []
    for n in GRID_N:
        for d in GRID_D:
            for seed in SEEDS:
                entry = run_point(n, d, seed, args.reps)
                entries.append(entry)
                print(json.dumps(entry), file=sys.stderr, flush=True)
    doc = {"what": "exact heavy pairs at kappa = n ln n on planted-pair "
                   "inputs: thin SVD + heavy_pairs against the exact-plan "
                   f"search, best of {args.reps} times and tracemalloc peaks",
           "environment": _bench.environment(), "reps": args.reps,
           "seeds": list(SEEDS), "entries": entries}
    _bench.write_json(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
