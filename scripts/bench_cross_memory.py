"""Cross-path memory and time: the tracemalloc peak of
``approx_cross_leverage`` (in MiB and in n-vectors of 8 n bytes) and its
best time, on the default (gram) plan and the exact plan, for one or more
source trees side by side.

Usage (from the repository root):

    python3 scripts/bench_cross_memory.py --out BENCH_26.json \\
        --tree parent=PATH/TO/PARENT/src --tree change=src

The grid is n in {2^15, 60000, 2^17, 10^6} and d in {8, 32}, on the
``cross-pairs`` workload's planted input (``CrossPairs.generate`` at that
n and d, seed 1) at kappa = n ln n, sketch seed 3. Each tree is imported
in a worker process of its own, one per grid point, and the trees take
turns going first. A worker times ``--reps`` calls per plan, the plans
alternating call by call, then traces one more call per plan. Each entry
records, per tree and plan, the best time, the peak, the number of pairs,
the orthogonalizer's route (``extras["route"]``), a digest of the
``HeavyPairSet`` (pairs, threshold, gram_fro_sq and candidates) and one
of its pairs and candidates alone, and whether each digest agrees across
the trees. The workers report the environment, since this process
imports no tree. BLAS threads are capped at nproc and glibc keeps freed
memory, as in ``benchmark/run.py``.
"""

from __future__ import annotations

import sys

import _bench

if __name__ == "__main__":
    _bench.configure()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

GRID_N = (1 << 15, 60_000, 1 << 17, 10**6)
GRID_D = (8, 32)
INPUT_SEED, SKETCH_SEED = 1, 3


def worker(src: str, n: int, d: int, reps: int) -> dict:
    """Time and trace both plans at n x d with levsketch from ``src``."""
    sys.path.insert(0, str(Path(src).resolve()))
    import levsketch

    A = _bench.planted_input(n, d, INPUT_SEED)
    kappa = n * math.log(n)
    plans = {"gram": levsketch.make_plan(n, d, 0.5),
             "exact": levsketch.make_plan(n, d, 0.5, r1=n, r2=d)}

    def call(plan):
        return levsketch.approx_cross_leverage(A, plan, kappa, SKETCH_SEED)

    best, found = dict.fromkeys(plans, math.inf), {}
    for _ in range(reps):  # the plans alternate, call by call
        for name, plan in plans.items():
            found[name], seconds = _bench.timed(lambda: call(plan))
            best[name] = min(best[name], seconds)
    out = {}
    for name, plan in plans.items():
        peak = _bench.traced_peak_mib(lambda: call(plan))
        hp = found[name]
        out[name] = {"best_s": best[name], "peak_mib": peak,
                     "peak_n_vectors": peak * 2**20 / (8 * n),
                     "pairs": len(hp), "candidates": hp.candidates,
                     "digest": digest(hp.pairs, hp.threshold,
                                      hp.gram_fro_sq, hp.candidates),
                     "pairs_digest": digest(hp.pairs, hp.candidates),
                     "route": hp.extras["route"]}
    return out


def digest(*fields) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_cross_memory.json")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--tree", action="append", metavar="LABEL=SRC",
                    help="a levsketch source tree to measure; repeatable "
                         "(default: change=src of this checkout)")
    ap.add_argument("--worker", nargs=3, metavar=("SRC", "N", "D"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        src, n, d = args.worker
        run = worker(src, int(n), int(d), args.reps)
        print(json.dumps([run, _bench.environment()]))
        return 0
    trees = dict(t.split("=", 1) for t in
                 (args.tree or [f"change={_bench.ROOT / 'src'}"]))
    entries = []
    for n in GRID_N:
        for d in GRID_D:
            turn, runs = list(trees.items()), {}
            if len(entries) % 2:  # the trees take turns going first
                turn.reverse()
            for label, src in turn:
                run = subprocess.run(
                    [sys.executable, __file__, "--reps", str(args.reps),
                     "--worker", src, str(n), str(d)],
                    check=True, capture_output=True, text=True)
                runs[label], env = json.loads(run.stdout.splitlines()[-1])
            entry = {"n": n, "d": d, **{t: runs[t] for t in trees}}
            for key, field in (("same_output", "digest"),
                               ("same_pairs", "pairs_digest")):
                entry[key] = {
                    plan: len({entry[t][plan][field] for t in trees}) == 1
                    for plan in ("gram", "exact")}
            entries.append(entry)
            print(json.dumps(entry), file=sys.stderr, flush=True)
    doc = {"what": "approx_cross_leverage on planted-pair inputs at kappa = "
                   f"n ln n: best of {args.reps} times and the tracemalloc "
                   "peak, on the gram and exact plans, per source tree",
           "environment": env, "reps": args.reps,
           "trees": list(trees), "input_seed": INPUT_SEED,
           "sketch_seed": SKETCH_SEED, "entries": entries}
    _bench.write_json(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
