"""Stage-1 grid: the time and peak memory of ``apply_srht``, beside the full
transform, optionally against a second source tree in the same process.

Usage (from the repository root):

    python3 scripts/bench_stage1.py --out BENCH_21.json
    python3 scripts/bench_stage1.py --baseline /path/to/other/src --out BENCH_21.json

The grid is n in {2^15, 100000, 2^17}, d in {16, 32, ..., 2048} with
n d 8 bytes <= ``--max-bytes`` (1 GiB), and r the default r1 = ceil(20 d
ln n) where that is below n, and 8 d; each point runs under two seeds, on
a Gaussian input. Each entry records, per tree, the best of ``--reps``
times of ``apply_srht`` and its tracemalloc peak, the (g, columns) that
``sampled_fwht`` chose where the tree can say, and the best time of
``fwht_inplace`` on the n_pad x d padded array. With ``--baseline`` (the
``src`` directory of another checkout, e.g. a ``git archive`` of the
parent commit) both trees run the same input, their calls alternate, and
the entry adds the largest difference of PA from the baseline's, relative
to its largest entry. BLAS threads are capped at nproc and glibc keeps
freed memory, as in ``benchmark/run.py``.
"""

from __future__ import annotations

import sys

import _bench

if __name__ == "__main__":
    _bench.configure()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(_bench.ROOT / "src"))

import levsketch  # noqa: E402
from levsketch import _kernels  # noqa: E402
from levsketch.sketch import next_pow2  # noqa: E402

GRID_N = (1 << 15, 100_000, 1 << 17)
GRID_D = (16, 32, 64, 128, 256, 512, 1024, 2048)
SEEDS = (0, 1)


def load_tree(src: Path, name: str):
    """The ``levsketch`` package under ``src``, imported as ``name``."""
    init = src / "levsketch" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def grid(max_bytes: int):
    """(n, d, r, r_kind) for every grid point."""
    for n, d in _bench.grid(GRID_N, GRID_D, max_bytes):
        r1 = math.ceil(20.0 * d * math.log(n))
        if r1 < n:
            yield n, d, r1, "r1"
        yield n, d, 8 * d, "8d"


def group_of(tree, n: int, d: int, r: int):
    """The (g, columns) ``sampled_fwht`` chooses, where the tree says."""
    choose = getattr(tree._kernels, "_group", None)
    if choose is None:
        return None
    log_g, columns = choose(n, d, r, next_pow2(n))
    return [1 << log_g, columns]


def run_point(trees: dict, n: int, d: int, r: int, seed: int,
              reps: int) -> dict:
    n_pad = next_pow2(n)
    padded = np.zeros((n_pad, d))
    a = padded[:n]  # A is the padded array's leading rows: no second copy
    np.random.default_rng(seed).standard_normal(out=a)
    runs = {name: (lambda t=tree: t.sketch.apply_srht(
        t.sketch.SketchOperator("SRHT", seed, n, r), a))
            for name, tree in trees.items()}
    out = {name: {"srht_s": math.inf} for name in trees}
    for _ in range(reps):  # the trees alternate, call by call
        for name, run in runs.items():
            out[name]["srht_s"] = min(out[name]["srht_s"],
                                      _bench.timed(run)[1])
    pa = {}
    for name, run in runs.items():
        out[name]["peak_mib"] = _bench.traced_peak_mib(run)
        out[name]["group"] = group_of(trees[name], n, d, r)
        pa[name] = run()
    entry = {"n": n, "d": d, "r": r, "seed": seed, "n_pad": n_pad, **out}
    if "baseline" in pa:
        ref = pa.pop("baseline")
        scale = float(np.max(np.abs(ref)))
        entry["pa_max_rel_diff"] = float(
            np.max(np.abs(pa["change"] - ref)) / scale)
        entry["speedup"] = out["baseline"]["srht_s"] / out["change"]["srht_s"]
    del pa
    entry["fwht_inplace_s"] = _bench.best_time(
        lambda: _kernels.fwht_inplace(padded), reps)[0]
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_stage1.json")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="src directory of a second tree to time alongside")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--max-bytes", type=int, default=1 << 30,
                    help="largest n d 8 in the grid")
    args = ap.parse_args(argv)
    trees = {"change": levsketch}
    if args.baseline is not None:
        trees = {"baseline": load_tree(args.baseline.resolve(),
                                       "levsketch_baseline"), **trees}
    entries = []
    for n, d, r, kind in grid(args.max_bytes):
        for seed in SEEDS:
            entry = {"r_kind": kind, **run_point(trees, n, d, r, seed,
                                                 args.reps)}
            entries.append(entry)
            print(json.dumps(entry), file=sys.stderr, flush=True)
    doc = {"what": "apply_srht on a Gaussian n x d input: best of "
                   f"{args.reps} times and tracemalloc peaks",
           "environment": _bench.environment(), "reps": args.reps,
           "seeds": list(SEEDS), "entries": entries}
    _bench.write_json(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
