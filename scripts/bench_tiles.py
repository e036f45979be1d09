"""Product-tile grid: the two A W product passes and the two exact leverage
routes under ``_kernels._product_tiles``' row rule, against the rule it
replaced and against other floors, in one process.

Usage (from the repository root):

    python3 scripts/bench_tiles.py --out BENCH_28.json

The grid is n in {2^15, 2^17} with d in {8, 16, 32, 64, 256, 1024, 2048}
and n d 8 bytes <= ``--max-bytes`` (1 GiB), plus the points (10^6, 8) and
(200000, 16), on a Gaussian input (seed 0) with 50 rows scaled by 30. Each
point forms A W for a Gaussian d x k map W at k = d and, where it is below
d, at k = ceil(12 ln n / 0.25), stage 2's r2 at eps 0.5. A row-tile rule
gives the rows of each tile of A W:

- ``old``: max(1, 2 MiB / (8 max(d, k))), the rule the product passes
  shared with the transform's scratch before, carried here as a reference
  tiler;
- ``new``: the module's own, max(``_PRODUCT_ROWS``, ``_PRODUCT_ELEMS`` //
  k);
- ``rows<R>_elems<E>``: max(R, E // k) for every candidate pair of floors,
  R in {1024, 2048} and E in {2^15, 2^16, 2^17}.

At every k, ``product_sq_norms`` and ``product_gram`` are timed at each
distinct tile size the rules give, best of ``--reps``, the sizes taking
turns in an order that reverses every rep; a call under 0.2 s is timed as
the mean of enough calls to fill 0.2 s. At k = d, ``approx_leverage``
runs on the gram route and on the exact plan (CholeskyQR2) under ``old``
and ``new``, alternating, best of ``--reps``, with the best time of each
phase (on the gram route only ``product_s`` forms product tiles; on the
exact plan ``factorization_s`` also holds CholeskyQR2's tiled Gram).
Each adds one traced call per rule for the tracemalloc peak, and the
largest relative difference of the new rule's scores from the old
rule's. ``summary`` holds, over the grid, the largest ratio of the new
rule's time to the old rule's for every measurement, and the speed-ups
of both routes and of their product phase at 32768 x 2048.
"""

from __future__ import annotations

import sys

import _bench

if __name__ == "__main__":
    _bench.configure()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(_bench.ROOT / "src"))

import levsketch  # noqa: E402
from levsketch import _kernels  # noqa: E402
from levsketch.sketch import SketchPlan, make_plan  # noqa: E402

GRID_N = (1 << 15, 1 << 17)
GRID_D = (8, 16, 32, 64, 256, 1024, 2048)
EXTRA_POINTS = ((10**6, 8), (200_000, 16))
EPS = 0.5
OLD_SCRATCH_BYTES = 2 << 20
MIN_SAMPLE_S = 0.2
FLOORS = [(rows, elems) for rows in (1024, 2048)
          for elems in (1 << 15, 1 << 16, 1 << 17)]


def rules(d: int, k: int) -> dict:
    """Tile rows of A W under each rule, for an n x d A and a d x k W."""
    out = {"old": max(1, OLD_SCRATCH_BYTES // (8 * max(d, k))),
           "new": max(_kernels._PRODUCT_ROWS,
                      _kernels._PRODUCT_ELEMS // k)}
    for rows, elems in FLOORS:
        out[f"rows{rows}_elems2^{elems.bit_length() - 1}"] = \
            max(rows, elems // k)
    return out


def fixed_tiles(step: int):
    """A ``_product_tiles`` of ``step`` rows a tile (the reference tiler)."""
    def tiles(a, w):
        n, k = a.shape[0], w.shape[1]
        tile = np.empty((min(step, n), k))
        for i in range(0, n, step):
            yield i, np.matmul(a[i:i + step], w, out=tile[:min(step, n - i)])
    return tiles


@contextlib.contextmanager
def tiled(step):
    """Run the product passes at ``step`` rows a tile; None keeps the
    module's own rule."""
    own = _kernels._product_tiles
    if step is not None:
        _kernels._product_tiles = fixed_tiles(step)
    try:
        yield
    finally:
        _kernels._product_tiles = own


def sample(fn):
    """(the last result of ``fn()``, seconds a call): one call, or, where it
    takes under ``MIN_SAMPLE_S``, the mean of enough calls to fill that, so
    that host noise does not decide a millisecond point."""
    out, seconds = _bench.timed(fn)
    if seconds >= MIN_SAMPLE_S:
        return out, seconds
    calls = math.ceil(MIN_SAMPLE_S / max(seconds, 1e-6))
    t0 = time.perf_counter()
    for _ in range(calls):
        out = fn()
    return out, (time.perf_counter() - t0) / calls


def time_products(A, W, steps: dict, reps: int) -> dict:
    """Best ``product_sq_norms`` and ``product_gram`` seconds at each
    distinct tile size in ``steps`` (rule -> rows; ``new`` runs the
    module's own rule)."""
    sizes = sorted(set(steps.values()))
    best = {s: {"sq_s": math.inf, "gram_s": math.inf} for s in sizes}
    for rep in range(reps):
        for s in (sizes if rep % 2 == 0 else sizes[::-1]):
            with tiled(None if s == steps["new"] else s):
                _, sq_s = sample(lambda: _kernels.product_sq_norms(A, W))
                _, gram_s = sample(lambda: _kernels.product_gram(A, W))
            best[s]["sq_s"] = min(best[s]["sq_s"], sq_s)
            best[s]["gram_s"] = min(best[s]["gram_s"], gram_s)
    return {str(s): t for s, t in best.items()}


def time_route(A, plan, old_step: int, reps: int) -> dict:
    """``approx_leverage`` on ``plan`` under the old and new rules,
    alternating: best time, best time of each phase, a traced peak, and
    the new scores' largest relative difference from the old."""
    call = (lambda: levsketch.approx_leverage(A, plan, None))
    out = {side: {"total_s": math.inf} for side in ("old", "new")}
    scores = {}
    for rep in range(reps):
        for side in (("old", "new") if rep % 2 == 0 else ("new", "old")):
            with tiled(old_step if side == "old" else None):
                (report, basis), total = sample(call)
            entry = out[side]
            entry["total_s"] = min(entry["total_s"], total)
            for k, v in basis.timings_ms.items():
                phase = k.replace("_ms", "_s")
                entry[phase] = min(entry.get(phase, math.inf), v / 1e3)
            entry["orthogonalizer"] = basis.route
            scores[side] = report.scores
    for side in ("old", "new"):
        with tiled(old_step if side == "old" else None):
            out[side]["peak_mib"] = _bench.traced_peak_mib(call)
    out["scores_max_rel_diff"] = _bench.max_rel_err(scores["new"],
                                                 scores["old"])
    out["scores_identical"] = bool(np.array_equal(scores["new"],
                                                  scores["old"]))
    out["new_over_old"] = out["new"]["total_s"] / out["old"]["total_s"]
    return out


def run_point(n: int, d: int, reps: int) -> dict:
    A = _bench.make_input(n, d, 0)
    rng = np.random.default_rng(1)
    ks = [d]
    r2 = math.ceil(12 * math.log(n) / EPS**2)
    if r2 < d:
        ks.append(r2)
    products = []
    for k in ks:
        W = rng.standard_normal((d, k)) / math.sqrt(d)
        steps = rules(d, k)
        times = time_products(A, W, steps, reps)
        old, new = times[str(steps["old"])], times[str(steps["new"])]
        products.append({
            "k": k, "rules": steps, "times": times,
            "new_over_old": {"sq": new["sq_s"] / old["sq_s"],
                             "gram": new["gram_s"] / old["gram_s"]}})
    old_step = rules(d, d)["old"]
    return {"n": n, "d": d, "products": products,
            "gram_route": time_route(A, SketchPlan(EPS, n, d, route="gram"),
                                     old_step, reps),
            "exact_plan": time_route(A, make_plan(n, d, EPS, r1=n, r2=d),
                                     old_step, reps)}


def summary(entries: list) -> dict:
    slowest = {}

    def keep(name, ratio, where):
        if ratio > slowest.get(name, (0.0,))[0]:
            slowest[name] = (ratio, where)

    for e in entries:
        for p in e["products"]:
            for kind, ratio in p["new_over_old"].items():
                keep(f"product_{kind}", ratio, [e["n"], e["d"], p["k"]])
        for route in ("gram_route", "exact_plan"):
            keep(route, e[route]["new_over_old"], [e["n"], e["d"]])
    out = {"largest_new_over_old": {
        name: {"ratio": r, "at": where} for name, (r, where) in
        sorted(slowest.items())}}
    for e in entries:
        if (e["n"], e["d"]) == (1 << 15, 2048):
            out["speedup_32768x2048"] = {
                route: {"total": 1.0 / e[route]["new_over_old"],
                        "product_s": e[route]["old"]["product_s"]
                        / e[route]["new"]["product_s"]}
                for route in ("gram_route", "exact_plan")}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_tiles.json")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--max-bytes", type=int, default=1 << 30,
                    help="largest n d 8 in the grid")
    args = ap.parse_args(argv)
    entries = []
    for n, d in itertools.chain(
            _bench.grid(GRID_N, GRID_D, args.max_bytes), EXTRA_POINTS):
        entry = run_point(n, d, args.reps)
        entries.append(entry)
        print(json.dumps(entry), file=sys.stderr, flush=True)
    _bench.write_json(args.out, {
        "what": "A W product passes and the gram-route and exact-plan "
                "approx_leverage by product-tile rule, on a Gaussian "
                f"n x d input with 50 rows x30: best of {args.reps} "
                "alternating times, tracemalloc peaks and score differences",
        "environment": _bench.environment(), "reps": args.reps,
        "tile_rule": {"new_floors": [_kernels._PRODUCT_ROWS,
                                     _kernels._PRODUCT_ELEMS],
                      "old_scratch_bytes": OLD_SCRATCH_BYTES},
        "summary": summary(entries), "entries": entries})
    return 0


if __name__ == "__main__":
    sys.exit(main())
