"""The BENCH grid: the library's leverage, cross-leverage and stage-1 ops at
every grid point, per source tree, in the CLI's schema.

Usage (from the repository root):

    python3 scripts/bench_grid.py --out BENCH_30.json --max-bytes 268435456
    python3 scripts/bench_grid.py --tree parent=PATH/TO/PARENT/src \\
        --tree change=src

The grid is every (n, d, seed) of n in {2^15, 2^16, 2^17, 10^6}, d in
{8, 16, ..., 2048} with n d 8 bytes <= ``--max-bytes`` (1 GiB) and seeds
0, 1 and 2, at eps 0.5, on the ``cross-pairs`` workload's planted input
(``CrossPairs.generate`` at that n and d and seed, the seed also being the
sketch seed). Each point runs this op table, an op with r1 only where
r1 < n:

- ``leverage_default``, ``leverage_exact``, ``leverage_r1``,
  ``leverage_8d``: ``approx_leverage`` on ``make_plan``'s default plan,
  the exact plan (r1 = n, r2 = d) and the sketch at r1 =
  ``default_r1(n, d)`` and at r1 = 8 d;
- ``cross_default``, ``cross_exact``: ``approx_cross_leverage`` on the
  default and exact plans at kappa = n ln n;
- ``srht_r1``, ``srht_8d``: ``apply_srht`` at those r1, with the
  (g, columns) that ``_kernels._group`` chooses;
- ``fwht``: A copied into a zero-padded n_pad x d array and
  ``fwht_inplace`` on the copy.

One thin SVD, timed once, is the reference: its scores for each leverage
op's ``err`` (the largest relative error over rows) and its off-diagonal
heavy pairs at kappa for each cross op's ``pair_recall``. Above
``SVD_MAX_BYTES`` (512 MiB) of input the exact plan stands in for it.

Each point runs the whole op table ``--reps`` times over, so that a slow
phase of the host lasting one op's calls does not set that op's time,
and each op records its best time (``total_s``), that call's
``timings_ms``, ``params`` as the CLI's ``leverage`` and ``cross``
documents build them (through ``cli._plan_params``), the tracemalloc peak
of one more call and a digest of its output (scores, pairs or transformed
rows). Every point runs in one worker process per ``--tree`` (default:
this checkout's ``src``), the trees taking turns going first, and
``same_output`` says per op whether the digests agree across the trees.
BLAS threads are capped at nproc and glibc keeps freed memory, as in
``benchmark/run.py``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# freed blocks stay in the heap between calls, as in benchmark/run.py
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}


def configure() -> None:
    """Cap BLAS threads at nproc and, unless they are set already, re-exec
    the running script with ``MALLOC_ENV`` set: BLAS reads its thread
    count when it loads, and glibc its malloc settings at start-up."""
    for var in BLAS_ENV:
        os.environ[var] = str(NPROC)
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **MALLOC_ENV})


if __name__ == "__main__":
    configure()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

GRID_N = (1 << 15, 1 << 16, 1 << 17, 10**6)
GRID_D = tuple(8 << i for i in range(9))  # 8, 16, ..., 2048
SEEDS = (0, 1, 2)
EPS = 0.5
SVD_MAX_BYTES = 1 << 29


def points(max_bytes: int):
    """Every (n, d, seed) of the grid whose float64 n x d input takes at
    most ``max_bytes``."""
    for n in GRID_N:
        for d in GRID_D:
            if n * d * 8 <= max_bytes:
                for seed in SEEDS:
                    yield n, d, seed


def environment() -> dict:
    """Library versions, the levsketch backend, CPU, thread count and malloc
    settings of the run, with the ``levsketch`` that ``sys.path`` finds."""
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


def planted_input(n: int, d: int, seed: int) -> np.ndarray:
    """The ``cross-pairs`` benchmark workload's input (``CrossPairs.generate``
    in ``benchmark/workloads.py``) at n x d."""
    bench = str(ROOT / "benchmark")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import CrossPairs
    return type("Grid", (CrossPairs,), {"n": n, "d": d}).generate(seed)


def measure(table: dict, reps: int) -> dict:
    """Each op's record, for a table of op name to ``(call, timings,
    summary)``: ``reps`` rounds of the whole table, so that a slow phase of
    the host shorter than a round cannot set every time of one op, each
    op keeping its best seconds (``total_s``) and ``timings(result)`` of
    that best call; then one more call of each op, run under tracemalloc
    for its peak in MiB, whose result ``summary`` reduces to the rest of
    the record."""
    best = dict.fromkeys(table, (math.inf, {}))
    for _ in range(reps):
        for name, (call, timings, _) in table.items():
            t0 = time.perf_counter()
            out = call()
            seconds = time.perf_counter() - t0
            if seconds < best[name][0]:
                best[name] = seconds, timings(out)
            out = None  # the last result goes before the next call
    records = {}
    for name, (call, _, summary) in table.items():
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        seconds, ms = best[name]
        records[name] = {"total_s": seconds, "timings_ms": ms,
                         "peak_mib": peak, **summary(out)}
        out = None
    return records


def digest(value) -> str:
    """A short hash of an array's bytes, or of any other value's repr."""
    data = (np.ascontiguousarray(value) if isinstance(value, np.ndarray)
            else repr(value).encode())
    return hashlib.sha256(data).hexdigest()[:16]


def max_rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """The largest |got - ref| / ref over the entries where ref > 0."""
    nz = ref > 0
    return float(np.max(np.abs(got[nz] - ref[nz]) / ref[nz]))


def recall(found, ref) -> float:
    """The share of ``ref``'s pairs that ``found`` holds (1 if none)."""
    want = ref.indices()
    return len(want & found.indices()) / len(want) if want else 1.0


def worker(src: str, n: int, d: int, seed: int, reps: int) -> dict:
    """The reference and the op table at (n, d, seed), with the levsketch
    under ``src``."""
    sys.path.insert(0, str(Path(src).resolve()))
    import levsketch
    from levsketch import _kernels, cli
    from levsketch.sketch import (SketchOperator, default_r1, make_plan,
                                  next_pow2)

    A = planted_input(n, d, seed)
    kappa = n * math.log(n)
    plans = {"default": make_plan(n, d, EPS),
             "exact": make_plan(n, d, EPS, r1=n, r2=d)}
    sizes = {name: r1 for name, r1 in (("r1", default_r1(n, d)),
                                       ("8d", 8 * d)) if r1 < n}
    plans.update({name: make_plan(n, d, EPS, r1=r1)
                  for name, r1 in sizes.items()})

    t0 = time.perf_counter()
    if n * d * 8 <= SVD_MAX_BYTES:
        kind, U = "thin_svd", levsketch.thin_svd(A).U
        ref_scores = np.einsum("ij,ij->i", U, U)
        ref_pairs = levsketch.heavy_pairs(U, kappa)
        del U
    else:
        kind, exact = "exact_plan", plans["exact"]
        ref_scores = levsketch.approx_leverage(A, exact, None)[0].scores
        ref_pairs = levsketch.approx_cross_leverage(A, exact, kappa, None)
    ref_pairs = ref_pairs.off_diagonal()
    reference = {"kind": kind, "total_s": time.perf_counter() - t0,
                 "pairs": len(ref_pairs)}

    def no_timings(out):
        return {}

    def leverage(plan):
        def summary(out):
            report, basis = out
            return {"params": {"estimator": "sketched", "n": n, "d": d,
                               **cli._plan_params(plan, {
                                   **report.extras, "route": basis.route})},
                    "err": max_rel_err(report.scores, ref_scores),
                    "digest": digest(report.scores)}
        return (lambda: levsketch.approx_leverage(A, plan, seed),
                lambda out: out[1].timings_ms, summary)

    def cross(exact):
        plan = plans["exact" if exact else "default"]

        def summary(hp):
            params = {"n": n, "d": d, "kappa": kappa, "exact": exact,
                      **cli._plan_params(plan, hp.extras)}
            if exact:  # as ``levsketch cross --exact-pairs`` reports
                del params["epsilon"]
            found = hp.off_diagonal()
            return {"params": params, "pairs": len(found),
                    "pair_recall": recall(found, ref_pairs),
                    "digest": digest((hp.pairs, hp.threshold,
                                      hp.candidates))}
        return (lambda: levsketch.approx_cross_leverage(A, plan, kappa, seed),
                lambda out: out.timings_ms, summary)

    n_pad = next_pow2(n)

    def srht(r):
        op = SketchOperator("SRHT", seed, n, r)
        log_g, columns = _kernels._group(n, d, r, n_pad)
        params = {"n": n, "d": d, "r1": r, "n_pad": n_pad,
                  "group": [1 << log_g, columns]}
        return (lambda: levsketch.apply_srht(op, A), no_timings,
                lambda PA: {"params": params, "digest": digest(PA)})

    def fwht():
        padded = np.zeros((n_pad, d))
        padded[:n] = A
        _kernels.fwht_inplace(padded)
        return padded

    table = {f"leverage_{name}": leverage(plan)
             for name, plan in plans.items()}
    table.update(cross_default=cross(False), cross_exact=cross(True))
    table.update({f"srht_{name}": srht(r) for name, r in sizes.items()})
    table["fwht"] = (fwht, no_timings, lambda padded: {
        "params": {"n": n, "d": d, "n_pad": n_pad},
        "digest": digest(padded)})
    return {"reference": reference, "ops": measure(table, reps)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_grid.json")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--max-bytes", type=int, default=1 << 30,
                    help="largest n d 8 in the grid")
    ap.add_argument("--tree", action="append", metavar="LABEL=SRC",
                    help="a levsketch source tree to measure; repeatable "
                         "(default: change=src of this checkout)")
    ap.add_argument("--worker", nargs=4, metavar=("SRC", "N", "D", "SEED"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")
    if args.worker:
        src, *point = args.worker
        run = worker(src, *map(int, point), args.reps)
        print(json.dumps([run, environment()]))
        return 0
    trees = dict(t.split("=", 1) for t in
                 (args.tree or [f"change={ROOT / 'src'}"]))
    entries, env = [], {}
    for n, d, seed in points(args.max_bytes):
        turn, runs = list(trees.items()), {}
        if len(entries) % 2:  # the trees take turns going first
            turn.reverse()
        for label, src in turn:
            proc = subprocess.run(
                [sys.executable, __file__, "--reps", str(args.reps),
                 "--worker", src, str(n), str(d), str(seed)],
                check=True, stdout=subprocess.PIPE, text=True)
            runs[label], env[label] = json.loads(proc.stdout.splitlines()[-1])
        ops = runs[turn[0][0]]["ops"]
        entries.append({
            "n": n, "d": d, "seed": seed, "kappa": n * math.log(n),
            "first": turn[0][0], "trees": {t: runs[t] for t in trees},
            "same_output": {op: len({runs[t]["ops"][op]["digest"]
                                     for t in trees}) == 1 for op in ops}})
        print(f"{n} x {d} seed {seed}: " + ", ".join(
            f"{op} {ops[op]['total_s']:.3g} s" for op in ops),
            file=sys.stderr, flush=True)
    doc = {"what": "leverage, cross-leverage and stage-1 ops on the "
                   f"cross-pairs planted input at eps {EPS}, kappa = n ln n: "
                   f"best of {args.reps} times, that call's timings_ms, "
                   "CLI params, tracemalloc peaks, err and pair_recall "
                   "against one thin SVD, per source tree",
           "environment": env, "reps": args.reps,
           "max_bytes": args.max_bytes, "eps": EPS, "seeds": list(SEEDS),
           "trees": list(trees), "entries": entries}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
