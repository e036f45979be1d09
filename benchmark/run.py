"""levsketch benchmark: sketched op vs exact baseline, closed loop.

Usage (from the repository root):

    python3 benchmark/run.py --workload tall-leverage --seed 1 --seconds 27 --trace 0

One process runs one call at a time. Setup (inputs, exact references and a
warm-up op) is done ``SETUPS`` times and its median reported; then, for
``--seconds``, each sketched op is followed by one exact baseline call on
the same input, and both outputs are checked against the exact reference.
With ``--trace 1`` untraced ops alternate with ops that run with spans
around levsketch's public functions, and the per-layer metrics are
reported instead. The last line of stdout is the JSON result; README.md
next to this file defines every metric.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The BLAS reads its thread count once, when numpy is first imported.
for _var in BLAS_ENV:
    os.environ[_var] = str(NPROC)

# glibc returns every block above 32 MB to the kernel when it is freed, so
# each op faults its large temporaries (about 600 MB on tall-leverage) back
# in, at a cost that follows the host's memory state and roughly doubled the
# spread of op times. With these settings freed memory stays in the heap and
# the next op reuses it; how much an op allocates still shows in peak_mem_mb.
# glibc reads them once, at start-up, so the script replaces itself (same
# process, no child) with a copy that has them set.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}
if __name__ == "__main__" and any(os.environ.get(k) != v
                                  for k, v in MALLOC_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, **MALLOC_ENV})

import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

SETUPS = 3
MIN_OPS = 11          # the tail needs ten samples above it
MAX_MEASURE_S = 120.0  # stop adding ops past this even below MIN_OPS
FLOOR = 2.0 ** -52    # float64 epsilon: smallest error or fraction reported


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import levsketch from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "levsketch" / "__init__.py").is_file():
        sys.exit(f"error: no levsketch sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import levsketch
    if Path(levsketch.__file__).resolve().parent != (src / "levsketch").resolve():
        sys.exit(f"error: imported levsketch from {levsketch.__file__}, not {src}")
    return levsketch


def cs_candidates(x: np.ndarray, threshold: float) -> int:
    """Number of row pairs (i <= j) with ||x_i||^2 ||x_j||^2 >= threshold.

    These are the pairs that clear the Cauchy-Schwarz test of the heavy-pair
    search, so a verified heavy pair is always among them. The squared norms
    are sorted once and each row finds its first partner with ``searchsorted``.
    """
    norms = np.sort(np.einsum("ij,ij->i", x, x))
    n = norms.size
    with np.errstate(divide="ignore"):
        need = threshold / norms
    first = np.searchsorted(norms, need, side="left")
    # partner j must also satisfy j >= i; count j in [max(first_i, i), n)
    start = np.maximum(first, np.arange(n))
    return int(np.sum(n - start))


def tail(samples):
    """Highest order statistic with at least ten samples above it.

    Returns ``(value, percentile)``; with ten or fewer samples no such
    statistic exists and the maximum is returned with percentile 100.
    """
    s = sorted(samples)
    k = len(s) - 11
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def environment(levsketch, used: dict) -> dict:
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "backend": levsketch.backend_name(),
            "blas_threads_cap": NPROC, "blas_env": BLAS_ENV, "nproc": NPROC,
            "malloc_env": {k: os.environ.get(k) for k in MALLOC_ENV},
            "cpu": cpu, "machine": platform.machine(), "sketch_used": used}


def capture_rules():
    """Values the tracer keeps per op, turned into counters afterwards."""
    return {
        "levscore.approx_leverage":
            lambda args, kw, res: (int(args[0].shape[0]), dict(res[0].extras)),
        "crosslev.heavy_pairs": lambda args, kw, res: (args[0], res),
        "underls.draw_sampling_matrix": lambda args, kw, res: res,
        "rankklev.power_q": lambda args, kw, res: int(res),
    }


def setup_once(W, seed, workdir):
    """Build one workload instance and warm it up; return (instance, used)."""
    w = W()
    w.setup(seed, workdir)
    tracer = tracing.Tracer(capture=capture_rules())
    with tracer.patched():
        w.op(-1)
    calls = tracer.captured.get(-1, {}).get("levscore.approx_leverage", [])
    used = {}
    if calls:
        n, extras = calls[-1]
        used = {"n": n, **{k: int(v) for k, v in extras.items()}}
    return w, used


def run_checked(w, i, failures, around=contextlib.nullcontext):
    """Time op ``i`` inside ``around()``, then check its output (untimed).

    An exception or a failed check is recorded in ``failures``.
    """
    t0 = time.perf_counter()
    try:
        with around():
            out = w.op(i)
    except Exception as exc:  # any raise is a failed op, not a crash
        dt = time.perf_counter() - t0
        failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        return dt, None
    dt = time.perf_counter() - t0
    check = w.check(i, out)
    if not check.ok:
        failures.append(f"op {i}: {check.reason}")
    return dt, check


def keep_going(t_start, seconds, done, cycle, min_ops=0):
    """Run for ``seconds``, then on to a whole input cycle and ``min_ops``."""
    elapsed = time.perf_counter() - t_start
    if done % cycle or elapsed < seconds:
        return True
    return done < min_ops and elapsed < MAX_MEASURE_S


def measure(w, seconds):
    """Untraced closed loop: each sketched op, then one baseline call."""
    lat, exact, checks, failures, bad_baselines = [], [], [], [], []
    t_start = time.perf_counter()
    i = 0
    while keep_going(t_start, seconds, i, w.cycle, MIN_OPS):
        dt, check = run_checked(w, i, failures)
        lat.append(dt)
        checks.append(check)
        t0 = time.perf_counter()
        out = w.baseline(i)
        exact.append(time.perf_counter() - t0)
        if not w.check_baseline(out):
            bad_baselines.append(i)
        i += 1
    return lat, exact, checks, failures, bad_baselines


def peak_memory_mb(w, i):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        w.op(i)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2.0**20


def end_to_end(w, seconds, setups):
    lat, exact, checks, failures, bad = measure(w, seconds)
    peak = peak_memory_mb(w, len(lat))
    done = [c for c in checks if c is not None]

    def errors(field):
        return [getattr(c, field) for c in done if getattr(c, field) is not None]

    def typical(field):
        """Median over ops of each op's error (the worst op goes in details)."""
        vals = errors(field)
        return max(statistics.median(vals), FLOOR) if vals else FLOOR

    recalls = [c.pair_recall for c in done if c.pair_recall is not None]
    tail_value, tail_pct = tail(lat)
    metrics = {
        "lat_s.p50": (statistics.median(lat), "s"),
        "lat_s.tail": (tail_value, "s"),
        "exact_s.p50": (statistics.median(exact), "s"),
        "max_rel_err": (typical("max_rel_err"), "ratio"),
        "pair_recall": (statistics.fmean(recalls) if recalls else 1.0, "frac"),
        "sol_rel_err": (typical("sol_rel_err"), "ratio"),
        "fail_frac": (max(len(failures) / len(lat), FLOOR), "frac"),
        "peak_mem_mb": (peak, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    details = {"ops": len(lat), "baselines": len(exact),
               "lat_samples_s": lat, "exact_samples_s": exact,
               "tail_percentile": tail_pct, "tail_samples": len(lat),
               "setup_runs_s": setups, "failures": failures,
               "worst_op_max_rel_err": max(errors("max_rel_err"), default=None),
               "worst_op_sol_rel_err": max(errors("sol_rel_err"), default=None),
               "bad_baselines": bad}
    return metrics, len(lat), len(failures), not bad, details


def per_layer(w, seconds, workdir, tag):
    """Alternate an untraced op with a traced op + baseline + probes."""
    import levsketch

    tracer = tracing.Tracer(capture=capture_rules())
    n = w.tall.shape[0]
    n_pad = 1 << (n - 1).bit_length()
    block = np.zeros((n_pad, w.tall.shape[1]))
    block[:n] = w.tall
    untraced, failures, bad, counters = [], [], [], {}
    t_start = time.perf_counter()
    k = 0
    while keep_going(t_start, seconds, k, w.cycle, min_ops=1):
        dt, _ = run_checked(w, k, failures)
        untraced.append(dt)
        with tracer.patched():
            run_checked(w, k, failures, lambda: tracer.span("bench.op", op=k))
            with tracer.span("bench.baseline"):
                base = w.baseline(k)
            with tracer.span("bench.probe"):
                levsketch.matcore.validate_matrix(w.input)
                levsketch.fwht(block)
        if not w.check_baseline(base):
            bad.append(k)
        counters[k] = op_counters(tracer.captured.pop(k, {}))
        k += 1
    dump = workdir / f"spans-{tag}.json"
    tracer.dump(dump)
    metrics = layer_metrics(tracer, counters, untraced, n_pad, w.tall.shape[1])
    details = {"traced_ops": k, "untraced_ops": len(untraced),
               "failures": failures, "bad_baselines": bad,
               "spans_file": os.path.relpath(dump, ROOT), "spans": len(tracer.spans)}
    return metrics, 2 * k, len(failures), not bad, details


def op_counters(captured):
    """Counters of one traced op from the values the tracer captured."""
    c = {}
    calls = captured.get("levscore.approx_leverage")
    if calls:
        n, extras = calls[-1]
        c["sketch.r1_over_n"] = extras["r1"] / n
        c["sketch.r2_over_rank"] = extras["r2"] / extras["rank"]
    for x, res in captured.get("crosslev.heavy_pairs", []):
        cands = cs_candidates(x, res.threshold)
        c["crosslev.pairs"] = c.get("crosslev.pairs", 0) + len(res)
        c["crosslev.cs_candidates"] = c.get("crosslev.cs_candidates", 0) + cands
    if c.get("crosslev.cs_candidates"):
        c["crosslev.hit_ratio"] = c["crosslev.pairs"] / c["crosslev.cs_candidates"]
    for s in captured.get("underls.draw_sampling_matrix", []):
        c["underls.sample_r_over_d"] = s.r / s.d
        c["underls.distinct_frac"] = np.unique(s.selected).size / s.r
    qs = captured.get("rankklev.power_q")
    if qs:
        c["rankklev.power_q"] = max(qs)
    return c


TIMED = {  # metric -> (root span, function span, "total" or "self")
    "sketch.srht_s": ("bench.op", "sketch.apply_srht", "total"),
    "sketch.sparse_jlt_s": ("bench.op", "sketch.apply_sparse_jlt", "total"),
    "levscore.approx_leverage_s": ("bench.op", "levscore.approx_leverage", "total"),
    "levscore.orth_s": ("bench.op", "levscore.build_orthogonalizer", "total"),
    "levscore.rest_s": ("bench.op", "levscore.approx_leverage", "self"),
    "matcore.exact_leverage_s": ("bench.baseline", "matcore.exact_leverage", "total"),
    "matcore.thin_svd_s": ("bench.baseline", "matcore.thin_svd", "total"),
    "matcore.validate_s": ("bench.probe", "matcore.validate_matrix", "total"),
    "crosslev.heavy_pairs_s": ("bench.op", "crosslev.heavy_pairs", "total"),
    "rankklev.frobenius_s": ("bench.op", "rankklev.frobenius_rankk", "total"),
    "rankklev.spectral_s": ("bench.op", "rankklev.spectral_rankk", "total"),
    "underls.probs_s": ("bench.op", "underls.leverage_probs_for_columns", "total"),
    "underls.solve_s": ("bench.op", "underls.underls_solve", "total"),
    "io.load_s": ("bench.op", "io.load_matrix", "total"),
}
COUNTED = {  # metric -> (root span, function span, error counted: class name,
             # "*" for any exception, None for every call)
    "levscore.retries": ("bench.op", "levscore.approx_leverage", "RankDeficient"),
    "rankklev.spectral_failures": ("bench.op", "rankklev.spectral_rankk", "*"),
    "matcore.validate_calls": ("bench.op", "matcore.validate_matrix", None),
}
CAPTURED = ("sketch.r1_over_n", "sketch.r2_over_rank", "crosslev.pairs",
            "crosslev.cs_candidates", "crosslev.hit_ratio", "rankklev.power_q",
            "underls.sample_r_over_d", "underls.distinct_frac")


def layer_metrics(tracer, counters, untraced, n_pad, d):
    """Per-layer values per traced op; times as medians, counts as means."""
    child = tracer.children_time()
    ops = {}
    for i, s in enumerate(tracer.spans):
        root = tracer.root_of(i)
        ops.setdefault(s.op, []).append((s, root.name, s.duration - child[i]))
    per_op = {}
    for k, rows in ops.items():
        v = {}
        for metric, (root, name, how) in TIMED.items():
            v[metric] = sum((s.duration if how == "total" else own)
                            for s, r, own in rows if r == root and s.name == name)
        for metric, (root, name, error) in COUNTED.items():
            v[metric] = sum(1 for s, r, _ in rows if r == root and s.name == name
                            and (error is None or s.error == error
                                 or (error == "*" and s.error is not None)))
        for layer in tracing.LAYERS:
            v[f"layer.{layer}.self_s"] = sum(
                own for s, r, own in rows if r == "bench.op" and s.layer == layer)
        v["cli.overhead_s"] = v["layer.cli.self_s"]
        v["trace.layer_sum_s"] = sum(v[f"layer.{la}.self_s"] for la in tracing.LAYERS)
        v["trace.op_s"] = next(s.duration for s, r, _ in rows
                               if s.name == "bench.op" and s.parent is None)
        fwht = [s.duration for s, r, _ in rows if s.name == "sketch.fwht"]
        v["sketch.fwht_elems_per_s"] = n_pad * d * (n_pad.bit_length() - 1) / sum(fwht)
        v.update({m: counters.get(k, {}).get(m, 0) for m in CAPTURED})
        per_op[k] = v
    names = sorted(next(iter(per_op.values())))
    counts = set(COUNTED) | {"crosslev.pairs", "crosslev.cs_candidates"}
    agg = {m: (statistics.fmean if m in counts else statistics.median)(
        [v[m] for v in per_op.values()]) for m in names}
    lat = statistics.median(untraced)
    agg["trace.untraced_op_s"] = lat
    agg["trace.gap_s"] = lat - agg["trace.layer_sum_s"]
    agg["trace.overhead_ratio"] = agg["trace.op_s"] / lat
    return {m: (val, UNITS.get(m) or unit_of(m)) for m, val in agg.items()}


UNITS = {"sketch.fwht_elems_per_s": "elem/s", "trace.overhead_ratio": "ratio",
         "rankklev.power_q": "count", "crosslev.hit_ratio": "ratio",
         "sketch.r1_over_n": "ratio", "sketch.r2_over_rank": "ratio",
         "underls.sample_r_over_d": "ratio", "underls.distinct_frac": "frac"}


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    levsketch = import_library()
    from workloads import WORKLOADS  # imports levsketch: after import_library

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    W = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # input files and CLI outputs live only as long as the run
    with tempfile.TemporaryDirectory(prefix=tag, dir=workdir) as scratch:
        setups = []
        for _ in range(SETUPS if args.trace == 0 else 1):
            t0 = time.perf_counter()
            w, used = setup_once(W, args.seed, Path(scratch))
            setups.append(time.perf_counter() - t0)
        if args.trace == 0:
            metrics, attempted, failed, correct, details = end_to_end(
                w, args.seconds, setups)
        else:
            metrics, attempted, failed, correct, details = per_layer(
                w, args.seconds, workdir, tag)

    env = environment(levsketch, used)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "details": details,
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    (workdir / f"result-{tag}.json").write_text(json.dumps(report, indent=2))
    for m, (v, u) in metrics.items():
        print(f"{m:32s} {v:>16.6g} {u}")
    print(json.dumps({"environment": env, "details": details}))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
