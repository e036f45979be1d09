"""Command-line front end.

Subcommands cover every library operation plus a benchmark harness. All
output documents share the schema {"params", "seed", "timings_ms",
"result"} with 0-based indices; runs with the same seed are byte-identical
apart from the timing fields.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import errors, io, matcore
from .crosslev import approx_cross_leverage, heavy_pairs
from .levscore import approx_leverage, coherence, mi_estimate
from .rankklev import frobenius_rankk, spectral_rankk
from .sketch import make_plan
from .underls import leverage_probs_for_columns, underls_solve

EXIT_OK = 0
EXIT_HARD = 1
EXIT_RETRY_EXHAUSTED = 2


def _default_seed() -> int:
    return int(os.environ.get("LEVSKETCH_SEED", "0"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input matrix file")
    p.add_argument("--format", default="auto",
                   choices=["auto", "matrix-market", "csv", "binary"])
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to $LEVSKETCH_SEED or 0")
    p.add_argument("--mode", default="practical", choices=["theory", "practical"])
    p.add_argument("--r1", type=int, default=None)
    p.add_argument("--r2", type=int, default=None)
    p.add_argument("--c1", type=float, default=20.0)
    p.add_argument("--c2", type=float, default=12.0)
    p.add_argument("--pi1", default="srht", choices=["srht", "fullrht"])
    p.add_argument("--pi2", default="sparse", choices=["sparse", "identity"])
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--output", "-o", default=None, help="write JSON/CSV here")
    p.add_argument("--output-format", default="json", choices=["json", "csv"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="levsketch",
        description="Sketched leverage scores, coherence, cross-leverage "
                    "heavy pairs, rank-k scores, and sampled least squares.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("leverage", help="sketched leverage scores (Algorithm 1 path)")
    _add_common(p)
    p.add_argument("--estimator", default="sketched",
                   choices=["sketched", "mi"])

    p = sub.add_parser("exact", help="exact leverage scores (factorization oracle)")
    _add_common(p)

    p = sub.add_parser("coherence", help="matrix coherence (max leverage score)")
    _add_common(p)
    p.add_argument("--method", default="exact", choices=["exact", "sketched"])

    p = sub.add_parser("cross", help="large cross-leverage heavy pairs")
    _add_common(p)
    p.add_argument("--kappa", default="nlogn",
                   help="threshold parameter > 1, or 'nlogn'")
    p.add_argument("--off-diagonal-only", action="store_true")
    p.add_argument("--exact-pairs", action="store_true",
                   help="run the heavy-pair search on the exact basis instead")

    p = sub.add_parser("rankk", help="rank-k normalized leverage scores")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--norm", default="frobenius", choices=["spectral", "frobenius"])
    p.add_argument("--q", type=int, default=None, help="power-iteration override")

    p = sub.add_parser("underls", help="sampled under-constrained least squares")
    _add_common(p)
    p.add_argument("--rhs", required=True, help="right-hand-side vector file")
    p.add_argument("--probs", default="exact", choices=["exact", "sketched"])
    p.add_argument("--beta", type=float, default=None,
                   help="override the probability quality factor")

    p = sub.add_parser("bench", help="exact-vs-sketched benchmark grid")
    p.add_argument("--n-grid", default="1024,2048,4096,8192")
    p.add_argument("--d-grid", default="8,16,32,64")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--mode", default="practical", choices=["theory", "practical"])
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--output-format", default="csv", choices=["json", "csv"])
    return ap


def _resolve_kappa(raw, n: int) -> float:
    if isinstance(raw, str) and raw.strip().lower() == "nlogn":
        return n * math.log(n)
    try:
        return float(raw)
    except ValueError:
        raise errors.InvalidParameter(f"bad --kappa value {raw!r}")


def _emit(doc: dict, args) -> None:
    payload = json.dumps(doc, sort_keys=True, indent=2, default=_json_default)
    if getattr(args, "output", None):
        if getattr(args, "output_format", "json") == "csv":
            _emit_csv(doc, args.output)
        else:
            with open(args.output, "w") as fh:
                fh.write(payload + "\n")
    else:
        print(payload)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _emit_csv(doc: dict, path: str) -> None:
    result = doc.get("result", {})
    with open(path, "w") as fh:
        if "rows" in result:  # bench table
            cols = result["columns"]
            fh.write(",".join(cols) + "\n")
            for row in result["rows"]:
                fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                  for v in row) + "\n")
        elif "pairs" in result:
            fh.write("i,j,c_sq\n")
            for i, j, c in result["pairs"]:
                fh.write(f"{i},{j},{c:.17g}\n")
        elif "solution" in result:
            fh.write("x\n")
            for v in result["solution"]:
                fh.write(f"{v:.17g}\n")
        else:
            fh.write("score\n")
            for v in result.get("scores", result.get("p_hat", [])):
                fh.write(f"{v:.17g}\n")


def _with_retries(fn, seed: int, retries: int):
    last = None
    for attempt in range(retries + 1):
        try:
            return fn(seed + attempt), seed + attempt
        except errors.RankDeficient as exc:
            last = exc
    raise _RetriesExhausted(str(last))


class _RetriesExhausted(errors.LevsketchError):
    pass


def _plan_for(args, n: int, d: int):
    return make_plan(n, d, epsilon=args.eps, delta=args.delta, mode=args.mode,
                     c1=args.c1, c2=args.c2, r1=args.r1, r2=args.r2,
                     pi1_kind=args.pi1, pi2_kind=args.pi2)


def _plan_params(plan) -> dict:
    return {"epsilon": plan.epsilon, "delta": plan.delta, "r1": plan.r1,
            "r2": plan.r2, "mode": plan.mode, "c1": plan.c1, "c2": plan.c2,
            "pi1_kind": plan.pi1_kind, "pi2_kind": plan.pi2_kind}


def _run_leverage(args) -> dict:
    A = io.load_matrix(args.input, args.format)
    seed = args.seed if args.seed is not None else _default_seed()
    timings: dict = {}
    if args.estimator == "mi":
        report = mi_estimate(A, seed)
        params = {"estimator": "mi", "r": report.extras["r"],
                  "n": A.shape[0], "d": A.shape[1]}
        used_seed = seed
    else:
        plan = _plan_for(args, *A.shape)
        (report, _), used_seed = _with_retries(
            lambda s: approx_leverage(A, plan, s, timings=timings),
            seed, args.retries)
        params = {"estimator": "sketched", "n": A.shape[0], "d": A.shape[1],
                  **_plan_params(plan)}
    return {"params": params, "seed": used_seed, "timings_ms": timings,
            "result": {"scores": report.scores, "coherence": report.coherence,
                       "normalized": report.normalized,
                       "method": report.method}}


def _run_exact(args) -> dict:
    A = io.load_matrix(args.input, args.format)
    report = matcore.exact_leverage(A)
    return {"params": {"n": A.shape[0], "d": A.shape[1],
                       "rank": report.extras["rank"]},
            "seed": args.seed if args.seed is not None else _default_seed(),
            "timings_ms": {},
            "result": {"scores": report.scores, "coherence": report.coherence,
                       "normalized": report.normalized, "method": "exact"}}


def _run_coherence(args) -> dict:
    doc = _run_exact(args) if args.method == "exact" else _run_leverage(args)
    gamma = coherence_from_doc(doc)
    doc["result"] = {"coherence": gamma, "method": args.method}
    return doc


def coherence_from_doc(doc: dict) -> float:
    return float(np.max(np.asarray(doc["result"]["scores"])))


def _run_cross(args) -> dict:
    A = io.load_matrix(args.input, args.format)
    n, d = A.shape
    seed = args.seed if args.seed is not None else _default_seed()
    kappa = _resolve_kappa(args.kappa, n)
    if args.exact_pairs:
        f = matcore.thin_svd(A)
        hp = heavy_pairs(f.U, kappa)
        if args.off_diagonal_only:
            hp = hp.off_diagonal()
        used_seed = seed
        params = {"n": n, "d": d, "kappa": kappa, "exact": True}
    else:
        plan = _plan_for(args, n, d)
        hp, used_seed = _with_retries(
            lambda s: approx_cross_leverage(
                A, plan, kappa, s, off_diagonal_only=args.off_diagonal_only),
            seed, args.retries)
        params = {"n": n, "d": d, "kappa": kappa, "exact": False,
                  **_plan_params(plan)}
    return {"params": params, "seed": used_seed, "timings_ms": {},
            "result": {"pairs": [[i, j, c] for i, j, c in hp.pairs],
                       "threshold": hp.threshold,
                       "gram_fro_sq": hp.gram_fro_sq}}


def _run_rankk(args) -> dict:
    A = io.load_matrix(args.input, args.format)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.norm == "spectral":
        fn = lambda s: spectral_rankk(A, args.k, args.eps, s, q_override=args.q)
    else:
        fn = lambda s: frobenius_rankk(A, args.k, args.eps, s)
    report, used_seed = _with_retries(fn, seed, args.retries)
    return {"params": {"n": A.shape[0], "d": A.shape[1], "k": args.k,
                       "norm": args.norm, "epsilon": args.eps, "q": args.q,
                       "beta_claim": report.beta_claim},
            "seed": used_seed, "timings_ms": {},
            "result": {"p_hat": report.p_hat, "k": report.k,
                       "norm": report.norm}}


def _run_underls(args) -> dict:
    A = io.load_matrix(args.input, args.format)
    b = io.load_matrix(args.rhs, args.format).reshape(-1)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.probs == "exact":
        p = leverage_probs_for_columns(A, "exact")
    else:
        plan = _plan_for(args, A.shape[1], A.shape[0])
        p = leverage_probs_for_columns(A, "sketched", plan=plan, seed=seed)
    if args.beta is not None:
        p.beta = args.beta
    x, used_seed = _with_retries(
        lambda s: underls_solve(A, b, p, args.eps, args.delta, s),
        seed, args.retries)
    residual = float(np.linalg.norm(A @ x - b))
    return {"params": {"n": A.shape[0], "d": A.shape[1], "epsilon": args.eps,
                       "delta": args.delta, "beta": p.beta,
                       "probs": args.probs},
            "seed": used_seed, "timings_ms": {},
            "result": {"solution": x, "residual": residual}}


def _run_bench(args) -> dict:
    seed = args.seed if args.seed is not None else _default_seed()
    n_grid = [int(v) for v in args.n_grid.split(",")]
    d_grid = [int(v) for v in args.d_grid.split(",")]
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_grid:
        for d in d_grid:
            if n <= d:
                continue
            A = rng.standard_normal((n, d))
            t0 = time.perf_counter()
            exact = matcore.exact_leverage(A)
            t_exact = (time.perf_counter() - t0) * 1e3
            plan = make_plan(n, d, epsilon=args.eps, mode=args.mode)
            t_sk = 0.0
            max_err = 0.0
            for trial in range(args.trials):
                t0 = time.perf_counter()
                report, _ = approx_leverage(A, plan, seed + trial)
                t_sk += (time.perf_counter() - t0) * 1e3
                nz = exact.scores > 0
                max_err = max(max_err, float(np.max(
                    np.abs(report.scores[nz] - exact.scores[nz])
                    / exact.scores[nz])))
            rows.append([n, d, t_exact, t_sk / args.trials, max_err])
    return {"params": {"eps": args.eps, "mode": args.mode,
                       "trials": args.trials},
            "seed": seed, "timings_ms": {},
            "result": {"columns": ["n", "d", "exact_ms", "sketched_ms",
                                   "max_rel_err"],
                       "rows": rows}}


_RUNNERS = {"leverage": _run_leverage, "exact": _run_exact,
            "coherence": _run_coherence, "cross": _run_cross,
            "rankk": _run_rankk, "underls": _run_underls,
            "bench": _run_bench}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _RUNNERS[args.command](args)
    except _RetriesExhausted as exc:
        print(f"error: rank-deficient sketch after retries: {exc}",
              file=sys.stderr)
        return EXIT_RETRY_EXHAUSTED
    except errors.LevsketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD
    _emit(doc, args)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
