"""Command-line front end.

Subcommands cover every library operation. All output documents share
the schema {"params", "seed", "retried", "timings_ms", "result"} with
0-based indices; runs with the same seed are byte-identical apart from
the timing fields, and runs that draw nothing report a null seed: ``exact``,
``coherence --method exact``, ``cross --exact-pairs``, and ``leverage``
and ``cross`` on a plan that samples no rows and projects nothing
(r1 >= n, r2 >= d), the gram route included. ``leverage`` and ``cross``
list the plan's sizes and route ("gram" or "sketch", see ``make_plan``)
in ``params`` and, under ``params.run``, the rank and the r1 and r2 the
sketch used and the orthogonalizer's route; ``cross --exact-pairs`` runs
the same search on the exact plan r1 = n, r2 = d, whatever ``--eps``,
``--r1`` and ``--r2`` say, on an input of any shape, and lists it the
same way without an epsilon. ``rankk`` lists there the
report's extras (q and rank for spectral; width r, rank and route for
Frobenius) and ``underls`` the number of draws r, of distinct columns
drawn and the route; ``underls --probs sketched`` also lists the plan's
route in ``params``.
``retried`` lists, in order, each seed a run gave up on because its
sketch lost rank, as {"seed": s, "error": message}; it is empty where the
first seed served, and always for ``exact``, ``rankk`` and ``leverage
--estimator mi``, which make one attempt.
``--format`` names the input matrix's format; ``underls`` reads its
``--rhs`` file in the format that file's suffix names, or in ``--format``
where the suffix names none.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import errors, io, matcore
from .crosslev import approx_cross_leverage
from .levscore import approx_leverage, mi_estimate
from .rankklev import frobenius_rankk, spectral_rankk
from .sketch import make_plan
from .underls import leverage_probs_for_columns, underls_solve

EXIT_OK = 0
EXIT_HARD = 1
EXIT_RETRY_EXHAUSTED = 2


def _add_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input matrix file")
    p.add_argument("--format", default="auto",
                   choices=["auto", "matrix-market", "csv", "binary"])
    p.add_argument("--output", "-o", default=None, help="write JSON/CSV here")
    p.add_argument("--output-format", default="json", choices=["json", "csv"])


def _add_sketch(p: argparse.ArgumentParser, plan: bool = True) -> None:
    """--seed and --eps, and with ``plan`` --retries and the sketch plan's
    sizes."""
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to $LEVSKETCH_SEED or 0")
    p.add_argument("--eps", type=float, default=0.5)
    if plan:
        p.add_argument("--retries", type=int, default=3)
        p.add_argument("--r1", type=int, default=None)
        p.add_argument("--r2", type=int, default=None)


@functools.cache  # parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="levsketch",
        description="Sketched leverage scores, coherence, cross-leverage "
                    "heavy pairs, rank-k scores, and sampled least squares.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("leverage", help="sketched leverage scores (Algorithm 1 path)")
    _add_io(p)
    _add_sketch(p)
    p.add_argument("--estimator", default="sketched",
                   choices=["sketched", "mi"])

    p = sub.add_parser("exact", help="exact leverage scores (factorization oracle)")
    _add_io(p)

    p = sub.add_parser("coherence", help="matrix coherence (max leverage score)")
    _add_io(p)
    _add_sketch(p)
    p.add_argument("--method", default="exact", choices=["exact", "sketched"])
    p.set_defaults(estimator="sketched")  # what --method sketched runs

    p = sub.add_parser("cross", help="large cross-leverage heavy pairs")
    _add_io(p)
    _add_sketch(p)
    p.add_argument("--kappa", default="nlogn",
                   help="threshold parameter > 1, or 'nlogn'")
    p.add_argument("--off-diagonal-only", action="store_true")
    p.add_argument("--exact-pairs", action="store_true",
                   help="search the exact plan's basis (r1 = n, r2 = d)")

    p = sub.add_parser("rankk", help="rank-k normalized leverage scores")
    _add_io(p)
    _add_sketch(p, plan=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--norm", default="frobenius", choices=["spectral", "frobenius"])
    p.add_argument("--q", type=int, default=None, help="power-iteration override")

    p = sub.add_parser("underls", help="sampled under-constrained least squares")
    _add_io(p)
    _add_sketch(p)
    p.add_argument("--rhs", required=True,
                   help="right-hand-side vector file (format from its suffix, "
                        "else --format)")
    p.add_argument("--probs", default="exact", choices=["exact", "sketched"])
    p.add_argument("--beta", type=float, default=None,
                   help="override the probability quality factor")
    p.add_argument("--delta", type=float, default=0.1)
    return ap


def _parse(cast, raw: str, what: str):
    """``cast(raw)``, or ``InvalidParameter`` naming ``what`` and ``raw``."""
    try:
        return cast(raw)
    except ValueError:
        raise errors.InvalidParameter(f"bad {what} value {raw!r}") from None


def _resolve_kappa(raw, n: int) -> float:
    if isinstance(raw, str) and raw.strip().lower() == "nlogn":
        return n * math.log(n)
    return _parse(float, raw, "--kappa")


def _emit(doc: dict, args) -> None:
    output = getattr(args, "output", None)
    if output and getattr(args, "output_format", "json") == "csv":
        _emit_csv(doc, output)
    elif output:
        with open(output, "w") as fh:
            _write_json(doc, fh)
    else:
        _write_json(doc, sys.stdout)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


_MARK = "\0levsketch-streamed\0"  # stands for a streamed value in the skeleton
_CHUNK = 4096  # array values or pairs formatted at a time


class _Pairs:
    """``result.pairs`` in the skeleton: (i, j, value) rows to stream."""

    def __init__(self, rows):
        self.rows = rows


def _write_json(doc: dict, fh) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline to
    ``fh``, byte for byte, without the whole text: each non-empty 1-d
    float64 array, and a non-empty ``result.pairs``, is left out of the
    dumped skeleton and written in chunks of ``_CHUNK`` values or pairs
    in its place."""
    streamed = []

    def default(obj):
        if isinstance(obj, _Pairs) or (
                isinstance(obj, np.ndarray) and obj.dtype == np.float64
                and obj.ndim == 1 and obj.size):
            streamed.append(obj)
            return _MARK
        return _json_default(obj)

    result = doc.get("result")
    if isinstance(result, dict) and result.get("pairs"):
        doc = {**doc, "result": {**result, "pairs": _Pairs(result["pairs"])}}
    skeleton = json.dumps(doc, sort_keys=True, indent=2, default=default)
    parts = skeleton.split(json.dumps(_MARK))
    for text, value in zip(parts, streamed):
        fh.write(text)
        line = text[text.rfind("\n") + 1:]
        indent = len(line) - len(line.lstrip(" "))
        if isinstance(value, _Pairs):
            _write_pairs(fh, value.rows, indent)
        else:
            _write_floats(fh, value, indent)
    fh.write(parts[-1] + "\n")


def _float_texts(values: np.ndarray):
    """``json``'s text of each float in ``values``: ``float.__repr__``,
    and ``NaN``, ``Infinity`` and ``-Infinity`` where not finite."""
    return map(float.__repr__ if np.isfinite(values).all() else json.dumps,
               values.tolist())


def _write_floats(fh, values: np.ndarray, indent: int) -> None:
    """A non-empty float array as ``json`` indents it on a line indented
    by ``indent``: each value on its own line."""
    sep = ",\n" + " " * (indent + 2)
    fh.write("[")
    for i in range(0, values.size, _CHUNK):
        fh.write(sep[1:] if i == 0 else sep)
        fh.write(sep.join(_float_texts(values[i:i + _CHUNK])))
    fh.write("\n" + " " * indent + "]")


def _write_pairs(fh, rows, indent: int) -> None:
    """A non-empty list of (i, j, value) pairs as ``json`` indents it on a
    line indented by ``indent``: each pair a list of two ints and a float,
    one item per line."""
    sep = ",\n" + " " * (indent + 2)
    item = sep + "  "
    pair = ("[" + item[1:] + "%d" + item + "%d" + item + "%s\n"
            + " " * (indent + 2) + "]")
    fh.write("[")
    for k in range(0, len(rows), _CHUNK):
        chunk = rows[k:k + _CHUNK]
        texts = _float_texts(np.array([c for _, _, c in chunk], np.float64))
        fh.write(sep[1:] if k == 0 else sep)
        fh.write(sep.join([pair % (i, j, t)
                           for (i, j, _), t in zip(chunk, texts)]))
    fh.write("\n" + " " * indent + "]")


def _emit_csv(doc: dict, path: str) -> None:
    """Write the result's rows as CSV, every float in ``%.17g``, in chunks
    of ``_CHUNK`` lines."""
    result = doc.get("result", {})
    with open(path, "w") as fh:
        if "pairs" in result:
            fh.write("i,j,c_sq\n")
            _write_lines(fh, result["pairs"], "%s,%s,%.17g\n")
        elif "solution" in result:
            fh.write("x\n")
            _write_lines(fh, np.asarray(result["solution"]), "%.17g\n")
        elif "coherence" in result and "scores" not in result:
            fh.write("coherence\n%.17g\n" % result["coherence"])
        else:
            fh.write("score\n")
            scores = result.get("scores", result.get("p_hat", []))
            _write_lines(fh, np.asarray(scores), "%.17g\n")


def _write_lines(fh, rows, line: str) -> None:
    """``line % row`` for each of ``rows``, a float array or a list of
    (i, j, value) pairs, ``_CHUNK`` lines at a time."""
    for i in range(0, len(rows), _CHUNK):
        chunk = rows[i:i + _CHUNK]
        values = (chunk.tolist() if isinstance(chunk, np.ndarray)
                  else [v for row in chunk for v in row])
        fh.write((line * len(chunk)) % tuple(values))


def _with_retries(fn, args, plan=None, shape=None):
    """(fn(seed), seed, retried) for the first seed from ``--seed`` on, one
    per attempt, at which ``fn`` does not raise ``RankDeficient``;
    ``retried`` lists each seed given up on before it, as {"seed": s,
    "error": message}. A ``plan`` that samples no rows of the n x d input
    of ``shape`` (r1 >= n) makes one attempt, as no seed changes the rank
    it finds; its ``RankDeficient`` (a numerically zero A) is a hard
    error. Where it projects nothing either (r2 >= d) it draws nothing,
    and its seed is None."""
    if plan is not None and plan.r1 >= shape[0]:
        seed = args.seed if plan.r2 < shape[1] else None
        return fn(seed), seed, []
    retried = []
    for seed in range(args.seed, args.seed + args.retries + 1):
        try:
            return fn(seed), seed, retried
        except errors.RankDeficient as exc:
            retried.append({"seed": seed, "error": str(exc)})
    raise _RetriesExhausted(retried[-1]["error"])


class _RetriesExhausted(errors.LevsketchError):
    pass


def _plan_for(args, n: int, d: int):
    return make_plan(n, d, epsilon=args.eps, r1=args.r1, r2=args.r2)


def _plan_params(plan, extras: dict) -> dict:
    """The plan's sizes and route, and under ``run`` the sizes the sketch
    used and the orthogonalizer's route."""
    return {"epsilon": plan.epsilon, "r1": plan.r1, "r2": plan.r2,
            "route": plan.route,
            "run": {k: extras[k] for k in ("rank", "r1", "r2", "route")}}


def _scores_result(report) -> dict:
    return {"scores": report.scores, "coherence": report.coherence,
            "normalized": report.normalized, "method": report.method}


def _run_leverage(args, A, result=_scores_result) -> dict:
    if args.estimator == "mi":
        report = mi_estimate(A, args.seed)
        params = {"estimator": "mi", "r": report.extras["r"],
                  "n": A.shape[0], "d": A.shape[1]}
        used_seed, retried, timings = args.seed, [], {}
    else:
        plan = _plan_for(args, *A.shape)
        (report, basis), used_seed, retried = _with_retries(
            lambda s: approx_leverage(A, plan, s), args, plan, A.shape)
        params = {"estimator": "sketched", "n": A.shape[0], "d": A.shape[1],
                  **_plan_params(plan, {**report.extras,
                                        "route": basis.route})}
        timings = basis.timings_ms
    return {"params": params, "seed": used_seed, "retried": retried,
            "timings_ms": timings, "result": result(report)}


def _run_exact(args, A, result=_scores_result) -> dict:
    report = matcore.exact_leverage(A)
    return {"params": {"n": A.shape[0], "d": A.shape[1],
                       "rank": report.extras["rank"]},
            "seed": None, "retried": [], "timings_ms": {},
            "result": result(report)}


def _run_coherence(args, A) -> dict:
    # the report's coherence alone: reading ``normalized`` would form a
    # second n-vector that the document drops
    run = _run_exact if args.method == "exact" else _run_leverage
    return run(args, A, lambda report: {"coherence": report.coherence,
                                        "method": args.method})


def _run_cross(args, A) -> dict:
    n, d = A.shape
    kappa = _resolve_kappa(args.kappa, n)
    # the exact plan's A R^{-1} spans A's range orthonormally, and its
    # Q Q^T is the thin SVD's U U^T: the exact pairs need no SVD. Its
    # epsilon sizes nothing, so --eps is neither read nor reported.
    plan = (make_plan(n, d, 0.5, r1=n, r2=d) if args.exact_pairs
            else _plan_for(args, n, d))
    hp, used_seed, retried = _with_retries(
        lambda s: approx_cross_leverage(A, plan, kappa, s), args, plan,
        A.shape)
    params = {"n": n, "d": d, "kappa": kappa, "exact": args.exact_pairs,
              **_plan_params(plan, hp.extras)}
    if args.exact_pairs:
        del params["epsilon"]
    if args.off_diagonal_only:
        hp = hp.off_diagonal()
    return {"params": params, "seed": used_seed, "retried": retried,
            "timings_ms": hp.timings_ms,
            "result": {"pairs": hp.pairs,
                       "threshold": hp.threshold,
                       "gram_fro_sq": hp.gram_fro_sq,
                       "candidates": hp.candidates}}


def _run_rankk(args, A) -> dict:
    # One attempt: a rank-k sketch loses rank only where A has too little,
    # and no seed changes that (both estimators raise RankTooLow).
    if args.norm == "spectral":
        report = spectral_rankk(A, args.k, args.eps, args.seed,
                                q_override=args.q)
    else:
        report = frobenius_rankk(A, args.k, args.eps, args.seed)
    return {"params": {"n": A.shape[0], "d": A.shape[1], "k": args.k,
                       "norm": args.norm, "epsilon": args.eps, "q": args.q,
                       "beta_claim": report.beta_claim,
                       "run": report.extras},
            "seed": args.seed, "retried": [], "timings_ms": {},
            "result": {"p_hat": report.p_hat, "k": report.k,
                       "norm": report.norm}}


def _rhs_format(args) -> str:
    """The rhs file's format: the one its suffix names, else ``--format``."""
    try:
        return io.infer_format(args.rhs)
    except errors.ParseError:
        return args.format


def _run_underls(args, A) -> dict:
    b = io.load_matrix(args.rhs, _rhs_format(args)).reshape(-1)
    plan = (_plan_for(args, A.shape[1], A.shape[0])
            if args.probs == "sketched" else None)
    run: dict = {}

    def attempt(seed):  # the probabilities and the draws share one seed
        p = leverage_probs_for_columns(A, args.probs, plan=plan, seed=seed)
        if args.beta is not None:
            p.beta = args.beta
        return p, underls_solve(A, b, p, args.eps, args.delta, seed,
                                extras=run)

    (p, x), used_seed, retried = _with_retries(attempt, args)
    residual = float(np.linalg.norm(A @ x - b))
    params = {"n": A.shape[0], "d": A.shape[1], "epsilon": args.eps,
              "delta": args.delta, "beta": p.beta, "probs": args.probs,
              "run": run}
    if plan is not None:
        params["route"] = plan.route
    return {"params": params, "seed": used_seed, "retried": retried,
            "timings_ms": {},
            "result": {"solution": x, "residual": residual}}


_RUNNERS = {"leverage": _run_leverage, "exact": _run_exact,
            "coherence": _run_coherence, "cross": _run_cross,
            "rankk": _run_rankk, "underls": _run_underls}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "retries", 0) < 0:  # exact and rankk never retry
            raise errors.InvalidParameter(
                f"--retries must be >= 0, got {args.retries}")
        if getattr(args, "seed", 0) is None:  # ``exact`` draws nothing
            args.seed = _parse(int, os.environ.get("LEVSKETCH_SEED", "0"),
                               "$LEVSKETCH_SEED")
        doc = _RUNNERS[args.command](args, io.load_matrix(args.input,
                                                          args.format))
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
