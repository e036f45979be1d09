"""Acceptance gate: one test per release criterion.

Each test emits a single ``[acceptance NN] name: PASS|FAIL`` line (printed
in the end-of-run summary, outside pytest's capture) and then asserts, so
the suite fails loudly if any criterion regresses.
"""

import json
import math
import os
import time

import numpy as np

from levsketch import (
    SketchOperator,
    apply_sparse_jlt,
    apply_srht,
    approx_cross_leverage,
    approx_leverage,
    exact_cross_leverage,
    exact_leverage,
    fjlt_dim,
    frobenius_rankk,
    frobenius_sketch_matrix,
    fwht,
    hadamard_matrix,
    heavy_pairs,
    jlt_dim,
    make_plan,
    spectral_sketch_matrix,
    underls_solve,
)
from levsketch.cli import main
from levsketch.crosslev import heavy_pairs_brute
from levsketch.sketch import next_pow2

import conftest
from levsketch.io import save_matrix
from levsketch.underls import leverage_probs_for_columns

EPS = 0.5


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    conftest.record_verdict(line)
    assert ok, line


def degenerate_plan(n: int, d: int):
    # r1 = n factors A itself and r2 = d skips stage 2: the plan is exact
    return make_plan(n, d, EPS, r1=n, r2=d)


# ------------------------------------------------------------------ 1

def test_criterion_01_degenerate_exactness():
    rng = np.random.default_rng(1)
    shapes = [(4096, 64), (4096, 16), (2048, 32), (1024, 64), (512, 8)]
    shapes += [(int(rng.integers(65, 4097)), int(rng.integers(2, 65)))
               for _ in range(15)]
    start = time.perf_counter()
    worst = 0.0
    for trial, (n, d) in enumerate(shapes):
        A = np.random.default_rng(trial).standard_normal((n, d))
        report, _ = approx_leverage(A, degenerate_plan(n, d), seed=trial)
        exact = exact_leverage(A).scores
        worst = max(worst, float(np.max(np.abs(report.scores - exact))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(1, "degenerate sketch equals exact leverage", ok,
            f"max abs err {worst:.2e}, {elapsed:.1f}s for 20 matrices")


# ------------------------------------------------------------------ 2

def _family(name: str, seed: int, n: int = 2048, d: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if name == "gaussian":
        return rng.standard_normal((n, d))
    if name == "spiked":
        A = rng.standard_normal((n, d))
        A[rng.choice(n, size=4, replace=False)] *= 100.0
        return A
    return hadamard_matrix(n)[:, :d].copy()


def test_criterion_02_relative_error_half():
    # Every case is on the sketch route: the default sizes, passed
    # explicitly, or r1 = 512. At 2048 x 16 the default sizes are exact
    # (r1 = n, r2 >= rank), so two more loops keep the sketch under test:
    # stage 1 pinned to r1 = 512, and 1024 x 384, where the default
    # r2 = 333 < rank compresses stage 2.
    cases = [("default 2048x16", 2048, 16, {}),
             ("r1=512 2048x16", 2048, 16, {"r1": 512}),
             ("default 1024x384", 1024, 384, {})]
    details = []
    ok = True
    for label, n, d, overrides in cases:
        plan = conftest.sketch_plan(n, d, EPS, **overrides)
        wins_by_family = []
        worst = 0.0
        for family in ("gaussian", "spiked", "hadamard"):
            A = _family(family, 2024, n, d)
            exact = exact_leverage(A).scores
            wins = 0
            for seed in range(20):
                report, _ = approx_leverage(A, plan, seed=seed)
                rel = np.max(np.abs(report.scores - exact) / exact)
                wins += rel <= EPS
                worst = max(worst, float(rel))
            wins_by_family.append(f"{family} {wins}/20")
            ok = ok and wins >= 16
        details.append(f"{label}: " + ", ".join(wins_by_family)
                       + f", worst {worst:.2f}")
    _report(2, "sketched scores within 50% relative error", ok,
            "; ".join(details))


# ------------------------------------------------------------------ 3

def _naive_hadamard(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    if n == 1:
        return x.copy()
    half = _naive_hadamard(x[: n // 2]), _naive_hadamard(x[n // 2:])
    return np.concatenate([half[0] + half[1], half[0] - half[1]]) / math.sqrt(2)


def test_criterion_03_fwht_equals_naive():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (2 ** p for p in range(1, 14)):
        for _ in range(5):
            x = rng.standard_normal(n)
            worst = max(worst, float(np.max(np.abs(fwht(x) - _naive_hadamard(x)))))
    _report(3, "fast transform matches naive recursion", worst <= 1e-12,
            f"max abs err {worst:.2e}")


# ------------------------------------------------------------------ 4

def test_criterion_04_heavy_pair_oracle():
    rng = np.random.default_rng(4)
    ok = True
    checked = 0
    for _ in range(34):
        n = int(rng.integers(10, 201))
        r = int(rng.integers(1, 11))
        X = rng.standard_normal((n, r))
        if rng.random() < 0.3:  # plant correlated rows so sets are non-empty
            X[1] = X[0] * 3.0
        for kappa in (2.0, 10.0, n * math.log(n)):
            fast = heavy_pairs(X, kappa)
            brute = heavy_pairs_brute(X, kappa)
            ok = ok and fast.indices() == brute.indices()
            ok = ok and len(fast) <= math.ceil(kappa * r)
            checked += 1
    _report(4, "two-pointer heavy pairs equal brute force", ok,
            f"{checked} instances")


# ------------------------------------------------------------------ 5

def _planted(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((512, 8))
    A[7] = A[3]
    A[3] *= 25.0
    A[7] *= 25.0
    return A


def test_criterion_05_planted_pair_recovery():
    A = _planted(0)
    n, d = A.shape
    kappa = n * math.log(n)
    exact = exact_leverage(A).scores
    C = exact_cross_leverage(A)
    # the default sizes, pinned to the sketch route, have r1 = n here;
    # r1 = 128 keeps the SRHT under test
    plans = [("default", conftest.sketch_plan(n, d, EPS)),
             ("r1=128", make_plan(n, d, EPS, r1=128))]
    ok = True
    details = []
    for label, plan in plans:
        hits = 0
        sound = True
        validated = 0
        for seed in range(20):
            # degenerate-exactness cross-check: the pipeline must reproduce
            # the exact scores before this trial's output is held to the
            # soundness bound
            degen, _ = approx_leverage(A, degenerate_plan(n, d), seed=seed)
            valid = np.max(np.abs(degen.scores - exact)) <= 1e-9
            hp = approx_cross_leverage(A, plan, kappa,
                                       seed=seed).off_diagonal()
            hits += (3, 7) in hp.indices()
            if valid:
                validated += 1
                for i, j, _ in hp.pairs:
                    floor = d / kappa - 30.0 * EPS * exact[i] * exact[j]
                    sound = sound and C[i, j] ** 2 >= floor - 1e-12
        ok = ok and hits >= 16 and sound and validated == 20
        details.append(f"{label}: hits {hits}/20, {validated} validated "
                       f"trials, sound: {sound}")
    _report(5, "planted heavy pair recovered, no light pair returned", ok,
            "; ".join(details))


# ------------------------------------------------------------------ 6 & 7

def _rankk_instance(seed: int, n: int = 200, d: int = 200, k: int = 5):
    rng = np.random.default_rng(seed)
    spikes = rng.standard_normal((n, k)) @ rng.standard_normal((k, d))
    return rng.standard_normal((n, d)) + 3.0 * spikes


def test_criterion_06_frobenius_rankk():
    k = 5
    consistent = True
    wins = 0
    for seed in range(20):
        A = _rankk_instance(seed)
        report = frobenius_rankk(A, k, EPS, seed=seed)
        left, (lf, rf) = frobenius_sketch_matrix(A, k, EPS, seed=seed)
        X = lf @ rf
        consistent = consistent and np.max(
            np.abs(report.p_hat * k - exact_leverage(X).scores)) <= 1e-8
        s = np.linalg.svd(A, compute_uv=False)
        best = math.sqrt(float(np.sum(s[k:] ** 2)))
        wins += np.linalg.norm(A - X, "fro") <= 1.5 * best
    ok = consistent and wins >= 14
    _report(6, "frobenius rank-k scores exact for X, residual near best",
            ok, f"residual wins {wins}/20")


def test_criterion_07_spectral_rankk():
    k = 5
    wins = 0
    for seed in range(20):
        A = _rankk_instance(seed)
        _, X = spectral_sketch_matrix(A, k, EPS, seed=seed)
        s = np.linalg.svd(A, compute_uv=False)
        wins += np.linalg.norm(A - X, 2) <= 1.5 * s[k]
    _report(7, "spectral rank-k residual near best", wins >= 14,
            f"residual wins {wins}/20")


# ------------------------------------------------------------------ 8

def test_criterion_08_underconstrained_least_squares():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((8, 400))
        b = rng.standard_normal(8)
        p = leverage_probs_for_columns(A, method="exact")
        x_opt = np.linalg.pinv(A) @ b
        x_tilde = underls_solve(A, b, p, EPS, 0.1, seed=seed)
        wins += np.linalg.norm(x_tilde - x_opt) <= np.linalg.norm(x_opt)
    exact_1d = True
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        A = rng.standard_normal((1, 400))
        b = rng.standard_normal(1)
        p = leverage_probs_for_columns(A, method="exact")
        x_opt = np.linalg.pinv(A) @ b
        x_tilde = underls_solve(A, b, p, EPS, 0.1, seed=seed)
        exact_1d = exact_1d and \
            np.linalg.norm(x_tilde - x_opt) <= 1e-12 * max(1.0, np.linalg.norm(x_opt))
    ok = wins >= 18 and exact_1d
    _report(8, "sampled least squares close to minimal-norm solution", ok,
            f"wins {wins}/20, single-row case exact: {exact_1d}")


# ------------------------------------------------------------------ 9

def test_criterion_09_projection_property_suites():
    n, d = 1024, 4
    m = 30
    r_jlt = jlt_dim(m, EPS, 0.1)
    r_fjlt = fjlt_dim(n, d, EPS)
    passes = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # norm preservation of a fixed point set under the sparse projection
        P = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0, size=(m, 1))
        op = SketchOperator("SparseJLT", seed=seed, in_dim=n, out_dim=r_jlt)
        sk = apply_sparse_jlt(op, P)
        ratios = (np.linalg.norm(sk, axis=1) / np.linalg.norm(P, axis=1)) ** 2
        jlt_ok = np.all(ratios >= 1 - EPS) and np.all(ratios <= 1 + EPS)
        # singular-value preservation for an orthonormal basis under SRHT
        U, _ = np.linalg.qr(rng.standard_normal((n, d)))
        srht = SketchOperator("SRHT", seed=seed, in_dim=n,
                              out_dim=min(r_fjlt, next_pow2(n)))
        PU = apply_srht(srht, U)
        fjlt_ok = np.linalg.norm(np.eye(d) - PU.T @ PU, 2) <= EPS
        passes += jlt_ok and fjlt_ok
    _report(9, "projection norm and singular-value guarantees", passes >= 18,
            f"passes {passes}/20, r_jlt={r_jlt}, r_fjlt={r_fjlt}")


# ------------------------------------------------------------------ 10

def _best_time(fn, warm_s: float = 1.0, reps: int = 5) -> float:
    """Best of ``reps`` timed calls of ``fn``, after untimed calls for at
    least ``warm_s`` seconds. After a minute idle, a 2-CPU VM ran every
    two-thread BLAS call at about 16 ms for its first second of work;
    that floor inflates the smallest sizes most and pulled slope_n to
    0.05-0.31 with 3 calls, or with 0.2 s of warm-up calls, per size."""
    end = time.perf_counter() + warm_s
    while time.perf_counter() < end:
        fn()
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _slope(sizes, times) -> float:
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def test_criterion_10_scaling_sanity():
    strict = os.environ.get("LEVSKETCH_TIMING_STRICT", "") not in ("", "0")
    # one regime at every n: stage 1 samples r1 = n / 2 rows
    d = 32
    ns = [2 ** p for p in range(10, 16)]
    warm = np.random.default_rng(0).standard_normal((1024, d))
    approx_leverage(warm, make_plan(1024, d, EPS, r1=512), seed=0)  # warm-up
    sketch_times = []
    for n in ns:
        A = np.random.default_rng(n).standard_normal((n, d))
        plan = make_plan(n, d, EPS, r1=n // 2)
        sketch_times.append(_best_time(lambda: approx_leverage(A, plan, seed=0)))
    slope_n = _slope(ns, sketch_times)

    n_fixed = 2 ** 13
    ds = [16, 32, 64, 128]
    exact_times = []
    for dd in ds:
        A = np.random.default_rng(dd).standard_normal((n_fixed, dd))
        exact_times.append(_best_time(lambda: exact_leverage(A)))
    slope_d = _slope(ds, exact_times)

    lo, hi, floor = (0.9, 1.3, 1.7) if strict else (0.9 * 0.8, 1.3 * 1.2, 1.7 * 0.8)
    ok = lo <= slope_n <= hi and slope_d >= floor
    _report(10, "sketched time near-linear in n, exact superlinear in d", ok,
            f"slope_n={slope_n:.2f} in [{lo:.2f},{hi:.2f}], "
            f"slope_d={slope_d:.2f} >= {floor:.2f}, "
            f"{'strict' if strict else '20% slack'}")


# ------------------------------------------------------------------ 11

def test_criterion_11_cli_determinism(tmp_path, capsys):
    rng = np.random.default_rng(11)
    tall = tmp_path / "tall.csv"
    save_matrix(rng.standard_normal((256, 8)), tall, "csv")
    square = tmp_path / "square.csv"
    save_matrix(rng.standard_normal((60, 50)), square, "csv")
    rhs = tmp_path / "rhs.csv"
    wide = tmp_path / "wide.csv"
    save_matrix(rng.standard_normal((6, 300)), wide, "csv")
    save_matrix(rng.standard_normal((6, 1)), rhs, "csv")
    commands = [
        ["leverage", str(tall), "--seed", "9"],
        ["exact", str(tall)],
        ["coherence", str(tall), "--seed", "9"],
        ["cross", str(tall), "--kappa", "nlogn", "--seed", "9"],
        ["rankk", str(square), "--k", "3", "--norm", "frobenius", "--seed", "9"],
        ["underls", str(wide), "--rhs", str(rhs), "--seed", "9"],
    ]
    ok = True
    for argv in commands:
        payloads = []
        for _ in range(2):
            assert main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("timings_ms")
            payloads.append(json.dumps(doc, sort_keys=True).encode())
        ok = ok and payloads[0] == payloads[1]
    _report(11, "repeated runs are byte-identical apart from timings", ok,
            f"{len(commands)} subcommands")
