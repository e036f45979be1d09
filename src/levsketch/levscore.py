"""Fast relative-error leverage-score approximation.

The two-stage sketch: an SRHT compresses the rows of A so that a cheap
d x d orthogonalizer R^{-1} of the compressed matrix makes A R^{-1}
approximately orthonormal; a sparse JLT then compresses the columns so
per-row squared norms (the leverage estimates) can be read off quickly.
Also includes the simpler single-projection inner-product estimator that
we use as a comparison baseline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from ._kernels import row_sq_norms
from .matcore import DEFAULT_RANK_TOL, LeverageReport, validate_matrix
from .sketch import (SketchOperator, SketchPlan, apply_sparse_jlt, apply_srht,
                     _srht_transpose, next_pow2)


@dataclass(frozen=True)
class Orthogonalizer:
    """d x rho map making the sketched matrix orthonormal: Q = PA . Rinv."""

    Rinv: np.ndarray
    source: str  # "svd" | "qr"

    @property
    def rank(self) -> int:
        return int(self.Rinv.shape[1])


@dataclass
class SketchedBasis:
    """The n x r2 sketch Omega = A R^{-1} Pi2 behind the scores."""

    omega: np.ndarray
    plan: SketchPlan
    seed1: int
    seed2: int


def build_orthogonalizer(pa, source: str = "svd",
                         rank_tolerance: float = DEFAULT_RANK_TOL,
                         allow_rank_deficient: bool = False) -> Orthogonalizer:
    """Compute R^{-1} from the sketched matrix Pi1 A.

    The SVD route uses V Sigma^{-1}; the QR route inverts the triangular
    factor. Both make ``pa @ Rinv`` orthonormal and yield identical row
    norms for A R^{-1} downstream.
    """
    PA = validate_matrix(pa)
    d = PA.shape[1]
    if source == "svd":
        U, s, Vt = np.linalg.svd(PA, full_matrices=False)
        keep = s > rank_tolerance * s[0] if s[0] > 0 else np.zeros_like(s, bool)
        rho = int(keep.sum())
        if rho < d and not allow_rank_deficient:
            raise errors.RankDeficient(
                f"sketched matrix has rank {rho} < {d}; resample with a new seed")
        if rho == 0:
            raise errors.RankDeficient("sketched matrix is numerically zero")
        return Orthogonalizer(Rinv=Vt[:rho].T / s[:rho], source="svd")
    if source == "qr":
        R = np.linalg.qr(PA, mode="r")
        diag = np.abs(np.diag(R))
        if diag.min() <= rank_tolerance * max(diag.max(), 1e-300):
            raise errors.RankDeficient(
                "triangular factor is singular at tolerance; resample or use svd")
        return Orthogonalizer(
            Rinv=np.linalg.solve(R, np.eye(d)), source="qr")
    raise errors.InvalidParameter(f"unknown orthogonalizer source {source!r}")


def _stage1_operator(plan: SketchPlan, n: int, seed: int) -> SketchOperator:
    if plan.pi1_kind == "fullrht":
        return SketchOperator("FullRHT", seed, n, next_pow2(n))
    return SketchOperator("SRHT", seed, n, min(plan.r1, next_pow2(n)))


def _stage2_operator(plan: SketchPlan, rank: int, seed: int) -> SketchOperator:
    return SketchOperator("SparseJLT", seed, rank, plan.r2)


def _stage1(A: np.ndarray, plan: SketchPlan, seed: int,
            rank_tolerance: float = DEFAULT_RANK_TOL, source: str = "svd",
            allow_rank_deficient: bool = False,
            timings: Optional[dict] = None):
    """Stage 1 on a validated tall A: the SRHT, R^{-1} and A R^{-1}.

    Returns ``(A R^{-1}, r1)``. If ``timings`` is a dict it receives
    ``sketch_apply_ms``, ``factorization_ms`` and ``product_ms``.
    """
    n, d = A.shape
    if n <= d:
        raise errors.ShapeError(f"need n > d, got shape {A.shape}")
    t0 = time.perf_counter()
    op1 = _stage1_operator(plan, n, seed)
    PA = apply_srht(op1, A)
    t1 = time.perf_counter()
    orth = build_orthogonalizer(PA, source=source, rank_tolerance=rank_tolerance,
                                allow_rank_deficient=allow_rank_deficient)
    t2 = time.perf_counter()
    AR = A @ orth.Rinv
    t3 = time.perf_counter()
    if timings is not None:
        timings.update(sketch_apply_ms=(t1 - t0) * 1e3,
                       factorization_ms=(t2 - t1) * 1e3,
                       product_ms=(t3 - t2) * 1e3)
    return AR, op1.out_dim


def approx_leverage(a, plan: SketchPlan, seed: int,
                    rank_tolerance: float = DEFAULT_RANK_TOL,
                    source: str = "svd",
                    allow_rank_deficient: bool = False,
                    timings: Optional[dict] = None):
    """Sketched leverage scores of a tall matrix.

    Returns ``(LeverageReport, SketchedBasis)``; the basis carries the
    n x r2 sketch. If ``timings`` is a dict it receives per-phase
    wall-clock milliseconds.
    """
    A = validate_matrix(a)
    AR, r1 = _stage1(A, plan, seed, rank_tolerance=rank_tolerance,
                     source=source, allow_rank_deficient=allow_rank_deficient,
                     timings=timings)
    rank = AR.shape[1]
    t2 = time.perf_counter()
    if plan.pi2_kind == "identity":
        omega = AR
    elif plan.pi2_kind == "sparse":
        omega = apply_sparse_jlt(_stage2_operator(plan, rank, seed), AR,
                                 side="right")
    else:
        raise errors.InvalidParameter(f"unknown pi2_kind {plan.pi2_kind!r}")
    t3 = time.perf_counter()
    scores = row_sq_norms(omega)
    t4 = time.perf_counter()
    if timings is not None:
        timings["product_ms"] += (t3 - t2) * 1e3
        timings["norms_ms"] = (t4 - t3) * 1e3
    # structural zero rows stay exactly zero
    scores[~np.any(A, axis=1)] = 0.0
    total = float(scores.sum())
    report = LeverageReport(
        scores=scores,
        coherence=float(scores.max()),
        normalized=scores / total if total > 0 else np.zeros_like(scores),
        method="sketched",
        params=plan,
        seed=int(seed),
        extras={"rank": rank, "r1": r1, "r2": omega.shape[1]},
    )
    return report, SketchedBasis(omega=omega, plan=plan, seed1=int(seed),
                                 seed2=int(seed))


def mi_estimate(a, seed: int,
                rank_tolerance: float = DEFAULT_RANK_TOL) -> LeverageReport:
    """Single-projection inner-product estimator (comparison baseline).

    Estimates the i-th score as A_(i) . ((Pi A)^+ Pi)_(:,i) with a single
    SRHT of O(n ln d / ln^2 n) rows, then truncates each estimate below at
    d ln^2 n / (4 n) and renormalizes. Only an O(ln^2 n)-factor guarantee.
    Row-wise dots of A with Pi^T (Pi A)^{+T}, in O(n d) memory.
    """
    A = validate_matrix(a)
    n, d = A.shape
    if n <= d:
        raise errors.ShapeError(f"need n > d, got shape {A.shape}")
    ln_n = math.log(n)
    r = math.ceil(n * math.log(max(d, 2)) / ln_n**2)
    r = min(n, max(d, r))
    op = SketchOperator("SRHT", seed, n, r)
    PA = apply_srht(op, A)
    U, s, Vt = np.linalg.svd(PA, full_matrices=False)
    keep = s > rank_tolerance * s[0] if s[0] > 0 else np.zeros_like(s, bool)
    if not keep.any():
        raise errors.RankDeficient("sketched matrix is numerically zero")
    M = (Vt[keep].T / s[keep]) @ U[:, keep].T          # (Pi A)^+, d x r
    w_raw = np.einsum("ts,ts->t", A, _srht_transpose(op, M.T))
    floor = d * ln_n**2 / (4.0 * n)
    w = np.maximum(w_raw, floor)
    return LeverageReport(
        scores=w,
        coherence=float(w.max()),
        normalized=w / float(w.sum()),
        method="mi_estimator",
        seed=int(seed),
        extras={"r": r, "floor": floor},
    )


def coherence(report: LeverageReport) -> float:
    """Maximum leverage score in a report."""
    if report.scores.size == 0:
        raise errors.EmptyMatrix("empty report")
    return float(np.max(report.scores))
