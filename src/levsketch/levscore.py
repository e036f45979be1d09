"""Fast relative-error leverage-score approximation.

The two-stage sketch: an SRHT compresses the rows of A so that a cheap
d x d orthogonalizer R^{-1} of the compressed matrix makes A R^{-1}
approximately orthonormal; when its target dimension r2 is below the
rank, a sparse JLT Pi2 then compresses the columns, and the leverage
estimates are the squared row norms of Omega = A W for the d x r2 map
W = R^{-1} Pi2, read tile by tile: Omega itself is never stored, and a
caller that needs more of A W (the cross-leverage search) forms it a
tile at a time from A and the returned W. Each stage is skipped where it
cannot compress (r1 >= n, r2 >= rank), which makes the plan r1 = n,
r2 = d exact, for A of any rank. A plan on the "gram" route
(``SketchPlan.route``, ``make_plan``'s default for a plan given no
sizes) has those exact sizes and factors A^T A in one guarded pass.

R comes by one of three routes (``Orthogonalizer.route``). A sketch is
needed only to within its own 1 +- eps distortion, so a caller that
passes ``kind="sketch"`` takes "cholesky": one Cholesky factor of the
Gram, where a guard accepts it (no underflowed or non-finite column
norm, finite R^{-1}, kappa_F(R) = ||R||_F ||R^{-1}||_F <= 1e4). As
kappa_2(R) <= kappa_F(R), the sketch times R^{-1} is then orthonormal to
about u kappa_2^2 <= 1e-8 (Yamamoto et al. 2015). The gram route
(``kind="gram"``) trusts the same pass of A^T A, for the same error
bound. Everything else, the explicit exact plan included, takes
"cholesky_qr2" from that same first pass, checked by one SVD of its R,
or, where that R is not trusted, "householder".

Also includes the simpler single-projection inner-product estimator that
we use as a comparison baseline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import errors
from ._kernels import product_gram, product_sq_norms
from .matcore import (DEFAULT_RANK_TOL, LeverageReport, _as_matrix,
                      validate_matrix)
from .sketch import (SketchOperator, SketchPlan, _sparse_jlt_matrix,
                     _srht_transpose, apply_srht)


@dataclass(frozen=True)
class Orthogonalizer:
    """d x rho map making the sketched matrix orthonormal: Q = PA . Rinv.

    ``route`` names the factorization that produced R: "cholesky",
    "cholesky_qr2" or "householder".
    """

    Rinv: np.ndarray
    route: str

    @property
    def rank(self) -> int:
        return int(self.Rinv.shape[1])


@dataclass
class SketchedBasis:
    """The d x min(rank, r2) map W whose product A W has the scores as its
    squared row norms.

    W = R^{-1} when r2 >= rank, and R^{-1} Pi2 otherwise, so that A W is
    A R^{-1} or the sketch Omega; no caller stores the n-row A W, which
    is formed a row tile or a gathered tile at a time. ``route`` is the
    orthogonalizer's; ``timings_ms`` holds ``sketch_apply_ms``,
    ``factorization_ms`` and ``product_ms`` (the pass that reads the row
    norms of A W).
    """

    W: np.ndarray
    route: str
    timings_ms: dict = field(default_factory=dict, compare=False)


# CholeskyQR2's R is trusted only while R is this well conditioned
# (cond(PA) well below u^{-1/2}); otherwise Householder QR decides.
_CHOLQR_MIN_RCOND = 1e-6
# One Cholesky pass of a sketch's Gram is trusted while
# kappa_F(R) = ||R||_F ||R^{-1}||_F is at most this. kappa_2(R) <= kappa_F(R),
# so the sketch times R^{-1} is then orthonormal to about u kappa_2^2 <= 1e-8.
# kappa_F(R) >= d, so a sketch of more than 1e4 columns is never trusted.
_CHOL_MAX_COND = 1e4
# A Gram diagonal entry below tiny / eps = 2^-970 may have lost bits to
# underflowed squares.
_GRAM_MIN_DIAG = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _guarded_cholesky(G: np.ndarray):
    """One Cholesky pass of a Gram G = M^T M: ``(R, Rinv, trusted)`` for
    the upper Cholesky factor R of G and R^{-1}.

    ``trusted`` says that R can stand for M's R: every diagonal entry of G
    is finite and at least 2^-970 (no column's squares underflowed, and M
    is finite), R^{-1} is finite and kappa_F(R) <= ``_CHOL_MAX_COND``.
    R is None where the factorization fails. R^{-1} is None there too, and
    where R's diagonal alone shows kappa_F(R) > ``_CHOL_MAX_COND`` (as
    kappa_F(R) >= kappa_2(R) >= max |r_ii| / min |r_ii|), so that a
    rejected R is not inverted for nothing.
    """
    with np.errstate(all="ignore"):
        try:
            R = np.linalg.cholesky(G).T
        except np.linalg.LinAlgError:
            return None, None, False
        diag, r = np.diagonal(G), np.abs(np.diagonal(R))
        if not (np.all(np.isfinite(diag)) and np.all(diag >= _GRAM_MIN_DIAG)
                and r.max() <= _CHOL_MAX_COND * r.min()):
            return R, None, False
        try:
            Rinv = np.linalg.inv(R)
        except np.linalg.LinAlgError:
            return R, None, False
        trusted = bool(
            np.all(np.isfinite(Rinv))
            and np.linalg.norm(R) * np.linalg.norm(Rinv) <= _CHOL_MAX_COND)
    return R, Rinv, trusted


def _cholesky_qr2(PA: np.ndarray, R1: Optional[np.ndarray],
                  R1inv: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """R of PA from CholeskyQR2, or None where a Cholesky fails or R is not
    finite.

    (R1, R1^{-1}) is the first pass, ``_guarded_cholesky(PA^T PA)``, with
    R1^{-1} formed here where the guard did not form it; the second is
    R = chol(Q1^T Q1) R1 for Q1 = PA R1^{-1}, whose Gram is summed over
    row tiles (``product_gram``), so Q1 is never stored. Two Gram
    products and one product with R1^{-1} in all, BLAS-3 in numpy's own
    BLAS. Overflow or underflow of the Gram matrix at extreme scales
    lands in one of these cases silently.
    """
    if R1 is None:
        return None
    with np.errstate(all="ignore"):
        try:
            gram = product_gram(PA, np.linalg.inv(R1) if R1inv is None
                                else R1inv)
            R = np.linalg.cholesky(gram).T @ R1
        except np.linalg.LinAlgError:
            return None
    if not np.all(np.isfinite(R)):
        return None
    return R


def build_orthogonalizer(pa, allow_rank_deficient: bool = False,
                         kind: str = "exact") -> Orthogonalizer:
    """Compute R^{-1} from the sketched matrix Pi1 A, deciding its rank.

    Every route starts from one Cholesky pass of PA^T PA. ``kind`` says
    what PA is: "sketch" (a sketch, needed only to within its own
    distortion), "gram" (A itself on the gram route, whose one-pass
    error, about u kappa_2^2 <= 1e-8 under the guard, is far inside any
    eps) or "exact" (A itself, factored to working precision). For
    "sketch" and "gram" that pass is the answer wherever
    ``_guarded_cholesky`` trusts it: the route is "cholesky", R^{-1} is
    the factor's inverse, the rank is d (kappa_2(R) <= 1e4 is far inside
    the rank rule) and PA is not scanned, as a non-finite PA has a
    non-finite Gram diagonal and fails the guard. Otherwise PA is
    validated and CholeskyQR2 continues from that same pass, so its R is
    the one ``kind="exact"`` gives.

    One ``svd(R)`` of CholeskyQR2's R gives the 1e-6 condition guard, the
    rank and R^{-1} = V Sigma^{-1} (V's columns signed so that each one's
    largest-magnitude entry is positive). Where CholeskyQR2 fails or the
    guard rejects R, the SVD of Householder ``qr(PA)``'s R decides. Rank
    decisions at ``DEFAULT_RANK_TOL`` therefore always come from a
    backward-stable R, and ``pa @ Rinv`` is orthonormal. Raises
    ``RankDeficient`` naming the rank where it is below d and
    ``allow_rank_deficient`` is false (a sketch's message asks for a new
    seed; a matrix that is not a sketch has no seed to change), and
    ``NonFiniteFactor`` where R^{-1} overflows, so that a zero row of A is
    an exact zero row of A R^{-1}.
    """
    if kind not in ("sketch", "gram", "exact"):
        raise errors.InvalidParameter(
            f"kind must be 'sketch', 'gram' or 'exact', got {kind!r}")
    sketched = kind == "sketch"
    trust = sketched or kind == "gram"
    PA = _as_matrix(pa) if trust else validate_matrix(pa)
    with np.errstate(all="ignore"):
        R1, R1inv, trusted = _guarded_cholesky(PA.T @ PA)
    if trust and trusted:
        return Orthogonalizer(Rinv=R1inv, route="cholesky")
    if trust:
        validate_matrix(PA)
    d = PA.shape[1]
    R, route = _cholesky_qr2(PA, R1, R1inv), "cholesky_qr2"
    if R is not None:
        _, s, Vt = np.linalg.svd(R)
    if R is None or not s[-1] >= _CHOLQR_MIN_RCOND * s[0]:
        route = "householder"
        _, s, Vt = np.linalg.svd(np.linalg.qr(PA, mode="r"))
    rho = int(np.sum(s > DEFAULT_RANK_TOL * s[0]))
    what = "sketched matrix" if sketched else "matrix"
    if rho < d and not allow_rank_deficient:
        raise errors.RankDeficient(
            f"{what} has rank {rho} < {d}"
            + ("; resample with a new seed" if sketched else ""))
    if rho == 0:
        raise errors.RankDeficient(f"{what} is numerically zero")
    V = Vt[:rho].T
    V *= np.sign(V[np.abs(V).argmax(axis=0), np.arange(rho)])
    with np.errstate(over="ignore"):
        Rinv = V / s[:rho]
    if not np.all(np.isfinite(Rinv)):
        raise errors.NonFiniteFactor(
            f"R^-1 overflows: smallest kept singular value {s[rho - 1]:.3g}"
            f" of the {what} is below 1 / max float")
    return Orthogonalizer(Rinv=Rinv, route=route)


def approx_leverage(a, plan: SketchPlan, seed: Optional[int],
                    allow_rank_deficient: bool = False):
    """Sketched leverage scores of a tall matrix.

    Stage 1 factors the SRHT of A, or A itself when ``plan.r1 >= n``
    (the SRHT cannot compress there; r1 is then n). Stage 2 projects
    A R^{-1} only when ``plan.r2 < rank``: the scores are then the squared
    row norms of Omega = A R^{-1} Pi2. Otherwise they are the squared row
    norms of A R^{-1} itself; a zero row of A scores exactly 0, as R^{-1}
    is finite. A is read for validation once: the SRHT kernel checks its
    entries as it transforms them (r1 < n), and ``build_orthogonalizer``
    validates A itself (r1 >= n); both raise ``NonFiniteEntry``. Stage 2
    multiplies R^{-1}, which ``build_orthogonalizer`` returns finite, by
    Pi2 without scanning it again. Only the SRHT's PA is factored as a
    sketch (``kind="sketch"``); the gram route factors A by one guarded
    Cholesky of A^T A where the guard trusts it (``kind="gram"``), and
    the explicit exact plan keeps CholeskyQR2. With
    W = R^{-1} or the d x r2 product R^{-1} Pi2, the scores are the squared
    row norms of A W, read tile by tile without forming the n-row product.

    The rank is the orthogonalizer's. A sketch of rank below d raises
    ``RankDeficient`` unless ``allow_rank_deficient``, as another seed may
    keep every column. The exact plan and the gram route sample nothing,
    so no seed changes the rank they find: they keep A's numerical rank
    rho, and their scores are A's exact ones whatever rho is. A
    numerically zero A raises ``RankDeficient`` on every plan. ``seed``
    may be None where the plan draws nothing (r1 >= n and r2 >= rank).
    Returns
    ``(LeverageReport, SketchedBasis)`` with W in the basis;
    ``extras["r2"]`` is the number of columns of W, ``min(rank, plan.r2)``.
    A must be tall (n > d), else ``ShapeError``.
    """
    A = _as_matrix(a)
    if A.shape[0] <= A.shape[1]:
        raise errors.ShapeError(f"need n > d, got shape {A.shape}")
    return _leverage_basis(A, plan, seed, allow_rank_deficient)


def _leverage_basis(A: np.ndarray, plan: SketchPlan, seed: Optional[int],
                    allow_rank_deficient: bool = False):
    """``approx_leverage`` for an A of any shape. Where ``plan.r1 >= n``
    it factors A itself, which a wide or square A allows: the exact
    cross search runs on every input."""
    n = A.shape[0]
    t0 = time.perf_counter()
    if plan.r1 >= n:
        PA = A
    else:
        PA = apply_srht(SketchOperator("SRHT", seed, n, plan.r1), A)
    t1 = time.perf_counter()
    orth = build_orthogonalizer(
        PA, allow_rank_deficient=allow_rank_deficient or plan.r1 >= n,
        kind=("sketch" if plan.r1 < n else
              "gram" if plan.route == "gram" else "exact"))
    r1 = PA.shape[0]
    del PA  # free the sketched matrix before the product pass
    t2 = time.perf_counter()
    rank = orth.rank
    W = orth.Rinv
    if plan.r2 < rank:  # R^{-1} is finite: apply_sparse_jlt would rescan it
        W = W @ _sparse_jlt_matrix(
            SketchOperator("SparseJLT", seed, rank, plan.r2))
    scores = product_sq_norms(A, W)
    t3 = time.perf_counter()
    report = LeverageReport.from_scores(
        scores, "sketched", params=plan,
        seed=None if seed is None else int(seed),
        extras={"rank": rank, "r1": r1, "r2": W.shape[1]})
    return report, SketchedBasis(
        W=W, route=orth.route,
        timings_ms={"sketch_apply_ms": (t1 - t0) * 1e3,
                    "factorization_ms": (t2 - t1) * 1e3,
                    "product_ms": (t3 - t2) * 1e3})


def mi_estimate(a, seed: int) -> LeverageReport:
    """Single-projection inner-product estimator (comparison baseline).

    Estimates the i-th score as A_(i) . ((Pi A)^+ Pi)_(:,i) with a single
    SRHT of O(n ln d / ln^2 n) rows, then truncates each estimate below at
    d ln^2 n / (4 n) and renormalizes. Only an O(ln^2 n)-factor guarantee.
    With W = R^{-1} from ``build_orthogonalizer``, (Pi A)^+ = W W^T (Pi A)^T:
    row-wise dots of A with Pi^T (Pi A) W W^T, in O(n d) memory. A is read
    once: the SRHT kernel raises ``NonFiniteEntry`` for a NaN or infinite
    entry as it transforms A, so A is not scanned beforehand.
    """
    A = _as_matrix(a)
    n, d = A.shape
    if n <= d:
        raise errors.ShapeError(f"need n > d, got shape {A.shape}")
    ln_n = math.log(n)
    r = math.ceil(n * math.log(max(d, 2)) / ln_n**2)
    r = min(n, max(d, r))
    op = SketchOperator("SRHT", seed, n, r)
    PA = apply_srht(op, A)
    W = build_orthogonalizer(PA, allow_rank_deficient=True,
                             kind="sketch").Rinv
    w_raw = np.einsum("ts,ts->t", A, _srht_transpose(op, (PA @ W) @ W.T))
    floor = d * ln_n**2 / (4.0 * n)
    return LeverageReport.from_scores(
        np.maximum(w_raw, floor), "mi_estimator", seed=int(seed),
        extras={"r": r, "floor": floor})
