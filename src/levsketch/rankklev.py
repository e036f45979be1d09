"""Rank-k leverage scores for general (possibly fat) matrices.

Exact rank-k leverage scores are ill-posed without a spectral gap, so both
algorithms instead return the normalized leverage scores of some rank-k
matrix X whose residual is within (1 + eps) of the best rank-k residual:
a power-iteration Gaussian sketch for the spectral norm, and a one-shot
Gaussian range finder for the Frobenius norm (where the returned scores
are exactly those of the constructible X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import errors
from ._kernels import row_sq_norms
from .levscore import approx_leverage
from .matcore import DEFAULT_RANK_TOL, validate_matrix
from .sketch import SketchOperator, gaussian_matrix, make_plan


@dataclass
class NormalizedLevReport:
    """Normalized rank-k leverage estimates p_hat (sum to 1)."""

    p_hat: np.ndarray
    k: int
    norm: str  # "spectral" | "frobenius"
    beta_claim: float
    seed: int


def _check_k(n: int, d: int, k: int) -> None:
    if not (2 <= k < min(n, d)):
        raise errors.RankTooLow(
            f"need 2 <= k < min(n, d) = {min(n, d)}, got k={k}")


def power_q(n: int, d: int, k: int, epsilon: float) -> int:
    """Power-iteration depth for the spectral sketch.

    The printed denominator 2 ln(1 + eps/10) - 1/2 is negative for all
    eps < 1, so the -1/2 term is dropped; see ``--q`` for manual override.
    """
    _check_k(n, d, k)
    if not (0.0 < epsilon < 1.0):
        raise errors.InvalidParameter(f"epsilon must be in (0, 1), got {epsilon}")
    m = min(n, d)
    num = math.log(1.0 + math.sqrt(k / (k - 1.0))
                   + math.e * math.sqrt(2.0 / k) * math.sqrt(m - k))
    den = 2.0 * math.log(1.0 + epsilon / 10.0) - 0.5
    if den <= 0.0:
        den = 2.0 * math.log(1.0 + epsilon / 10.0)
    return max(1, math.ceil(num / den))


def _power_sketch(A: np.ndarray, k: int, epsilon: float, seed: int,
                  q_override: Optional[int]) -> np.ndarray:
    """B = (A A^T)^q A Pi with Pi a seeded d x 2k Gaussian and q from
    ``power_q`` unless ``q_override`` is given."""
    n, d = A.shape
    _check_k(n, d, k)
    q = int(q_override) if q_override is not None else power_q(n, d, k, epsilon)
    B = A @ gaussian_matrix(SketchOperator("Gaussian", seed, d, 2 * k))
    for _ in range(q):
        B = A @ (A.T @ B)
    return B


def _top_k_factors(Q: np.ndarray, A: np.ndarray, k: int):
    """Factors (Q U_k, S_k V_k^T) of X = Q (Q^T A)_k for orthonormal Q."""
    U, s, Vt = np.linalg.svd(Q.T @ A, full_matrices=False)
    return Q @ U[:, :k], s[:k, None] * Vt[:k]


def spectral_rankk(a, k: int, epsilon: float, seed: int,
                   q_override: Optional[int] = None) -> NormalizedLevReport:
    """Normalized rank-k leverage estimates, spectral-norm flavor.

    Sketches B = (A A^T)^q A Pi (Pi Gaussian d x 2k), estimates the leverage
    scores of the tall B with the fast sketch, and normalizes by their sum.
    beta_claim = (1 - eps) / (2 (1 + eps)) with probability >= 0.7.
    """
    A = validate_matrix(a)
    B = _power_sketch(A, k, epsilon, seed, q_override)
    plan = make_plan(A.shape[0], 2 * k, epsilon=min(epsilon, 0.5),
                     mode="practical")
    # B may have rank < 2k when rank(A) < 2k; truncate instead of erroring.
    report, _ = approx_leverage(B, plan, seed, allow_rank_deficient=True)
    total = float(report.scores.sum())
    if total <= 0.0:
        raise errors.RankDeficient("sketch B collapsed to zero")
    return NormalizedLevReport(
        p_hat=report.scores / total, k=k, norm="spectral",
        beta_claim=(1.0 - epsilon) / (2.0 * (1.0 + epsilon)), seed=int(seed))


def frobenius_sketch_width(k: int, epsilon: float) -> int:
    """Gaussian sketch width r = k + ceil(10 k / eps + 1)."""
    if not (0.0 < epsilon < 1.0):
        raise errors.InvalidParameter(f"epsilon must be in (0, 1), got {epsilon}")
    return k + math.ceil(10.0 * k / epsilon + 1.0)


def _frobenius_factors(A: np.ndarray, k: int, epsilon: float, seed: int):
    n, d = A.shape
    _check_k(n, d, k)
    r = min(frobenius_sketch_width(k, epsilon), min(n, d))
    op = SketchOperator("Gaussian", seed, d, r)
    B = A @ gaussian_matrix(op)
    Q, R = np.linalg.qr(B)
    # drop directions lost to numerical rank deficiency of B
    diag = np.abs(np.diag(R))
    keep = diag > DEFAULT_RANK_TOL * max(diag.max(), 1e-300)
    if keep.sum() < k:
        raise errors.RankTooLow(
            f"sketch B has numerical rank {int(keep.sum())} < k={k}")
    return _top_k_factors(Q[:, keep], A, k)


def frobenius_rankk(a, k: int, epsilon: float, seed: int) -> NormalizedLevReport:
    """Normalized rank-k leverage scores, Frobenius-norm flavor.

    These are exactly the normalized leverage scores of the constructible
    rank-k matrix X = Q (Q^T A)_k, so beta_claim = 1; the scores sum to k
    identically and p_hat_i = score_i / k.
    """
    A = validate_matrix(a)
    left, _ = _frobenius_factors(A, k, epsilon, seed)
    scores = row_sq_norms(left)
    return NormalizedLevReport(
        p_hat=scores / float(k), k=k, norm="frobenius", beta_claim=1.0,
        seed=int(seed))


def frobenius_sketch_matrix(a, k: int, epsilon: float, seed: int
                            ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Expose the factored X = (Q U_k) (S_k V_k^T) behind ``frobenius_rankk``.

    Returns ``(Q_Uk, (Q_Uk, Sk_Vkt))``: the orthonormal left factor and the
    rank-k factor pair whose product assembles X.
    """
    A = validate_matrix(a)
    left, right = _frobenius_factors(A, k, epsilon, seed)
    return left, (left, right)


def spectral_sketch_matrix(a, k: int, epsilon: float, seed: int,
                           q_override: Optional[int] = None
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """B from the spectral sketch plus the best rank-k X within col(B).

    Returns ``(B, X)`` with X = Q_B (Q_B^T A)_k, the matrix whose normalized
    leverage scores the spectral estimates lower-bound.
    """
    A = validate_matrix(a)
    B = _power_sketch(A, k, epsilon, seed, q_override)
    left, right = _top_k_factors(np.linalg.qr(B)[0], A, k)
    return B, left @ right
