"""Rank-k leverage scores for general (possibly fat) matrices.

Exact rank-k leverage scores are ill-posed without a spectral gap, so both
algorithms instead return the normalized leverage scores of some rank-k
matrix X whose residual is within (1 + eps) of the best rank-k residual:
a power-iteration Gaussian sketch for the spectral norm, and a one-shot
Gaussian range finder for the Frobenius norm (where the returned scores
are exactly those of the constructible X). Dense factorizations run on
the small side: the power loop goes through the min(n, d)^2 Gram, the
Frobenius basis comes from ``levscore.build_orthogonalizer`` (with the
sketch's guarded one-pass Cholesky, B = A Pi being a sketch, and one
more Cholesky pass on Q^T Q only off that route), and the
top-k left factor from the SVD of an r x r triangular factor T with
T^T T = C C^T: the guarded Cholesky factor of C C^T, or Householder
``qr(C^T)``'s R where the guard rejects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import errors
from ._kernels import row_sq_norms
from .levscore import (_guarded_cholesky, approx_leverage,
                       build_orthogonalizer)
from .matcore import validate_matrix
from .sketch import SketchOperator, default_r1, gaussian_matrix, make_plan


@dataclass
class NormalizedLevReport:
    """Normalized rank-k leverage estimates p_hat (sum to 1).

    ``extras`` says what the sketch used: for "spectral" the power depth
    ``q`` and the ``rank`` of the sketch B; for "frobenius" the Gaussian
    width ``r``, the ``rank`` of the basis Q and the ``route`` of the
    factorization that gave Q (see ``levscore.Orthogonalizer``).
    """

    p_hat: np.ndarray
    k: int
    norm: str  # "spectral" | "frobenius"
    beta_claim: float
    seed: int
    extras: dict = field(default_factory=dict)


def _check_k(n: int, d: int, k: int) -> None:
    if not (2 <= k < min(n, d)):
        raise errors.RankTooLow(
            f"need 2 <= k < min(n, d) = {min(n, d)}, got k={k}")


def _check_eps(epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise errors.InvalidParameter(f"epsilon must be in (0, 1), got {epsilon}")


def power_q(n: int, d: int, k: int, epsilon: float) -> int:
    """Power-iteration depth for the spectral sketch.

    The printed denominator 2 ln(1 + eps/10) - 1/2 is negative for every
    admissible eps (0 < eps < 1), so the -1/2 term is dropped and the
    denominator is 2 ln(1 + eps/10); see ``--q`` for manual override.
    """
    _check_k(n, d, k)
    _check_eps(epsilon)
    m = min(n, d)
    num = math.log(1.0 + math.sqrt(k / (k - 1.0))
                   + math.e * math.sqrt(2.0 / k) * math.sqrt(m - k))
    return max(1, math.ceil(num / (2.0 * math.log(1.0 + epsilon / 10.0))))


def _power_sketch(A: np.ndarray, k: int, epsilon: float, seed: int,
                  q_override: Optional[int]):
    """(B, q): B = (A A^T)^q A Pi with Pi a seeded d x 2k Gaussian and q
    from ``power_q`` unless ``q_override`` is given. k and eps are checked
    either way; q = 0 gives B = A Pi and q < 0 raises ``InvalidParameter``.

    The q steps run through the min(n, d)^2 Gram: a tall A takes
    B = A (A^T A)^q Pi and a fat one B <- (A A^T) B. The steps are not
    normalized, so B grows like sigma_1^(2q+1); raises ``NonFiniteFactor``
    where that overflows.
    """
    n, d = A.shape
    _check_k(n, d, k)
    _check_eps(epsilon)
    q = int(q_override) if q_override is not None else power_q(n, d, k, epsilon)
    if q < 0:
        raise errors.InvalidParameter(f"q must be >= 0, got {q}")
    Y = gaussian_matrix(SketchOperator("Gaussian", seed, d, 2 * k))
    with np.errstate(over="ignore", invalid="ignore"):
        if d <= n:
            G = A.T @ A
            for _ in range(q):
                Y = G @ Y
            B = A @ Y
        else:
            B = A @ Y
            G = A @ A.T
            for _ in range(q):
                B = G @ B
    if not np.all(np.isfinite(B)):
        raise errors.NonFiniteFactor(
            f"power iteration overflowed: B = (A A^T)^q A Pi is not finite"
            f" at q={q}")
    return B, q


def _top_k_factors(Q: np.ndarray, A: np.ndarray, k: int):
    """Factors (Q U_k, S_k V_k^T) of X = Q (Q^T A)_k for orthonormal Q.

    C = Q^T A is r x d with r <= d, and C C^T = T^T T for an r x r
    triangular T, so U_k comes from the SVD of T^T and S_k V_k^T = U_k^T C.
    T is the guarded Cholesky factor of C C^T, or the R of qr(C^T) where
    the guard rejects it.
    """
    C = Q.T @ A
    with np.errstate(all="ignore"):
        T, _, trusted = _guarded_cholesky(C @ C.T)
    if not trusted:
        T = np.linalg.qr(C.T, mode="r")
    Uk = np.linalg.svd(T.T)[0][:, :k]
    return Q @ Uk, Uk.T @ C


def spectral_rankk(a, k: int, epsilon: float, seed: int,
                   q_override: Optional[int] = None) -> NormalizedLevReport:
    """Normalized rank-k leverage estimates, spectral-norm flavor.

    Sketches B = (A A^T)^q A Pi (Pi Gaussian d x 2k), estimates the leverage
    scores of the tall B with the fast sketch, and normalizes by their sum.
    beta_claim = (1 - eps) / (2 (1 + eps)) with probability >= 0.7. A
    numerically zero B (a zero or underflowing A) raises ``RankTooLow``,
    as ``frobenius_rankk`` does.
    """
    A = validate_matrix(a)
    B, q = _power_sketch(A, k, epsilon, seed, q_override)
    # the paper's fast sketch of B at the default sizes, not the gram
    # route that a plan given no sizes takes
    plan = make_plan(A.shape[0], 2 * k, epsilon=min(epsilon, 0.5),
                     r1=default_r1(A.shape[0], 2 * k))
    # B may have rank < 2k when rank(A) < 2k; truncate instead of erroring.
    try:
        report, _ = approx_leverage(B, plan, seed, allow_rank_deficient=True)
        total = float(report.scores.sum())
    except errors.RankDeficient:  # B is zero: A is, or its powers underflow
        total = 0.0
    if total <= 0.0:
        raise errors.RankTooLow(f"sketch B has numerical rank 0 < k={k}")
    return NormalizedLevReport(
        p_hat=report.scores / total, k=k, norm="spectral",
        beta_claim=(1.0 - epsilon) / (2.0 * (1.0 + epsilon)), seed=int(seed),
        extras={"q": q, "rank": report.extras["rank"]})


def frobenius_sketch_width(k: int, epsilon: float) -> int:
    """Gaussian sketch width r = k + ceil(10 k / eps + 1)."""
    _check_eps(epsilon)
    return k + math.ceil(10.0 * k / epsilon + 1.0)


def _frobenius_factors(A: np.ndarray, k: int, epsilon: float, seed: int):
    """(Q U_k, S_k V_k^T, extras) for the Gaussian range finder Q of
    B = A Pi; directions lost to numerical rank deficiency of B are
    dropped by the orthogonalizer's rank rule. ``extras`` holds the width
    ``r``, the ``rank`` of Q and the orthogonalizer's ``route``."""
    n, d = A.shape
    _check_k(n, d, k)
    r = min(frobenius_sketch_width(k, epsilon), min(n, d))
    B = A @ gaussian_matrix(SketchOperator("Gaussian", seed, d, r))
    try:  # Q = B R^{-1} spans B's numerical column space
        orth = build_orthogonalizer(B, allow_rank_deficient=True,
                                    kind="sketch")
    except errors.RankDeficient:  # B is zero: A is, or its powers underflow
        raise errors.RankTooLow(
            f"sketch B has numerical rank 0 < k={k}") from None
    if orth.rank < k:
        raise errors.RankTooLow(
            f"sketch B has numerical rank {orth.rank} < k={k}")
    extras = {"r": r, "rank": orth.rank, "route": orth.route}
    Q = B @ orth.Rinv
    del B, orth  # free B and R^{-1} before the n x r products below
    if extras["route"] != "cholesky":
        # B R^{-1} is orthonormal only to about u cond(B); one Cholesky
        # pass on Q^T Q restores it. On the "cholesky" route the guard's
        # kappa_2(R) <= 1e4 already bounds it by about u kappa_2^2 <= 1e-8.
        Q = Q @ np.linalg.inv(np.linalg.cholesky(Q.T @ Q)).T
    return (*_top_k_factors(Q, A, k), extras)


def frobenius_rankk(a, k: int, epsilon: float, seed: int) -> NormalizedLevReport:
    """Normalized rank-k leverage scores, Frobenius-norm flavor.

    These are exactly the normalized leverage scores of the constructible
    rank-k matrix X = Q (Q^T A)_k, so beta_claim = 1; the scores sum to k
    identically and p_hat_i = score_i / k.
    """
    A = validate_matrix(a)
    left, _, extras = _frobenius_factors(A, k, epsilon, seed)
    scores = row_sq_norms(left)
    return NormalizedLevReport(
        p_hat=scores / float(k), k=k, norm="frobenius", beta_claim=1.0,
        seed=int(seed), extras=extras)


def frobenius_sketch_matrix(a, k: int, epsilon: float, seed: int
                            ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Expose the factored X = (Q U_k) (S_k V_k^T) behind ``frobenius_rankk``.

    Returns ``(Q_Uk, (Q_Uk, Sk_Vkt))``: the orthonormal left factor and the
    rank-k factor pair whose product assembles X.
    """
    A = validate_matrix(a)
    left, right, _ = _frobenius_factors(A, k, epsilon, seed)
    return left, (left, right)


def spectral_sketch_matrix(a, k: int, epsilon: float, seed: int,
                           q_override: Optional[int] = None
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """B from the spectral sketch plus the best rank-k X within col(B).

    Returns ``(B, X)`` with X = Q_B (Q_B^T A)_k, the matrix whose normalized
    leverage scores the spectral estimates lower-bound. Q_B is Householder
    QR's, all 2k columns of it: where the unnormalized power steps leave B
    numerically rank-deficient, the columns past its numerical rank still
    carry part of A's top singular space, and dropping them at the
    orthogonalizer's rank rule lost the residual bound on 5 of 20 seeded
    200 x 200 spiked inputs.
    """
    A = validate_matrix(a)
    B, _ = _power_sketch(A, k, epsilon, seed, q_override)
    left, right = _top_k_factors(np.linalg.qr(B)[0], A, k)
    return B, left @ right
