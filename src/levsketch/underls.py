"""Leverage-based column sampling for under-constrained least squares.

For n < d the minimal-norm solution is x_opt = A^+ b. Sampling r columns
with probabilities proportional to the leverage scores of A^T (rescaled to
keep the sampled Gram unbiased) gives x ~ A^T (AS)^{+T} (AS)^+ b with
||x - x_opt|| <= 2 eps ||x_opt|| at high probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from .levscore import approx_leverage, build_orthogonalizer
from .matcore import exact_leverage, validate_matrix
from .rng import substream
from .sketch import SketchPlan


@dataclass
class SamplingProbabilities:
    """Column-sampling distribution with its leverage quality factor beta."""

    p: np.ndarray
    beta: float = 1.0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        if np.any(self.p < 0) or not np.isfinite(self.p).all():
            raise errors.InvalidParameter("probabilities must be finite and >= 0")
        s = float(self.p.sum())
        if abs(s - 1.0) > 1e-9:
            raise errors.InvalidParameter(f"probabilities sum to {s}, not 1")
        if not (0.0 < self.beta <= 1.0):
            raise errors.InvalidParameter(f"beta must be in (0, 1], got {self.beta}")


@dataclass
class SamplingMatrix:
    """Sparse d x r selector of r draws from p, held as (column, count)
    pairs: column j, drawn c_j times, stands for c_j columns of S whose
    single nonzero is 1/sqrt(r p_j), so that A S S^T A^T = C C^T for
    C = A[:, selected] * sqrt(counts / (r p[selected]))."""

    d: int
    r: int
    selected: np.ndarray   # the distinct drawn columns, ascending
    counts: np.ndarray     # draws of each selected column


def sample_size(n: int, beta: float, epsilon: float, delta: float) -> int:
    """r = ceil((96 n / (beta eps^2)) ln(96 n / (beta eps^2 sqrt(delta)))).

    Raises ``InvalidParameter`` when r does not fit in int64.
    """
    if n < 1:
        raise errors.InvalidParameter(f"n must be >= 1, got {n}")
    if not (0.0 < beta <= 1.0):
        raise errors.InvalidParameter(f"beta must be in (0, 1], got {beta}")
    if not (0.0 < epsilon <= 0.5):
        raise errors.InvalidParameter(f"epsilon must be in (0, 0.5], got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise errors.InvalidParameter(f"delta must be in (0, 1), got {delta}")
    base = 96.0 * n / beta / epsilon**2
    r = base * math.log(base / math.sqrt(delta))
    if not r < 2.0**63:
        raise errors.InvalidParameter(
            f"beta={beta} (with epsilon={epsilon}) asks for {r:.3g} column "
            "draws, beyond the int64 range; use a larger beta")
    return math.ceil(r)


def draw_sampling_matrix(p: SamplingProbabilities, r: int,
                         seed: int) -> SamplingMatrix:
    """r i.i.d. column draws with replacement from p, seeded.

    The draw counts come from one multinomial(r, p), which has the
    distribution of r i.i.d. draws' counts at O(d) cost and memory
    whatever r is.
    """
    if r < 1:
        raise errors.InvalidParameter(f"r must be >= 1, got {r}")
    counts = substream(seed, 4).multinomial(r, p.p / p.p.sum())
    selected = np.flatnonzero(counts)
    return SamplingMatrix(d=p.p.size, r=r, selected=selected,
                          counts=counts[selected])


def leverage_probs_for_columns(a, method: str = "exact",
                               plan: Optional[SketchPlan] = None,
                               seed: Optional[int] = None
                               ) -> SamplingProbabilities:
    """Column-sampling probabilities = normalized leverage scores of A^T.

    The solve needs A of rank n, and no sample of A's columns has more
    rank than A. So where the probabilities' factorization is exact
    (``exact_leverage``, or a plan with r1 >= d) and finds rank rho < n,
    this raises ``RankTooLow`` naming rho, which no seed changes; a sampled
    plan whose sketch loses rank raises ``RankDeficient``, as another seed
    may keep it.
    """
    A = validate_matrix(a)
    n, d = A.shape
    if n >= d:
        raise errors.ShapeError(f"need n < d, got shape {A.shape}")
    if method == "exact":
        report, beta = exact_leverage(A.T), 1.0
        rank = report.extras["rank"]
    elif method == "sketched":
        if plan is None or seed is None:
            raise errors.InvalidParameter("sketched method needs plan and seed")
        beta = (1.0 - plan.epsilon) / (1.0 + plan.epsilon)
        try:
            report, _ = approx_leverage(A.T, plan, seed)
            rank = report.extras["rank"]
        except errors.RankDeficient:
            if plan.r1 < d:  # a sampled sketch: another seed may keep rank n
                raise
            rank = 0  # the exact plan raises only for a numerically zero A
    else:
        raise errors.InvalidParameter(f"unknown method {method!r}")
    if rank < n:
        raise errors.RankTooLow(
            f"matrix has rank {rank} < {n}; the solve needs rank {n}")
    return SamplingProbabilities(p=report.normalized, beta=beta)


def underls_solve(a, b, p: SamplingProbabilities, epsilon: float,
                  delta: float, seed: int,
                  extras: Optional[dict] = None) -> np.ndarray:
    """Approximate minimal-norm solution of min ||A x - b|| for n < d.

    Samples r = sample_size(n, beta, eps, delta) columns and returns
    A^T (AS)^{+T} (AS)^+ b = A^T (AS AS^T)^{-1} b. AS AS^T = C C^T for the
    n x c matrix C of the c distinct drawn columns, column j scaled by
    sqrt(draws_j / (r p_j)), and (C C^T)^{-1} = W W^T for the n x n
    W = R^{-1} that ``build_orthogonalizer(C^T, kind="sketch")`` returns
    (C being a sample of A's columns); it raises ``RankDeficient`` when C
    has rank below n. A and b are checked finite (``NonFiniteEntry``). If
    ``extras`` is a dict it receives ``r``, ``distinct`` (c) and the
    orthogonalizer's ``route``.
    """
    A = validate_matrix(a)
    n, d = A.shape
    if n >= d:
        raise errors.ShapeError(f"need n < d, got shape {A.shape}")
    bvec = validate_matrix(b, "b").reshape(-1)
    if bvec.size != n:
        raise errors.DimensionMismatch(f"b has length {bvec.size}, expected {n}")
    if p.p.size != d:
        raise errors.DimensionMismatch(
            f"probabilities cover {p.p.size} columns, matrix has {d}")
    r = sample_size(n, p.beta, epsilon, delta)
    S = draw_sampling_matrix(p, r, seed)
    C = A[:, S.selected] * np.sqrt(S.counts / (r * p.p[S.selected]))
    orth = build_orthogonalizer(C.T, kind="sketch")
    W = orth.Rinv
    if extras is not None:
        extras.update(r=r, distinct=int(S.selected.size), route=orth.route)
    return A.T @ (W @ (W.T @ bvec))
