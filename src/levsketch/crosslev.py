"""Heavy-pair search and large cross-leverage score approximation.

The search enumerates exactly the pairs of rows of X whose squared inner
product clears ||X^T X||_F^2 / kappa, examining only norm-heavy candidates
(a Cauchy-Schwarz superset of bounded size) with blocked matrix products.
Rows are ranked by numpy's default (SIMD) sort; the order it gives
equal norms changes nothing in the result, as the candidates depend only
on the sorted norms and the pairs are returned ordered by (i, j).
``heavy_pairs`` validates X; the search itself, ``_heavy_pairs``, trusts
X and takes its X^T X and squared row norms. The sketched variant
searches X = A W for the map W that ``approx_leverage`` returns: A R^{-1},
or, when stage 2 compresses, Omega = A R^{-1} Pi2. X is never stored:
its Gram is summed over row tiles of A W (``product_gram``), and the
search gathers each row block and column window from A and multiplies
the gathered tile by W, so the cross path holds A, one tile of A W at a
time and O(n) vectors. The search runs with kappa rescaled by
||X^T X||_F^2 / d, giving an effective cutoff of d / kappa, and reuses
the X^T X of that rescaling and the leverage scores as X's row norms; A,
which the sketch validated, is not validated again.

On the exact plan (r1 = n, r2 = d) X = A R^{-1} is an orthonormal basis
Q of A's range, of A's rank rho, and Q Q^T = U U^T for the thin SVD's U:
the search then finds the exact heavy pairs of A, at the cutoff
rho / kappa, with no SVD. A plan on the gram route has those sizes too;
its R is one guarded Cholesky of A^T A where the guard trusts it, so its
Q is orthonormal to about u kappa_2^2 <= 1e-8.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import errors
from ._kernels import product_gram, row_sq_norms
from .levscore import _leverage_basis, approx_leverage
from .matcore import _as_matrix, validate_matrix
from .sketch import SketchPlan

# float64 elements in one tile of inner products or of gathered rows (1 MiB)
_BLOCK_ELEMS = 1 << 17


@dataclass
class HeavyPairSet:
    """Unordered pairs (i <= j) with squared inner products above threshold.

    ``candidates`` counts the norm-heavy pairs the search examined;
    ``timings_ms`` holds per-phase wall-clock times where the producer
    measured them, and ``extras`` the sketch sizes it used (``rank``,
    ``r1``, ``r2``) and the orthogonalizer's ``route`` where it sketched.
    """

    pairs: List[Tuple[int, int, float]] = field(default_factory=list)
    threshold: float = 0.0
    kappa: float = 0.0
    gram_fro_sq: float = 0.0
    candidates: int = 0
    timings_ms: dict = field(default_factory=dict, compare=False)
    extras: dict = field(default_factory=dict, compare=False)

    def __len__(self) -> int:
        return len(self.pairs)

    def indices(self) -> set:
        return {(i, j) for i, j, _ in self.pairs}

    def off_diagonal(self) -> "HeavyPairSet":
        return HeavyPairSet(
            pairs=[p for p in self.pairs if p[0] != p[1]],
            threshold=self.threshold, kappa=self.kappa,
            gram_fro_sq=self.gram_fro_sq, candidates=self.candidates,
            timings_ms=dict(self.timings_ms), extras=dict(self.extras))


def heavy_pairs(x, kappa: float) -> HeavyPairSet:
    """All pairs (i, j), i <= j, with <x_i, x_j>^2 >= ||X^T X||_F^2 / kappa.

    Exact and deterministic: rows are ranked by squared norm, each
    ranked row z gets its first partner first[z], the lowest rank j with
    ||x_z||^2 ||x_j||^2 >= threshold, and the candidates first[z] <= j <= z
    are verified by blocked matrix products.
    O(nr + kappa r^2 + n ln n). Validates X and kappa, forms X^T X and
    the squared row norms and runs the trusted search ``_heavy_pairs``.
    """
    X = validate_matrix(x)
    _check_kappa(kappa)
    return _heavy_pairs(X, None, X.T @ X, row_sq_norms(X), kappa)


def _check_kappa(kappa: float) -> None:
    if not (1.0 < kappa < math.inf):
        raise errors.InvalidKappa(
            f"kappa must exceed 1 and be finite, got {kappa}")


def _heavy_pairs(A: np.ndarray, W, gram: np.ndarray, norms: np.ndarray,
                 kappa: float) -> HeavyPairSet:
    """``heavy_pairs`` on X = A W, or X = A where ``W`` is None, for a
    trusted A (finite, C-contiguous float64), given X's Gram ``gram`` =
    X^T X and its squared row norms ``norms``.

    X is never formed: each row block and column window of X is gathered
    from A with ``take`` and multiplied by W in a tile of its own.
    """
    n, d = A.shape
    r = d if W is None else W.shape[1]
    wide = max(d, r)  # row width of a tile: gathered rows of A, or of X
    gram_fro_sq = float(np.sum(gram * gram))
    if gram_fro_sq <= 0.0:
        raise errors.ZeroMatrix("||X^T X||_F is zero; threshold degenerate")
    threshold = gram_fro_sq / kappa

    # numpy's default sort is a SIMD one, several times faster than the
    # stable sort; it may rank equal norms either way, which moves a pair
    # between tiles but changes neither first[] nor the pairs found
    order = np.argsort(norms)
    first = _first_partners(norms[order], threshold)
    # first[] does not increase with z, so the rows with a partner
    # (first[z] <= z) are the top ranks z0..n-1; their partners reach down
    # to first[n-1] and include rows that have no partner of their own.
    with_partner = np.flatnonzero(first <= np.arange(n))
    candidates = int(np.sum(with_partner - first[with_partner] + 1))
    z0 = int(with_partner[0]) if with_partner.size else n

    rows_per = max(1, min(n - z0, math.isqrt(_BLOCK_ELEMS),
                          _BLOCK_ELEMS // wide))
    # A block of ranks [a, b) is tested against ranks [first[b-1], b), a
    # window that widens with b: the last one, of n - first[n-1] ranks, is
    # the widest. Each tile holds at most _BLOCK_ELEMS, and no more than
    # its largest block or window needs.
    widest = n - int(first[n - 1])
    row_tile = np.empty(rows_per * r)
    col_tile = np.empty(min(_BLOCK_ELEMS, widest * r))
    sq_tile = np.empty(min(_BLOCK_ELEMS, rows_per * widest))
    # the rows of A a tile of X is made from; a row block's are used up
    # before a column window's are gathered
    gather = None if W is None else np.empty(
        min(_BLOCK_ELEMS, max(rows_per, widest) * d))

    def rows_of_x(ranks: slice, tile: np.ndarray) -> np.ndarray:
        """The rows of X at ``ranks``, written into ``tile``."""
        m = ranks.stop - ranks.start
        rows = A.take(order[ranks], axis=0, mode="clip",  # clip: unbuffered
                      out=(tile if W is None else gather)[:m * d].reshape(m, d))
        if W is None:
            return rows
        return np.matmul(rows, W, out=tile[:m * r].reshape(m, r))

    found_i, found_j = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    found_c = [np.empty(0)]
    for a in range(z0, n, rows_per):
        b = min(a + rows_per, n)
        xa = rows_of_x(slice(a, b), row_tile)
        cols_per = max(1, _BLOCK_ELEMS // max(b - a, wide))
        for c0 in range(int(first[b - 1]), b, cols_per):
            c1 = min(c0 + cols_per, b)
            xc = rows_of_x(slice(c0, c1), col_tile)
            sq = np.matmul(xa, xc.T,
                           out=sq_tile[:(b - a) * (c1 - c0)].reshape(b - a, -1))
            sq *= sq
            # the rank window c0 + ji in [first[a + zi], a + zi] is tested
            # only on the few entries that clear the threshold
            hits = np.flatnonzero(sq >= threshold)
            zi, ji = np.divmod(hits, c1 - c0)
            keep = (c0 + ji <= a + zi) & (c0 + ji >= first[a + zi])
            found_i.append(order[a + zi[keep]])
            found_j.append(order[c0 + ji[keep]])
            found_c.append(sq.ravel()[hits[keep]])
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    return _finish(np.minimum(i, j), np.maximum(i, j), np.concatenate(found_c),
                   threshold, kappa, gram_fro_sq, r, candidates)


def _first_partners(ns: np.ndarray, threshold: float) -> np.ndarray:
    """first[z] = min{j : ns[z] * ns[j] >= threshold}, or n; ns ascending.

    Rounded products are monotone in each factor, so each row's partners
    are a suffix of ``ns``. ``searchsorted`` on threshold / ns finds its
    start up to the rounding of the quotient; the loops then move each
    start across whole runs of equal norms until the product test itself
    agrees, so the candidates are exactly those the test admits.
    """
    n = ns.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first = np.searchsorted(ns, threshold / ns, side="left")
    while True:
        prev = np.maximum(first - 1, 0)
        down = (first > 0) & (ns * ns[prev] >= threshold)
        if not down.any():
            break
        first[down] = np.searchsorted(ns, ns[prev[down]], side="left")
    while True:
        at = np.minimum(first, n - 1)
        up = (first < n) & (ns * ns[at] < threshold)
        if not up.any():
            break
        first[up] = np.searchsorted(ns, ns[at[up]], side="right")
    return first


def _finish(i, j, c_sq, threshold, kappa, gram_fro_sq, r,
            candidates=0) -> HeavyPairSet:
    """Check the count bound and order the pairs (i, j, c_sq) by (i, j)."""
    bound = math.ceil(kappa * r)
    if len(i) > bound:
        raise errors.HeavyPairBoundExceeded(
            f"heavy-pair count {len(i)} exceeds the kappa*r bound {bound}")
    idx = np.lexsort((j, i))
    pairs = list(zip(i[idx].tolist(), j[idx].tolist(), c_sq[idx].tolist()))
    return HeavyPairSet(pairs=pairs, threshold=threshold, kappa=kappa,
                        gram_fro_sq=gram_fro_sq, candidates=candidates)


def heavy_pairs_brute(x, kappa: float) -> HeavyPairSet:
    """O(n^2 r) reference implementation of the same set (test oracle)."""
    X = validate_matrix(x)
    _check_kappa(kappa)
    gram = X.T @ X
    gram_fro_sq = float(np.sum(gram * gram))
    if gram_fro_sq <= 0.0:
        raise errors.ZeroMatrix("||X^T X||_F is zero; threshold degenerate")
    threshold = gram_fro_sq / kappa
    n = X.shape[0]
    G = X @ X.T
    found = []
    for i in range(n):
        for j in range(i, n):
            c_sq = float(G[i, j]) ** 2
            if c_sq >= threshold:
                found.append((i, j, c_sq))
    return HeavyPairSet(pairs=found, threshold=threshold, kappa=kappa,
                        gram_fro_sq=gram_fro_sq)


def approx_cross_leverage(a, plan: SketchPlan, kappa: float,
                          seed: int) -> HeavyPairSet:
    """Large cross-leverage scores via the leverage sketch.

    Runs ``approx_leverage`` and searches X = A W for heavy pairs, for
    the map W it returns, without storing X. X is A R^{-1} when
    ``plan.r2 >= rank``, and otherwise the sketch Omega = A R^{-1} Pi2
    for the seeded stage-2 map Pi2. X^T X is summed over row tiles of
    A W (timed with the sketch), and the search forms each tile of X it
    needs from gathered rows of A. The search runs at the rescaled
    threshold kappa' = kappa ||X^T X||_F^2 / d, so that the effective
    cutoff on sketched inner products is d / kappa; it reuses that
    X^T X, takes the leverage scores as X's squared row norms (they are
    those norms up to the rounding of the tile products) and trusts A,
    which ``approx_leverage`` validated. Since
    ||X^T X||_F^2 <= d (1 + 30 d eps) whenever the sketch preserves
    pairwise inner products, kappa' <= kappa (1 + 30 d eps). d is the
    rank: a sketch of lower rank raises ``RankDeficient``, and the exact
    plan (r1 = n, r2 = d) keeps A's rank rho, so that X is an orthonormal
    basis of A's range and the pairs are A's exact heavy pairs at the
    cutoff rho / kappa. A must be tall (n > d), except on a plan that
    factors A itself (r1 >= n), which takes A of any shape.
    """
    _check_kappa(kappa)
    t0 = time.perf_counter()
    A = _as_matrix(a)
    # approx_leverage needs n > d; a plan that factors A itself does not
    factor_any_shape = plan.r1 >= A.shape[0] <= A.shape[1]
    report, basis = (_leverage_basis if factor_any_shape
                     else approx_leverage)(A, plan, seed)
    d = report.extras["rank"]
    gram = product_gram(A, basis.W)
    gram_fro_sq = float(np.sum(gram * gram))
    if not math.isfinite(gram_fro_sq):
        raise errors.NonFiniteFactor(
            "||X^T X||_F^2 of the sketched factor X overflowed")
    kappa_prime = kappa * gram_fro_sq / d
    if not math.isfinite(kappa_prime):
        raise errors.InvalidKappa(
            f"kappa {kappa} is too large: the rescaled kappa * "
            f"||X^T X||_F^2 / d overflowed")
    t1 = time.perf_counter()
    result = _heavy_pairs(A, basis.W, gram, report.scores, kappa_prime)
    t2 = time.perf_counter()
    result.kappa = kappa
    result.extras = {**report.extras, "route": basis.route}
    result.timings_ms = {"sketch_ms": (t1 - t0) * 1e3,
                         "search_ms": (t2 - t1) * 1e3}
    return result
