"""Heavy-pair search and large cross-leverage score approximation.

The search enumerates exactly the pairs of rows of X whose squared inner
product clears ||X^T X||_F^2 / kappa, examining only norm-heavy candidates
(a Cauchy-Schwarz superset of bounded size) with blocked matrix products.
Rows are ranked by numpy's default (SIMD) sort; the order it gives
equal norms changes nothing in the result, as the candidates depend only
on the sorted norms and the pairs are returned ordered by (i, j).
``heavy_pairs`` validates X; the search itself, ``_heavy_pairs``, trusts
X and takes ||X^T X||_F^2 and X's squared row norms. The sketched
variant searches X = A W for the map W that ``approx_leverage`` returns:
A R^{-1}, or, when stage 2 compresses, Omega = A R^{-1} Pi2. X is never
stored: the search gathers each row block and column window from A and
multiplies the gathered tile by W. Only the ranks whose own norm test
passes have a partner, and first partners are found for those alone, so
beyond A the cross path holds two n-vectors, the scores and the rank
order (the sorted norms are a third only until the first partners are
found), and the search's tiles: a column window of A W and a tile that
the gathered rows of A and the block of inner products share, at most
1 MiB each, and a row block of at most 362 rows of A W. On every plan
the search takes rho, the rank, in place of ||X^T X||_F^2, so its cutoff
is rho / kappa (the paper's d / kappa) and no pass reads A for X^T X;
it takes the leverage scores as X's row norms, and A, which the sketch
validated, is not validated again.

On the exact plan (r1 = n, r2 = d) X = A R^{-1} is an orthonormal basis
Q of A's range, of A's rank rho, and Q Q^T = U U^T for the thin SVD's U:
the search then finds the exact heavy pairs of A, at the cutoff
rho / kappa, with no SVD of A. Its R is one Cholesky pass of A^T A
where that pass certifies kappa_2(R) <= 8, so that Q is orthonormal to
about u 8^2 = 1.4e-14, and CholeskyQR2's otherwise. A plan on the gram
route has those sizes too; its R is one guarded Cholesky of A^T A where
the guard trusts it, so its Q is orthonormal to about
u kappa_2^2 <= 1e-8. Either way X^T X = I_rho by construction, and rho
is ||X^T X||_F^2 itself. Where a stage drew, X^T X is not I_rho, but
rescaling kappa by ||X^T X||_F^2 / rho would give the same cutoff
rho / kappa, so X^T X is not summed there either.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import errors
from ._kernels import row_sq_norms
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
    ``gram_fro_sq`` is the ||X^T X||_F^2 the threshold divides: measured
    by ``heavy_pairs``, and the rank rho on the cross path
    (``approx_cross_leverage``), which does not sum X^T X.
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
    gram = X.T @ X
    return _heavy_pairs(X, None, float(np.sum(gram * gram)), row_sq_norms(X),
                        kappa)


def _check_kappa(kappa: float) -> None:
    if not (1.0 < kappa < math.inf):
        raise errors.InvalidKappa(
            f"kappa must exceed 1 and be finite, got {kappa}")


def _heavy_pairs(A: np.ndarray, W, gram_fro_sq: float, norms: np.ndarray,
                 kappa: float) -> HeavyPairSet:
    """``heavy_pairs`` on X = A W, or X = A where ``W`` is None, for a
    trusted A (finite, C-contiguous float64), given ``gram_fro_sq`` =
    ||X^T X||_F^2 and X's squared row norms ``norms``.

    X is never formed: each row block and column window of X is gathered
    from A with ``take`` and multiplied by W into a tile of its own. The
    ranks with a partner are a suffix z0..n-1, and their first partners
    (``_partner_suffix``) are all the search keeps besides the rank
    order: no n-long array is formed but that order and, until the
    suffix is found, the sorted norms.
    """
    n, d = A.shape
    r = d if W is None else W.shape[1]
    wide = max(d, r)  # row width of a tile: gathered rows of A, or of X
    if gram_fro_sq <= 0.0:
        raise errors.ZeroMatrix("||X^T X||_F is zero; threshold degenerate")
    threshold = gram_fro_sq / kappa

    # numpy's default sort is a SIMD one, several times faster than the
    # stable sort; it may rank equal norms either way, which moves a pair
    # between tiles but changes neither first[] nor the pairs found
    order = np.argsort(norms)
    z0, first, candidates = _partner_suffix(norms[order], threshold)
    # first[z - z0] is the first partner of rank z >= z0; it does not
    # increase with z, so the ranks a block [a, b) is tested against
    # reach down to first[b - 1 - z0], and the last window, of
    # n - first[-1] ranks, is the widest. Ranks below z0 have no partner
    # of their own but appear in the windows of those above.
    widest = n - int(first[-1]) if first.size else 0
    rows_per = max(1, min(n - z0, math.isqrt(_BLOCK_ELEMS),
                          _BLOCK_ELEMS // wide))
    # Each tile holds at most _BLOCK_ELEMS, and no more than its largest
    # block or window needs. A block of inner products and the rows of A
    # that a tile of X is gathered from share one tile: a row block's or
    # a column window's rows are used up before the block is formed.
    need = rows_per * widest
    if W is not None:
        need = max(need, max(rows_per, widest) * d)
    row_tile = np.empty(rows_per * r)
    col_tile = np.empty(min(_BLOCK_ELEMS, widest * r))
    shared = np.empty(min(_BLOCK_ELEMS, need))

    def rows_of_x(ranks: slice, tile: np.ndarray) -> np.ndarray:
        """The rows of X at ``ranks``, written into ``tile``."""
        m = ranks.stop - ranks.start
        rows = A.take(order[ranks], axis=0, mode="clip",  # clip: unbuffered
                      out=(tile if W is None else shared)[:m * d].reshape(m, d))
        if W is None:
            return rows
        return np.matmul(rows, W, out=tile[:m * r].reshape(m, r))

    found_i, found_j = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    found_c = [np.empty(0)]
    for a in range(z0, n, rows_per):
        b = min(a + rows_per, n)
        xa = rows_of_x(slice(a, b), row_tile)
        cols_per = max(1, _BLOCK_ELEMS // max(b - a, wide))
        for c0 in range(int(first[b - 1 - z0]), b, cols_per):
            c1 = min(c0 + cols_per, b)
            xc = rows_of_x(slice(c0, c1), col_tile)
            sq = np.matmul(xa, xc.T,
                           out=shared[:(b - a) * (c1 - c0)].reshape(b - a, -1))
            sq *= sq
            # the rank window c0 + ji in [first[a + zi - z0], a + zi] is
            # tested only on the few entries that clear the threshold
            hits = np.flatnonzero(sq >= threshold)
            zi, ji = np.divmod(hits, c1 - c0)
            keep = (c0 + ji <= a + zi) & (c0 + ji >= first[a - z0 + zi])
            found_i.append(order[a + zi[keep]])
            found_j.append(order[c0 + ji[keep]])
            found_c.append(sq.ravel()[hits[keep]])
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    return _finish(np.minimum(i, j), np.maximum(i, j), np.concatenate(found_c),
                   threshold, kappa, gram_fro_sq, r, candidates)


def _partner_suffix(ns: np.ndarray, threshold: float):
    """``(z0, first, candidates)`` for squared norms ``ns``, ascending.

    Rank z has a partner j <= z exactly when fl(ns[z] ns[z]) >= threshold,
    as rounded products are monotone in each factor; so the ranks with a
    partner are the suffix z0..n-1, found by ``searchsorted`` on
    sqrt(threshold) and moved across whole runs of equal norms until the
    product test itself agrees. ``first`` holds ``_first_partners`` for
    those ranks only, and ``candidates`` counts the pairs j <= z they
    test, sum(z - first[z] + 1). It allocates nothing n long.
    """
    n = ns.size
    z0 = int(np.searchsorted(ns, math.sqrt(threshold), side="left"))
    with np.errstate(over="ignore"):  # an overflowed square still passes
        while z0 > 0 and ns[z0 - 1] * ns[z0 - 1] >= threshold:
            z0 = int(np.searchsorted(ns, ns[z0 - 1], side="left"))
        while z0 < n and ns[z0] * ns[z0] < threshold:
            z0 = int(np.searchsorted(ns, ns[z0], side="right"))
    first = _first_partners(ns, threshold, start=z0)
    m = n - z0  # sum(z + 1 for z in z0..n-1) - sum(first)
    return z0, first, m * (z0 + 1 + n) // 2 - int(first.sum())


def _first_partners(ns: np.ndarray, threshold: float,
                    start: int = 0) -> np.ndarray:
    """first[z - start] = min{j : ns[z] * ns[j] >= threshold}, or n, for
    the ranks z >= ``start``; ns ascending.

    Rounded products are monotone in each factor, so each row's partners
    are a suffix of ``ns``. ``searchsorted`` on threshold / ns finds its
    start up to the rounding of the quotient; the loops then move each
    start across whole runs of equal norms until the product test itself
    agrees, so the candidates are exactly those the test admits. Every
    temporary is as long as the ranks asked for.
    """
    n = ns.size
    q = ns[start:]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first = np.searchsorted(ns, threshold / q, side="left")
    while True:
        prev = np.maximum(first - 1, 0)
        down = (first > 0) & (q * ns[prev] >= threshold)
        if not down.any():
            break
        first[down] = np.searchsorted(ns, ns[prev[down]], side="left")
    while True:
        at = np.minimum(first, n - 1)
        up = (first < n) & (q * ns[at] < threshold)
        if not up.any():
            break
        first[up] = np.searchsorted(ns, ns[at[up]], side="right")
    return first


def _finish(i, j, c_sq, threshold, kappa, gram_fro_sq, r,
            candidates=0) -> HeavyPairSet:
    """Check the count bound and order the pairs (i, j, c_sq) by (i, j)."""
    bound = math.ceil(min(kappa * r, 2.0**63))  # kappa r may overflow
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
    for the seeded stage-2 map Pi2. On every plan the cutoff on
    sketched inner products is rho / kappa, rho the rank (the paper's
    d / kappa), and ``gram_fro_sq`` reports rho. A plan that factors A
    itself and draws no stage (the gram route and the exact plan) keeps
    A's rank rho and makes X an orthonormal basis of A's range: X^T X =
    I_rho, so rho is ||X^T X||_F^2 and the pairs are A's exact heavy
    pairs. Where a stage drew (r1 < n, or r2 < rank), the search would
    take the same cutoff from kappa rescaled to
    kappa' = kappa ||X^T X||_F^2 / rho, as ||X^T X||_F^2 / kappa' =
    rho / kappa; so no pass reads A to sum X^T X.

    The pairs are then bounded by kappa ||X^T X||_F^2 / rho, not by
    kappa: each pair returned has <x_i, x_j>^2 >= rho / kappa, and these
    squares sum to at most ||X X^T||_F^2 = ||X^T X||_F^2. So the count
    check of ``_finish`` (at most kappa r pairs, r the columns of W)
    holds wherever ||X^T X||_F^2 <= r rho. It always holds on a plan that
    draws nothing, where ||X^T X||_F^2 = rho and r = rho. A stage-2 map
    of few columns can break it: at r2 = 1, X^T X is the scores' sum,
    about rho, so ||X^T X||_F^2 is about rho^2 and the pairs may number
    about kappa rho against the bound kappa; a plan whose pairs exceed
    the bound raises ``HeavyPairBoundExceeded``.

    The search forms each tile of X it needs from gathered rows of A,
    takes the leverage scores as X's squared row norms (they are those
    norms up to the rounding of the tile products) and trusts A, which
    ``approx_leverage`` validated. The leverage report holds no n-vector
    but the scores, so the search's peak holds two n-vectors (the scores
    and the rank order) and two 1 MiB tiles. A sketch of rank below d
    raises ``RankDeficient``. A must be tall (n > d), except on a plan
    that factors A itself (r1 >= n), which takes A of any shape.
    """
    _check_kappa(kappa)
    t0 = time.perf_counter()
    A = _as_matrix(a)
    # approx_leverage needs n > d; a plan that factors A itself does not
    factor_any_shape = plan.r1 >= A.shape[0] <= A.shape[1]
    report, basis = (_leverage_basis if factor_any_shape
                     else approx_leverage)(A, plan, seed)
    t1 = time.perf_counter()
    result = _heavy_pairs(A, basis.W, float(report.extras["rank"]),
                          report.scores, kappa)
    t2 = time.perf_counter()
    result.extras = {**report.extras, "route": basis.route}
    result.timings_ms = {"sketch_ms": (t1 - t0) * 1e3,
                         "search_ms": (t2 - t1) * 1e3}
    return result
