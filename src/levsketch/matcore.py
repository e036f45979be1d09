"""Dense matrix core: thin SVD, pseudoinverse, and the exact leverage oracle.

Leverage scores are the diagonal entries of the hat matrix A A^+, i.e. the
squared row norms of any orthonormal basis for the column space of A. The
routines here form that basis deterministically and serve as ground truth
for every sketched estimator in the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import errors
from ._kernels import row_sq_norms

DEFAULT_RANK_TOL = 1e-12
DEFAULT_GRAM_CAP = 4096
_CHECK_ELEMS = 1 << 18  # entries per finiteness check: a 256 KiB mask


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous 2-D float64 array, rejecting empty input;
    for callers whose kernel checks the entries as it reads them."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise errors.ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise errors.EmptyMatrix(f"{name} is empty ({arr.shape})")
    return np.ascontiguousarray(arr)


def validate_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting empty or non-finite input."""
    arr = _as_matrix(a, name)
    flat = arr.reshape(-1)
    mask = np.empty(min(flat.size, _CHECK_ELEMS), dtype=bool)
    for lo in range(0, flat.size, _CHECK_ELEMS):
        block = flat[lo:lo + _CHECK_ELEMS]
        if not np.isfinite(block, out=mask[:block.size]).all():
            raise errors.NonFiniteEntry(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class ThinSVD:
    """Compact SVD A = U diag(s) V^T truncated at ``DEFAULT_RANK_TOL``."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.singular_values) @ self.V.T


@dataclass
class LeverageReport:
    """Per-row leverage scores; their coherence and normalized weights are
    derived from the scores on access, so a caller that reads only the
    scores allocates no second n-vector."""

    scores: np.ndarray
    method: str  # "exact" | "sketched" | "mi_estimator"
    params: Optional[object] = None
    seed: Optional[int] = None
    extras: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.scores.size)

    @property
    def coherence(self) -> float:
        """The largest score."""
        return float(self.scores.max())

    @property
    def normalized(self) -> np.ndarray:
        """The scores over their sum, a new array on each access (all zeros
        where every score is 0)."""
        total = float(self.scores.sum())
        return (self.scores / total if total > 0
                else np.zeros_like(self.scores))


def thin_svd(a) -> ThinSVD:
    """Thin SVD with singular values at or below ``DEFAULT_RANK_TOL * s[0]``
    dropped."""
    A = validate_matrix(a)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        # all-zero matrix: rank 0 factors
        return ThinSVD(U[:, :0], s[:0], Vt.T[:, :0])
    rho = int(np.sum(s > DEFAULT_RANK_TOL * s[0]))
    return ThinSVD(np.ascontiguousarray(U[:, :rho]), s[:rho].copy(),
                   np.ascontiguousarray(Vt[:rho].T))


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the thin SVD."""
    f = thin_svd(a)
    if f.rank == 0:
        return np.zeros((f.V.shape[0], f.U.shape[0]))
    return (f.V / f.singular_values) @ f.U.T


def exact_leverage(a) -> LeverageReport:
    """Exact leverage scores: squared row norms of the thin-SVD basis U."""
    f = thin_svd(a)
    return LeverageReport(row_sq_norms(f.U), "exact",
                          extras={"rank": f.rank})


def exact_cross_leverage(a) -> np.ndarray:
    """Full n x n projector U U^T whose entries are the cross-leverage
    scores, for n up to ``DEFAULT_GRAM_CAP`` rows."""
    A = validate_matrix(a)
    if A.shape[0] > DEFAULT_GRAM_CAP:
        raise errors.MatrixTooLargeForDenseGram(
            f"n={A.shape[0]} exceeds the dense Gram cap {DEFAULT_GRAM_CAP}")
    f = thin_svd(A)
    return f.U @ f.U.T
