import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levsketch
from levsketch import (SketchOperator, apply_sparse_jlt, apply_srht, errors,
                       fjlt_dim, fwht, jlt_dim, make_plan)
from levsketch.sketch import gaussian_matrix, next_pow2


def naive_hadamard(n):
    """Recursive O(n^2) normalized Hadamard matrix (independent oracle)."""
    if n == 1:
        return np.array([[1.0]])
    h = naive_hadamard(n // 2) * math.sqrt(n // 2)
    block = np.block([[h, h], [h, -h]])
    return block / math.sqrt(n)


# ---------------------------------------------------------------- fwht

def test_fwht_two_point():
    np.testing.assert_allclose(fwht([1.0, 0.0]),
                               [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_fwht_first_basis_vector():
    e1 = np.zeros(8)
    e1[0] = 1.0
    np.testing.assert_allclose(fwht(e1), np.full(8, 1 / math.sqrt(8)))


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 2048])
def test_fwht_matches_naive_matrix(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 3))
    np.testing.assert_allclose(fwht(x), naive_hadamard(n) @ x, atol=1e-12)


def test_fwht_uneven_blocks_and_tiles_match_oracle():
    # 2^17 rows split into blocks 2^6, 2^6, 2^5; 64 columns overflow the
    # kernel's scratch, so the first block is applied in column tiles.
    log_n = 17
    n = 1 << log_n
    x = np.random.default_rng(17).standard_normal((n, 64))
    y = fwht(x)
    j = np.arange(n)
    for i in (0, 1, 63, 64, 2047, 2048, 77777, n - 1):
        parity = np.zeros(n, dtype=np.int64)
        for bit in range(log_n):
            parity ^= ((i & j) >> bit) & 1
        row = (1.0 - 2.0 * parity) / math.sqrt(n)
        np.testing.assert_allclose(y[i], row @ x, rtol=0, atol=1e-12)


@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_fwht_orthogonal_and_involutive(log_n, seed):
    n = 2**log_n
    x = np.random.default_rng(seed).standard_normal(n)
    y = fwht(x)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-12 * max(
        np.linalg.norm(x), 1.0)
    np.testing.assert_allclose(fwht(y), x, atol=1e-12)


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(errors.NotPowerOfTwo):
        fwht(np.ones(3))


def test_import_leaves_environment_alone():
    src = Path(levsketch.__file__).resolve().parent.parent
    code = ("import json, os; before = dict(os.environ); import levsketch; "
            "print(json.dumps([sorted(k for k in os.environ "
            "if os.environ[k] != before.get(k)), levsketch.backend_name()]))")
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [[], "numpy"]


# ---------------------------------------------------------------- dims

def test_jlt_dim_frozen_value():
    # ceil((12 ln 1e4 + 6 ln 10) / 0.25), evaluated once by hand
    assert jlt_dim(10**4, 0.5, 0.1) == 498


def test_jlt_dim_doubling_increment():
    step = math.ceil(12 * math.log(2) / 0.25)
    for n in [10, 1000, 10**6]:
        assert jlt_dim(2 * n, 0.5, 0.1) - jlt_dim(n, 0.5, 0.1) <= step


def test_jlt_dim_rejects_bad_epsilon():
    with pytest.raises(errors.InvalidParameter):
        jlt_dim(100, 1.0, 0.5)
    with pytest.raises(errors.InvalidParameter):
        jlt_dim(100, 0.5, 1.0)


def test_fjlt_dim_frozen_and_capped():
    # raw formula value is ~1.48e6, far above n: capped
    assert fjlt_dim(4096, 10, 0.5) == 4096
    assert fjlt_dim(2**22, 2, 0.5) <= 2**22


def test_fjlt_dim_monotone_in_d():
    vals = [fjlt_dim(2**22, d, 0.5) for d in (2, 4, 8, 16)]
    assert vals == sorted(vals)


# ---------------------------------------------------------------- SRHT

def test_full_srht_preserves_frobenius_norm():
    # out_dim = n_pad keeps every row of the transform, unscaled
    rng = np.random.default_rng(0)
    A = rng.standard_normal((16, 3))
    op = SketchOperator("SRHT", 5, 16, next_pow2(16))
    out = apply_srht(op, A)
    assert out.shape == (16, 3)
    assert abs(np.linalg.norm(out) - np.linalg.norm(A)) <= 1e-12 * np.linalg.norm(A)


def test_full_srht_pads_to_power_of_two():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((10, 2))
    op = SketchOperator("SRHT", 5, 10, next_pow2(10))
    out = apply_srht(op, A)
    assert out.shape == (16, 2)
    # zero-padding adds no energy
    assert abs(np.linalg.norm(out) - np.linalg.norm(A)) <= 1e-12 * np.linalg.norm(A)


def test_srht_allocates_no_input_sized_temporary():
    # the padded n_pad x d buffer (64 MiB here) and the r x d output are
    # the only large allocations; an n x d product A * D would add 48.8 MiB
    n, d, r = 100_000, 64, 4096
    A = np.random.default_rng(2).standard_normal((n, d))
    op = SketchOperator("SRHT", 3, n, r)
    tracemalloc.start()
    try:
        apply_srht(op, A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = (next_pow2(n) + 2 * r) * d * 8 + 4 * 2**20
    assert peak < budget, f"peak {peak / 2**20:.1f} MiB"


def test_srht_deterministic_per_seed():
    op = SketchOperator("SRHT", 99, 8, 4)
    a = apply_srht(op, np.eye(8))
    b = apply_srht(op, np.eye(8))
    assert np.array_equal(a, b)
    other = apply_srht(SketchOperator("SRHT", 100, 8, 4), np.eye(8))
    assert not np.array_equal(a, other)


def test_srht_gram_is_unbiased_identity():
    # E[Pi^T Pi] = I: Monte Carlo over seeds on a fixed unit vector
    n = 64
    x = np.zeros((n, 1))
    x[3, 0] = 1.0
    vals = []
    for seed in range(200):
        op = SketchOperator("SRHT", seed, n, 16)
        vals.append(np.sum(apply_srht(op, x) ** 2))
    assert abs(np.mean(vals) - 1.0) < 0.1


def test_srht_is_epsilon_fjlt_empirically():
    # guarantee premise at desk scale: ||I - U^T Pi^T Pi U||_2 <= eps
    # in at least 9/10 seeded trials on a random orthonormal basis.
    rng = np.random.default_rng(42)
    U, _ = np.linalg.qr(rng.standard_normal((1024, 4)))
    eps = 0.5
    r = fjlt_dim(1024, 4, eps)
    hits = 0
    for seed in range(10):
        PU = apply_srht(SketchOperator("SRHT", seed, 1024, r), U)
        if np.linalg.norm(np.eye(4) - PU.T @ PU, 2) <= eps:
            hits += 1
    assert hits >= 9


def test_srht_preserves_rank():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((256, 6))
    r = fjlt_dim(256, 6, 0.5)
    for seed in range(20):
        PA = apply_srht(SketchOperator("SRHT", seed, 256, r), A)
        assert np.linalg.matrix_rank(PA) == 6


def test_srht_singular_value_control():
    # consequence: ||I - Sigma_Psi^{-2}||_2 <= eps/(1-eps) when the
    # FJLT event holds; check on a small orthonormal U.
    rng = np.random.default_rng(13)
    U, _ = np.linalg.qr(rng.standard_normal((512, 4)))
    eps = 0.5
    r = fjlt_dim(512, 4, eps)
    hits = 0
    for seed in range(10):
        PU = apply_srht(SketchOperator("SRHT", seed, 512, r), U)
        s = np.linalg.svd(PU, compute_uv=False)
        if np.max(np.abs(1.0 - s**-2)) <= eps / (1 - eps):
            hits += 1
    assert hits >= 9


def test_srht_dimension_checks():
    with pytest.raises(errors.DimensionMismatch):
        apply_srht(SketchOperator("SRHT", 0, 8, 4), np.eye(6))
    with pytest.raises(errors.DimensionMismatch):
        apply_srht(SketchOperator("SRHT", 0, 8, 9), np.eye(8))


# ---------------------------------------------------------------- sparse JLT

def test_sparse_jlt_three_point_law():
    op = SketchOperator("SparseJLT", 3, 1000, 100)
    P = apply_sparse_jlt(op, np.eye(1000))
    s = math.sqrt(3.0 / 100)
    vals = np.unique(np.round(P, 12))
    assert set(vals).issubset({-round(s, 12), 0.0, round(s, 12)})
    density = np.mean(P != 0)
    assert abs(density - 1 / 3) <= 0.02


def test_sparse_jlt_row_norms_concentrate():
    # E[P P^T] = I: each input direction keeps unit squared norm on average
    from levsketch.sketch import _sparse_jlt_matrix

    P = _sparse_jlt_matrix(SketchOperator("SparseJLT", 11, 10**5, 64))
    avg = np.mean(np.sum(P**2, axis=1))
    assert abs(avg - 1.0) <= 0.05


def test_sparse_jlt_norm_preservation_fraction():
    # JLT guarantee: for unit vectors, fraction with |norm^2 - 1| > eps small
    rng = np.random.default_rng(5)
    eps = 0.5
    d = 200
    r = jlt_dim(100 * 100, eps, 0.1)
    X = rng.standard_normal((100, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    failures = 0
    for seed in range(10):
        op = SketchOperator("SparseJLT", seed, d, r)
        Y = apply_sparse_jlt(op, X)
        frac = np.mean(np.abs(np.sum(Y**2, axis=1) - 1.0) > eps)
        if frac > 0.1:
            failures += 1
    assert failures <= 1


def test_sparse_jlt_sides_agree():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((5, 12))
    op = SketchOperator("SparseJLT", 4, 12, 7)
    right = apply_sparse_jlt(op, X, side="right")
    left = apply_sparse_jlt(op, X.T, side="left")
    np.testing.assert_allclose(right, left.T)


# ---------------------------------------------------------------- gaussian

def test_gaussian_moments_and_determinism():
    op = SketchOperator("Gaussian", 21, 1000, 1000)
    G = gaussian_matrix(op)
    assert abs(G.mean()) <= 0.01
    assert abs(G.var() - 1.0) <= 0.02
    assert np.array_equal(G, gaussian_matrix(op))


# ---------------------------------------------------------------- plans

def test_make_plan_practical_defaults():
    plan = make_plan(2048, 16, 0.5)
    assert plan.r1 == min(2048, math.ceil(20 * 16 * math.log(2048)))
    assert plan.r2 == math.ceil(12 * math.log(2048) / 0.25)


def test_make_plan_theory_uses_proof_grade_formulas():
    plan = make_plan(1024, 4, 0.5, mode="theory")
    assert plan.r1 == fjlt_dim(1024, 4, 0.5)
    assert plan.r2 == jlt_dim(1024**2, 0.5, 0.1)


def test_make_plan_overrides_and_validation():
    plan = make_plan(100, 5, 0.25, r1=64, r2=9)
    assert (plan.r1, plan.r2) == (64, 9)
    assert make_plan(100, 5, 0.25, r1=np.int64(64)).r1 == 64
    with pytest.raises(errors.InvalidParameter):
        make_plan(100, 5, 0.75)
    for bad in (0, -3, 2.5, 9.0, True, "8"):
        for key in ("r1", "r2"):
            with pytest.raises(errors.InvalidParameter):
                make_plan(100, 5, 0.25, **{key: bad})
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        for key in ("c1", "c2"):
            with pytest.raises(errors.InvalidParameter):
                make_plan(100, 5, 0.25, **{key: bad})


def test_next_pow2():
    assert [next_pow2(k) for k in (1, 2, 3, 5, 8, 1000)] == [1, 2, 4, 8, 8, 1024]
