import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levsketch
from levsketch import (SketchOperator, apply_srht, approx_cross_leverage,
                       approx_leverage, build_orthogonalizer,
                       errors, exact_leverage, hadamard_matrix, levscore,
                       make_plan, mi_estimate, pseudoinverse)
from levsketch.matcore import DEFAULT_RANK_TOL
from levsketch.sketch import _sparse_jlt_matrix
from conftest import sketch_plan, traced_peak


def degenerate_plan(n, d, eps=0.5):
    """r1 = n factors A itself and r2 = d skips stage 2: the sketch is exact."""
    return make_plan(n, d, eps, r1=n, r2=d)


def householder_only():
    """Force build_orthogonalizer onto its Householder QR fallback."""
    return mock.patch.object(levscore, "_cholesky_qr2", lambda *args: None)


def test_degenerate_exactness_canonical_rows():
    d, n = 4, 12
    A = np.vstack([np.eye(d), np.zeros((n - d, d))])
    report, _ = approx_leverage(A, degenerate_plan(n, d), seed=0)
    np.testing.assert_allclose(report.scores, [1] * d + [0] * (n - d),
                               atol=1e-10)


def test_degenerate_exactness_random():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((100, 7))
    exact = exact_leverage(A).scores
    for seed in (0, 1):
        report, _ = approx_leverage(A, degenerate_plan(100, 7), seed=seed)
        np.testing.assert_allclose(report.scores, exact, atol=1e-9)


def test_exact_plan_keeps_the_rank_of_the_matrix():
    # no seed changes what the exact plan factors: it keeps A's rank 5 and
    # gives A's exact scores, where a sampling plan raises for a new seed;
    # a zero A raises on both
    rng = np.random.default_rng(2)
    A = rng.standard_normal((200, 6))
    A[:, 5] = A[:, 3] - 2 * A[:, 1]
    report, basis = approx_leverage(A, degenerate_plan(200, 6), seed=None)
    assert report.extras == {"rank": 5, "r1": 200, "r2": 5}
    assert basis.W.shape == (6, 5) and report.seed is None
    np.testing.assert_allclose(report.scores, exact_leverage(A).scores,
                               rtol=1e-12, atol=0)
    with pytest.raises(errors.RankDeficient, match="rank 5 < 6; resample"):
        approx_leverage(A, make_plan(200, 6, 0.5, r1=64), seed=0)
    with pytest.raises(errors.RankDeficient, match="numerically zero"):
        approx_leverage(np.zeros((200, 6)), degenerate_plan(200, 6), seed=0)
    with pytest.raises(errors.RankDeficient, match="rank 0 < 6; resample"):
        approx_leverage(np.zeros((200, 6)), make_plan(200, 6, 0.5, r1=64),
                        seed=0)


def test_hadamard_columns_within_eps():
    n, d, eps = 256, 8, 0.5
    A = hadamard_matrix(n)[:, 1 : 1 + d]
    plan = sketch_plan(n, d, eps)
    hits = 0
    for seed in range(10):
        report, _ = approx_leverage(A, plan, seed)
        if np.all(np.abs(report.scores - d / n) <= eps * d / n):
            hits += 1
    assert hits >= 8


def test_random_gaussian_relative_error():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2048, 16))
    exact = exact_leverage(A).scores
    plan = sketch_plan(2048, 16)
    hits = 0
    for seed in range(10):
        report, _ = approx_leverage(A, plan, seed)
        if np.max(np.abs(report.scores - exact) / exact) <= 0.5:
            hits += 1
    assert hits >= 8


def test_report_metadata():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((64, 4))
    plan = make_plan(64, 4, 0.5)
    report, basis = approx_leverage(A, plan, seed=3)
    assert report.method == "sketched"
    assert report.seed == 3
    assert report.params is plan
    rank = report.extras["rank"]
    assert report.extras["r2"] == min(rank, plan.r2)
    assert basis.W.shape == (4, min(rank, plan.r2))
    assert abs(report.normalized.sum() - 1.0) <= 1e-12
    assert report.coherence == pytest.approx(report.scores.max())


def test_basis_and_cross_pairs_report_the_route():
    # the SRHT's PA takes the guarded one-pass Cholesky, the exact plan
    # (r1 = n) CholeskyQR2; the route rides on the basis, not the report
    A = np.random.default_rng(25).standard_normal((2000, 8))
    for r1, route in ((256, "cholesky"), (2000, "cholesky_qr2")):
        plan = make_plan(2000, 8, 0.5, r1=r1)
        report, basis = approx_leverage(A, plan, seed=1)
        assert basis.route == route
        assert "route" not in report.extras
        pairs = approx_cross_leverage(A, plan, kappa=100.0, seed=1)
        assert pairs.extras == {**report.extras, "route": route}


def test_stage2_factor_has_the_row_inner_products_of_omega():
    # at r2 = 5 < rank = 12 the factor A W is Omega = (A R^-1) Pi2 itself,
    # with A R^-1 from the same seed's stage 1; at r2 = rank stage 2 is
    # skipped
    rng = np.random.default_rng(2)
    A = rng.standard_normal((64, 12))
    report, basis = approx_leverage(A, make_plan(64, 12, 0.5, r2=5), seed=3)
    assert report.extras["r2"] == 5
    report12, basis12 = approx_leverage(A, make_plan(64, 12, 0.5, r2=12),
                                        seed=3)
    assert report12.extras["r2"] == 12
    omega = (A @ basis12.W) @ _sparse_jlt_matrix(
        SketchOperator("SparseJLT", 3, 12, 5))
    X = A @ basis.W
    assert X.shape == omega.shape == (64, 5)
    np.testing.assert_allclose(X, omega, rtol=1e-13,
                               atol=1e-13 * np.abs(omega).max())
    np.testing.assert_allclose(report.scores, np.sum(omega**2, axis=1),
                               rtol=1e-13)


def test_stage2_skipped_when_r2_reaches_rank():
    # r1 = 915 < n, r2 = 366 >= rank: the factor A W is A R^-1 from stage 1
    rng = np.random.default_rng(13)
    n, d = 2048, 6
    A = rng.standard_normal((n, d))
    plan = sketch_plan(n, d)
    assert plan.r1 < n and plan.r2 >= d
    report, basis = approx_leverage(A, plan, seed=5)
    PA = apply_srht(SketchOperator("SRHT", 5, n, plan.r1), A)
    X = A @ build_orthogonalizer(PA, kind="sketch").Rinv
    np.testing.assert_array_equal(A @ basis.W, X)
    # the tiled scores are the row norms of the one product, bit for bit
    np.testing.assert_array_equal(report.scores, np.einsum("ij,ij->i", X, X))
    assert report.extras["r2"] == report.extras["rank"] == d
    assert report.extras["r1"] == plan.r1


def test_shape_error_for_fat_matrix():
    with pytest.raises(errors.ShapeError):
        approx_leverage(np.ones((3, 5)), make_plan(5, 3, 0.5), 0)


def test_input_is_scanned_for_finiteness_once(monkeypatch):
    # A is scanned once: by the SRHT kernel as it reads it (r1 < n, where
    # the guarded Cholesky of the r1 x d PA needs no scan of its own), or
    # by build_orthogonalizer where A itself is factored (r1 >= n);
    # mi_estimate always runs the SRHT, so the kernel's scan is the only one.
    # Stage 2 (r2 = 4 < rank = 8) multiplies the finite R^-1 by Pi2 without
    # the scan the public apply_sparse_jlt makes.
    scanned = []
    real = levscore.validate_matrix

    def counting(a, *args, **kwargs):
        scanned.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(levscore, "validate_matrix", counting)
    monkeypatch.setattr(levsketch.sketch, "validate_matrix", counting)
    A = np.random.default_rng(4).standard_normal((2000, 8))
    for r1, expected in ((256, []), (2000, [(2000, 8)])):
        for r2 in (None, 4):
            scanned.clear()
            approx_leverage(A, make_plan(2000, 8, 0.5, r1=r1, r2=r2), seed=1)
            assert scanned == expected
    scanned.clear()
    mi_estimate(A, 1)
    assert scanned == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("r1", [256, 2000])
def test_non_finite_input_raises_on_both_plans(r1, bad):
    A = np.random.default_rng(4).standard_normal((2000, 8))
    A[1234, 5] = bad
    with pytest.raises(errors.NonFiniteEntry):
        approx_leverage(A, make_plan(2000, 8, 0.5, r1=r1), seed=1)


def test_zero_rows_score_exactly_zero():
    # a zero row of A is a zero row of A R^-1 and of A R^-1 T^T: the
    # default plan factors A itself, r1 = 512 goes through the SRHT, and
    # r2 = 8 < rank = 16 runs the compressing stage 2 as well
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 4))
    A[[5, 17]] = 0.0
    report, _ = approx_leverage(A, make_plan(40, 4, 0.5), seed=1)
    assert report.scores[5] == 0.0
    assert report.scores[17] == 0.0
    A = rng.standard_normal((2000, 16))
    A[[0, 777, 1999]] = 0.0
    for r2 in (None, 8):
        report, basis = approx_leverage(A, make_plan(2000, 16, 0.5, r1=512,
                                                     r2=r2), seed=2)
        assert report.extras["r1"] == 512
        assert report.extras["r2"] == (r2 or 16)
        assert np.all(report.scores[[0, 777, 1999]] == 0.0)
        assert np.all((A @ basis.W)[[0, 777, 1999]] == 0.0)
        assert np.all(report.scores[1:777] > 0.0)


def test_overflowing_orthogonalizer_is_a_typed_error():
    # at entry scale 1e-310 the singular values of A are subnormal and
    # R^-1 = V / s overflows; the scores would be NaN
    A = 1e-310 * np.random.default_rng(18).standard_normal((200, 4))
    with pytest.raises(errors.NonFiniteFactor):
        build_orthogonalizer(A)
    with pytest.raises(errors.NonFiniteFactor):
        approx_leverage(A, make_plan(200, 4, 0.5), seed=0)


def test_scale_invariance_same_seed():
    # at the default sizes on the sketch route, 128x6 and 3000x20 have
    # r1 >= n and factor A itself, 20000x32 goes through the SRHT; the Gram
    # products behind CholeskyQR2 overflow at c >= 1e160 and underflow at
    # 1e-300, moving R to Householder QR
    rng = np.random.default_rng(4)
    for n, d in ((128, 6), (3000, 20), (20000, 32)):
        A = rng.standard_normal((n, d))
        plan = sketch_plan(n, d)
        base, _ = approx_leverage(A, plan, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (1e-300, 1e-160, 1e-8, 1e-4, 7.5, 300.0, 1e8, 1e160,
                      1e300):
                scaled, _ = approx_leverage(c * A, plan, seed=9)
                np.testing.assert_allclose(scaled.scores, base.scores,
                                           rtol=1e-9, err_msg=f"{n}x{d}, c={c}")


@given(st.integers(0, 2**32 - 1),
       st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
@settings(max_examples=30, deadline=None)
def test_scores_invariant_under_column_scaling(seed, log_scales):
    # A and A D span the same column space; D is log-uniform in [1e-3, 1e3].
    # The default plan factors A itself (r1 >= n); r1 = 128 runs the SRHT.
    A = np.random.default_rng(seed).standard_normal((600, 6))
    AD = A * 10.0 ** np.array(log_scales)
    for plan in (make_plan(600, 6, 0.5), make_plan(600, 6, 0.5, r1=128)):
        base, _ = approx_leverage(A, plan, seed=seed)
        scaled, _ = approx_leverage(AD, plan, seed=seed)
        np.testing.assert_allclose(scaled.scores, base.scores, rtol=1e-9)


def gram_input(seed=1, n=8192, d=32):
    """A Gaussian 8192 x 32 with 50 rows scaled by 30: the default plan
    takes the gram route there."""
    A = np.random.default_rng(seed).standard_normal((n, d))
    A[:50] *= 30.0
    return A


def test_orthogonalizer_kind_names_what_is_factored():
    A = gram_input()
    assert build_orthogonalizer(A, kind="gram").route == "cholesky"
    assert build_orthogonalizer(A).route == "cholesky_qr2"
    for bad in ("Sketch", "one_pass", True):
        with pytest.raises(errors.InvalidParameter):
            build_orthogonalizer(A, kind=bad)


def test_gram_route_matches_exact_leverage():
    A = gram_input()
    plan = make_plan(*A.shape, 0.5)
    assert (plan.route, plan.r1, plan.r2) == ("gram", 8192, 32)
    report, basis = approx_leverage(A, plan, seed=None)
    exact = exact_leverage(A).scores
    np.testing.assert_allclose(report.scores, exact, rtol=1e-10, atol=0)
    assert basis.route == "cholesky"  # the one guarded pass was trusted
    assert report.seed is None
    assert report.extras == {"rank": 32, "r1": 8192, "r2": 32}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gram_route_rejects_non_finite_entries(bad):
    A = gram_input()
    A[100, 7] = bad
    with pytest.raises(errors.NonFiniteEntry):
        approx_leverage(A, make_plan(*A.shape, 0.5), seed=None)


def test_gram_route_keeps_the_rank_and_names_a_zero_matrix():
    # A's numerical rank, as on the exact plan; no message asks for a seed
    A = gram_input()
    A[:, 5] = A[:, 3] + A[:, 4]
    plan = make_plan(*A.shape, 0.5)
    report, basis = approx_leverage(A, plan, seed=None)
    assert report.extras["rank"] == basis.W.shape[1] == 31
    exact = exact_leverage(A).scores
    np.testing.assert_allclose(report.scores, exact, rtol=1e-10, atol=0)
    with pytest.raises(errors.RankDeficient) as info:
        approx_leverage(np.zeros(A.shape), plan, seed=None)
    assert str(info.value) == "matrix is numerically zero"


@pytest.mark.parametrize("scale, trusted", [
    (2.0**500, True), (2.0**-500, False), (1e150, True), (1e-150, False),
    (2.0**520, False)])
def test_gram_route_falls_back_where_the_gram_under_or_overflows(scale,
                                                                  trusted):
    # squares of 2^-500 or 1e-150 leave A^T A's diagonal below 2^-970, and
    # those of 2^520 overflow it: the guard rejects the one pass and
    # CholeskyQR2 or Householder QR decides. At 2^500 and 1e150 the Gram
    # of 8192 rows stays finite and the pass is trusted.
    A = gram_input()
    report, basis = approx_leverage(scale * A, make_plan(*A.shape, 0.5),
                                    seed=None)
    assert (basis.route == "cholesky") == trusted
    exact = exact_leverage(A).scores
    np.testing.assert_allclose(report.scores, exact, rtol=1e-10, atol=0)


def test_exact_plan_allocates_no_input_sized_temporary():
    # CholeskyQR2 sums its second Gram over row tiles of A R1^-1, and the
    # scores are read tile by tile: beyond A the peak is the d x d factors,
    # two 2 MiB scratches, the 256 KiB finiteness mask and the n scores,
    # not the n x d Q1 = A R1^-1 (14.6 MiB here)
    n, d = 60000, 32
    A = np.random.default_rng(26).standard_normal((n, d))
    (report, basis), peak = traced_peak(
        lambda: approx_leverage(A, degenerate_plan(n, d), seed=None))
    assert basis.route == "cholesky_qr2"
    assert peak < A.nbytes / 2, f"peak {peak / 2**20:.1f} MiB"
    hp, peak = traced_peak(
        lambda: approx_cross_leverage(A, degenerate_plan(n, d),
                                      n * math.log(n), None))
    assert hp.extras["route"] == "cholesky_qr2"
    assert peak < A.nbytes / 2, f"peak {peak / 2**20:.1f} MiB"


def test_memory_is_linear_without_omega():
    # the n x r2 Omega alone would be 60000 x 529 doubles, 16.5 A.nbytes
    n, d = 60000, 32
    A = np.random.default_rng(14).standard_normal((n, d))
    plan = sketch_plan(n, d)
    _, peak = traced_peak(lambda: approx_leverage(A, plan, seed=0))
    assert peak < 4 * A.nbytes, f"peak {peak / 2**20:.1f} MB"


def test_determinism_same_seed():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((100, 5))
    plan = make_plan(100, 5, 0.5)
    a, _ = approx_leverage(A, plan, seed=11)
    b, _ = approx_leverage(A, plan, seed=11)
    assert np.array_equal(a.scores, b.scores)


# ---------------------------------------------------------- orthogonalizer

def test_orthogonalizer_makes_sketch_orthonormal():
    rng = np.random.default_rng(6)
    PA = rng.standard_normal((50, 5))
    orth = build_orthogonalizer(PA)
    with householder_only():
        house = build_orthogonalizer(PA)
    assert (orth.route, house.route) == ("cholesky_qr2", "householder")
    for o in (orth, house):
        Q = PA @ o.Rinv
        assert np.max(np.abs(Q.T @ Q - np.eye(5))) <= 1e-8


def test_orthogonalizer_svd_qr_equivalence():
    # CholeskyQR2's R and the Householder fallback's R give the same row
    # norms for A Rinv
    rng = np.random.default_rng(7)
    A = rng.standard_normal((80, 6))
    PA = rng.standard_normal((30, 6))
    chol_norms = np.sum((A @ build_orthogonalizer(PA).Rinv) ** 2, axis=1)
    with householder_only():
        qr_norms = np.sum((A @ build_orthogonalizer(PA).Rinv) ** 2, axis=1)
    np.testing.assert_allclose(chol_norms, qr_norms, atol=1e-9)


def test_orthogonalizer_diagonal_case():
    PA = np.vstack([np.diag([2.0, 3.0]), np.zeros((4, 2))])
    orth = build_orthogonalizer(PA)
    Q = PA @ orth.Rinv
    np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-12)


def test_orthogonalizer_rank_deficient_raises():
    PA = np.ones((10, 3))  # rank 1
    with pytest.raises(errors.RankDeficient):
        build_orthogonalizer(PA)
    with householder_only(), pytest.raises(errors.RankDeficient):
        build_orthogonalizer(PA)
    orth = build_orthogonalizer(PA, allow_rank_deficient=True)
    assert orth.rank == 1


def with_spectrum(rng, m, sv):
    """An m x len(sv) matrix with singular values ``sv``."""
    U, _ = np.linalg.qr(rng.standard_normal((m, len(sv))))
    V, _ = np.linalg.qr(rng.standard_normal((len(sv), len(sv))))
    return (U * sv) @ V.T


def test_orthogonalizer_well_conditioned_matches_svd_of_sketch():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((300, 8))
    PA = with_spectrum(rng, 120, np.logspace(0, -3, 8))
    orth = build_orthogonalizer(PA)
    assert orth.route == "cholesky_qr2"
    _, s, Vt = np.linalg.svd(PA, full_matrices=False)
    expected = np.sum((A @ (Vt.T / s)) ** 2, axis=1)
    np.testing.assert_allclose(np.sum((A @ orth.Rinv) ** 2, axis=1),
                               expected, rtol=1e-12, atol=0)


def test_orthogonalizer_routes_agree_column_for_column():
    # at scale 1e200 the Gram overflows and R comes from Householder QR;
    # canonical column signs make both routes give the same R^-1
    rng = np.random.default_rng(16)
    PA = with_spectrum(rng, 90, np.logspace(0, -2, 6))
    chol = build_orthogonalizer(PA)
    house = build_orthogonalizer(1e200 * PA)
    assert (chol.route, house.route) == ("cholesky_qr2", "householder")
    np.testing.assert_allclose(house.Rinv * 1e200, chol.Rinv, rtol=1e-10,
                               atol=0)


@pytest.mark.parametrize("cond", [1e7, 1e9, 1e14])
def test_orthogonalizer_ill_conditioned_falls_back_to_householder(cond):
    # at 1e7 CholeskyQR2 completes but its R is not trusted; at 1e9 and
    # beyond the first Cholesky fails outright
    rng = np.random.default_rng(17)
    PA = with_spectrum(rng, 200, np.logspace(0, -math.log10(cond), 6))
    s = np.linalg.svd(PA, compute_uv=False)
    expected = int(np.sum(s > DEFAULT_RANK_TOL * s[0]))
    assert expected == (6 if cond < 1 / DEFAULT_RANK_TOL else 5)
    orth = build_orthogonalizer(PA, allow_rank_deficient=True)
    assert orth.route == "householder"
    assert orth.rank == expected
    Q = PA @ orth.Rinv
    kept_cond = s[0] / s[expected - 1]
    np.testing.assert_allclose(Q.T @ Q, np.eye(expected),
                               atol=100 * np.finfo(float).eps * kept_cond)
    if expected < 6:
        with pytest.raises(errors.RankDeficient):
            build_orthogonalizer(PA)


def svd_calls():
    """Count the SVDs numpy computes inside the block."""
    return mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd)


@pytest.mark.parametrize("cond, route, calls", [
    (1e2, "cholesky_qr2", 1),   # one SVD of R gives guard, rank and R^-1
    (1e7, "householder", 2),    # R rejected by the guard: Householder R's SVD
    (1e14, "householder", 1),   # Cholesky fails: no R of its own to check
])
def test_orthogonalizer_takes_one_svd_per_r(cond, route, calls):
    rng = np.random.default_rng(18)
    PA = with_spectrum(rng, 200, np.logspace(0, -math.log10(cond), 6))
    with svd_calls() as svd:
        orth = build_orthogonalizer(PA, allow_rank_deficient=True)
    assert orth.route == route
    assert svd.call_count == calls


# ------------------------------------------------- guarded one-pass Cholesky

def kappa_f(Rinv):
    """kappa_F(R) = ||R||_F ||R^-1||_F, from R^-1."""
    return np.linalg.norm(np.linalg.inv(Rinv)) * np.linalg.norm(Rinv)


@pytest.mark.parametrize("d", [8, 64, 256])
def test_sketched_orthogonalizer_is_orthonormal_up_to_the_guards_edge(d):
    # condition numbers from 1e2 up until the guard rejects: every accepted
    # R leaves PA R^-1 orthonormal to 1e-6, and the last accepted one sits
    # within 4x of the kappa_F bound, so the edge itself was tested
    rng = np.random.default_rng(21)
    accepted = []
    for log_cond in np.arange(2.0, 6.01, 0.125):
        PA = with_spectrum(rng, 2 * d, np.logspace(0, -log_cond, d))
        orth = build_orthogonalizer(PA, kind="sketch")
        if orth.route != "cholesky":
            break
        assert orth.rank == d
        Q = PA @ orth.Rinv
        assert np.linalg.norm(Q.T @ Q - np.eye(d), 2) <= 1e-6
        accepted.append(kappa_f(orth.Rinv))
    assert accepted, "kappa = 1e2 must take the one-pass Cholesky"
    assert orth.route != "cholesky", "the guard never rejected"
    assert levscore._CHOL_MAX_COND / 4 <= accepted[-1] <= levscore._CHOL_MAX_COND


@pytest.mark.parametrize("d", [64, 256])
def test_sketched_orthogonalizer_bounds_kappa_2_with_a_dominant_column(d):
    # R = [[1, 1, ..., 1], [0, delta, 0, ...], ...]: a large shared
    # component. kappa_1(R) is about 2 / delta while kappa_2(R) is about
    # d / delta, so a 1-norm guard would accept kappa_2 near d 1e4; the
    # guard bounds kappa_2, and PA R^-1 is orthonormal on either route
    rng = np.random.default_rng(26)
    routes = []
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        R = np.diag(np.full(d, delta))
        R[0] = 1.0
        PA = np.linalg.qr(rng.standard_normal((2 * d, d)))[0] @ R
        orth = build_orthogonalizer(PA, kind="sketch")
        Q = PA @ orth.Rinv
        assert np.linalg.norm(Q.T @ Q - np.eye(d), 2) <= 1e-6
        if orth.route == "cholesky":
            assert np.linalg.cond(R) <= levscore._CHOL_MAX_COND
        routes.append(orth.route)
    assert routes[0] == "cholesky" and routes[-1] != "cholesky"


def test_rejected_sketch_continues_cholesky_qr2_from_the_guards_pass():
    # kappa = 1e5: the guard's Gram and Cholesky are CholeskyQR2's first
    # pass, so a rejected sketch takes two Cholesky factorizations in all,
    # and its R^-1 is the one kind="exact" gives, bit for bit
    rng = np.random.default_rng(27)
    PA = with_spectrum(rng, 400, np.logspace(0, -5, 40))
    with mock.patch.object(np.linalg, "cholesky",
                           wraps=np.linalg.cholesky) as chol:
        orth = build_orthogonalizer(PA, kind="sketch")
    assert orth.route == "cholesky_qr2"
    assert chol.call_count == 2
    np.testing.assert_array_equal(orth.Rinv, build_orthogonalizer(PA).Rinv)


def test_sketched_orthogonalizer_rejects_ill_conditioned_sketch():
    # kappa = 1e7: the guard rejects, and route, rank and R^-1 are today's
    rng = np.random.default_rng(17)
    PA = with_spectrum(rng, 200, np.logspace(0, -7, 6))
    orth = build_orthogonalizer(PA, allow_rank_deficient=True, kind="sketch")
    plain = build_orthogonalizer(PA, allow_rank_deficient=True)
    assert (orth.route, orth.rank) == (plain.route, plain.rank) == (
        "householder", 6)
    np.testing.assert_array_equal(orth.Rinv, plain.Rinv)


@pytest.mark.parametrize("scale", [2.0**-540, 2.0**-490, 1e200])
def test_sketched_orthogonalizer_rejects_underflowed_or_overflowed_gram(scale):
    # 2^-540: squares are subnormal; 2^-490: squares are normal but the
    # Gram diagonal is below tiny / eps, so products of small entries may
    # have underflowed; 1e200: the Gram overflows. None is trusted
    rng = np.random.default_rng(22)
    PA = scale * rng.standard_normal((200, 6))
    with np.errstate(all="ignore"):
        assert not levscore._guarded_cholesky(PA.T @ PA)[2]
    orth = build_orthogonalizer(PA, kind="sketch")
    plain = build_orthogonalizer(PA)
    assert orth.route == plain.route != "cholesky"
    np.testing.assert_array_equal(orth.Rinv, plain.Rinv)


def test_sketched_orthogonalizer_rank_deficient_as_before():
    PA = np.ones((10, 3))  # rank 1
    with pytest.raises(errors.RankDeficient):
        build_orthogonalizer(PA, kind="sketch")
    orth = build_orthogonalizer(PA, allow_rank_deficient=True, kind="sketch")
    assert orth.rank == 1
    assert orth.route == build_orthogonalizer(
        PA, allow_rank_deficient=True).route
    PA = np.random.default_rng(23).standard_normal((40, 4))
    PA[:, 2] = 0.0  # a zero column: a zero Gram diagonal entry
    with pytest.raises(errors.RankDeficient):
        build_orthogonalizer(PA, kind="sketch")
    assert build_orthogonalizer(PA, allow_rank_deficient=True,
                                kind="sketch").rank == 3


def test_sketched_orthogonalizer_validates_what_it_rejects():
    PA = np.random.default_rng(24).standard_normal((40, 4))
    PA[7, 1] = np.nan
    with pytest.raises(errors.NonFiniteEntry):
        build_orthogonalizer(PA, kind="sketch")


def test_library_loads_no_second_blas():
    # scipy.linalg brings its own OpenBLAS beside numpy's; the sketch-side
    # factorizations stay in numpy so that only one BLAS is loaded
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import levsketch as ls
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3000, 8))
        ls.approx_leverage(A, ls.make_plan(3000, 8, 0.5, r1=512), 0)
        ls.mi_estimate(A, 0)
        M = rng.standard_normal((200, 100))
        ls.frobenius_rankk(M, 3, 0.5, 0)
        ls.spectral_rankk(M, 3, 0.5, 0)
        W = rng.standard_normal((4, 60))
        p = ls.leverage_probs_for_columns(W, "exact")
        ls.underls_solve(W, rng.standard_normal(4), p, 0.5, 0.1, 0)
        assert "scipy.linalg" not in sys.modules, "scipy.linalg was imported"
        """)
    src = str(Path(levsketch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_rank_tolerance_is_not_an_option():
    A = np.random.default_rng(19).standard_normal((64, 3))
    with pytest.raises(TypeError):
        approx_leverage(A, make_plan(64, 3, 0.5), 0, rank_tolerance=1e-6)


@pytest.mark.parametrize("call", [
    lambda A: approx_leverage(A, make_plan(64, 3, 0.5), 0, timings={}),
    lambda A: approx_cross_leverage(A, make_plan(64, 3, 0.5), 10.0, 0,
                                    off_diagonal_only=True),
    lambda A: levsketch.thin_svd(A, rank_tolerance=0.0),
    lambda A: levsketch.exact_cross_leverage(A, max_rows=10),
    lambda A: levsketch.apply_sparse_jlt(
        SketchOperator("SparseJLT", 0, 3, 2), A, side="right"),
])
def test_removed_keywords_are_not_options(call):
    A = np.random.default_rng(19).standard_normal((64, 3))
    with pytest.raises(TypeError):
        call(A)


# ---------------------------------------------------------- mi estimator

def test_mi_estimate_takes_no_svd_of_its_own():
    A = np.random.default_rng(20).standard_normal((1000, 8))
    with svd_calls() as svd, mock.patch.object(
            levscore, "build_orthogonalizer",
            wraps=levscore.build_orthogonalizer) as orth:
        mi_estimate(A, seed=0)
    assert orth.call_count == 1
    assert svd.call_count == 0  # the guarded Cholesky of PA needs none


def test_mi_estimate_normalization_and_floor():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((256, 6))
    report = mi_estimate(A, seed=0)
    assert report.method == "mi_estimator"
    assert abs(report.normalized.sum() - 1.0) <= 1e-12
    n, d = A.shape
    floor = d * math.log(n) ** 2 / (4 * n)
    assert np.all(report.scores >= floor - 1e-15)


def test_mi_estimate_top_rows_within_log_factor():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((1024, 8))
    A[:8] *= 30.0  # make the top rows strongly leveraged
    exact = exact_leverage(A)
    top = np.argsort(exact.scores)[-8:]
    report = mi_estimate(A, seed=1)
    ratio_bound = math.log(1024) ** 2
    mass_exact = exact.normalized[top].sum()
    mass_est = report.normalized[top].sum()
    assert mass_est >= mass_exact / ratio_bound
    assert mass_est <= min(1.0, mass_exact * ratio_bound)


@pytest.mark.parametrize("n", [256, 1000])
def test_mi_estimate_matches_dense_operator_formula(n):
    # diag(A (Pi A)^+ Pi) with the r x n SRHT Pi materialized column by column
    rng = np.random.default_rng(11)
    d, seed = 8, 3
    A = rng.standard_normal((n, d)) * rng.standard_t(1.5, size=(n, 1))
    report = mi_estimate(A, seed=seed)
    op = SketchOperator("SRHT", seed, n, report.extras["r"])
    Pi = apply_srht(op, np.eye(n))
    w_raw = np.einsum("ts,st->t", A @ pseudoinverse(apply_srht(op, A)), Pi)
    assert np.sum(w_raw > report.extras["floor"]) >= d  # not all floored
    np.testing.assert_allclose(
        report.scores, np.maximum(w_raw, report.extras["floor"]),
        rtol=1e-12, atol=0)


def test_mi_estimate_memory_is_linear_in_n():
    # forming the r x n operator through n x n intermediates takes ~1.5 GB
    n, d = 8192, 8
    A = np.random.default_rng(12).standard_normal((n, d))
    _, peak = traced_peak(lambda: mi_estimate(A, seed=0))
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
