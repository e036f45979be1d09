import math

import numpy as np
import pytest

from levsketch import (SamplingProbabilities, draw_sampling_matrix, errors,
                       hadamard_matrix, leverage_probs_for_columns, make_plan,
                       pseudoinverse, sample_size, thin_svd, underls_solve)
from levsketch.rng import substream
from conftest import traced_peak


def test_sample_size_frozen_value():
    # ceil(3840 ln(3840 / sqrt(0.1)))
    assert sample_size(10, 1.0, 0.5, 0.1) == 36114


def test_sample_size_monotone_in_eps():
    rs = [sample_size(10, 1.0, eps, 0.1) for eps in (0.1, 0.25, 0.5)]
    assert rs == sorted(rs, reverse=True)


def test_sample_size_near_linear_in_n():
    r1 = sample_size(10, 1.0, 0.5, 0.1)
    r2 = sample_size(20, 1.0, 0.5, 0.1)
    assert 2.0 <= r2 / r1 <= 2.5  # linear up to the log factor


def test_sample_size_validation():
    with pytest.raises(errors.InvalidParameter):
        sample_size(0, 1.0, 0.5, 0.1)
    with pytest.raises(errors.InvalidParameter):
        sample_size(10, 0.0, 0.5, 0.1)
    with pytest.raises(errors.InvalidParameter):
        sample_size(10, 1.0, 0.7, 0.1)


def test_sample_size_beyond_int64_names_beta():
    for beta in (1e-300, 5e-324):
        with pytest.raises(errors.InvalidParameter, match="beta="):
            sample_size(10, beta, 0.5, 0.1)


def test_probabilities_validation():
    with pytest.raises(errors.InvalidParameter):
        SamplingProbabilities(p=np.array([0.5, 0.4]))  # sums to 0.9
    with pytest.raises(errors.InvalidParameter):
        SamplingProbabilities(p=np.array([1.5, -0.5]))


def test_draw_point_mass():
    p = SamplingProbabilities(p=np.eye(8)[5])
    S = draw_sampling_matrix(p, r=16, seed=0)
    assert S.selected.tolist() == [5] and S.counts.tolist() == [16]


def test_draw_deterministic():
    p = SamplingProbabilities(p=np.full(10, 0.1))
    a = draw_sampling_matrix(p, 100, seed=42)
    b = draw_sampling_matrix(p, 100, seed=42)
    assert np.array_equal(a.selected, b.selected)
    assert np.array_equal(a.counts, b.counts)


def test_draw_uniform_frequencies():
    d, r = 10, 10**5
    p = SamplingProbabilities(p=np.full(d, 1 / d))
    S = draw_sampling_matrix(p, r, seed=7)
    counts = np.bincount(S.selected, weights=S.counts, minlength=d)
    sigma = math.sqrt(r * (1 / d) * (1 - 1 / d))
    assert np.all(np.abs(counts - r / d) <= 3 * sigma)


def test_draw_counts_are_the_seeded_multinomial():
    rng = np.random.default_rng(9)
    w = rng.exponential(size=300)
    p = SamplingProbabilities(p=w / w.sum())
    r = 129_856
    S = draw_sampling_matrix(p, r, seed=17)
    expected = substream(17, 4).multinomial(r, p.p / p.p.sum())
    assert np.array_equal(S.selected, np.flatnonzero(expected))
    assert np.array_equal(S.counts, expected[S.selected])
    assert S.r == r and S.d == 300 and S.counts.sum() == r


def test_dense_sampling_matrix_structure():
    # the pairs stand for a d x r selector with one nonzero 1/sqrt(r p_j)
    # in each of the c_j columns of a column j drawn c_j times
    p = SamplingProbabilities(p=np.full(4, 0.25))
    S = draw_sampling_matrix(p, 6, seed=1)
    weights = 1 / np.sqrt(S.r * p.p[S.selected])
    rows = np.repeat(S.selected, S.counts)
    D = np.zeros((4, 6))
    D[rows, np.arange(6)] = np.repeat(weights, S.counts)
    np.testing.assert_allclose(D[rows, np.arange(6)], 1 / np.sqrt(6 * 0.25))
    A = np.random.default_rng(1).standard_normal((3, 4))
    C = A[:, S.selected] * np.sqrt(S.counts) * weights
    np.testing.assert_allclose((A @ D) @ (A @ D).T, C @ C.T, rtol=1e-13)


def test_draw_memory_does_not_grow_with_r():
    # 10^15 draws are held as one (column, count) pair per drawn column
    p = SamplingProbabilities(p=np.full(50, 1 / 50))
    S = draw_sampling_matrix(p, 10**15, seed=3)
    assert S.selected.size == S.counts.size == 50
    assert int(S.counts.sum()) == 10**15


def test_solve_reports_draws_and_distinct_columns():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((4, 60))
    p = leverage_probs_for_columns(A, "exact")
    extras = {}
    underls_solve(A, rng.standard_normal(4), p, epsilon=0.5, delta=0.1,
                  seed=3, extras=extras)
    r = sample_size(4, 1.0, 0.5, 0.1)
    S = draw_sampling_matrix(p, r, 3)
    assert extras == {"r": r, "distinct": np.unique(S.selected).size,
                      "route": "cholesky"}


# -------------------------------------------------------------- probabilities

def test_leverage_probs_orthonormal_rows():
    d, n = 12, 4
    A = np.zeros((n, d))
    A[:, :n] = np.eye(n)
    p = leverage_probs_for_columns(A, "exact")
    np.testing.assert_allclose(p.p[:n], 1 / n, atol=1e-12)
    np.testing.assert_allclose(p.p[n:], 0.0, atol=1e-12)
    assert p.beta == 1.0
    assert abs(p.p.sum() - 1.0) <= 1e-12


def test_leverage_probs_exact_vs_sketched():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 400))
    exact = leverage_probs_for_columns(A, "exact")
    eps = 0.5
    plan = make_plan(400, 8, eps)
    hits = 0
    for seed in range(10):
        sk = leverage_probs_for_columns(A, "sketched", plan=plan, seed=seed)
        assert abs(sk.p.sum() - 1.0) <= 1e-9
        rel = np.abs(sk.p - exact.p) / np.maximum(exact.p, 1e-300)
        if np.max(rel[exact.p > 1e-12]) <= 2 * eps:
            hits += 1
    assert hits >= 8


def test_leverage_probs_name_the_rank_that_no_seed_changes():
    # rank 3 < n = 4: the exact factorizations raise RankTooLow; a sampled
    # plan's sketch raises RankDeficient, which a new seed may clear
    A = np.random.default_rng(4).standard_normal((4, 200))
    A[3] = A[0] + A[1]
    exact_plan = make_plan(200, 4, 0.5)
    assert exact_plan.r1 == 200
    with pytest.raises(errors.RankTooLow, match="rank 3 < 4"):
        leverage_probs_for_columns(A, "exact")
    with pytest.raises(errors.RankTooLow, match="rank 3 < 4"):
        leverage_probs_for_columns(A, "sketched", plan=exact_plan, seed=0)
    with pytest.raises(errors.RankDeficient, match="resample"):
        leverage_probs_for_columns(A, "sketched", seed=0,
                                   plan=make_plan(200, 4, 0.5, r1=40))
    for method in ("exact", "sketched"):
        with pytest.raises(errors.RankTooLow, match="rank 0 < 4"):
            leverage_probs_for_columns(np.zeros((4, 200)), method,
                                       plan=exact_plan, seed=0)


def test_leverage_probs_shape_check():
    with pytest.raises(errors.ShapeError):
        leverage_probs_for_columns(np.ones((5, 3)), "exact")


# -------------------------------------------------------------- solver

def test_single_row_telescoping_exactness():
    # n = 1 with p_i proportional to a_i^2: (AS)(AS)^T = ||a||^2 identically,
    # so the sampled solution equals a b / ||a||^2 for every r and seed
    rng = np.random.default_rng(1)
    a = rng.standard_normal(50)
    a[np.abs(a) < 0.05] = 0.1  # keep probabilities bounded away from zero
    A = a.reshape(1, -1)
    p = SamplingProbabilities(p=a**2 / np.sum(a**2))
    x_opt = a * 2.5 / np.sum(a**2)
    for seed in range(10):
        x = underls_solve(A, [2.5], p, epsilon=0.5, delta=0.1, seed=seed)
        np.testing.assert_allclose(x, x_opt, atol=1e-12)


def test_random_underdetermined_oracle():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 400))
    b = rng.standard_normal(8)
    x_opt = pseudoinverse(A) @ b
    p = leverage_probs_for_columns(A, "exact")
    hits = 0
    for seed in range(10):
        x = underls_solve(A, b, p, epsilon=0.5, delta=0.1, seed=seed)
        if np.linalg.norm(x - x_opt) <= np.linalg.norm(x_opt):
            hits += 1
    assert hits >= 9


def test_uniform_leverage_hadamard_rows():
    # orthonormal rows with uniform leverage: error well under 2 eps
    n, d = 8, 64
    A = hadamard_matrix(d)[:, :].T[:n]  # n rows of an orthogonal basis
    b = np.random.default_rng(3).standard_normal(n)
    x_opt = pseudoinverse(A) @ b
    p = leverage_probs_for_columns(A, "exact")
    eps = 0.5
    x = underls_solve(A, b, p, epsilon=eps, delta=0.1, seed=0)
    assert np.linalg.norm(x - x_opt) <= 2 * eps * np.linalg.norm(x_opt)


def test_conditioned_bound_when_premise_holds():
    # whenever all singular values of V^T S lie in [sqrt(1-eps), sqrt(1+eps)],
    # the deterministic chain gives ||x - x_opt|| <= 2 eps ||x_opt||
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 300))
    b = rng.standard_normal(6)
    x_opt = pseudoinverse(A) @ b
    p = leverage_probs_for_columns(A, "exact")
    eps = 0.5
    V = thin_svd(A).V  # d x n right singular vectors
    checked = 0
    for seed in range(10):
        from levsketch.underls import draw_sampling_matrix, sample_size
        r = sample_size(6, 1.0, eps, 0.1)
        S = draw_sampling_matrix(p, r, seed)
        VS = V.T[:, S.selected] * np.sqrt(S.counts / (S.r * p.p[S.selected]))
        s = np.linalg.svd(VS, compute_uv=False)
        if np.all((s >= math.sqrt(1 - eps)) & (s <= math.sqrt(1 + eps))):
            x = underls_solve(A, b, p, epsilon=eps, delta=0.1, seed=seed)
            assert np.linalg.norm(x - x_opt) <= 2 * eps * np.linalg.norm(x_opt)
            checked += 1
    assert checked >= 5  # premise should hold in most trials


def test_unbiased_sampled_gram():
    # E[(V^T S)(V^T S)^T] = I_n over seeds
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 100))
    V = thin_svd(A).V
    p = leverage_probs_for_columns(A, "exact")
    grams = []
    for seed in range(200):
        S = draw_sampling_matrix(p, 50, seed)
        VS = V.T[:, S.selected] * np.sqrt(S.counts / (S.r * p.p[S.selected]))
        grams.append(VS @ VS.T)
    mean = np.mean(grams, axis=0)
    sem = np.std(grams, axis=0, ddof=1) / math.sqrt(len(grams))
    assert np.all(np.abs(mean - np.eye(4)) <= 3 * sem + 1e-12)


def test_shape_and_dimension_errors():
    with pytest.raises(errors.ShapeError):
        underls_solve(np.ones((5, 3)), np.ones(5),
                      SamplingProbabilities(p=np.array([1.0, 0.0, 0.0])),
                      0.5, 0.1, 0)
    p = SamplingProbabilities(p=np.full(4, 0.25))
    with pytest.raises(errors.DimensionMismatch):
        underls_solve(np.ones((2, 4)), np.ones(3), p, 0.5, 0.1, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_is_a_typed_error(bad):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((8, 200))
    p = leverage_probs_for_columns(A, "exact")
    b = rng.standard_normal(8)
    b[5] = bad
    with pytest.raises(errors.NonFiniteEntry, match="b contains"):
        underls_solve(A, b, p, 0.5, 0.1, 0)


def test_solve_matches_explicit_sample_formula():
    # r >> d: most draws repeat a column, and merging repeats must not
    # change A^T (AS)^{+T} (AS)^+ b with AS built from every draw
    rng = np.random.default_rng(6)
    A = rng.standard_normal((8, 64))
    A[:, :3] *= 10.0
    b = rng.standard_normal(8)
    p = leverage_probs_for_columns(A, "exact")
    r = sample_size(8, p.beta, 0.5, 0.1)
    assert r > 100 * 64
    for seed in range(3):
        S = draw_sampling_matrix(p, r, seed)
        draws = np.repeat(np.arange(S.selected.size), S.counts)
        weights = 1 / np.sqrt(S.r * p.p[S.selected])
        AS_pinv = pseudoinverse(A[:, S.selected[draws]] * weights[draws])
        ref = A.T @ (AS_pinv.T @ (AS_pinv @ b))
        x = underls_solve(A, b, p, epsilon=0.5, delta=0.1, seed=seed)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_too_few_distinct_columns_is_rank_deficient():
    # every draw hits column 1, so the sample spans one of two dimensions
    A = np.random.default_rng(7).standard_normal((2, 5))
    p = SamplingProbabilities(p=np.eye(5)[1])
    with pytest.raises(errors.RankDeficient):
        underls_solve(A, np.ones(2), p, epsilon=0.5, delta=0.1, seed=0)


def test_solve_memory_does_not_grow_with_sample_size():
    # the r-column sample AS alone would take 16 * r * 8 bytes = 7.8 MB
    rng = np.random.default_rng(8)
    A = rng.standard_normal((16, 2048))
    b = rng.standard_normal(16)
    p = leverage_probs_for_columns(A, "exact")
    assert sample_size(16, p.beta, 0.5, 0.1) == 60670
    _, peak = traced_peak(
        lambda: underls_solve(A, b, p, epsilon=0.5, delta=0.1, seed=0))
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
