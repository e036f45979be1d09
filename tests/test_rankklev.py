import math
import warnings
from unittest import mock

import numpy as np
import pytest

from levsketch import (errors, exact_leverage, frobenius_rankk,
                       frobenius_sketch_matrix, power_q, rankklev,
                       spectral_rankk, spectral_sketch_matrix, thin_svd)
from levsketch.sketch import SketchOperator, gaussian_matrix, make_plan


def low_rank_plus_noise(rng, n, d, k, gap=20.0, noise=1.0):
    U = rng.standard_normal((n, k))
    V = rng.standard_normal((k, d))
    return gap * U @ V + noise * rng.standard_normal((n, d))


def best_rank_k(A, k):
    f = thin_svd(A)
    return (f.U[:, :k] * f.singular_values[:k]) @ f.V[:, :k].T


# -------------------------------------------------------------- power_q

def test_power_q_denominator_is_negative_for_valid_eps():
    # 2 ln(1 + eps/10) - 1/2 > 0 would need eps > 10 (e^{1/4} - 1);
    # for every valid eps the -1/2 is dropped
    for eps in (0.01, 0.5, 0.99):
        assert 2 * math.log(1 + eps / 10) - 0.5 < 0
        assert power_q(100, 100, 5, eps) >= 1


def test_power_q_frozen_value():
    # ceil(ln(1 + sqrt(10/9) + e sqrt(0.2) sqrt(990)) / (2 ln 1.05))
    assert power_q(1000, 1000, 10, 0.5) == 38


def test_power_q_monotone_in_eps():
    qs = [power_q(500, 500, 5, eps) for eps in (0.1, 0.3, 0.5, 0.9)]
    assert qs == sorted(qs, reverse=True)


def test_power_q_validation():
    with pytest.raises(errors.RankTooLow):
        power_q(10, 10, 1, 0.5)
    with pytest.raises(errors.InvalidParameter):
        power_q(10, 10, 3, 1.5)


# -------------------------------------------------------------- power sketch

@pytest.mark.parametrize("shape", [(300, 40), (40, 300)])
def test_gram_power_steps_match_direct_steps(shape):
    # the tall branch runs A (A^T A)^q Pi, the fat one (A A^T)^q A Pi;
    # both equal q direct steps B <- A (A^T B) up to rounding, and q = 0
    # sketches A itself: B = A Pi
    A = np.random.default_rng(11).standard_normal(shape)
    k = 2
    for q in (4, 0):
        B, used_q = rankklev._power_sketch(A, k, 0.5, 5, q_override=q)
        ref = A @ gaussian_matrix(
            SketchOperator("Gaussian", 5, shape[1], 2 * k))
        for _ in range(q):
            ref = A @ (A.T @ ref)
        assert used_q == q
        np.testing.assert_allclose(B, ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())
        report = spectral_rankk(A, k, 0.5, seed=5, q_override=q)
        assert report.extras == {"q": q, "rank": 2 * k}


@pytest.mark.parametrize("entry", [spectral_rankk, spectral_sketch_matrix])
@pytest.mark.parametrize("eps, q", [(0.0, 2), (1.0, 2), (1.5, 2),
                                    (math.nan, 2), (0.5, -1)])
def test_spectral_checks_eps_and_q_when_q_is_given(entry, eps, q):
    # a given q skips power_q, not the checks on eps and q
    A = np.random.default_rng(3).standard_normal((30, 20))
    with pytest.raises(errors.InvalidParameter):
        entry(A, 3, eps, 0, q_override=q)


# -------------------------------------------------------------- frobenius

def test_frobenius_scores_sum_to_k_exactly():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((60, 40))
    report = frobenius_rankk(A, k=4, epsilon=0.5, seed=1)
    assert abs(report.p_hat.sum() - 1.0) <= 1e-12
    assert np.all(report.p_hat >= 0)
    assert report.beta_claim == 1.0


def test_frobenius_phat_equals_exact_leverage_of_x():
    rng = np.random.default_rng(1)
    A = low_rank_plus_noise(rng, 80, 50, 5)
    k = 5
    report = frobenius_rankk(A, k, epsilon=0.5, seed=3)
    left, (L, R) = frobenius_sketch_matrix(A, k, epsilon=0.5, seed=3)
    X = L @ R
    x_scores = exact_leverage(X).scores
    np.testing.assert_allclose(report.p_hat * k, x_scores, atol=1e-8)


def test_frobenius_exact_rank_k_recovers_a():
    rng = np.random.default_rng(2)
    k = 3
    A = (rng.standard_normal((50, 30)) @ np.eye(30))  # full rank base
    A = best_rank_k(A, k)  # exact rank k
    report = frobenius_rankk(A, k, epsilon=0.5, seed=0)
    _, (L, R) = frobenius_sketch_matrix(A, k, epsilon=0.5, seed=0)
    assert np.linalg.norm(L @ R - A) <= 1e-8 * np.linalg.norm(A)
    exact_p = exact_leverage(A).normalized
    np.testing.assert_allclose(report.p_hat, exact_p, atol=1e-9)


def test_frobenius_residual_close_to_optimal():
    rng = np.random.default_rng(3)
    k, eps = 5, 0.5
    hits = 0
    for seed in range(10):
        A = rng.standard_normal((200, 200))
        _, (L, R) = frobenius_sketch_matrix(A, k, eps, seed)
        X = L @ R
        opt = np.linalg.norm(A - best_rank_k(A, k))
        res = np.linalg.norm(A - X)
        assert res >= opt - 1e-8  # Eckart-Young
        if res <= (1 + eps) * opt:
            hits += 1
    assert hits >= 8


def test_frobenius_x_has_rank_k():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((40, 30))
    _, (L, R) = frobenius_sketch_matrix(A, k=3, epsilon=0.5, seed=2)
    assert np.linalg.matrix_rank(L @ R) == 3


def test_frobenius_expected_residual_markov_margin():
    # E[||A - X||_F^2] <= (1 + eps/10) ||A - A_k||_F^2, Monte Carlo
    rng = np.random.default_rng(5)
    A = rng.standard_normal((80, 60))
    k, eps = 4, 0.5
    opt_sq = np.linalg.norm(A - best_rank_k(A, k)) ** 2
    ratios = []
    for seed in range(50):
        _, (L, R) = frobenius_sketch_matrix(A, k, eps, seed)
        ratios.append(np.linalg.norm(A - L @ R) ** 2 / opt_sq)
    mean = np.mean(ratios)
    sem = np.std(ratios, ddof=1) / math.sqrt(len(ratios))
    assert mean <= 1 + eps / 10 + 2 * sem


def test_top_k_factors_match_thin_svd_of_qta():
    # T^T T = C C^T for C = Q^T A comes from the guarded Cholesky of C C^T;
    # at cond(C) = 1e7 the guard rejects it and Householder qr(C^T) runs
    rng = np.random.default_rng(12)
    Q = np.linalg.qr(rng.standard_normal((80, 15)))[0]
    A = rng.standard_normal((80, 50)) * np.linspace(3.0, 0.5, 50)
    Uc, Vc = (np.linalg.qr(rng.standard_normal((m, 15)))[0] for m in (15, 50))
    C = (Uc * np.logspace(0, -7, 15)) @ Vc.T
    ill = Q @ C + (A - Q @ (Q.T @ A))  # Q^T ill = C
    k = 4
    for A, qr_calls in ((A, 0), (ill, 1)):
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
            left, right = rankklev._top_k_factors(Q, A, k)
        assert qr.call_count == qr_calls
        U, s, Vt = np.linalg.svd(Q.T @ A, full_matrices=False)
        signs = np.sign(np.sum(left * (Q @ U[:, :k]), axis=0))
        assert np.all(np.abs(signs) == 1)
        np.testing.assert_allclose(left * signs, Q @ U[:, :k], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(right * signs[:, None], s[:k, None] * Vt[:k],
                                   rtol=0, atol=1e-12 * s[0])


def test_frobenius_reports_width_and_rank():
    A = np.random.default_rng(13).standard_normal((60, 40))
    report = frobenius_rankk(A, k=3, epsilon=0.5, seed=1)
    # r = k + ceil(10 k / eps + 1) = 64, capped at min(n, d) = 40; the
    # well-conditioned 60 x 40 sketch B takes the one-pass Cholesky
    assert report.extras == {"r": 40, "rank": 40, "route": "cholesky"}


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_frobenius_cholesky_route_needs_no_second_pass(scale):
    # a spiked matrix plus noise, at three entry scales: B = A Pi takes the
    # guarded one-pass Cholesky, whose B R^{-1} is orthonormal to about
    # u kappa_2(R)^2 <= 1e-8 by itself, so Q^T Q is not factored again
    rng = np.random.default_rng(57)
    n, d, k, eps, seed = 600, 300, 10, 0.5, 3
    U = np.linalg.qr(rng.standard_normal((n, k)))[0]
    V = np.linalg.qr(rng.standard_normal((d, k)))[0]
    A = scale * ((U * np.linspace(100.0, 50.0, k)) @ V.T
                 + 0.05 * rng.standard_normal((n, d)))
    with mock.patch.object(np.linalg, "cholesky",
                           wraps=np.linalg.cholesky) as chol:
        report = frobenius_rankk(A, k, eps, seed)
    assert report.extras["route"] == "cholesky"
    assert chol.call_count == 2  # the guards on B^T B and on C C^T
    assert abs(report.p_hat.sum() - 1.0) <= 1e-12
    r = report.extras["r"]
    B = A @ gaussian_matrix(SketchOperator("Gaussian", seed, d, r))
    Q = B @ rankklev.build_orthogonalizer(B, kind="sketch").Rinv
    assert np.linalg.norm(Q.T @ Q - np.eye(r), 2) <= 1e-8
    left, _ = frobenius_sketch_matrix(A, k, eps, seed)
    assert np.linalg.norm(left.T @ left - np.eye(k), 2) <= 1e-8
    np.testing.assert_allclose(report.p_hat, np.sum(left * left, 1) / k,
                               rtol=1e-13, atol=0)


def test_frobenius_scores_exact_on_nearly_low_rank_input():
    # rank 8 with singular values spread over 1e3, plus noise about 1e-12
    # of the largest: the rank rule keeps directions of B down to 1e-12 of
    # its top one, and B R^{-1} alone is orthonormal only to about 1e-4
    rng = np.random.default_rng(15)
    A = ((rng.standard_normal((300, 8)) * np.logspace(0, -3, 8))
         @ rng.standard_normal((8, 200)))
    A += 1e-11 * rng.standard_normal(A.shape)
    k = 5
    report = frobenius_rankk(A, k, 0.5, seed=1)
    assert 8 < report.extras["rank"] < report.extras["r"]
    assert abs(report.p_hat.sum() - 1.0) <= 1e-12
    _, (left, right) = frobenius_sketch_matrix(A, k, 0.5, seed=1)
    U = np.linalg.svd(left @ right, full_matrices=False)[0][:, :k]
    np.testing.assert_allclose(report.p_hat * k, np.sum(U * U, axis=1),
                               rtol=0, atol=1e-12)


def test_sketch_below_rank_k_raises_rank_too_low():
    # B = A Pi has the numerical rank 3 of A, below k = 4
    A = best_rank_k(np.random.default_rng(14).standard_normal((50, 30)), 3)
    with pytest.raises(errors.RankTooLow, match="numerical rank 3 < k=4"):
        frobenius_rankk(A, k=4, epsilon=0.5, seed=0)
    with pytest.raises(errors.RankTooLow, match="numerical rank 0"):
        frobenius_rankk(np.zeros((50, 30)), k=4, epsilon=0.5, seed=0)


def test_spectral_zero_sketch_raises_rank_too_low():
    # as frobenius_rankk does above: B is zero when A is or when its power
    # steps underflow, and then no seed gives it rank
    tiny = 1e-8 * np.random.default_rng(15).standard_normal((50, 30))
    for A in (np.zeros((50, 30)), tiny):
        with pytest.raises(errors.RankTooLow, match="numerical rank 0 < k=4"):
            spectral_rankk(A, k=4, epsilon=0.5, seed=0)


def test_rank_too_low_rejected():
    with pytest.raises(errors.RankTooLow):
        frobenius_rankk(np.eye(10), k=1, epsilon=0.5, seed=0)
    with pytest.raises(errors.RankTooLow):
        spectral_rankk(np.eye(10), k=10, epsilon=0.5, seed=0)


# -------------------------------------------------------------- spectral

def test_spectral_phat_sums_to_one():
    rng = np.random.default_rng(6)
    A = low_rank_plus_noise(rng, 100, 100, 2)
    report = spectral_rankk(A, k=2, epsilon=0.5, seed=0)
    assert abs(report.p_hat.sum() - 1.0) <= 1e-12
    assert report.beta_claim == pytest.approx((1 - 0.5) / (2 * 1.5))


def test_spectral_sketches_b_on_the_sketch_route():
    # B is 4096 x 8, where a plan given no sizes takes the gram route; the
    # spectral estimate keeps the SRHT at the default sizes, r1 < n
    rng = np.random.default_rng(30)
    A = low_rank_plus_noise(rng, 4096, 64, 4)
    with mock.patch.object(rankklev, "approx_leverage",
                           wraps=rankklev.approx_leverage) as inner:
        report = spectral_rankk(A, k=4, epsilon=0.5, seed=2)
    (B, plan, seed), options = inner.call_args
    assert make_plan(4096, 8, 0.5).route == "gram"
    assert (plan.route, plan.r1, plan.r2) == (
        "sketch", math.ceil(160 * math.log(4096)), math.ceil(48 * math.log(4096)))
    scores = rankklev.approx_leverage(B, plan, seed, **options)[0].scores
    np.testing.assert_array_equal(report.p_hat, scores / scores.sum())


def test_spectral_permutation_invariance():
    rng = np.random.default_rng(7)
    A = low_rank_plus_noise(rng, 60, 50, 3)
    perm = rng.permutation(60)
    base = spectral_rankk(A, k=3, epsilon=0.5, seed=4, q_override=3)
    # the Gaussian sketch and row permutation commute; the inner leverage
    # sketch does not, so compare through the assembled X instead
    _, X = spectral_sketch_matrix(A, k=3, epsilon=0.5, seed=4, q_override=3)
    _, Xp = spectral_sketch_matrix(A[perm], k=3, epsilon=0.5, seed=4,
                                   q_override=3)
    np.testing.assert_allclose(Xp, X[perm], atol=1e-6 * np.linalg.norm(X))
    assert base.p_hat.shape == (60,)


def test_spectral_exact_rank_k_matches_oracle():
    rng = np.random.default_rng(8)
    k = 2
    A = best_rank_k(rng.standard_normal((100, 100)), k)
    report = spectral_rankk(A, k, epsilon=0.5, seed=1, q_override=2)
    exact_p = exact_leverage(A).normalized
    # B spans col(A) so the inner sketch sees the true subspace
    assert np.max(np.abs(report.p_hat - exact_p)) <= 0.5 * exact_p.max()


def test_spectral_residual_close_to_optimal():
    rng = np.random.default_rng(9)
    k, eps = 5, 0.5
    hits = 0
    for seed in range(10):
        A = rng.standard_normal((200, 200))
        _, X = spectral_sketch_matrix(A, k, eps, seed)
        opt = np.linalg.norm(A - best_rank_k(A, k), 2)
        if np.linalg.norm(A - X, 2) <= (1 + eps) * opt:
            hits += 1
    assert hits >= 7


def test_spectral_beta_lower_bound_on_x_scores():
    rng = np.random.default_rng(10)
    k, eps = 3, 0.5
    beta = (1 - eps) / (2 * (1 + eps))
    hits = 0
    for seed in range(10):
        A = low_rank_plus_noise(rng, 120, 80, k)
        report = spectral_rankk(A, k, eps, seed)
        _, X = spectral_sketch_matrix(A, k, eps, seed)
        ux = exact_leverage(X).scores
        if np.all(report.p_hat >= beta * ux / k - 1e-12):
            hits += 1
    assert hits >= 7


@pytest.mark.parametrize("shape", [(60, 30), (30, 60)])
def test_power_iteration_overflow_is_named(shape):
    # finite A whose unnormalized power steps overflow: the error names the
    # power iteration, not the entries of A, and no RuntimeWarning leaks
    A = np.random.default_rng(21).standard_normal(shape) * 1e100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.NonFiniteFactor, match="power iteration.*q=2"):
            spectral_rankk(A, 3, 0.5, seed=0, q_override=2)


def test_block_gap_construction_concentrates_on_top_block():
    # A = [I_k 0; 0 (1-gamma) I_{n-k}] with gamma = 0.5
    n, k = 40, 4
    A = np.eye(n)
    A[k:, k:] *= 0.5
    for fn in (lambda: frobenius_rankk(A, k, 0.5, seed=0),
               lambda: spectral_rankk(A, k, 0.5, seed=0)):
        report = fn()
        top = report.p_hat[:k].sum()
        assert top >= 0.9
