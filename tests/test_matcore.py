import numpy as np
import pytest

from conftest import traced_peak
from levsketch import (LeverageReport, errors, exact_cross_leverage,
                       exact_leverage, hadamard_matrix, pseudoinverse,
                       thin_svd)
from levsketch.matcore import validate_matrix


def test_thin_svd_identity():
    f = thin_svd(np.eye(3))
    np.testing.assert_allclose(f.singular_values, [1, 1, 1])
    np.testing.assert_allclose(np.abs(f.U @ f.V.T), np.eye(3), atol=1e-12)


def test_thin_svd_diagonal():
    f = thin_svd(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(f.singular_values, [3, 2, 1])


def test_thin_svd_reconstruction():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((20, 5))
    f = thin_svd(A)
    assert np.linalg.norm(A - f.reconstruct()) <= 1e-8 * np.linalg.norm(A)
    # orthonormality invariants
    assert np.max(np.abs(f.U.T @ f.U - np.eye(f.rank))) <= 1e-10
    assert np.max(np.abs(f.V.T @ f.V - np.eye(f.rank))) <= 1e-10


def test_thin_svd_truncates_rank():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((12, 3))
    A = np.hstack([B, B[:, :1]])  # rank 3, 4 columns
    assert thin_svd(A).rank == 3


def test_thin_svd_rejects_bad_input():
    with pytest.raises(errors.EmptyMatrix):
        thin_svd(np.zeros((0, 3)))
    with pytest.raises(errors.NonFiniteEntry):
        thin_svd(np.array([[1.0, np.nan]]))


def test_pseudoinverse_diagonal():
    np.testing.assert_allclose(pseudoinverse(np.diag([2.0, 4.0])),
                               np.diag([0.5, 0.25]), atol=1e-14)


def test_pseudoinverse_orthonormal_columns():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    np.testing.assert_allclose(pseudoinverse(Q), Q.T, atol=1e-12)


def test_pseudoinverse_penrose_identities():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((12, 4))
    Ap = pseudoinverse(A)
    scale = np.linalg.norm(A)
    assert np.linalg.norm(A @ Ap @ A - A) <= 1e-8 * scale
    assert np.linalg.norm(Ap @ A @ Ap - Ap) <= 1e-8 * np.linalg.norm(Ap)
    np.testing.assert_allclose(A @ Ap, (A @ Ap).T, atol=1e-10)
    np.testing.assert_allclose(Ap @ A, (Ap @ A).T, atol=1e-10)


def test_exact_leverage_canonical_rows():
    d, n = 4, 9
    A = np.vstack([np.eye(d), np.zeros((n - d, d))])
    report = exact_leverage(A)
    np.testing.assert_allclose(report.scores, [1] * d + [0] * (n - d),
                               atol=1e-12)
    assert report.coherence == pytest.approx(1.0)


def test_exact_leverage_hadamard_columns_uniform():
    # any d columns of the normalized Hadamard matrix have equal scores d/n
    n, d = 32, 5
    H = hadamard_matrix(n)
    report = exact_leverage(H[:, 2 : 2 + d])
    np.testing.assert_allclose(report.scores, d / n, atol=1e-12)
    assert report.coherence == pytest.approx(d / n)


def test_normalized_and_coherence_are_read_from_the_scores():
    # both are derived on access: the scores over their sum (all zeros
    # where every score is 0) and the largest score
    scores = np.array([0.5, 1.5, 0.0, 2.0, 0.25])
    report = LeverageReport(scores, "exact")
    np.testing.assert_array_equal(report.normalized, scores / 4.25)
    assert report.normalized.sum() == pytest.approx(1.0, abs=1e-15)
    assert report.coherence == 2.0
    zero = LeverageReport(np.zeros(4), "exact")
    np.testing.assert_array_equal(zero.normalized, np.zeros(4))
    assert zero.coherence == 0.0


def test_exact_leverage_matches_projector_diagonal():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((64, 6))
    proj_diag = np.diag(A @ pseudoinverse(A))
    np.testing.assert_allclose(exact_leverage(A).scores, proj_diag, atol=1e-10)


def test_exact_leverage_trace_and_normalization():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((50, 7))
    report = exact_leverage(A)
    assert abs(report.scores.sum() - 7) <= 1e-8
    assert abs(report.normalized.sum() - 1.0) <= 1e-12
    assert np.all(report.scores <= 1 + 1e-10)


def test_exact_leverage_basis_independence():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((30, 5))
    Q, _ = np.linalg.qr(A)
    qr_scores = np.einsum("ij,ij->i", Q, Q)
    np.testing.assert_allclose(exact_leverage(A).scores, qr_scores, atol=1e-10)


@pytest.mark.parametrize("c", [3.0, -2.5, 1e-6])
def test_exact_leverage_scale_invariance(c):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((25, 4))
    np.testing.assert_allclose(exact_leverage(c * A).scores,
                               exact_leverage(A).scores, atol=1e-10)


def test_exact_cross_leverage_identity():
    np.testing.assert_allclose(exact_cross_leverage(np.eye(2)), np.eye(2),
                               atol=1e-14)


def test_exact_cross_leverage_duplicate_rows():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((10, 3))
    A[7] = A[2]
    C = exact_cross_leverage(A)
    assert C[2, 7] == pytest.approx(C[2, 2], abs=1e-10)


def test_exact_cross_leverage_matches_uut():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((10, 3))
    f = thin_svd(A)
    C = exact_cross_leverage(A)
    np.testing.assert_allclose(C, f.U @ f.U.T, atol=1e-10)
    np.testing.assert_allclose(C, C.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(C), exact_leverage(A).scores, atol=1e-10)
    # projector idempotence
    assert np.max(np.abs(C @ C - C)) <= 1e-8


def test_exact_cross_leverage_size_cap():
    with pytest.raises(errors.MatrixTooLargeForDenseGram):
        exact_cross_leverage(np.ones((4097, 2)))


def test_validate_matrix_checks_in_bounded_blocks():
    A = np.random.default_rng(0).standard_normal((200000, 32))  # 48.8 MiB
    B, peak = traced_peak(lambda: validate_matrix(A))
    assert B is A
    assert peak < 2**20
    A[-1, -1] = np.nan
    with pytest.raises(errors.NonFiniteEntry,
                       match="^matrix contains NaN or Inf entries$"):
        validate_matrix(A)
