import math

import numpy as np
import pytest

from levsketch import (SketchOperator, _kernels, approx_cross_leverage,
                       approx_leverage, crosslev, errors, levscore,
                       exact_cross_leverage, exact_leverage, heavy_pairs,
                       make_plan, thin_svd)
from levsketch.crosslev import _finish, heavy_pairs_brute
from levsketch.sketch import _sparse_jlt_matrix
from conftest import sketch_plan, traced_peak


def assert_same_as_brute(X, kappa):
    """heavy_pairs equals the O(n^2 r) oracle, and its candidate count is
    the number of pairs i <= j whose squared norms clear the threshold."""
    fast = heavy_pairs(X, kappa)
    brute = heavy_pairs_brute(X, kappa)
    assert fast.indices() == brute.indices()
    np.testing.assert_allclose([c for _, _, c in fast.pairs],
                               [c for _, _, c in brute.pairs], rtol=1e-12)
    norms = np.einsum("ij,ij->i", X, X)
    norm_test = np.outer(norms, norms) >= fast.threshold
    assert fast.candidates == int(np.triu(norm_test).sum())
    return fast


def test_two_basis_rows_empty():
    # max <x_i, x_j>^2 = 1 < ||X^T X||_F^2 / kappa = 4/3
    X = np.eye(2)
    hp = heavy_pairs(X, kappa=1.5)
    assert hp.pairs == []
    assert hp.gram_fro_sq == pytest.approx(2.0)


def test_identity_diagonal_pairs_at_threshold():
    hp = heavy_pairs(np.eye(4), kappa=4.0)
    assert hp.indices() == {(0, 0), (1, 1), (2, 2), (3, 3)}
    for _, _, c_sq in hp.pairs:
        assert c_sq == pytest.approx(1.0)
    assert hp.threshold == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kappa", [2.0, 10.0, 150.0])
def test_matches_brute_force(seed, kappa):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    r = int(rng.integers(1, 8))
    X = rng.standard_normal((n, r))
    fast = heavy_pairs(X, kappa)
    brute = heavy_pairs_brute(X, kappa)
    assert fast.indices() == brute.indices()
    np.testing.assert_allclose(sorted(c for _, _, c in fast.pairs),
                               sorted(c for _, _, c in brute.pairs))
    assert len(fast) <= math.ceil(kappa * r)


def test_canonical_pair_ordering():
    X = np.array([[0.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
    hp = heavy_pairs(X, kappa=10.0)
    for i, j, _ in hp.pairs:
        assert i <= j
    assert (0, 2) in hp.indices()  # the duplicate rows


def test_zero_matrix_raises():
    with pytest.raises(errors.ZeroMatrix):
        heavy_pairs(np.zeros((5, 3)), kappa=2.0)


def test_invalid_kappa():
    with pytest.raises(errors.InvalidKappa):
        heavy_pairs(np.eye(3), kappa=1.0)


@pytest.mark.parametrize("kappa", [math.inf, math.nan])
def test_non_finite_kappa_is_invalid(kappa):
    with pytest.raises(errors.InvalidKappa):
        heavy_pairs(np.eye(3), kappa=kappa)
    with pytest.raises(errors.InvalidKappa):
        heavy_pairs_brute(np.eye(3), kappa=kappa)


@pytest.mark.parametrize("kappa, msg", [(math.inf, "finite"),
                                        (1e308, "too large")])
def test_sketched_kappa_out_of_range_names_kappa(kappa, msg):
    # an infinite kappa, or one whose rescaling kappa ||X^T X||_F^2 / d
    # overflows, is the caller's kappa at fault, not the factor X. Only a
    # plan that draws a stage rescales kappa, so this one sketches.
    A = np.random.default_rng(4).standard_normal((256, 4))
    with pytest.raises(errors.InvalidKappa, match=msg):
        approx_cross_leverage(A, make_plan(256, 4, 0.5, r1=64), kappa, 0)


def test_kappa_near_max_float_has_no_pair_bound():
    # kappa r overflows to an infinite count bound, which no pair count
    # exceeds: every pair whose squared product is >= rho / kappa is found
    A = np.random.default_rng(4).standard_normal((256, 4))
    every = 256 * 257 // 2
    assert len(heavy_pairs(A, 1e308)) == every
    hp = approx_cross_leverage(A, make_plan(256, 4, 0.5), 1e308, 0)
    assert hp.threshold == 4 / 1e308 and len(hp) == every


def test_heavy_rows_with_many_light_partners():
    # an orthonormal basis with two high-leverage rows: at kappa = n ln n
    # they clear the norm test against most light rows, while no two light
    # rows do; the light partners have no partner of their own but must
    # still be searched
    rng = np.random.default_rng(5)
    A = rng.standard_normal((400, 4))
    A[:2] *= 10.0
    X = np.linalg.qr(A)[0]
    n = X.shape[0]
    hp = assert_same_as_brute(X, n * math.log(n))
    norms = np.einsum("ij,ij->i", X, X)
    assert np.max(norms[2:]) ** 2 < hp.threshold
    assert hp.candidates > n
    assert sum(j >= 2 for _, j, _ in hp.pairs) > 10


@pytest.mark.parametrize("case", ["zero_rows", "tied_norms", "one_row",
                                  "one_column", "duplicates"])
def test_degenerate_shapes_match_brute_force(case):
    rng = np.random.default_rng(8)
    if case == "zero_rows":
        X = rng.standard_normal((50, 4))
        X[::3] = 0.0
        X[1] = X[2] * 6.0
    elif case == "tied_norms":
        # rows of one Hadamard-like pattern: every squared norm is 4
        X = rng.choice([-1.0, 1.0], size=(64, 4))
    elif case == "one_row":
        X = rng.standard_normal((1, 5))
    elif case == "one_column":
        X = rng.standard_normal((80, 1))
    else:
        X = np.repeat(rng.standard_normal((5, 3)), 6, axis=0)
    for kappa in (1.5, 4.0, 30.0, 1e4):
        assert_same_as_brute(X, kappa)


def test_first_partners_follow_the_product_test_at_exact_ties():
    # thresholds equal to a product of two norms are where the rounded
    # quotient threshold / ns can land one place off the product test
    rng = np.random.default_rng(12)
    ns = np.sort(rng.random(300) * 10.0)
    ns[50:60] = ns[50]
    ns[:5] = 0.0
    for z, j in rng.integers(5, 300, size=(300, 2)):
        threshold = ns[z] * ns[j]
        ok = ns[:, None] * ns[None, :] >= threshold
        expect = np.where(ok.any(axis=1), ok.argmax(axis=1), ns.size)
        np.testing.assert_array_equal(
            crosslev._first_partners(ns, threshold), expect)


def full_array_suffix(ns, threshold):
    """(z0, first[z0:], candidates) from the full-array first partners."""
    first = crosslev._first_partners(ns, threshold)
    with_partner = np.flatnonzero(first <= np.arange(ns.size))
    z0 = int(with_partner[0]) if with_partner.size else ns.size
    np.testing.assert_array_equal(with_partner, np.arange(z0, ns.size))
    return z0, first[z0:], int(np.sum(with_partner - first[with_partner] + 1))


def partner_suffix_cases():
    """(ns, threshold) pairs at the edges of the suffix of ranks with a
    partner: an exact tie ns[z]^2 == threshold at z0, every rank heavy,
    none heavy, zero norms and runs of tied norms, and norms whose
    subnormal squares tie although the norms do not, so that some lie
    below sqrt(threshold) and still pass the product test."""
    rng = np.random.default_rng(13)
    ns = np.sort(rng.random(400) * 10.0)
    ns[:30] = 0.0
    ns[100:140] = ns[100]
    ns[300:380] = ns[300]
    cases = [(ns, ns[z] * ns[z]) for z in (30, 100, 139, 140, 300, 350, 399)]
    cases += [(ns, float(np.nextafter(ns[z] * ns[z], np.inf)))
              for z in (100, 300, 399)]
    exact = np.repeat([0.0, 1.0, 2.0, 3.0, 3.0, 4.0], 7)
    cases += [(exact, 9.0), (exact, 1.0), (exact, 16.0),
              (np.full(50, 2.0), 4.0), (np.full(50, 2.0), 4.5),
              (ns, 1e-300), (ns, 1e300), (np.zeros(9), 1e-300)]
    tiny = 1e-160 * (1.0 + 1e-5 * np.arange(200))
    cases += [(tiny, tiny[z] * tiny[z]) for z in (0, 50, 150, 199)]
    return cases


@pytest.mark.parametrize("case", range(len(partner_suffix_cases())))
def test_partner_suffix_equals_the_full_array_result(case):
    ns, threshold = partner_suffix_cases()[case]
    z0, first, candidates = crosslev._partner_suffix(ns, threshold)
    expect = full_array_suffix(ns, threshold)
    assert (z0, candidates) == (expect[0], expect[2])
    np.testing.assert_array_equal(first, expect[1])


def test_partner_suffix_cases_reach_every_edge():
    # the cases above hold every rank heavy, none and some, and an exact
    # tie ns[z0]^2 == threshold at the edge
    edges, ties = set(), 0
    for ns, threshold in partner_suffix_cases():
        z0 = crosslev._partner_suffix(ns, threshold)[0]
        edges.add("all" if z0 == 0 else "none" if z0 == ns.size else "some")
        ties += bool(z0 < ns.size and ns[z0] * ns[z0] == threshold)
    assert edges == {"all", "none", "some"} and ties >= 5


def test_blocked_search_across_many_blocks(monkeypatch):
    # a 16-element tile holds 4 rows of a 4-column X: the rows with a
    # partner span several row blocks and their partners several tiles
    monkeypatch.setattr(crosslev, "_BLOCK_ELEMS", 16)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((300, 4))
    X[:40] *= np.linspace(3.0, 12.0, 40)[:, None]
    X[41] = X[0]
    kappa = 300 * math.log(300)
    hp = assert_same_as_brute(X, kappa)
    norms = np.einsum("ij,ij->i", X, X)
    # ranked row z has a partner j <= z exactly when its own norm test passes
    with_partner = int(np.sum(norms * norms >= hp.threshold))
    assert with_partner >= 3 * 4
    assert len(hp) > 0


def test_search_memory_stays_below_half_the_input():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((60_000, 256))
    X[rng.choice(60_000, size=16, replace=False)] *= 30.0
    n = X.shape[0]
    hp, peak = traced_peak(lambda: heavy_pairs(X, n * math.log(n)))
    assert hp.candidates > 16 * (n - 16)
    assert peak < 0.5 * X.nbytes, f"peak {peak / X.nbytes:.2f} x input"


def test_pair_bound_raises_typed_error():
    i = np.array([0, 0, 1])
    j = np.array([0, 1, 1])
    with pytest.raises(errors.HeavyPairBoundExceeded, match="exceeds"):
        _finish(i, j, np.ones(3), threshold=1.0, kappa=1.5, gram_fro_sq=1.5,
                r=1)
    assert len(_finish(i, j, np.ones(3), 1.0, 3.0, 3.0, 1)) == 3


def test_off_diagonal_keeps_counters():
    X = np.repeat(np.eye(3), 2, axis=0)
    hp = heavy_pairs(X, kappa=20.0)
    off = hp.off_diagonal()
    assert off.candidates == hp.candidates > len(hp) > len(off) > 0


def tied_inputs():
    """Inputs whose squared row norms tie: zero rows, duplicated rows and
    +-e_i rows, beside heavy rows that give the search pairs to find."""
    rng = np.random.default_rng(21)
    zeros = rng.standard_normal((300, 6))
    zeros[40:90] = 0.0
    zeros[[5, 17]] *= 12.0
    dup = np.repeat(rng.standard_normal((60, 5)), 4, axis=0)
    dup[:8] *= 9.0
    signs = np.vstack([10.0 * np.eye(7), -10.0 * np.eye(7),
                       rng.standard_normal((200, 7))])
    return {"zero rows": zeros, "duplicated rows": dup, "+-e_i rows": signs}


def force_stable_argsort(m):
    """Patch ``np.argsort`` through the monkeypatch ``m`` so that every
    call sorts stably, ranking equal keys by index."""
    argsort = np.argsort
    m.setattr(np, "argsort", lambda a, kind=None: argsort(a, kind="stable"))


@pytest.mark.parametrize("name", sorted(tied_inputs()))
def test_tie_order_does_not_change_the_result(name, monkeypatch):
    X = tied_inputs()[name]
    norms = np.einsum("ij,ij->i", X, X)
    assert np.unique(norms).size < norms.size
    # the premise: the default sort ranks these ties otherwise than by index
    assert not np.array_equal(np.argsort(norms),
                              np.argsort(norms, kind="stable"))
    found = 0
    for kappa in (30.0, 300.0, X.shape[0] * math.log(X.shape[0])):
        with monkeypatch.context() as m:
            force_stable_argsort(m)
            stable = heavy_pairs(X, kappa)
        # the default sort may rank tied norms in another order; the
        # result must not show it
        fast = heavy_pairs(X, kappa)
        assert fast.pairs == stable.pairs
        assert fast.candidates == stable.candidates
        assert fast.threshold == stable.threshold
        assert_same_as_brute(X, kappa)
        found += len(fast)
    assert found > 0


def test_deterministic_output():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 4))
    a = heavy_pairs(X, 12.0)
    b = heavy_pairs(X, 12.0)
    assert a.pairs == b.pairs


# --------------------------------------------------- sketched cross-leverage

def planted_matrix(seed=0, n=512, d=8, scale=25.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    A[7] = A[3] * 1.0
    A[3] *= scale
    A[7] *= scale
    return A


def test_planted_duplicate_pair_recovered():
    A = planted_matrix()
    n, d = A.shape
    kappa = n * math.log(n)
    plan = sketch_plan(n, d)
    hits = 0
    for seed in range(10):
        hp = approx_cross_leverage(A, plan, kappa, seed).off_diagonal()
        if (3, 7) in hp.indices():
            hits += 1
    assert hits >= 8


def test_planted_pair_clears_guarantee_threshold():
    # oracle check: the planted pair satisfies c_ij^2 >= d/kappa + 12 eps l_i l_j
    A = planted_matrix()
    n, d = A.shape
    kappa = n * math.log(n)
    C = exact_cross_leverage(A)
    lev = exact_leverage(A).scores
    assert C[3, 7] ** 2 >= d / kappa
    assert C[3, 7] ** 2 >= 0.5 * lev[3] * lev[7]  # strongly heavy pair


def test_orthogonal_rows_return_nothing_off_diagonal():
    # all true c_ij vanish: the JLT noise on off-diagonal estimates sits far
    # below the effective cutoff d/kappa for every kappa <= n
    d, n = 5, 64
    A = np.vstack([np.eye(d), np.zeros((n - d, d))])
    plan = sketch_plan(n, d)
    for seed in range(5):
        for kappa in (2.0, float(d), float(n)):
            hp = approx_cross_leverage(A, plan, kappa=kappa,
                                       seed=seed).off_diagonal()
            assert hp.pairs == []


def test_degenerate_sketch_equals_exact_search():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((64, 5))
    kappa = 40.0
    plan = make_plan(64, 5, 0.5, r1=64, r2=5)
    hp = approx_cross_leverage(A, plan, kappa, seed=0)
    U = thin_svd(A).U
    # the exact sketch has an orthonormal Omega, so the search reduces to
    # heavy_pairs on the exact basis at threshold d/kappa
    exact = heavy_pairs(U, kappa)
    assert hp.indices() == exact.indices()
    assert hp.threshold == pytest.approx(5 / kappa)


@pytest.mark.parametrize("stage2, d, r2", [("sparse", 16, 8),
                                           ("identity", 8, None),
                                           ("sparse", 64, 16)])
def test_narrow_factor_matches_search_on_full_sketch(stage2, d, r2):
    # the sketched search returns the pairs of the search on
    # Omega = A R^-1 Pi2 built here; with r2 >= rank stage 2 is skipped and
    # Omega = A R^-1
    A = planted_matrix(seed=4, n=512, d=d, scale=25.0)
    n = A.shape[0]
    kappa = n * math.log(n)
    plan = make_plan(n, d, 0.5, r2=r2)
    assert (plan.r2 < d) == (stage2 == "sparse")
    stage1_only = make_plan(n, d, 0.5, r2=d)
    for seed in range(3):
        hp = approx_cross_leverage(A, plan, kappa, seed)
        # Omega = (A R^-1) Pi2, with A R^-1 from the same seed's stage 1
        omega = A @ approx_leverage(A, stage1_only, seed)[1].W
        if stage2 == "sparse":
            omega = omega @ _sparse_jlt_matrix(
                SketchOperator("SparseJLT", seed, d, plan.r2))
        gram = omega.T @ omega
        ref = heavy_pairs(omega, kappa * float(np.sum(gram * gram)) / d)
        assert (3, 7) in hp.indices()
        assert hp.indices() == ref.indices()
        np.testing.assert_allclose([c for _, _, c in hp.pairs],
                                   [c for _, _, c in ref.pairs], rtol=1e-12)
        assert hp.gram_fro_sq == pytest.approx(ref.gram_fro_sq, rel=1e-12)
        assert hp.candidates == ref.candidates
        assert set(hp.timings_ms) == {"sketch_ms", "search_ms"}


@pytest.mark.parametrize("n, d, r2", [(512, 8, None), (4096, 8, None),
                                      (4096, 16, 8)])
def test_sketched_search_equals_heavy_pairs_on_its_own_factor(n, d, r2):
    # the search skips the validation of X, and where a stage drew it
    # reuses the Gram of the kappa rescaling: every field is bit for bit
    # what heavy_pairs on the same X gives (SRHT and stage 2). A plan that
    # factors A (the gram route) takes X^T X = I_rho instead, so its
    # threshold is rho / kappa exactly; its pairs and candidates stay
    # those of heavy_pairs on the same X
    A = planted_matrix(seed=6, n=n, d=d)
    plan = make_plan(n, d, 0.5, r2=r2)
    kappa = n * math.log(n)
    for seed in range(2):
        hp = approx_cross_leverage(A, plan, kappa, seed)
        basis = approx_leverage(A, plan, seed)[1]
        X = A @ basis.W
        gram = X.T @ X
        ref = heavy_pairs(X, kappa * float(np.sum(gram * gram)) / d)
        assert (3, 7) in hp.indices()
        assert hp.pairs == ref.pairs
        assert hp.candidates == ref.candidates
        rho = hp.extras["rank"]
        if basis.orthonormal:
            assert hp.gram_fro_sq == rho and hp.threshold == rho / kappa
        else:
            assert hp.threshold == ref.threshold
            assert hp.gram_fro_sq == ref.gram_fro_sq


@pytest.mark.parametrize("n, d, r2", [(3000, 40, 20), (20_000, 50, None)])
def test_sketched_search_matches_heavy_pairs_across_tiles(n, d, r2):
    # X = A W is never formed: its Gram is summed over several row tiles
    # (20000 x 50 takes 4) and the search multiplies gathered rows of A by
    # W, a d x 20 stage-2 map at r2 = 20, so values agree with heavy_pairs
    # on the one product to rounding, and the pairs found are the same
    A = planted_matrix(seed=6, n=n, d=d)
    plan = make_plan(n, d, 0.5, r2=r2)
    kappa = n * math.log(n)
    for seed in range(6):
        hp = approx_cross_leverage(A, plan, kappa, seed)
        X = A @ approx_leverage(A, plan, seed)[1].W
        gram = X.T @ X
        ref = heavy_pairs(X, kappa * float(np.sum(gram * gram)) / d)
        assert (3, 7) in hp.indices()
        assert hp.indices() == ref.indices()
        assert hp.candidates == ref.candidates
        np.testing.assert_allclose([c for _, _, c in hp.pairs],
                                   [c for _, _, c in ref.pairs], rtol=1e-13)
        assert hp.gram_fro_sq == pytest.approx(ref.gram_fro_sq, rel=1e-13)


def test_sketched_search_stores_no_product(monkeypatch):
    # the cross path holds at most one tile of A W at a time (25 tiles of
    # 4096 rows, 512 KiB), so its peak exceeds approx_leverage's own by
    # less than half of the n x k A W. The smaller scratch and search
    # tiles keep the SRHT's group buffer (4 scratches, 1 MiB) and the
    # search's tiles (256 KiB each) well below that 12.8 MB product.
    monkeypatch.setattr(_kernels, "_SCRATCH_BYTES", 1 << 18)
    monkeypatch.setattr(crosslev, "_BLOCK_ELEMS", 1 << 15)
    n, d = 100_000, 16
    A = planted_matrix(seed=6, n=n, d=d)
    plan = sketch_plan(n, d)
    kappa = n * math.log(n)
    (_, basis), base = traced_peak(lambda: approx_leverage(A, plan, 3))
    hp, peak = traced_peak(lambda: approx_cross_leverage(A, plan, kappa, 3))
    product_bytes = n * basis.W.shape[1] * 8
    assert (3, 7) in hp.indices()
    assert peak - base < product_bytes / 2, (
        f"peak {base / 2**20:.1f} -> {peak / 2**20:.1f} MiB")


@pytest.mark.parametrize("through_w", [False, True])
def test_search_peak_does_not_grow_with_its_widest_window(monkeypatch,
                                                          through_w):
    # one row of norm 100, orthogonal to the other unit rows, is the only
    # row with a partner, and its window holds every row that is not
    # shrunk: an eighth of them, or all. The window's tiles (inner
    # products, gathered rows and, through W, rows of X) are capped at
    # _BLOCK_ELEMS, so the peak is the same for both; uncapped, the widest
    # window's tiles would take 5 MB. The one pair found is the big row's.
    monkeypatch.setattr(crosslev, "_BLOCK_ELEMS", 1 << 12)
    n, d = 40_000, 16
    peaks = []
    for unshrunk in (n // 8, n - 1):
        X = np.random.default_rng(1).standard_normal((n, d))
        X[:, 0] = 0.0
        X /= np.linalg.norm(X, axis=1)[:, None]
        X[unshrunk:] *= 1e-3  # too small to partner the big row
        X[-1] = 0.0
        X[-1, 0] = 100.0
        gram, norms = X.T @ X, np.einsum("ij,ij->i", X, X)
        gram_fro_sq = float(np.sum(gram * gram))
        W = np.eye(d) if through_w else None
        hp, peak = traced_peak(
            lambda: crosslev._heavy_pairs(X, W, gram_fro_sq, norms, 1e6))
        assert hp.indices() == {(n - 1, n - 1)}
        assert hp.candidates == unshrunk + 1
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 16 << 10, f"peaks {peaks}"


def test_search_through_w_shares_one_tile_across_many_windows(monkeypatch):
    # 1024-element tiles: a row block holds 1024 // 40 = 25 ranks, fewer
    # than d = 40, and its gathered rows of A, then each column window's,
    # then their inner products take turns in one shared tile. Stage 2
    # (r2 = 20 < d) makes W 40 x 20, and the 51 ranks with a partner span
    # three row blocks, whose windows reach down to 300 ranks, 25 at a time
    monkeypatch.setattr(crosslev, "_BLOCK_ELEMS", 1 << 10)
    n, d = 600, 40
    rng = np.random.default_rng(8)
    A = rng.standard_normal((n, d))
    A[:60] *= np.linspace(2.0, 8.0, 60)[:, None]
    W = approx_leverage(A, make_plan(n, d, 0.5, r2=20), 1)[1].W
    assert W.shape == (d, 20)
    X = A @ W
    gram, norms = X.T @ X, np.einsum("ij,ij->i", X, X)
    kappa = n * math.log(n)
    hp = crosslev._heavy_pairs(A, W, float(np.sum(gram * gram)), norms,
                               kappa)
    brute = heavy_pairs_brute(X, kappa)
    z0, first, _ = crosslev._partner_suffix(np.sort(norms), hp.threshold)
    assert n - z0 > 2 * 25 and n - first[-1] > 10 * 25
    assert hp.threshold == brute.threshold and len(hp) > 100
    assert hp.indices() == brute.indices()
    assert hp.candidates == int(np.triu(
        np.outer(norms, norms) >= hp.threshold).sum())
    np.testing.assert_allclose([c for _, _, c in hp.pairs],
                               [c for _, _, c in brute.pairs], rtol=1e-13)


def test_cross_path_peak_holds_three_n_vectors(monkeypatch):
    # on the gram plan at 2e5 x 8, with 64 KiB search tiles and 128 KiB
    # product tiles (2048 rows, 98 of them), the cross path holds the
    # scores and the rank order, and while it finds the first partners the
    # sorted norms: 3 n-vectors. Keeping the report's normalized scores
    # and an n-long first[] with its temporaries took 8.4.
    monkeypatch.setattr(crosslev, "_BLOCK_ELEMS", 1 << 13)
    monkeypatch.setattr(_kernels, "_PRODUCT_ELEMS", 1 << 14)
    n, d = 200_000, 8
    A = planted_matrix(seed=6, n=n, d=d, scale=40.0)
    plan = make_plan(n, d, 0.5)
    assert plan.route == "gram"
    hp, peak = traced_peak(
        lambda: approx_cross_leverage(A, plan, n * math.log(n), None))
    assert (3, 7) in hp.indices()
    assert peak <= 3.25 * 8 * n + (1 << 20), (
        f"peak {peak / (8 * n):.2f} n-vectors")


def test_sketched_search_reuses_the_scores_as_row_norms(monkeypatch):
    # the leverage scores are X's squared row norms, so the sketched search
    # takes them and does not compute the norms again; heavy_pairs does
    calls = []
    real = crosslev.row_sq_norms

    def counting(x):
        calls.append(x.shape)
        return real(x)

    monkeypatch.setattr(crosslev, "row_sq_norms", counting)
    A = planted_matrix(seed=6, n=4096, d=8)
    for r2 in (None, 4):
        hp = approx_cross_leverage(A, make_plan(4096, 8, 0.5, r2=r2),
                                   4096 * math.log(4096), seed=1)
        assert (3, 7) in hp.indices()
    assert calls == []
    heavy_pairs(A, 4096 * math.log(4096))
    assert calls == [(4096, 8)]


@pytest.mark.parametrize("n, d, rho, exact", [
    (4096, 16, 16, False), (2048, 16, 16, True), (2048, 16, 10, True),
    (40, 64, 40, True)], ids=["gram", "exact", "exact-deficient", "wide"])
def test_factor_of_a_has_identity_gram(n, d, rho, exact):
    # a plan that factors A and draws no stage takes ||X^T X||_F^2 = rho
    # for X = A W without summing X^T X. That holds to about u kappa_2^2
    # on the gram route (one guarded Cholesky) and to working precision
    # on the exact plan, of any rank and shape; column scales span three
    # decades
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, rho)) @ rng.standard_normal((rho, d))
    A *= np.logspace(0, 3, d)
    plan = make_plan(n, d, 0.5, r1=n, r2=d) if exact else make_plan(n, d, 0.5)
    assert plan.route == ("sketch" if exact else "gram")
    report, basis = levscore._leverage_basis(A, plan, None)
    assert report.extras["rank"] == rho == basis.W.shape[1]
    assert basis.orthonormal
    X = A @ basis.W
    gram = X.T @ X
    tol = 1e-12 if exact else 1e-8
    assert abs(float(np.sum(gram * gram)) - rho) <= tol * rho


def test_gram_pass_runs_only_where_a_stage_drew(monkeypatch):
    # the gram and exact plans know X^T X = I_rho and sum no Gram; a
    # stage-1 sketch (r1 < n) or a stage-2 map (r2 < rank) sums one
    calls = []
    real = crosslev.product_gram

    def counting(A, W):
        calls.append(W.shape)
        return real(A, W)

    monkeypatch.setattr(crosslev, "product_gram", counting)
    n, d = 4096, 8
    A = planted_matrix(seed=6, n=n, d=d)
    for plan, want in ((make_plan(n, d, 0.5), 0),
                       (make_plan(n, d, 0.5, r1=n, r2=d), 0),
                       (make_plan(n, d, 0.5, r1=1024), 1),
                       (make_plan(n, d, 0.5, r1=n, r2=4), 1)):
        calls.clear()
        hp = approx_cross_leverage(A, plan, n * math.log(n), 1)
        assert (3, 7) in hp.indices()
        assert len(calls) == want, plan
        assert approx_leverage(A, plan, 1)[1].orthonormal == (want == 0)


def test_kappa_just_above_one_finds_no_pairs():
    # the cutoff d / kappa ~ d lies above every c_ij^2 <= 1; the rescaled
    # kappa' = kappa ||X^T X||_F^2 / d may fall below 1 on a sketch, which
    # must not be reported as the caller's kappa being out of range
    A = np.random.default_rng(3).standard_normal((4096, 8))
    plan = sketch_plan(4096, 8)
    assert plan.r1 < 4096
    below_one = 0
    for seed in range(6):
        hp = approx_cross_leverage(A, plan, 1.0 + 1e-9, seed)
        assert hp.pairs == [] and hp.kappa == 1.0 + 1e-9
        below_one += hp.threshold > hp.gram_fro_sq
    assert below_one > 0


def test_effective_threshold_is_d_over_kappa():
    rng = np.random.default_rng(30)
    A = rng.standard_normal((128, 4))
    plan = make_plan(128, 4, 0.5)
    hp = approx_cross_leverage(A, plan, kappa=5.0, seed=2)
    assert hp.threshold == pytest.approx(4 / 5.0, rel=1e-12)


def test_count_bound_asserted_on_invocation():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((128, 4))
    plan = make_plan(128, 4, 0.5)
    hp = approx_cross_leverage(A, plan, kappa=5.0, seed=2)
    r2 = plan.r2
    # kappa' <= kappa (1 + 30 d eps) whenever the sketch gram is accurate
    assert len(hp) <= math.ceil(5.0 * (1 + 30 * 4 * 0.5) * r2)
