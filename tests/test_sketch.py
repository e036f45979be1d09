import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levsketch
from levsketch import (SketchOperator, _kernels, apply_sparse_jlt, apply_srht,
                       approx_leverage, errors, fjlt_dim, fwht,
                       hadamard_matrix, jlt_dim, make_plan, mi_estimate)
from levsketch._kernels import fwht_inplace, sampled_fwht
from levsketch.rng import rademacher, substream
from levsketch.sketch import (_srht_selection, _srht_transpose, default_r1,
                              gaussian_matrix, next_pow2)
from conftest import traced_peak


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


def test_fwht_uneven_blocks_and_tiles_match_oracle(monkeypatch):
    # 2^17 rows split into blocks 2^6, 2^6, 2^5; 2^17 x 64 values exceed
    # half the kernel's scratch, so the first block is applied in place in
    # column tiles, and the 2^11-row pieces it leaves (exactly half the
    # scratch) take the other two in scratch. At 3840 bytes 2^10 x 5 values
    # exceed half, so the first of blocks 2^5, 2^5 runs in place and the
    # second on one 32-row piece at a time; at 512 bytes even 64 x 3 values
    # exceed half, so both blocks 2^6, 2^6 run in place, one column a tile.
    default = _kernels._SCRATCH_BYTES
    for log_n, d, scratch_bytes in ((17, 64, default), (10, 5, 3840),
                                    (12, 3, 512)):
        monkeypatch.setattr(_kernels, "_SCRATCH_BYTES", scratch_bytes)
        n = 1 << log_n
        x = np.random.default_rng(17).standard_normal((n, d))
        y = fwht(x)
        j = np.arange(n)
        for i in sorted({0, 1, 63, 64, 2047 % n, 2048 % n, 77777 % n, n - 1}):
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


def test_srht_allocates_no_input_sized_temporary(monkeypatch):
    # the transformed slabs of D A are held one group at a time, in at most
    # 4 scratches; beyond that buffer the peak is the r x d result twice
    # (gathered in tile order, then put in row order), the scratch, one
    # tile's gathered rows (at most a scratch) and the O(n) signs and
    # selection, so it does not grow with n. At the default scratch
    # 100000 x 64 takes 7 groups of 8 slabs of 1 MiB (the last holds one),
    # 60000 x 32 4 of 16 slabs of 256 KiB and 140000 x 64 9 of 4 slabs of
    # 2 MiB; at 512 KiB the three shapes take 7 groups in each of 4
    # column panels, 8 groups, and 5 in each of 8 panels, every group 8
    # slabs of 256 KiB. A buffer for every slab would alone
    # take 49, 15 and 70 MiB, and the 16-scratch groups this bound replaced
    # exceed it at 100000 x 64 (25 MiB of slabs).
    for scratch_bytes in (_kernels._SCRATCH_BYTES, 1 << 19):
        monkeypatch.setattr(_kernels, "_SCRATCH_BYTES", scratch_bytes)
        for n, d, r in ((100_000, 64, 4096), (60_000, 32, 7041),
                        (140_000, 64, 4096)):
            A = np.random.default_rng(2).standard_normal((n, d))
            op = SketchOperator("SRHT", 3, n, r)
            _, peak = traced_peak(lambda: apply_srht(op, A))
            budget = (4 * scratch_bytes + 2 * scratch_bytes + 2 * r * d * 8
                      + 2 * next_pow2(n) * 8)
            assert peak < budget, (f"{n}x{d} at {scratch_bytes} bytes: "
                                   f"peak {peak / 2**20:.1f} MiB")


def hadamard_rows(rows, n, n_pad):
    """Rows ``rows``, columns :n of the normalized H_{n_pad}, built from
    two dense ``hadamard_matrix`` factors: H_{2^(a+b)} = H_{2^a} (x) H_{2^b}."""
    log_n = n_pad.bit_length() - 1
    lo = log_n // 2
    mask = (1 << lo) - 1
    cols = np.arange(n)
    high = hadamard_matrix(1 << (log_n - lo))[np.ix_(rows >> lo, cols >> lo)]
    return high * hadamard_matrix(1 << lo)[np.ix_(rows & mask, cols & mask)]


def dense_srht_product(op, A):
    """sqrt(n_pad / r) S H D A with S H formed densely, 512 rows at a time."""
    n = op.in_dim
    n_pad = next_pow2(n)
    rows = _srht_selection(op, n_pad)
    DA = A * rademacher(op.seed, n, 0)[:, None]
    parts = [hadamard_rows(chunk, n, n_pad) @ DA
             for chunk in np.array_split(rows, -(-rows.size // 512))]
    return math.sqrt(n_pad / op.out_dim) * np.vstack(parts)


def padded_srht(op, A):
    """The full transform: pad D A to n_pad rows, transform every row,
    keep the selected r."""
    n, d = A.shape
    n_pad = next_pow2(n)
    buf = np.zeros((n_pad, d))
    buf[:n] = A * rademacher(op.seed, n, 0)[:, None]
    fwht_inplace(buf)
    return buf[_srht_selection(op, n_pad)] / math.sqrt(op.out_dim)


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 1000, 4096, 4097])
def test_srht_matches_dense_oracle(n):
    n_pad = next_pow2(n)
    for r in sorted({1, max(1, n // 2), n_pad}):
        for d in (1, 3):
            A = np.random.default_rng(n + r + d).standard_normal((n, d))
            op = SketchOperator("SRHT", n + r, n, r)
            np.testing.assert_allclose(apply_srht(op, A),
                                       dense_srht_product(op, A),
                                       rtol=0, atol=1e-12)


def test_srht_equals_the_full_transform_same_seed():
    # the Kronecker factors run in another order, so entries may differ by
    # rounding only: 1e-14 of the largest entry
    for n, d, r in ((5000, 8, 700), (70_000, 4, 9000), (4096, 2, 4096)):
        A = np.random.default_rng(n).standard_normal((n, d))
        op = SketchOperator("SRHT", 12, n, r)
        want = padded_srht(op, A)
        got = apply_srht(op, A)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n, rows, scratch_bytes, tiles", [
    (1000, [0, 4, 31, 37, 233, 394, 669, 990, 992, 1023], 3840, 5),
    (1000, [0, 4, 31, 37, 233, 394, 669, 990, 992, 1023], 512, 16),
    (63, [0, 31, 62, 63], 512, 3),
    (5000, [0, 15, 16, 255, 256, 4863, 4864, 4999, 5000, 8191], 3840, 4),
])
def test_sampled_fwht_tiles_match_oracle(monkeypatch, n, rows, scratch_bytes,
                                         tiles):
    # n = 1000: n_pad = 1024 = 32 blocks x 32 slab positions. 3840 bytes
    # hold 5 positions of 32 rows x 3 columns per tile, so the 7th tile is
    # short; the kept rows sit on the edges of 5 tiles (offsets 0, 4, 5, 9,
    # 10, 29, 30, 31), in the first and last blocks, and include the last
    # row. 512 bytes hold only 2 columns: each kept position splits in two.
    # n = 63: n_pad = 64 = 64 blocks x 1 position, and 512 bytes hold one
    # column of the 64 output rows, so the one position splits in three.
    # Slab transforms: at 3840 bytes, n = 1000's 32-row slabs go two to a
    # batch through half the scratch; at 512 bytes a slab exceeds half and
    # is transformed in place. n = 5000: n_pad = 8192 = 32 blocks x 256
    # positions; a 256-row slab (blocks 16, 16) exceeds half of 3840 bytes,
    # so its first block runs in place and its 16-row pieces go five to a
    # batch through the scratch.
    monkeypatch.setattr(_kernels, "_SCRATCH_BYTES", scratch_bytes)
    d, n_pad = 3, next_pow2(n)
    rows = np.array(rows)
    log_b, log_slab = _kernels._split(n_pad)
    scratch = _kernels._scratch(n_pad * d)
    by_position = rows[np.argsort(rows & ((1 << log_slab) - 1), kind="stable")]
    for log_g in range(log_b + 1):  # g sizes each tile's mix, not its span
        assert len(_kernels._tiles(by_position, log_slab, log_b, log_g, d,
                                   scratch)) == tiles
    rng = np.random.default_rng(19)
    A = rng.standard_normal((n, d))
    signs = rademacher(4, n, 0)
    H = hadamard_rows(rows, n, n_pad) * math.sqrt(n_pad)  # unnormalized
    np.testing.assert_allclose(sampled_fwht(A, 0.5 * signs, rows, n_pad),
                               0.5 * H @ (A * signs[:, None]), rtol=0,
                               atol=1e-12)


def sampled_oracle(A, weights, rows, n_pad):
    """The unnormalized (H_{n_pad} [diag(weights) A; 0])[rows], densely."""
    H = hadamard_rows(rows, A.shape[0], n_pad) * math.sqrt(n_pad)
    return H @ (A * weights[:, None])


@pytest.mark.parametrize("n, d, scratch_bytes, g, groups, blocks", [
    (3100, 2, 2048, 16, 4, 2),
    (1000, 3, 2 << 20, 32, 1, 1),
    (1000, 3, 512, 8, 4, 3),
    (5000, 3, 512, 1, 20, 3),
    (5000, 6, 512, 1, 20, 6),
    (5000, 3, 3840, 4, 5, 3),
    (3100, 6, 2 << 20, 16, 4, 1),
    (20000, 2, 512, 1, 20, 2),
])
def test_sampled_fwht_groups_match_oracle(monkeypatch, n, d, scratch_bytes,
                                          g, groups, blocks):
    # A group holds 4 scratches: 1024 values at 2048 bytes, 256 at 512,
    # 1920 at 3840; 302-304 rows are kept. The cost model asks for g = 64
    # at n = 3100, 2048 bytes, and for g = 32 in the other small-scratch
    # cases, more than a whole-row group holds, so groups take column
    # panels of as many slabs as fit. n = 3100: n_pad = 4096 = 64 blocks
    # x 64-row slabs, 49 of which hold A; 16 one-column slabs fill a
    # group, so each of 2 panels runs 4 groups, the last holding one slab.
    # n = 1000: 32 blocks x 32-row slabs; at the default scratch one
    # group mixes all b = 32; at 512 bytes 8 one-column slabs fill a
    # group. n = 5000: 32 blocks x 256-row slabs; at 512 bytes one column
    # of a slab fills a group, so each slab is a group of its own in
    # one-column blocks; at 3840 bytes 7 slab columns fit, so groups of 4
    # one-column slabs. At the default scratch n = 3100, d = 6 keeps whole
    # rows, in 4 groups of the g = 16 the cost model asks for. n = 20000:
    # a 1024-row slab column is wider than the 256-value group, so g = 1
    # and each slab is split into one-column blocks.
    monkeypatch.setattr(_kernels, "_SCRATCH_BYTES", scratch_bytes)
    checked = []
    real = _kernels._check_slabs

    def counting(z, src, log_slab):
        checked.append(z.shape[0] >> log_slab)
        return real(z, src, log_slab)

    monkeypatch.setattr(_kernels, "_check_slabs", counting)
    n_pad = next_pow2(n)
    _, log_slab = _kernels._split(n_pad)
    slabs = -(-n >> log_slab)
    rng = np.random.default_rng(n + d)
    rows = np.union1d(rng.choice(n_pad, size=300, replace=False),
                      [0, 1, n - 1, n_pad - 1])
    A = rng.standard_normal((n, d))
    weights = 0.5 * rademacher(7, n, 0)
    np.testing.assert_allclose(sampled_fwht(A, weights, rows, n_pad),
                               sampled_oracle(A, weights, rows, n_pad),
                               rtol=0, atol=1e-12)
    assert len(checked) == groups * blocks
    assert max(checked) == g and sum(checked) == slabs * blocks
    last = (min(g, slabs) << log_slab) - 1  # the first group's last row
    for bad in ({n // 2: np.nan},  # a middle group, last column block
                {0: np.inf, min(last, n - 1): -np.inf}):  # one group
        B = A.copy()
        for row, value in bad.items():
            B[row, d - 1] = value
        with pytest.raises(errors.NonFiniteEntry):
            sampled_fwht(B, weights, rows, n_pad)


def sampled_group(n, d, r):
    """(g, columns) of ``sampled_fwht``'s groups for r kept rows of n x d."""
    log_g, columns = _kernels._group(n, d, r, next_pow2(n))
    return 1 << log_g, columns


def test_group_size_follows_the_cost_model(monkeypatch):
    # the benchmark's whole-row shapes keep the groups of the fit rule the
    # cost model replaced: tall-leverage's 100000 x 64 (g = 8 of b = 64)
    # and wide-general's 8192 x 32 (g = b = 32). cross-pairs' 60000 x 32
    # needs no more than 16 slabs a group, where 32 fit; at 32768 x 2048,
    # where no whole-row slab fits a group, g >= 16 in column panels
    assert sampled_group(100_000, 64, 14737) == (8, 64)
    assert sampled_group(8192, 32, 5767) == (32, 32)
    assert sampled_group(60_000, 32, 7042)[0] <= 16
    g, columns = sampled_group(32768, 2048, 16384)
    assert g >= 16 and columns < 2048
    # a slab column wider than the group buffer is a group of its own, in
    # one-column blocks: 1024-row slabs at 512 bytes (256 values a group),
    # 2^21-row slabs of n = 2^27 at the default scratch
    assert sampled_group(1 << 27, 4, 5000) == (1, 1)
    monkeypatch.setattr(_kernels, "_SCRATCH_BYTES", 512)
    assert sampled_group(20_000, 3, 100) == (1, 1)


@pytest.mark.parametrize("scratch_bytes", [512, 3840, 2 << 20])
def test_group_buffer_stays_within_four_scratches(monkeypatch,
                                                  scratch_bytes):
    # g slabs of the group's columns fit 4 scratches, whatever n, d and r
    # are, unless one slab column alone is wider (then g = 1, one column)
    monkeypatch.setattr(_kernels, "_SCRATCH_BYTES", scratch_bytes)
    for n in (1, 63, 1000, 60_000, 100_000, 1 << 17, 10**7):
        _, log_slab = _kernels._split(next_pow2(n))
        for d in (1, 3, 16, 64, 256, 2048):
            for r in (1, 8 * d, 20 * d * 12, next_pow2(n)):
                g, columns = sampled_group(n, d, min(r, next_pow2(n)))
                assert 1 <= columns <= d
                assert (g << log_slab) * columns <= scratch_bytes // 2 \
                    or (g, columns) == (1, 1)


@given(st.integers(1, 300), st.integers(1, 16), st.integers(1, 40),
       st.sampled_from([512, 1024, 3840, 2 << 20]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_fwht_matches_dense_oracle(n, d, r, scratch_bytes, seed):
    # any n, d, kept rows and scratch (the smallest holds the 64 values of
    # one column of a slab position's b <= 64 rows): groups, column
    # blocks, column panels mixed in groups of g > 1 (up to 16 columns
    # overflow a small scratch's whole-row group), in-place slab
    # transforms and split tiles all give the dense product
    n_pad = next_pow2(n)
    rng = np.random.default_rng(seed)
    rows = rng.choice(n_pad, size=min(r, n_pad), replace=False)
    A = rng.standard_normal((n, d))
    weights = rng.standard_normal(n)
    default = _kernels._SCRATCH_BYTES
    try:
        _kernels._SCRATCH_BYTES = scratch_bytes
        got = sampled_fwht(A, weights, rows, n_pad)
    finally:
        _kernels._SCRATCH_BYTES = default
    want = sampled_oracle(A, weights, rows, n_pad)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(want).max()))


def test_kernel_surface_inventory():
    # one sampled kernel: the SRHT's transpose runs the full transform, so a
    # new kernel driver must be added here on purpose
    public = {name for name, value in vars(_kernels).items()
              if not name.startswith("_") and callable(value)
              and getattr(value, "__module__", None) == _kernels.__name__}
    assert public == {"fwht_inplace", "sampled_fwht", "row_sq_norms",
                      "product_sq_norms", "product_gram", "backend_name"}


def test_product_sq_norms_tiles_match_one_product(monkeypatch):
    # 3840 bytes hold 480 values: tiles of 96 rows of 5 columns, so 1000
    # rows take 11 tiles, the last one short
    monkeypatch.setattr(_kernels, "_SCRATCH_BYTES", 3840)
    rng = np.random.default_rng(5)
    a, w = rng.standard_normal((1000, 5)), rng.standard_normal((5, 3))
    sq = _kernels.product_sq_norms(a, w)
    assert sq.shape == (1000,)
    np.testing.assert_array_equal(sq, _kernels.row_sq_norms(a @ w))


def test_rademacher_forms_its_signs_in_place():
    # the signs are 2 u - 1 of the seeded 0/1 draw u, bit for bit, formed
    # in place: the peak is the int64 draw and the float64 vector it
    # returns, with no casting buffer (64 KiB, 0.08 x at n = 10^5). The
    # calls above have already paid the generator's one-time set-up.
    for seed, n, ids in ((0, 1, (0,)), (3, 1000, (0,)), (7, 4097, (2, 5)),
                         (11, 100_000, ())):
        u = substream(seed, *ids).integers(0, 2, size=n)
        signs = rademacher(seed, n, *ids)
        assert signs.dtype == np.float64
        assert signs.tobytes() == (2.0 * u - 1.0).astype(np.float64).tobytes()
    for n in (10**5, 10**6):
        signs, peak = traced_peak(lambda: rademacher(5, n, 0))
        assert peak <= 2.01 * signs.nbytes, f"peak {peak / signs.nbytes:.3f} x"


def test_product_sq_norms_does_not_form_the_product():
    # the n x k product is never stored: its row tiles share one scratch,
    # so the peak is the n scores plus at most _SCRATCH_BYTES
    rng = np.random.default_rng(8)
    a, w = rng.standard_normal((200_000, 16)), rng.standard_normal((16, 16))
    product_bytes = a.shape[0] * w.shape[1] * 8
    sq, peak = traced_peak(lambda: _kernels.product_sq_norms(a, w))
    assert peak < product_bytes / 2, f"peak {peak / product_bytes:.2f} x n k"
    assert sq.shape == (200_000,)


@pytest.mark.parametrize("scratch_bytes", [None, 3840, 512])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_raises_wherever_it_sits(monkeypatch, scratch_bytes,
                                                  bad):
    # apply_srht does not scan its input; the kernel checks the first row
    # of each transformed slab of D A, which sums the slab. With the
    # default scratch every slab of n = 1000 (32 rows) sits in one group
    # and n = 5000 (256-row slabs) runs 3 groups of 8; at 3840 bytes
    # n = 1000 runs 2 groups and n = 5000 runs 5 in each of 3 one-column
    # blocks, whose slabs exceed half the scratch, so they are transformed
    # in place; at 512 bytes n = 1000 runs 4 groups and n = 5000 runs 20,
    # each in 3 one-column blocks.
    # Rows 0, n // 2 and n - 1 sit in the first, a middle and the last
    # group, and last_slab on the first row of the slab that holds the
    # padding. approx_leverage validates A itself, whether it runs the
    # SRHT (r1 < n) or factors A (r1 >= n); mi_estimate leaves the check
    # to the kernel.
    if scratch_bytes is not None:
        monkeypatch.setattr(_kernels, "_SCRATCH_BYTES", scratch_bytes)
    for n in (1000, 5000):
        A = np.random.default_rng(n).standard_normal((n, 3))
        _, log_slab = _kernels._split(next_pow2(n))
        last_slab = (n - 1) >> log_slab << log_slab  # holds padding rows
        for row in (0, n // 2, n - 1, last_slab):
            B = A.copy()
            B[row, 1] = bad
            with pytest.raises(errors.NonFiniteEntry):
                apply_srht(SketchOperator("SRHT", 1, n, 100), B)
            with pytest.raises(errors.NonFiniteEntry):
                mi_estimate(B, 1)
            for r1 in (100, n):
                with pytest.raises(errors.NonFiniteEntry):
                    approx_leverage(B, make_plan(n, 3, 0.5, r1=r1), seed=1)
        B = A.copy()
        B[last_slab, 1] = 1e300  # huge but finite: no error
        out = apply_srht(SketchOperator("SRHT", 1, n, 100), B)
        assert np.all(np.isfinite(out))
        # a middle slab's first column at 1e308 with D's signs: its weighted
        # entries, 1e307 each, overflow in the slab's sum, and that first
        # row's infinity is no error, as no entry of B is infinite
        op = SketchOperator("SRHT", 1, n, 100)
        weights = rademacher(1, n, 0) / math.sqrt(op.out_dim)
        B = A.copy()
        mid = slice(n // 2 >> log_slab << log_slab,
                    (n // 2 >> log_slab) + 1 << log_slab)
        B[mid, 0] = 1e308 * np.sign(weights[mid])
        with np.errstate(over="ignore"):
            apply_srht(op, B)
            total = sampled_fwht(B, weights, np.array([0]), next_pow2(n))
        assert total[0, 0] == np.inf


@pytest.mark.parametrize("n, r", [(1, 1), (3, 2), (65, 128), (1000, 77),
                                  (4097, 3000)])
def test_srht_transpose_is_the_adjoint(n, r):
    rng = np.random.default_rng(n)
    op = SketchOperator("SRHT", 8, n, r)
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal((r, 2))
    lhs = np.sum(apply_srht(op, x) * y)
    rhs = np.sum(x * _srht_transpose(op, y))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


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


# ---------------------------------------------------------------- gaussian

def test_gaussian_moments_and_determinism():
    op = SketchOperator("Gaussian", 21, 1000, 1000)
    G = gaussian_matrix(op)
    assert abs(G.mean()) <= 0.01
    assert abs(G.var() - 1.0) <= 0.02
    assert np.array_equal(G, gaussian_matrix(op))


# ---------------------------------------------------------------- plans

def test_make_plan_practical_defaults():
    # one explicit size leaves the other's default (no array is allocated);
    # a plan for fewer than 2^12 entries takes both defaults
    n, d = 10**7, 2048
    assert make_plan(n, d, 0.5, r2=774).r1 == default_r1(n, d) == math.ceil(
        20 * d * math.log(n)) < n
    assert make_plan(n, d, 0.5, r1=660198).r2 == math.ceil(
        12 * math.log(n) / 0.25)
    assert make_plan(2048, 16, 0.5, r2=5).r1 == min(
        2048, math.ceil(20 * 16 * math.log(2048)))
    assert make_plan(2048, 16, 0.5, r1=512).r2 == math.ceil(
        12 * math.log(2048) / 0.25)
    plan = make_plan(512, 4, 0.5)
    assert (plan.route, plan.r1, plan.r2) == (
        "sketch", math.ceil(80 * math.log(512)), math.ceil(48 * math.log(512)))


def test_make_plan_theory_uses_proof_grade_formulas():
    # The proof-grade sizes are explicit overrides of the one sizing rule.
    # At 1024 x 4 the FJLT bound exceeds n, so its r1 is n: the exact plan.
    n, d, eps, delta = 1024, 4, 0.5, 0.1
    inner = d * math.log(40 * n * d) / eps**2
    assert 14**2 * inner * math.log(30**2 * inner) > n
    plan = make_plan(n, d, eps, r1=fjlt_dim(n, d, eps),
                     r2=jlt_dim(max(n * n, 2), eps, delta))
    assert plan.r1 == fjlt_dim(n, d, eps) == n
    assert plan.r2 == math.ceil(
        (12 * math.log(n * n) + 6 * math.log(1 / delta)) / eps**2)
    assert [f.name for f in dataclasses.fields(plan)] == ["epsilon", "r1",
                                                           "r2", "route"]
    assert plan.route == "sketch"


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


@pytest.mark.parametrize("n, d", [(100_000, 64), (60_000, 32), (8192, 32),
                                  (4096, 1), (10**7, 2048)])
def test_make_plan_given_no_sizes_takes_the_gram_route(n, d):
    # the benchmark's tall and cross inputs, the wide solve's A^T, the
    # smallest input at the cut and the paper's regime: the exact sizes,
    # which sample nothing
    plan = make_plan(n, d, 0.5)
    assert (plan.route, plan.r1, plan.r2) == ("gram", n, d)


def test_make_plan_keeps_the_sketch_where_it_is_chosen():
    # an explicit size is the caller choosing the sketch
    for sizes in ({"r1": 8192}, {"r2": 553}, {"r1": 100_000, "r2": 64}):
        plan = make_plan(100_000, 64, 0.5, **sizes)
        assert plan.route == "sketch"
        assert plan.r1 == sizes.get("r1", 14737)
    # so does an input of fewer than 2^12 entries
    assert make_plan(4095, 1, 0.5).route == "sketch"
    assert make_plan(512, 4, 0.5).route == "sketch"


def test_next_pow2():
    assert [next_pow2(k) for k in (1, 2, 3, 5, 8, 1000)] == [1, 2, 4, 8, 8, 1024]
