"""Hot numeric kernels, in numpy and BLAS.

The Walsh-Hadamard transform uses the Kronecker form of Sylvester's
matrix: H_n = H_b1 (x) H_b2 (x) ... with every block b_i <= 64.
Viewing the rows axis as the index tuple (i1, i2, ...), each factor is one
dense +/-1 matrix product along its own axis. A constant block keeps the
cost O(n d log n); a scratch of at most ``_SCRATCH_BYTES`` keeps the extra
memory independent of n and d.

One helper, ``_fwht_slabs``, transforms every slab (2^k consecutive rows)
of an array, a batch of slabs at a time: a batch whose rows fit in half of
the scratch is read once into one half (weighted, when the rows are the
SRHT's D x), moved between the two halves by every block but the last,
and written once by the last. A slab larger than half the scratch first
takes its leading blocks in place, tile by tile through the scratch,
until the pieces it leaves fit. At the default 2 MiB that happens for
``fwht_inplace`` once n d > 2^17 and for ``sampled_fwht`` once
(n_pad / 64) d > 2^17, that is n_pad > 2^23 / d.

The subsampled transform computes only the kept rows of H_n [x; 0] for an
x of n <= n_pad rows. With H_n = H_b (x) H_slab, b the first block and
slab = n_pad / b, row I * slab + k of H_n [x; 0] is sum_J H_b[I, J] z_J[k],
where z_J = H_slab x_J is the transform of the J-th slab of x. Only the
ceil(n / slab) slabs that hold x are transformed, so the padding costs
less than one slab, and they are transformed a group at a time into one
buffer of at most ``_GROUP_SCRATCHES`` scratches (32 MiB at the default).
Each group adds its share sum_{J in group} H_b[I, J] z_J[k] into every
kept row: one product of the group's columns of H_b with each tile of
slab positions, from which the kept rows are gathered. So the SRHT reads
x once, writes and reads each slab once, and its memory is the group
buffer and O(r d) for its r kept rows, whatever n is. The first row of
each transformed slab sums the slab (row 0 of H_slab is all ones), so it
is the input check: it is finite unless the slab holds a NaN or Inf, or
overflows. The transpose needs no kernel of its own: H is symmetric, so
it is one ``fwht_inplace`` of the r rows placed at their indices.

``product_sq_norms`` and ``product_gram`` read the squared row norms and
the Gram of a product a w tile by tile, each row tile formed in one reused
scratch, so the n-row product is never stored.
"""

from __future__ import annotations

import functools

import numpy as np

from . import errors

_MAX_LOG_BLOCK = 6  # blocks of at most 64: one BLAS call outruns 6 butterflies
# within one core's L2, and small enough that apply_srht's peak stays below
# that of the padded n_pad x d buffer it replaces
_SCRATCH_BYTES = 2 << 20
_GROUP_SCRATCHES = 16  # transformed slabs sampled_fwht holds at once, 32 MiB:
# smaller groups make more, smaller products with H_b (at 100000 x 64, five
# groups took 1.15x the time of two)


def _scratch(size: int) -> np.ndarray:
    """Float64 scratch for at most ``size`` values."""
    return np.empty(min(size, _SCRATCH_BYTES // 8))


def _sylvester(log_b: int) -> np.ndarray:
    h = np.ones((1, 1))
    for _ in range(log_b):
        h = np.block([[h, h], [h, -h]])
    return h


_HADAMARD = tuple(_sylvester(k) for k in range(_MAX_LOG_BLOCK + 1))


@functools.cache  # log_n < 64: a few dozen entries, read on every call
def _block_logs(log_n: int) -> tuple[int, ...]:
    """Split log2(n) into the fewest, most even parts <= _MAX_LOG_BLOCK."""
    parts = -(-log_n // _MAX_LOG_BLOCK)
    return tuple(log_n // parts + (i < log_n % parts) for i in range(parts))


def _apply_block(x3: np.ndarray, h: np.ndarray, scratch: np.ndarray) -> None:
    """x3[o] <- h @ x3[o] for every o, tile by tile through ``scratch``."""
    outer, b, inner = x3.shape
    width = max(1, min(inner, scratch.size // b))
    batch = max(1, scratch.size // (b * width))
    for o in range(0, outer, batch):
        for c in range(0, inner, width):
            tile = x3[o:o + batch, :, c:c + width]
            out = scratch[:tile.size].reshape(tile.shape)
            np.matmul(h, tile, out=out)
            tile[...] = out


def _weigh(src: np.ndarray, weights, dst: np.ndarray) -> None:
    """dst <- diag(weights) [src; 0], or [src; 0] when ``weights`` is None."""
    m = src.shape[0]
    if weights is None:
        dst[:m] = src
    else:
        np.multiply(src, weights[:, None], out=dst[:m])
    dst[m:] = 0.0


def _fwht_slabs(src: np.ndarray, weights, out: np.ndarray, log_slab: int,
                scratch: np.ndarray) -> None:
    """out[s] <- H_slab (diag(weights) [src; 0])[s], unnormalized, for each
    slab of 2^log_slab rows of ``out``; ``src`` may be ``out`` itself.

    Slabs are transformed in batches that fit in half of ``scratch``: a
    batch's weighted rows are written into one half, every Kronecker block
    but the last moves them to the other half and back, and the last
    writes into ``out``. A slab too large for half the scratch is first
    weighted into ``out`` and given its leading blocks in place, tile by
    tile, until its sub-slabs fit.
    """
    d = src.shape[1]
    half = scratch.size // 2
    logs = _block_logs(log_slab)
    k, log_piece = 0, log_slab
    while k < len(logs) and (d << log_piece) > half:
        log_piece -= logs[k]
        k += 1
    if k or not logs:
        if src is not out:
            _weigh(src, weights, out)
        src, weights = out, None
        outer = out.shape[0] >> log_slab
        for log_b in logs[:k]:
            _apply_block(out.reshape(outer, 1 << log_b, -1), _HADAMARD[log_b],
                         scratch)
            outer <<= log_b
        if k == len(logs):
            return
    rest = logs[k:]
    batch = (half // d) >> log_piece << log_piece
    halves = scratch[:half], scratch[half:2 * half]
    for g0 in range(0, out.shape[0], batch):
        g1 = min(g0 + batch, out.shape[0])
        buf = halves[0][:(g1 - g0) * d]
        _weigh(src[g0:g1], None if weights is None else weights[g0:g1],
               buf.reshape(g1 - g0, d))
        outer = (g1 - g0) >> log_piece
        for j, log_b in enumerate(rest, 1):
            dst = halves[j % 2][:buf.size] if j < len(rest) else out[g0:g1]
            np.matmul(_HADAMARD[log_b], buf.reshape(outer, 1 << log_b, -1),
                      out=dst.reshape(outer, 1 << log_b, -1))
            buf = dst
            outer <<= log_b


def fwht_inplace(a: np.ndarray) -> None:
    """Apply the unnormalized Walsh-Hadamard transform down axis 0 of ``a``.

    ``a`` must be C-contiguous float64 with a power-of-two number of rows;
    callers are responsible for validation and for the 1/sqrt(n)
    normalization.
    """
    if not a.flags.c_contiguous:
        raise ValueError("fwht_inplace needs a C-contiguous array")
    _fwht_slabs(a, None, a, a.shape[0].bit_length() - 1, _scratch(2 * a.size))


def _split(n: int, n_pad: int) -> tuple[int, np.ndarray]:
    """H_{n_pad} = H_b (x) H_slab, b the first of ``_block_logs``' blocks:
    log2(slab) and the b x ceil(n / slab) columns of H_b for the slabs
    that hold n rows."""
    log_n = n_pad.bit_length() - 1
    log_b = _block_logs(log_n)[0] if log_n else 0
    log_slab = log_n - log_b
    return log_slab, _HADAMARD[log_b][:, :-(-n >> log_slab)]


def _tiles(rows: np.ndarray, log_slab: int, b: int, cols: int,
           scratch: np.ndarray) -> list:
    """(flat, cs, span, src, buf) for each tile that holds kept ``rows``,
    which come sorted by slab position ``rows & (slab - 1)``.

    With the slabs viewed as rows of slab * cols values, ``flat`` slices
    a tile of whole slab positions, or column slice ``cs`` of a single
    position when its b output rows overflow ``scratch``. The rows that
    fall in the tile are the contiguous run ``rows[span]``, and ``src`` is
    their row in ``buf``, the scratch for the tile's output of
    b * positions rows of ``cs``.
    """
    slab = 1 << log_slab
    width = max(1, min(cols, scratch.size // b))
    per = scratch.size // (b * cols) if width == cols else 1
    offset = rows & (slab - 1)
    starts = np.arange(0, slab, per)
    edges = np.searchsorted(offset, np.append(starts, slab))
    tiles = []
    for t in np.flatnonzero(np.diff(edges)):
        k0 = int(starts[t])
        k1 = min(k0 + per, slab)
        span = slice(edges[t], edges[t + 1])
        src = (rows[span] >> log_slab) * (k1 - k0) + offset[span] - k0
        for c0 in range(0, cols, width):
            cs = slice(c0, min(c0 + width, cols))
            flat = slice(k0 * cols + c0, (k1 - 1) * cols + cs.stop)
            buf = scratch[:b * (flat.stop - flat.start)]
            tiles.append((flat, cs, span, src, buf.reshape(-1, cs.stop - c0)))
    return tiles


def _check_slabs(z: np.ndarray, src: np.ndarray, log_slab: int) -> None:
    """Raise ``NonFiniteEntry`` if a slab of ``src`` holds a NaN or infinite
    entry, given its transformed weighted slabs ``z``. Row 0 of H_slab is
    all ones, so the first row of each slab of ``z`` sums the slab's
    weighted entries, column by column: it is finite unless the slab holds
    a NaN or Inf or its finite entries overflow. Only a slab whose first
    row is not finite is scanned, to tell the two apart; overflow is not
    an error here."""
    for j in np.flatnonzero(~np.isfinite(z[::1 << log_slab]).all(axis=1)):
        if not np.isfinite(src[j << log_slab:(j + 1) << log_slab]).all():
            raise errors.NonFiniteEntry("matrix contains NaN or Inf entries")


@np.errstate(invalid="ignore")  # an Inf entry's slab raises NonFiniteEntry
def sampled_fwht(a: np.ndarray, weights: np.ndarray, rows: np.ndarray,
                 n_pad: int) -> np.ndarray:
    """``(H_{n_pad} [diag(weights) a; 0])[rows]`` without the n_pad rows.

    ``a`` is a trusted n x d float64 array with n <= n_pad (a power of
    two), ``weights`` its n finite row weights and ``rows`` distinct row
    indices below n_pad. H is unnormalized. The slabs of diag(weights) a
    are transformed a group at a time, each group in one buffer of at
    most ``_GROUP_SCRATCHES`` scratches (a slab larger than that is split
    into column blocks), and each group's share of every kept row is
    added into the r x d result before the next group. So the memory is
    that buffer, the result twice over (it is gathered in tile order and
    put in row order once, at the end) and a scratch of at most
    ``_SCRATCH_BYTES``, whatever n is. ``a`` is not scanned beforehand:
    each transformed slab's first row is checked (see ``_check_slabs``),
    and a NaN or infinite entry of ``a`` raises ``NonFiniteEntry``.
    """
    n, d = a.shape
    log_slab, h = _split(n, n_pad)
    b, slabs = h.shape
    budget = _GROUP_SCRATCHES * _SCRATCH_BYTES // 8  # values in one group
    width = min(d, max(1, budget >> log_slab))  # columns of a group
    groups = -(-slabs // max(1, budget // (width << log_slab)))
    per = -(-slabs // groups)  # slabs per group, evened out
    order = np.argsort(rows & ((1 << log_slab) - 1), kind="stable")
    kept = rows[order]
    scratch = _scratch(2 * n_pad * d)
    z = np.empty((per << log_slab) * width)
    acc = np.empty((rows.size, d))  # the kept rows in tile order
    for c0 in range(0, d, width):
        cols = slice(c0, min(c0 + width, d))
        w = cols.stop - c0
        tiles = _tiles(kept, log_slab, b, w, scratch)
        for j0 in range(0, slabs, per):
            j1 = min(j0 + per, slabs)
            i0, i1 = j0 << log_slab, j1 << log_slab  # rows, with padding
            src = a[i0:i1, cols]
            zg = z[:(i1 - i0) * w].reshape(-1, w)
            _fwht_slabs(src, weights[i0:i1], zg, log_slab, scratch)
            _check_slabs(zg, src, log_slab)
            z2 = zg.reshape(j1 - j0, -1)
            for flat, cs, span, src_rows, buf in tiles:
                np.matmul(h[:, j0:j1], z2[:, flat], out=buf.reshape(b, -1))
                part = acc[span, c0 + cs.start:c0 + cs.stop]
                if j0:
                    part += buf[src_rows]
                else:  # unbuffered where part is whole rows of acc
                    buf.take(src_rows, axis=0, out=part, mode="clip")
    del z, zg, z2  # the group buffer goes before the result is copied
    out = np.empty_like(acc)
    out[order] = acc
    return out


def row_sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared euclidean norm of each row."""
    return np.einsum("ij,ij->i", a, a)


def _product_tiles(a: np.ndarray, w: np.ndarray):
    """(i, a[i:i + m] @ w) for each row tile of a @ w, every tile formed in
    one reused scratch of at most ``_SCRATCH_BYTES``: a tile is valid only
    until the next one is formed."""
    n, k = a.shape[0], w.shape[1]
    step = max(1, _SCRATCH_BYTES // (8 * max(a.shape[1], k)))
    tile = np.empty((min(step, n), k))
    for i in range(0, n, step):
        yield i, np.matmul(a[i:i + step], w, out=tile[:min(step, n - i)])


def product_sq_norms(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``row_sq_norms(a @ w)`` without the n x k product: its norms are read
    from each row tile while the tile is still in cache."""
    sq = np.empty(a.shape[0])
    for i, t in _product_tiles(a, w):
        np.einsum("ij,ij->i", t, t, out=sq[i:i + t.shape[0]])
    return sq


def product_gram(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The k x k Gram (a @ w)^T (a @ w) without the n x k product: the Grams
    of its row tiles are added up, so it equals the one-product Gram to
    rounding, and bit for bit when a @ w fits in one tile."""
    gram = np.zeros((w.shape[1], w.shape[1]))
    for _, t in _product_tiles(a, w):
        gram += t.T @ t
    return gram


def backend_name() -> str:
    """Name of the kernel backend, recorded in benchmark environments."""
    return "numpy"
