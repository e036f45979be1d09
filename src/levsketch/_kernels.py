"""Hot numeric kernels, in numpy and BLAS.

The Walsh-Hadamard transform uses the Kronecker form of Sylvester's
matrix: H_n = H_b1 (x) H_b2 (x) ... with every block b_i <= 64.
Viewing the rows axis as the index tuple (i1, i2, ...), each factor is one
dense +/-1 matrix product along its own axis, done in place in tiles of at
most ``_SCRATCH_BYTES``. A constant block keeps the cost O(n d log n); a
constant scratch keeps the extra memory independent of n and d.
"""

from __future__ import annotations

import numpy as np

_MAX_LOG_BLOCK = 6  # blocks of at most 64: one BLAS call outruns 6 butterflies
_SCRATCH_BYTES = 4 << 20


def _sylvester(log_b: int) -> np.ndarray:
    h = np.ones((1, 1))
    for _ in range(log_b):
        h = np.block([[h, h], [h, -h]])
    return h


_HADAMARD = tuple(_sylvester(k) for k in range(_MAX_LOG_BLOCK + 1))


def _block_logs(log_n: int) -> list[int]:
    """Split log2(n) into the fewest, most even parts <= _MAX_LOG_BLOCK."""
    parts = -(-log_n // _MAX_LOG_BLOCK)
    return [log_n // parts + (i < log_n % parts) for i in range(parts)]


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


def fwht_inplace(a: np.ndarray) -> None:
    """Apply the unnormalized Walsh-Hadamard transform down axis 0 of ``a``.

    ``a`` must be C-contiguous float64 with a power-of-two number of rows;
    callers are responsible for validation and for the 1/sqrt(n)
    normalization.
    """
    if not a.flags.c_contiguous:
        raise ValueError("fwht_inplace needs a C-contiguous array")
    scratch = np.empty(min(a.size, _SCRATCH_BYTES // a.itemsize))
    outer = 1
    for log_b in _block_logs(a.shape[0].bit_length() - 1):
        _apply_block(a.reshape(outer, 1 << log_b, -1), _HADAMARD[log_b], scratch)
        outer <<= log_b


def row_sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared euclidean norm of each row."""
    return np.einsum("ij,ij->i", a, a)


def backend_name() -> str:
    """Name of the kernel backend, recorded in benchmark environments."""
    return "numpy"
