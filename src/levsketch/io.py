"""Matrix file ingestion and emission: Matrix Market, CSV, and raw binary."""

from __future__ import annotations

import os
import stat
import struct
from pathlib import Path

import numpy as np
from scipy import io as spio
from scipy import sparse

from . import errors
from .matcore import validate_matrix

MAGIC = b"LEVS"
VERSION = 1
_HEADER_BYTES = 21  # MAGIC, the version byte, then n and d as "<QQ"

_EXT_FORMAT = {".mtx": "matrix-market", ".mm": "matrix-market",
               ".csv": "csv", ".levs": "binary", ".bin": "binary"}


def infer_format(path) -> str:
    fmt = _EXT_FORMAT.get(Path(path).suffix.lower())
    if fmt is None:
        raise errors.ParseError(f"cannot infer format from {path!r}; pass --format")
    return fmt


def load_matrix(path, fmt: str = "auto") -> np.ndarray:
    """Read a dense float64 matrix from disk.

    Matrix Market coordinate files are densified with duplicate entries
    summed (the format's convention); CSV is comma-separated rows.
    """
    if fmt == "auto":
        fmt = infer_format(path)
    path = Path(path)
    if not path.exists():
        raise errors.ParseError(f"no such file: {path}")
    if fmt == "matrix-market":
        try:
            m = spio.mmread(str(path))
        except Exception as exc:
            raise errors.ParseError(f"{path}: {exc}") from exc
        if sparse.issparse(m):
            m = m.toarray()
        return validate_matrix(np.asarray(m), name=str(path))
    if fmt == "csv":
        try:
            m = np.loadtxt(str(path), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise errors.ParseError(f"{path}: {exc}") from exc
        return validate_matrix(m, name=str(path))
    if fmt == "binary":
        return _load_binary(path)
    raise errors.InvalidParameter(f"unknown format {fmt!r}")


def _load_binary(path: Path) -> np.ndarray:
    """Read the 21-byte header, check the body's size, and read the body.

    A regular file's body is sized from the file's and read once, straight
    into the returned array. A pipe or FIFO has no size until it is read,
    so its body is read whole first and then copied into a writable array.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_BYTES)
        if len(head) < _HEADER_BYTES or head[:4] != MAGIC:
            raise errors.ParseError(f"{path}: not a LEVS binary matrix")
        if head[4] != VERSION:
            raise errors.ParseError(f"{path}: unsupported version {head[4]}")
        n, d = struct.unpack_from("<QQ", head, 5)
        st, raw = os.fstat(fh.fileno()), None
        if stat.S_ISREG(st.st_mode):
            size = st.st_size - _HEADER_BYTES
        else:
            raw = fh.read()
            size = len(raw)
        floats, stray = divmod(size, 8)
        if floats == n * d and not stray:
            if raw is None:
                body = np.fromfile(fh, dtype="<f8", count=floats)
            else:
                body = np.frombuffer(raw, dtype="<f8").copy()
            floats = body.size  # fewer where the file shrank meanwhile
    if floats != n * d or stray:
        extra = f" and {stray} stray bytes" if stray else ""
        raise errors.ParseError(
            f"{path}: expected {n * d} floats, found {floats}{extra}")
    return validate_matrix(body.reshape(n, d), name=str(path))


def save_matrix(a, path, fmt: str = "auto") -> None:
    """Write a matrix in any supported format (binary is bit-exact)."""
    A = validate_matrix(a)
    if fmt == "auto":
        fmt = infer_format(path)
    path = Path(path)
    if fmt == "matrix-market":
        spio.mmwrite(str(path), A, precision=17)
    elif fmt == "csv":
        np.savetxt(str(path), A, delimiter=",", fmt="%.17g")
    elif fmt == "binary":
        n, d = A.shape
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(bytes([VERSION]))
            fh.write(struct.pack("<QQ", n, d))
            fh.write(np.ascontiguousarray(A, dtype="<f8").tobytes())
    else:
        raise errors.InvalidParameter(f"unknown format {fmt!r}")
