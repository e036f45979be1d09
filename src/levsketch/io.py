"""Matrix file ingestion and emission: Matrix Market, CSV, and raw binary.

A LEVS binary file (version 2, the one ``save_matrix`` writes) is ``LEVS``,
the version byte, n and d as little-endian u64, and zero bytes up to a
64-byte header, then the n*d row-major little-endian float64 body. A
regular version-2 file is mapped copy-on-write rather than read: no copy of
the body is made unless the caller writes into the array. The limit of a
mapped read is that a file truncated or rewritten while the array is in use
can kill the process with SIGBUS; read it through a pipe (``cat m.levs |``)
to load a private copy instead. Version 1, whose 21-byte header leaves the
body misaligned, is still read, by copy.
"""

from __future__ import annotations

import mmap
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
VERSION = 2
# Header bytes per version: MAGIC, the version byte, then n and d as "<QQ";
# version 2 pads with zero bytes so that its float64 body is 64-byte aligned
_HEADER_BYTES = {1: 21, 2: 64}
_PREFIX_BYTES = _HEADER_BYTES[1]

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
    """Read the header, check the body's size, and read or map the body.

    A regular version-2 file's body, 64-byte aligned, is mapped
    copy-on-write: the returned array is writable, but a write into it
    never reaches the file. A regular version-1 file's body, which starts
    misaligned at byte 21, is read once, straight into the returned array.
    A pipe or FIFO has no size until it is read, so its body is read whole
    first and then copied into a writable array.
    """
    with open(path, "rb") as fh:
        head = fh.read(_PREFIX_BYTES)
        if len(head) < _PREFIX_BYTES or head[:4] != MAGIC:
            raise errors.ParseError(f"{path}: not a LEVS binary matrix")
        version = head[4]
        if version not in _HEADER_BYTES:
            raise errors.ParseError(f"{path}: unsupported version {version}")
        n, d = struct.unpack_from("<QQ", head, 5)
        header = _HEADER_BYTES[version]
        pad = fh.read(header - _PREFIX_BYTES)
        if len(pad) < header - _PREFIX_BYTES or any(pad):
            raise errors.ParseError(f"{path}: not a LEVS binary matrix")
        st, raw = os.fstat(fh.fileno()), None
        if stat.S_ISREG(st.st_mode):
            size = st.st_size - header
        else:
            raw = fh.read()
            size = len(raw)
        floats, stray = divmod(size, 8)
        if floats == n * d and not stray:
            if raw is not None:
                body = np.frombuffer(raw, dtype="<f8").copy()
            elif version == 1:
                body = np.fromfile(fh, dtype="<f8", count=floats)
            else:
                body = _map_body(fh, header, floats)
            floats = body.size  # fewer where the file shrank meanwhile
    if floats != n * d or stray:
        extra = f" and {stray} stray bytes" if stray else ""
        raise errors.ParseError(
            f"{path}: expected {n * d} floats, found {floats}{extra}")
    return validate_matrix(body.reshape(n, d), name=str(path))


def _map_body(fh, header: int, floats: int) -> np.ndarray:
    """The first ``floats`` floats after ``header`` bytes of ``fh``, mapped
    copy-on-write; fewer where the file has shrunk since its size was read."""
    try:
        m = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    except ValueError:  # the file is empty by now, and cannot be mapped
        return np.empty(0)
    if len(m) < header:
        return np.empty(0)
    found = min(floats, (len(m) - header) // 8)
    return np.frombuffer(m, dtype="<f8", count=found, offset=header)


def save_matrix(a, path, fmt: str = "auto") -> None:
    """Write a matrix in any supported format (binary is bit-exact, as
    LEVS version 2, written straight from the array without a copy)."""
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
            head = MAGIC + bytes([VERSION]) + struct.pack("<QQ", n, d)
            fh.write(head.ljust(_HEADER_BYTES[VERSION], b"\0"))
            fh.write(np.ascontiguousarray(A, dtype="<f8").data)
    else:
        raise errors.InvalidParameter(f"unknown format {fmt!r}")
