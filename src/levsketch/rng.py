"""Seeded, splittable random streams.

All randomness in the library flows through Philox, a counter-based
generator. Independent substreams are derived from a 64-bit master seed
plus integer stream ids, so any component can be re-drawn in isolation
and results do not depend on call order or thread count.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *stream_ids: int) -> np.random.Generator:
    """Return a Generator for the Philox substream ``(seed, *stream_ids)``."""
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
                                spawn_key=tuple(int(s) for s in stream_ids))
    return np.random.Generator(np.random.Philox(ss))


def rademacher(seed: int, n: int, *stream_ids: int) -> np.ndarray:
    """Seeded i.i.d. +/-1 vector of length ``n``."""
    s = substream(seed, *stream_ids).integers(0, 2, size=n).astype(np.float64)
    s *= 2.0  # in place: the int64 draw and s are the only n-long arrays
    s -= 1.0
    return s
