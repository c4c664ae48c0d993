"""Deterministic counter-based random streams.

Every stochastic routine draws from Philox generators keyed by
(seed, stream index).  Chunked Monte Carlo loops give each fixed-size chunk
its own stream, so results do not depend on how chunks are scheduled.
"""

from __future__ import annotations

import numpy as np

from .rays import COMPLEX

CHUNK = 1 << 16

_MASK = (1 << 64) - 1


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([int(seed) & _MASK, int(stream) & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_rows(rng, n: int, d: int, field: str) -> np.ndarray:
    """n rows of d standard normals; complex rows draw the real parts of
    all rows first, then the imaginary parts."""
    g = rng.standard_normal((n, d))
    if field == COMPLEX:
        g = g + 1j * rng.standard_normal((n, d))
    return g


def chunk_sizes(total: int, chunk: int = CHUNK):
    """Fixed chunk decomposition of a sample budget."""
    sizes = []
    done = 0
    while done < total:
        step = min(chunk, total - done)
        sizes.append(step)
        done += step
    return sizes
