"""Deterministic counter-based random streams.

Every stochastic routine draws from Philox generators keyed by
(seed, stream index).  Chunked Monte Carlo loops iterate `chunks`, which
gives each fixed-size chunk its own stream, so results do not depend on how
chunks are scheduled.
"""

from __future__ import annotations

import numpy as np

from .rays import COMPLEX, InvalidInput, _check_field, _check_int

CHUNK = 1 << 16

_MASK = (1 << 64) - 1


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    _check_int(seed, "seed")
    key = np.array([int(seed) & _MASK, int(stream) & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_rows(rng, n: int, d: int, field: str) -> np.ndarray:
    """n rows of d standard normals; complex rows draw the real parts of
    all rows first, then the imaginary parts."""
    _check_field(field)
    try:
        g = rng.standard_normal((n, d))
    except ValueError as exc:  # d is past numpy's largest dimension
        raise InvalidInput(f"{n} rows of dimension {d}: {exc}") from exc
    if field == COMPLEX:
        g = g + 1j * rng.standard_normal((n, d))
    return g


def chunk_sizes(total: int, chunk: int = CHUNK):
    """Fixed chunk decomposition of a sample budget, one size at a time."""
    return (min(chunk, total - start) for start in range(0, total, chunk))


def chunks(seed: int, total: int, what: str = "samples", rows: int = CHUNK):
    """(generator, size) per chunk of at most rows draws of a budget: chunk k
    draws from stream_rng(seed, k).  A budget that is not an integer >= 1
    is refused at call time."""
    _check_int(total, what, 1)
    return ((stream_rng(seed, k), size)
            for k, size in enumerate(chunk_sizes(total, rows)))
