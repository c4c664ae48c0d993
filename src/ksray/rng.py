"""Deterministic seeded random streams, in two families.

`stream_rng(seed, stream)` is a counter-based Philox generator keyed by the
two 64-bit words (seed, stream).  It serves `realize` and other callers
that draw a few hundred numbers per stream, where the generator's speed
does not show, so they need no faster one.

Chunked Monte Carlo loops iterate `chunks`, which gives chunk k of a seed
the k-th child of SeedSequence(seed) as an SFC64 generator, faster than
Philox for every variate those loops draw.  SeedSequence hashes the seed
and the spawn key k into the 192 bits of SFC64's state beside its counter,
the counter guarantees every cycle a period of at least 2^64, and a chunk
draws at most CHUNK * measure.ROW_WIDTH = 2^22 variates, so two chunks of
a run share draws only with negligible probability, and results do not
depend on how chunks are scheduled.  The key is a spawn key, not a second
entropy word: SeedSequence([s, k]) drops a trailing zero word, so chunk 0
of seed 2^32 + 1 would draw chunk 1 of seed 1.
"""

from __future__ import annotations

import numpy as np

from .rays import COMPLEX, InvalidInput, _check_field, _check_int

CHUNK = 1 << 16

_MASK = (1 << 64) - 1


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    _check_int(seed, "seed")
    _check_int(stream, "stream")
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


def _chunk_rng(seed: int, k: int) -> np.random.Generator:
    _check_int(seed, "seed")
    entropy = np.random.SeedSequence(int(seed) & _MASK, spawn_key=(k,))
    return np.random.Generator(np.random.SFC64(entropy))


def chunks(seed: int, total: int, what: str = "samples", rows: int = CHUNK):
    """(generator, size) per chunk of at most rows draws of a budget: chunk k
    draws from the SFC64 stream of child k of SeedSequence(seed).  A budget
    that is not an integer >= 1 is refused at call time, the seed only when
    the first chunk is drawn."""
    _check_int(total, what, 1)
    return ((_chunk_rng(seed, k), size)
            for k, size in enumerate(chunk_sizes(total, rows)))
