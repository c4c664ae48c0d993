"""Projector sums, spectra, POVM proportionality, and the platter experiment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ortho import NumericalFailure
from .rays import RaySet, kcbs5
from .rng import CHUNK, chunk_sizes, stream_rng

HERMITIAN_TOL = 1e-12


class InvalidAssignment(ValueError):
    """Classical platter assignment puts stones under two adjacent cups."""


def projector_sum(rs: RaySet) -> np.ndarray:
    """Sum of the rank-1 projectors |r><r| over the set."""
    if len(rs) == 0:
        raise ValueError("empty ray set")
    M = rs.matrix
    return M.T @ M.conj()


def eigen_max(H: np.ndarray, tol: float = 1e-10) -> float:
    """Largest eigenvalue of a Hermitian matrix, residual-certified.

    The eigenpair comes from a full Hermitian decomposition; the result is
    accepted only if ||Hv - lambda v|| <= tol.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("square matrix required")
    if np.abs(H - H.conj().T).max() > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within 1e-12")
    w, v = np.linalg.eigh(H)
    lam = float(w[-1])
    vec = v[:, -1]
    residual = float(np.linalg.norm(H @ vec - lam * vec))
    if residual > tol:
        raise NumericalFailure(
            f"eigen residual {residual:.3e} above {tol:.1e}", residual)
    return lam


def equal_weight_povm_check(rs: RaySet, tol: float = 1e-9):
    """Is the projector sum proportional to the identity?

    When it is, the constant is forced by the trace: c = len(rs)/dimension.
    Returns (True, c) or (False, None).
    """
    sigma = projector_sum(rs)
    c = len(rs) / rs.dimension
    if np.abs(sigma - c * np.eye(rs.dimension)).max() < tol:
        return True, c
    return False, None


# ---------------------------------------------------------------------------
# platter simulation on the pentagon

_PENT_EDGES = [(k, (k + 1) % 5) for k in range(5)]


@dataclass(frozen=True)
class ClassicalStrategy:
    """Fixed 0/1 stone placement with no two adjacent stones."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        a = self.assignment
        if len(a) != 5 or any(x not in (0, 1) for x in a):
            raise InvalidAssignment("assignment must be five 0/1 entries")
        for i, j in _PENT_EDGES:
            if a[i] == 1 and a[j] == 1:
                raise InvalidAssignment(f"adjacent stones at cups {i} and {j}")


@dataclass(frozen=True)
class ConspiratorialStrategy:
    """One stone, always under the first cup of the pair about to be opened."""


@dataclass(frozen=True)
class QuantumStrategy:
    """Outcomes are Bernoulli draws with probabilities <psi|P_k|psi>."""

    state: tuple

    def probabilities(self) -> np.ndarray:
        psi = np.asarray(self.state, dtype=np.complex128).reshape(-1)
        if psi.size != 3:
            raise ValueError("state must have 3 components")
        norm = np.linalg.norm(psi)
        if not (np.isfinite(norm) and norm > 0.0):
            raise ValueError(f"state norm {norm:g} is not finite and positive")
        psi = psi / norm
        M = kcbs5().matrix
        return np.abs(M.conj() @ psi) ** 2


@dataclass(frozen=True)
class PlatterOutcome:
    strategy: str
    estimate: float
    trials: int
    seed: int
    frequencies: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 <= self.estimate <= 5.0:
            raise ValueError("pentagon estimate must lie in [0, 5]")


def platter_simulate(strategy, trials: int, seed: int) -> PlatterOutcome:
    """Estimate the summed per-cup expectations over random edge inspections.

    Each trial opens the two cups of a uniformly random pentagon edge.  A cup
    is observed only when one of its two edges is drawn, so the estimator is
    the sum over cups of hits/observations, which targets the sum of the
    per-measurement expectations.  Trials run in fixed-size chunks on
    disjoint seeded substreams; results are reproducible for a given seed no
    matter how chunks are scheduled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hits = np.zeros(5, dtype=np.int64)
    obs = np.zeros(5, dtype=np.int64)
    first = np.array([e[0] for e in _PENT_EDGES])
    second = np.array([e[1] for e in _PENT_EDGES])

    if isinstance(strategy, ClassicalStrategy):
        name = "classical"
        assign = np.array(strategy.assignment)
    elif isinstance(strategy, ConspiratorialStrategy):
        name = "conspiratorial"
    elif isinstance(strategy, QuantumStrategy):
        name = "quantum"
        probs = strategy.probabilities()
    else:
        raise TypeError(f"unknown strategy {strategy!r}")

    for stream, size in enumerate(chunk_sizes(trials, CHUNK)):
        rng = stream_rng(seed, stream)
        draws = rng.integers(0, 5, size=size)
        edge_count = np.bincount(draws, minlength=5)
        obs_chunk = np.zeros(5, dtype=np.int64)
        np.add.at(obs_chunk, first, edge_count)
        np.add.at(obs_chunk, second, edge_count)
        obs += obs_chunk
        if name == "classical":
            hits += assign * obs_chunk
        elif name == "conspiratorial":
            # the stone sits under the first cup of the drawn pair
            hits += edge_count
        else:
            u = rng.random((size, 2))
            cup_a = first[draws]
            cup_b = second[draws]
            hit_a = u[:, 0] < probs[cup_a]
            hit_b = u[:, 1] < probs[cup_b]
            np.add.at(hits, cup_a[hit_a], 1)
            np.add.at(hits, cup_b[hit_b], 1)

    freq = np.divide(hits, obs, out=np.zeros(5), where=obs > 0)
    return PlatterOutcome(strategy=name, estimate=float(freq.sum()),
                          trials=trials, seed=seed,
                          frequencies=tuple(float(f) for f in freq))
