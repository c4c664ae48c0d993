"""Projector sums, spectra, POVM proportionality, and the platter experiment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rays import InvalidInput, NumericalFailure, RaySet, kcbs5
from .rng import chunks

HERMITIAN_TOL = 1e-12
EIGEN_TOL = 1e-10  # largest accepted eigen residual ||Hv - lambda v||
POVM_TOL = 1e-9  # largest entry of sum - c I for an equal-weight POVM


def projector_sum(rs: RaySet) -> np.ndarray:
    """Sum of the rank-1 projectors |r><r| over the set."""
    if len(rs) == 0:
        raise InvalidInput("empty ray set")
    M = rs.matrix
    return M.T @ M.conj()


def eigen_max(H: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian matrix, residual-certified.

    The eigenpair comes from a full Hermitian decomposition; the result is
    accepted only if ||Hv - lambda v|| <= EIGEN_TOL, else NumericalFailure.
    A NaN or infinite entry raises InvalidInput.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidInput("square matrix required")
    if not np.isfinite(H).all():  # NaN would pass both tolerance gates
        raise InvalidInput("matrix entries must be finite")
    if np.abs(H - H.conj().T).max() > HERMITIAN_TOL:
        raise InvalidInput("matrix is not Hermitian within 1e-12")
    w, v = np.linalg.eigh(H)
    lam = float(w[-1])
    vec = v[:, -1]
    residual = float(np.linalg.norm(H @ vec - lam * vec))
    if residual > EIGEN_TOL:
        raise NumericalFailure(
            f"eigen residual {residual:.3e} above {EIGEN_TOL:.1e}", residual)
    return lam


def equal_weight_povm_check(rs: RaySet):
    """Is the projector sum proportional to the identity, within POVM_TOL?

    When it is, the constant is forced by the trace: c = len(rs)/dimension.
    Returns (True, c) or (False, None).
    """
    sigma = projector_sum(rs)
    c = len(rs) / rs.dimension
    if np.abs(sigma - c * np.eye(rs.dimension)).max() < POVM_TOL:
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
            raise InvalidInput("assignment must be five 0/1 entries")
        for i, j in _PENT_EDGES:
            if a[i] == 1 and a[j] == 1:
                raise InvalidInput(f"adjacent stones at cups {i} and {j}")


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
            raise InvalidInput("state must have 3 components")
        norm = np.linalg.norm(psi)
        if not (np.isfinite(norm) and norm > 0.0):
            raise InvalidInput(
                f"state norm {norm:g} is not finite and positive")
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
    parts = chunks(seed, trials, what="trials")
    if isinstance(strategy, ClassicalStrategy):
        name = "classical"
    elif isinstance(strategy, ConspiratorialStrategy):
        name = "conspiratorial"
    elif isinstance(strategy, QuantumStrategy):
        name = "quantum"
        probs = strategy.probabilities()
    else:
        raise TypeError(f"unknown strategy {strategy!r}")

    edges = np.zeros(5, dtype=np.int64)  # draws of edge (k, k+1)
    hits = np.zeros(5, dtype=np.int64)
    for rng, size in parts:
        draws = rng.integers(0, 5, size=size)
        edges += np.bincount(draws, minlength=5)
        if name == "quantum":
            u = rng.random((size, 2))
            second = (draws + 1) % 5
            hits += np.bincount(draws[u[:, 0] < probs[draws]], minlength=5)
            hits += np.bincount(second[u[:, 1] < probs[second]], minlength=5)

    obs = edges + np.roll(edges, 1)  # cup k is opened by edges k and k - 1
    if name == "classical":
        hits = np.array(strategy.assignment) * obs
    elif name == "conspiratorial":
        hits = edges  # the stone sits under the first cup of the drawn pair
    freq = np.divide(hits, obs, out=np.zeros(5), where=obs > 0)
    return PlatterOutcome(strategy=name, estimate=float(freq.sum()),
                          trials=trials, seed=seed,
                          frequencies=tuple(float(f) for f in freq))
