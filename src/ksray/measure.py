"""Cap-and-belt partial colorings and their measure under uniform sampling.

In either field a ray is Red when the weight p_0 = |x_0|^2 of its first
component exceeds 1/2 (polar cap) and Green when p_0 < 1/d (equatorial
belt).  The boundaries are excluded: two orthogonal rays can sit exactly on
the cap boundary and a whole basis on the belt boundary, and the boundary
set has measure zero anyway.  A weight within BOUNDARY_TOL of 1/2 or 1/d
counts as on the boundary, so a ray exactly on it stays Uncolored when
rounding moves its computed weight by an ulp.

The basis measures classify each member of a Haar basis by its first
coordinate.  Those d first coordinates are the first row of a Haar unitary,
which by transpose invariance is itself a uniform ray, so the Monte Carlo
draws rays, not bases; the tests check the reduction against whole Haar
bases.  A ray is a canonical row, as returned by `canonicalize`.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rays import (COMPLEX, REAL, InvalidInput, _canonical_rows, _check_dim,
                   _check_field, canonicalize)
from .rng import chunks, gaussian_rows

BOUNDARY_TOL = 1e-12  # a weight this close to 1/2 or 1/d is on the boundary


class Region(enum.Enum):
    RED = "red"
    GREEN = "green"
    UNCOLORED = "uncolored"


@dataclass(frozen=True)
class RegionColoring:
    field: str
    dimension: int

    def __post_init__(self):
        _check_field(self.field)
        _check_dim(self.dimension, "dimension")

    def masks(self, p):
        """(Red, Green) masks of weights p = |x_0|^2, boundary band excluded."""
        return (p > 0.5 + BOUNDARY_TOL,
                p < 1.0 / self.dimension - BOUNDARY_TOL)


def classify(rc: RegionColoring, ray) -> Region:
    """Red, Green, or Uncolored for one ray; phase-invariant by construction.

    A real coloring rejects a ray with a nonzero imaginary part.
    """
    comps = np.asarray(ray)
    if rc.field == REAL and np.any(np.imag(comps)):
        raise InvalidInput("ray field does not match the coloring")
    if comps.shape != (rc.dimension,):
        raise InvalidInput("ray dimension does not match the coloring")
    red, green = rc.masks(abs(comps[0]) ** 2)
    return Region.RED if red else Region.GREEN if green else Region.UNCOLORED


# ---------------------------------------------------------------------------
# closed-form colored fractions


def colored_fraction_complex(N: int) -> float:
    """1 - (1 - 1/N)^(N-1) + (1/2)^(N-1), the cap plus belt volume."""
    _check_dim(N, "N")
    return 1.0 - (1.0 - 1.0 / N) ** (N - 1) + 0.5 ** (N - 1)


def _betainc_half_terms(b: float, x: float):
    """I_x(1/2, b) for b in {1/2, 1, 3/2, ...} as a stream of positive terms.

    Finite recurrence in b (DLMF 8.17(iv) with a = 1/2), started from
    I_x(1/2, 1/2) = (2/pi) asin sqrt x or I_x(1/2, 1) = sqrt x; each added
    term x^(1/2) (1-x)^c / (c B(1/2, c)) is the previous one times
    (1-x)(c+1/2)/(c+1).  Terms that have underflowed to zero are not
    generated.
    """
    if b % 1:
        total, term, c = (2 / math.pi * math.asin(math.sqrt(x)),
                          2 / math.pi * math.sqrt(x * (1 - x)), 0.5)
    else:
        total, term, c = math.sqrt(x), math.sqrt(x) * (1 - x) / 2, 1.0
    yield total
    while c < b and term:
        yield term
        term *= (1 - x) * (c + 0.5) / (c + 1)
        c += 1


def colored_fraction_real(d: int) -> float:
    """P(|x_0| > 1/sqrt2) + P(|x_0| < 1/sqrt d) for x uniform on the sphere.

    x_0^2 follows Beta(1/2, (d-1)/2), so both terms are regularized
    incomplete beta values; their recurrence terms are summed with one
    correctly rounded math.fsum, in O(d) time.
    """
    _check_dim(d, "d")
    b = (d - 1) / 2.0
    return math.fsum(itertools.chain(
        [1.0], (-t for t in _betainc_half_terms(b, 0.5)),
        _betainc_half_terms(b, 1.0 / d)))


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int
    seed: int


def _proportion(count: int, samples: int, seed: int) -> MCEstimate:
    p = count / samples
    return MCEstimate(value=p, stderr=math.sqrt(p * (1.0 - p) / samples),
                      samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# uniform sampling


def sample_rays(field: str, d: int, n: int, rng) -> np.ndarray:
    """n uniform rays as canonical complex rows; normalized Gaussian vectors."""
    return _canonical_rows(gaussian_rows(rng, n, d, field), field)


# ---------------------------------------------------------------------------
# Monte Carlo fractions and validity checks


def _first_weight(g: np.ndarray) -> np.ndarray:
    """p_0 = |g_0|^2 / sum |g_j|^2 of each unnormalized Gaussian row; equal
    to _weights(g)[:, 0] bit for bit, without computing the other columns."""
    return np.abs(g[:, 0]) ** 2 / np.sum(np.abs(g) ** 2, axis=1)


def _weights(g: np.ndarray) -> np.ndarray:
    """p_j = |g_j|^2 / sum |g_j|^2 of every coordinate of Gaussian rows."""
    p = np.abs(g) ** 2
    return p / p.sum(axis=1, keepdims=True)


def _region_masks(field: str, d: int, samples: int, seed: int, weights):
    """(Red, Green) masks of weights(g) for the Gaussian rows g of each chunk.

    The budget is checked before the coloring, so a bad budget is reported
    first.
    """
    parts = chunks(seed, samples)
    rc = RegionColoring(field=field, dimension=d)
    for rng, size in parts:
        yield rc.masks(weights(gaussian_rows(rng, size, d, field)))


def mc_colored_fraction(field: str, d: int, samples: int,
                        seed: int) -> MCEstimate:
    """Fraction of sampled rays that land in the cap or the belt."""
    colored = 0
    for red, green in _region_masks(field, d, samples, seed, _first_weight):
        colored += int((red | green).sum())
    return _proportion(colored, samples, seed)


def region_validity_mc(field: str, d: int, samples: int,
                       seed: int) -> tuple[int, int]:
    """Counts of (both-Red orthogonal pairs, all-Green bases) over Haar bases.

    Take a Haar basis as the columns of a unitary Q.  Every pair inside it is
    an orthogonal pair, and member j is Red or Green by its first coordinate
    Q[0, j].  By transpose invariance of the Haar measure, that first row is
    itself a uniform ray, so each sample draws one ray and classifies its
    d coordinate weights.  Both counts must come back zero: the cap is too
    small for two orthogonal rays and the belt too small for a complete
    basis.
    """
    both_red = 0
    all_green = 0
    for red, green in _region_masks(field, d, samples, seed, _weights):
        reds = red.sum(axis=1)
        both_red += int((reds * (reds - 1) // 2).sum())
        all_green += int(green.all(axis=1).sum())
    return both_red, all_green


def basis_colored_fraction_mc(d: int, samples: int, seed: int) -> MCEstimate:
    """Fraction of Haar real bases whose members are all Red or Green.

    Member j of a basis is classified by its first coordinate, and the first
    coordinates of a Haar basis form a uniform ray (transpose invariance), so
    each sample is one uniform ray whose coordinates are all in the cap or
    the belt.  A fully colored basis automatically holds exactly one Red
    member; this is asserted inside the loop as a side check.
    """
    _check_dim(d, "d")
    full = 0
    for red, green in _region_masks(REAL, d, samples, seed, _weights):
        fully = (red | green).all(axis=1)
        if not np.all(red[fully].sum(axis=1) == 1):
            raise AssertionError("fully colored basis without exactly one Red")
        full += int(fully.sum())
    return _proportion(full, samples, seed)


# ---------------------------------------------------------------------------
# separable two-qubit quadrants


class Quadrant(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SeparableState:
    """Product state of two qubits in Bloch angles, canonical chart.

    theta in [0, pi], phi in [0, 2 pi); at a pole (theta 0 or pi) the phase
    is meaningless and the chart pins phi to 0.
    """

    theta_a: float
    phi_a: float
    theta_b: float
    phi_b: float

    def __post_init__(self):
        for name in ("theta_a", "theta_b"):
            t = getattr(self, name)
            if not 0.0 <= t <= math.pi:
                raise InvalidInput(f"{name} out of [0, pi]")
        for name in ("phi_a", "phi_b"):
            p = getattr(self, name)
            if not 0.0 <= p < TWO_PI:
                raise InvalidInput(f"{name} out of [0, 2 pi)")
        if self.theta_a in (0.0, math.pi):
            object.__setattr__(self, "phi_a", 0.0)
        if self.theta_b in (0.0, math.pi):
            object.__setattr__(self, "phi_b", 0.0)


def _quadrant(phi_a, phi_b):
    """Quadrant index 0-3 (I-IV) of phases in [0, 2 pi), elementwise: the
    upper half of phi_a counts 2 and the upper half of phi_b counts 1."""
    return (phi_a >= math.pi) * 2 + (phi_b >= math.pi)


def separable_quadrant(s: SeparableState) -> Quadrant:
    """Quadrant by (phi_a, phi_b) half-interval membership."""
    return tuple(Quadrant)[_quadrant(s.phi_a, s.phi_b)]


def _qubit(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0),
                     math.sin(theta / 2.0) * np.exp(1j * phi)])


def separable_to_ray(s: SeparableState) -> np.ndarray:
    """The product state as a canonicalized ray in C^4."""
    return canonicalize(np.kron(_qubit(s.theta_a, s.phi_a),
                                _qubit(s.theta_b, s.phi_b)), COMPLEX)


def separable_validity_mc(samples: int, seed: int) -> int:
    """Count orthogonal separable pairs that share a quadrant; expected zero.

    Pairs are |a>|b> against |a_perp>|c> and against |c'>|b_perp>: flipping
    one factor to its orthogonal partner moves its phase by pi, so the pair
    always straddles two quadrants when the flipped factor is off the poles.
    The quadrants depend on the phases alone, so only phases are drawn: the
    polar angles never enter the count, and the one case they could change,
    a factor exactly at a pole (a measure-zero event), is built separately
    by pole_counterexample.
    """
    violations = 0
    for rng, size in chunks(seed, samples):
        phi = rng.uniform(0.0, TWO_PI, size=(size, 2))
        chi_phi = rng.uniform(0.0, TWO_PI, size=(size, 2))
        flip = np.mod(phi + math.pi, TWO_PI)
        quad = _quadrant(phi[:, 0], phi[:, 1])
        violations += int((quad == _quadrant(flip[:, 0], chi_phi[:, 0])).sum())
        violations += int((quad == _quadrant(chi_phi[:, 1], flip[:, 1])).sum())
    return violations


def pole_counterexample() -> tuple[SeparableState, SeparableState]:
    """The documented degenerate pair: |0>|c> and |1>|c>.

    Orthogonal as rays, yet the chart pins both A-phases to 0, so both
    states land in the same quadrant.  The validity sampler draws no polar
    angles, which is why this pair never shows up in its counts.
    """
    s1 = SeparableState(theta_a=0.0, phi_a=0.0, theta_b=1.0, phi_b=0.5)
    s2 = SeparableState(theta_a=math.pi, phi_a=0.0, theta_b=1.0, phi_b=0.5)
    return s1, s2
