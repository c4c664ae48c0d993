"""Cap-and-belt partial colorings and their measure under uniform sampling.

In either field a ray is Red when the weight p_0 = |x_0|^2 of its first
component exceeds 1/2 (polar cap) and Green when p_0 < 1/d (equatorial
belt).  The boundaries are excluded: two orthogonal rays can sit exactly on
the cap boundary and a whole basis on the belt boundary, and the boundary
set has measure zero anyway.  A weight within BOUNDARY_TOL of 1/2 or 1/d
counts as on the boundary, so a ray exactly on it stays Uncolored when
rounding moves its computed weight by an ulp.

The Monte Carlo measures draw the statistic, not the ray.  A uniform ray is
a normalized Gaussian vector g, with weights p_j = |g_j|^2 / sum |g|^2, and
|g_j|^2 / 2a is Gamma(a), a = 1/2 in the real field and 1 in the complex
one; a factor common to all coordinates cancels in the ratio.  So a weight
takes one variate: a squared normal, or a standard exponential, which makes
the complex weights Dirichlet(1, ..., 1) (Devroye, Non-Uniform Random
Variate Generation, 1986, ch. XI).  The fraction needs p_0 alone,
G_a / (G_a + G_a(d-1)) exactly in law: two draws per sample at any d.  That
split is a norm split, not the Beta law of the closed forms, so the
estimate still checks them independently.

The basis measures classify each member of a Haar basis by its first
coordinate.  Those d first coordinates are the first row of a Haar unitary,
which by transpose invariance is itself a uniform ray, so the Monte Carlo
draws one ray's weights per basis; the tests check them against whole Haar
bases and sampled rays.  Each chunk's weights are drawn as one C-ordered
(d, size) array, so the counts over the d coordinates of a ray reduce along
contiguous rows of length size.  A ray is a canonical row, as returned by
`canonicalize`.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rays import (COMPLEX, REAL, InvalidInput, _canonical_rows, _check_field,
                   _check_int, canonicalize)
from .rng import CHUNK, chunks, gaussian_rows

BOUNDARY_TOL = 1e-12  # a weight this close to 1/2 or 1/d is on the boundary
DIM_GUARD = 10 ** 6  # largest dimension: the real closed form is O(d)
ROW_WIDTH = 64  # rays wider than this shrink their chunk of variates


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
        _check_int(self.dimension, "dimension", 2, DIM_GUARD)

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
    _check_int(N, "N", 2, DIM_GUARD)
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
    _check_int(d, "d", 2, DIM_GUARD)
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
    _check_int(d, "dimension", 2)
    _check_int(n, "n", 1)
    return _canonical_rows(gaussian_rows(rng, n, d, field), field)


# ---------------------------------------------------------------------------
# Monte Carlo fractions and validity checks


def _squares(rng, field: str, shape) -> np.ndarray:
    """|g|^2 / 2a = Gamma(a) / a per standard Gaussian coordinate g: a
    squared normal (real, a = 1/2) or an exponential (complex, a = 1)."""
    if field == COMPLEX:
        return rng.standard_exponential(shape)
    x = rng.standard_normal(shape)
    return np.square(x, out=x)


def _region_masks(field: str, d: int, samples: int, seed: int):
    """(Red, Green) masks of the coordinate weights p_j = |g_j|^2 / sum |g|^2
    of each chunk's rays, drawn as one C-ordered (d, size) array so each
    reduction over coordinates runs along long rows.  Above d = ROW_WIDTH a
    chunk holds CHUNK * ROW_WIDTH // d rays, so no chunk draws more than
    CHUNK * ROW_WIDTH variates.
    """
    chunks(seed, samples)  # a bad budget is reported before the coloring
    rc = RegionColoring(field=field, dimension=d)
    rows = CHUNK * ROW_WIDTH // max(d, ROW_WIDTH)
    for rng, size in chunks(seed, samples, rows=rows):
        p = _squares(rng, field, (d, size))
        p /= p.sum(axis=0)
        yield rc.masks(p)


def mc_colored_fraction(field: str, d: int, samples: int,
                        seed: int) -> MCEstimate:
    """Fraction of uniform rays that land in the cap or the belt.

    Each sample draws only the weight p_0 = G_a / (G_a + G_a(d-1)) it
    classifies, both terms divided by a: the head from `_squares`, the rest
    one gamma variate (a = 1/2 real, 1 complex; see the module docstring).
    """
    parts = chunks(seed, samples)
    rc = RegionColoring(field=field, dimension=d)
    a = 0.5 if field == REAL else 1.0
    colored = 0
    for rng, size in parts:
        head = _squares(rng, field, size)
        rest = rng.standard_gamma(a * (d - 1), size) / a
        red, green = rc.masks(head / (head + rest))
        colored += int(np.count_nonzero(red | green))
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
    for red, green in _region_masks(field, d, samples, seed):
        reds = np.count_nonzero(red, axis=0)
        both_red += int((reds * (reds - 1) // 2).sum())
        all_green += int(np.count_nonzero(green.all(axis=0)))
    return both_red, all_green


def basis_colored_fraction_mc(d: int, samples: int, seed: int) -> MCEstimate:
    """Fraction of Haar real bases whose members are all Red or Green.

    Member j of a basis is classified by its first coordinate, and the first
    coordinates of a Haar basis form a uniform ray (transpose invariance), so
    each sample is one uniform ray whose coordinates are all in the cap or
    the belt.  A fully colored basis automatically holds exactly one Red
    member; this is asserted inside the loop as a side check.
    """
    full = 0
    for red, green in _region_masks(REAL, d, samples, seed):
        fully = (red | green).all(axis=0)
        if np.any(fully & (np.count_nonzero(red, axis=0) != 1)):
            raise AssertionError("fully colored basis without exactly one Red")
        full += int(np.count_nonzero(fully))
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


def _flip(phi):
    """phi + pi wrapped into [0, 2 pi), the orthogonal partner's phase; for
    t = phi + pi in [2 pi, 3 pi), t - 2 pi is exact (Sterbenz), so this is
    np.mod(phi + pi, 2 pi) bit for bit."""
    t = phi + math.pi
    t -= TWO_PI * (t >= TWO_PI)  # t - 0.0 is t itself
    return t


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
        flip = _flip(phi)
        quad = _quadrant(phi[:, 0], phi[:, 1])
        same_a = quad == _quadrant(flip[:, 0], chi_phi[:, 0])
        same_b = quad == _quadrant(chi_phi[:, 1], flip[:, 1])
        violations += int(np.count_nonzero(same_a) + np.count_nonzero(same_b))
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
