"""Cap-and-belt partial colorings and their measure under uniform sampling.

Real case: a ray is Red when |x_0| > 1/sqrt(2) (polar cap) and Green when
|x_0| < 1/sqrt(d) (equatorial belt), both strict.  Complex case: Red when
p_0 > 1/2 and Green when p_0 < 1/d with p_0 the squared modulus of the
first component.  The boundaries are excluded: two orthogonal rays can sit
exactly on the cap boundary, and the boundary set has measure zero anyway.

The basis measures classify each member of a Haar basis by its first
coordinate.  Those d first coordinates are the first row of a Haar unitary,
which by transpose invariance is itself a uniform ray, so the Monte Carlo
draws rays, not bases.  `sample_bases` draws whole Haar bases; the tests
check the reduction against it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .rays import COMPLEX, REAL, Ray, _canonical_rows, canonicalize
from .rng import CHUNK, chunk_sizes, gaussian_rows, stream_rng


class Region(enum.Enum):
    RED = "red"
    GREEN = "green"
    UNCOLORED = "uncolored"


@dataclass(frozen=True)
class RegionColoring:
    field: str
    dimension: int

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field {self.field!r}")
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")

    @property
    def cap_threshold(self) -> float:
        """Red boundary: on |x_0| for real rays, on p_0 for complex ones."""
        return 1.0 / math.sqrt(2.0) if self.field == REAL else 0.5

    @property
    def belt_threshold(self) -> float:
        """Green boundary: 1/sqrt(d) on |x_0| (real) or 1/d on p_0 (complex)."""
        if self.field == REAL:
            return 1.0 / math.sqrt(self.dimension)
        return 1.0 / self.dimension


def classify(rc: RegionColoring, ray) -> Region:
    """Red, Green, or Uncolored for one ray; phase-invariant by construction."""
    if isinstance(ray, Ray):
        if ray.field != rc.field:
            raise ValueError("ray field does not match the coloring")
        comps = ray.components
    else:
        comps = np.asarray(ray)
    if comps.shape != (rc.dimension,):
        raise ValueError("ray dimension does not match the coloring")
    mag = abs(comps[0]) if rc.field == REAL else abs(comps[0]) ** 2
    if mag > rc.cap_threshold:
        return Region.RED
    if mag < rc.belt_threshold:
        return Region.GREEN
    return Region.UNCOLORED


# ---------------------------------------------------------------------------
# closed-form colored fractions


def colored_fraction_complex(N: int) -> float:
    """1 - (1 - 1/N)^(N-1) + (1/2)^(N-1), the cap plus belt volume."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return 1.0 - (1.0 - 1.0 / N) ** (N - 1) + 0.5 ** (N - 1)


def colored_fraction_real(d: int) -> float:
    """P(|x_0| > 1/sqrt2) + P(|x_0| < 1/sqrt d) for x uniform on the sphere.

    x_0^2 follows Beta(1/2, (d-1)/2), so both terms are regularized
    incomplete beta values.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    a, b = 0.5, (d - 1) / 2.0
    return float(1.0 - special.betainc(a, b, 0.5)
                 + special.betainc(a, b, 1.0 / d))


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
    """n uniform rays as rows, canonicalized; normalized Gaussian vectors."""
    rows = _canonical_rows(gaussian_rows(rng, n, d, field), field)
    return rows.real if field == REAL else rows


def sample_ray(field: str, d: int, rng) -> Ray:
    """One uniform (Fubini-Study for complex, spherical for real) ray."""
    return canonicalize(gaussian_rows(rng, 1, d, field)[0], field)


def sample_bases(field: str, d: int, n: int, rng) -> np.ndarray:
    """n Haar orthonormal bases, shape (n, d, d), basis vectors in columns.

    QR of an i.i.d. Gaussian matrix, with the phase of each diagonal entry
    of R moved into Q (Mezzadri, Notices AMS 54, 2007): that is the
    positive-diagonal convention that makes the distribution Haar.  An
    exactly zero r_ii has measure zero and keeps phase 1.
    """
    Q, R = np.linalg.qr(gaussian_rows(rng, n, d * d, field).reshape(n, d, d))
    r = np.diagonal(R, axis1=1, axis2=2)
    absr = np.abs(r)
    phase = np.divide(r, absr, out=np.ones_like(r), where=absr > 0)
    return Q * phase[:, None, :]


# ---------------------------------------------------------------------------
# Monte Carlo fractions and validity checks


def _first_weight(g: np.ndarray, field: str) -> np.ndarray:
    """|x_0| (real) or p_0 (complex) of unnormalized Gaussian rows."""
    if field == REAL:
        return np.abs(g[:, 0]) / np.linalg.norm(g, axis=1)
    return np.abs(g[:, 0]) ** 2 / np.sum(np.abs(g) ** 2, axis=1)


def _weights(g: np.ndarray, field: str) -> np.ndarray:
    """|x_j| (real) or p_j (complex) of every coordinate of Gaussian rows."""
    if field == REAL:
        return np.abs(g) / np.linalg.norm(g, axis=1, keepdims=True)
    p = np.abs(g) ** 2
    return p / p.sum(axis=1, keepdims=True)


def mc_colored_fraction(field: str, d: int, samples: int,
                        seed: int) -> MCEstimate:
    """Fraction of sampled rays that land in the cap or the belt."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rc = RegionColoring(field=field, dimension=d)
    colored = 0
    for stream, size in enumerate(chunk_sizes(samples, CHUNK)):
        rng = stream_rng(seed, stream)
        w = _first_weight(gaussian_rows(rng, size, d, field), field)
        colored += int(((w > rc.cap_threshold)
                        | (w < rc.belt_threshold)).sum())
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
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rc = RegionColoring(field=field, dimension=d)
    both_red = 0
    all_green = 0
    for stream, size in enumerate(chunk_sizes(samples, CHUNK)):
        rng = stream_rng(seed, stream)
        w = _weights(gaussian_rows(rng, size, d, field), field)
        red = w > rc.cap_threshold
        green = w < rc.belt_threshold
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
    if d < 2:
        raise ValueError("d must be >= 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rc = RegionColoring(field=REAL, dimension=d)
    full = 0
    for stream, size in enumerate(chunk_sizes(samples, CHUNK)):
        rng = stream_rng(seed, stream)
        w = _weights(gaussian_rows(rng, size, d, REAL), REAL)
        red = w > rc.cap_threshold
        green = w < rc.belt_threshold
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
                raise ValueError(f"{name} out of [0, pi]")
        for name in ("phi_a", "phi_b"):
            p = getattr(self, name)
            if not 0.0 <= p < TWO_PI:
                raise ValueError(f"{name} out of [0, 2 pi)")
        if self.theta_a in (0.0, math.pi):
            object.__setattr__(self, "phi_a", 0.0)
        if self.theta_b in (0.0, math.pi):
            object.__setattr__(self, "phi_b", 0.0)


def separable_quadrant(s: SeparableState) -> Quadrant:
    """Quadrant by (phi_a, phi_b) half-interval membership."""
    a_high = s.phi_a >= math.pi
    b_high = s.phi_b >= math.pi
    return (Quadrant.IV if a_high and b_high
            else Quadrant.III if a_high
            else Quadrant.II if b_high
            else Quadrant.I)


def _qubit(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0),
                     math.sin(theta / 2.0) * np.exp(1j * phi)])


def separable_to_ray(s: SeparableState) -> Ray:
    """The product state as a canonicalized ray in C^4."""
    return canonicalize(np.kron(_qubit(s.theta_a, s.phi_a),
                                _qubit(s.theta_b, s.phi_b)), COMPLEX)


def separable_validity_mc(samples: int, seed: int) -> int:
    """Count orthogonal separable pairs that share a quadrant; expected zero.

    Pairs are |a>|b> against |a_perp>|c> and against |c'>|b_perp>: flipping
    one factor to its orthogonal partner moves its phase by pi, so the pair
    always straddles two quadrants when the flipped factor is off the poles.
    Exact poles are excluded by rejection, matching the chart convention
    (the pole counterexample is constructed separately).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    violations = 0
    for stream, size in enumerate(chunk_sizes(samples, CHUNK)):
        rng = stream_rng(seed, stream)
        cos_t = rng.uniform(-1.0, 1.0, size=(size, 2))
        while True:  # reject exact poles; a measure-zero event
            at_pole = np.abs(cos_t) == 1.0
            if not at_pole.any():
                break
            cos_t[at_pole] = rng.uniform(-1.0, 1.0, size=int(at_pole.sum()))
        phi = rng.uniform(0.0, TWO_PI, size=(size, 2))
        chi_phi = rng.uniform(0.0, TWO_PI, size=(size, 2))

        quad = ((phi[:, 0] >= math.pi).astype(int) * 2
                + (phi[:, 1] >= math.pi).astype(int))
        flip_a = np.mod(phi[:, 0] + math.pi, TWO_PI)
        partner_a = ((flip_a >= math.pi).astype(int) * 2
                     + (chi_phi[:, 0] >= math.pi).astype(int))
        flip_b = np.mod(phi[:, 1] + math.pi, TWO_PI)
        partner_b = ((chi_phi[:, 1] >= math.pi).astype(int) * 2
                     + (flip_b >= math.pi).astype(int))
        violations += int((quad == partner_a).sum())
        violations += int((quad == partner_b).sum())
    return violations


def pole_counterexample() -> tuple[SeparableState, SeparableState]:
    """The documented degenerate pair: |0>|c> and |1>|c>.

    Orthogonal as rays, yet the chart pins both A-phases to 0, so both
    states land in the same quadrant.  The validity sampler excludes exact
    poles, which is why this pair never shows up in its counts.
    """
    s1 = SeparableState(theta_a=0.0, phi_a=0.0, theta_b=1.0, phi_b=0.5)
    s2 = SeparableState(theta_a=math.pi, phi_a=0.0, theta_b=1.0, phi_b=0.5)
    return s1, s2
