"""Rays, ray sets, and the named catalogs (cube, Peres, interlocking cubes,
pentagon, and the 18 rays of Cabello, Estebaranz and Garcia-Alcaine).

A ray is a unit vector taken modulo global phase.  Canonical form: the first
component whose modulus exceeds 1e-12 is real and strictly positive, and the
squared norm is within (2d + 20)·2^-53 of 1, a bound on the rounding of the
normalise-and-rotate steps.  The form is a fixed point: a canonical row is
kept bit for bit, so a ray set written to a file reads back unchanged.  All
catalog entries are built from closed-form expressions (ceg18 and
three-cubes from the rows of peres24 and cube13), so orthogonality and
duplicate decisions sit many orders of magnitude away from the tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
DUP_TOL = 1e-9  # |<u,v>| > 1 - DUP_TOL means u and v are the same ray

REAL = "real"
COMPLEX = "complex"


class InvalidInput(ValueError):
    """Input that ksray refuses: a bad ray, file, graph, option or size.

    index is the offending ray when there is one, else None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NumericalFailure(RuntimeError):
    """A numerical result failed its check; the gap, residual or violation
    (or nan) attached."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


def _check_field(field) -> None:
    """Refuse a field other than "real" or "complex"."""
    if field not in (REAL, COMPLEX):  # a tuple: field may be unhashable
        raise InvalidInput(f"unknown field {field!r}")


def _is_int(x) -> bool:
    """An int or numpy integer; bool is an int too, and is rejected by type."""
    return isinstance(x, (int, np.integer)) and type(x) is not bool


def _check_dim(d, name: str) -> None:
    """Refuse a dimension d that is not an integer >= 2, naming it name."""
    if not _is_int(d):
        raise InvalidInput(f"{name} must be an integer, got {d!r}")
    if d < 2:
        raise InvalidInput(f"{name} must be >= 2")


def _canonical_rows(M, field: str) -> np.ndarray:
    """Canonical form of each row of an (n, d) array, as a new complex array.

    A row that is already canonical is returned bit for bit: its lead (first
    component above 1e-12) is real and positive and its squared norm is
    within (2d + 20)·2^-53 of 1.  Every other row is divided by its norm and
    then by the phase of its lead, which is then set exactly real.  In the
    real field only the real parts are kept.  The first row that is not
    finite, has an imaginary part in the real field, or has norm at most
    1e-12 raises InvalidInput with its index.
    """
    _check_field(field)
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.size == 0 or M.shape[1] < 2:
        raise InvalidInput("rays need at least 2 components each, "
                           f"got shape {M.shape}")
    # np.linalg.norm of each row, bit for bit: the same two dot products
    re, im = M.real[:, None, :], M.imag[:, None, :]
    squares = (re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]
    norms = np.sqrt(squares)
    imaginary = np.any(M.imag != 0.0, axis=1) & (field == REAL)
    bad = np.flatnonzero(~np.isfinite(norms) | imaginary | (norms <= NORM_TOL))
    if bad.size:
        k = int(bad[0])
        if not np.isfinite(norms[k]):
            why = f"norm {norms[k]:g} is not finite"
        elif imaginary[k]:
            why = "real field with nonzero imaginary part"
        else:
            why = f"norm {norms[k]:g} <= {NORM_TOL:g}"
        raise InvalidInput(f"ray {k}: {why}", index=k)
    V = M / norms[:, None]
    # np.hypot rounds as abs() of one complex scalar does; np.abs on a
    # complex array can differ in the last bit, which files would show
    mags = np.hypot(V.real, V.imag)
    rows = np.arange(len(V))
    lead = np.argmax(mags > NORM_TOL, axis=1)
    top, a = V[rows, lead], mags[rows, lead]
    V *= (top.conj() / a)[:, None]
    V[rows, lead] = a  # kill the residual imaginary part exactly
    # An output row w must pass this mask, so that a second call returns it
    # unchanged.  With u = 2^-53, and first-order terms only (the rest are
    # O(d^2 u^2)), |fl(|w|^2) - 1| is bounded by the sum of:
    #   (d+1)u  the sum of squares of the input (2d products, two dot
    #           products and one addition, in any summation order)
    #   2u      its square root, squared
    #   2u      dividing each real and imaginary part by the norm
    #   10.5u   the phase rotation: 2u for the hypot of the lead (within one
    #           ulp), 1u for dividing by it, and sqrt(5)u for each complex
    #           product (Brent, Percival and Zimmermann 2007), all squared;
    #           in the real field the rotation is exact
    #   (d+1)u  the sum of squares of w, as the second call forms it
    # That is (2d + 16.5)u; the mask allows (2d + 20)u.  The mask tests the
    # lead found above, so a component within a few ulps of NORM_TOL ahead
    # of the lead can still move it on a second call.
    keep = (top.imag == 0.0) & (top.real > 0.0)
    keep &= np.abs(squares - 1.0) <= (2 * M.shape[1] + 20) * 2.0 ** -53
    np.copyto(V, M, where=keep[:, None])
    return V.real.astype(np.complex128) if field == REAL else V


def canonicalize(components, field: str = REAL) -> np.ndarray:
    """Normalize and phase-fix a raw component list into a canonical ray.

    The ray is a read-only complex 1-D array, a row as in RaySet.matrix.
    Idempotent bit for bit: a row that is already canonical (its lead real
    and positive, its squared norm within (2d + 20)·2^-53 of 1) comes back
    unchanged.  Raises InvalidInput when the norm is at most 1e-12, when
    field is "real" but an imaginary part is nonzero, or when a component is
    NaN or infinite.
    """
    v = _canonical_rows(np.reshape(components, (1, -1)), field)[0]
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class RaySet:
    """Ordered, labeled, deduplicated rays sharing a dimension and field.

    matrix holds the canonical rays as rows: a read-only complex array of
    shape (n, dimension).  Ray sets compare and hash by identity; compare
    values with np.array_equal on matrix.
    """

    dimension: int
    field: str
    matrix: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.matrix)


def _first_copies(overlaps: np.ndarray) -> np.ndarray:
    """For each ray k, the smallest j <= k that is the same ray.

    overlaps holds |<r_j, r_k>| for unit rows; j and k are the same ray when
    it exceeds 1 - DUP_TOL, and every ray is its own copy.
    """
    return np.argmax(np.triu(overlaps > 1.0 - DUP_TOL), axis=0)


def _first_bad_row(vectors) -> InvalidInput:
    """The refusal naming the first vector that is not a row of numbers, or
    whose length differs from the first row's."""
    dim = None
    for k, v in enumerate(vectors if np.iterable(vectors) else ()):
        try:
            row = np.asarray(v, dtype=np.complex128)
        except (TypeError, ValueError):
            row = None
        if row is None or row.ndim != 1:
            return InvalidInput(f"ray {k}: not a row of numbers", index=k)
        dim = len(row) if dim is None else dim
        if len(row) != dim:
            return InvalidInput(f"ray {k}: dimension {len(row)} != {dim}",
                                index=k)
    return InvalidInput("rays must be rows of numbers")


def build_rayset(vectors, field: str, labels=None) -> RaySet:
    """Canonicalize raw vectors and enforce the ray-set invariants.

    Raises InvalidInput (with the offending index) on a vector that is not
    a row of numbers, a zero or non-finite vector, a dimension mismatch, a
    field mismatch, or a duplicate ray.
    """
    try:
        M = np.asarray(vectors, dtype=np.complex128)
    except (TypeError, ValueError):  # ragged rows, or a row not of numbers
        raise _first_bad_row(vectors) from None
    V = _canonical_rows(M, field)
    overlaps = np.abs(V.conj() @ V.T)
    first = _first_copies(overlaps)
    copies = np.flatnonzero(first != np.arange(len(V)))
    if copies.size:
        k = int(copies[0])
        j = int(first[k])
        raise InvalidInput(
            f"ray {k} duplicates ray {j} (|overlap| = {overlaps[j, k]:.12f})",
            index=k)
    if labels is None:
        labels = tuple(f"v{k}" for k in range(len(V)))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(V):
            raise InvalidInput("labels length differs from ray count")
    V.setflags(write=False)
    return RaySet(dimension=V.shape[1], field=field, matrix=V, labels=labels)


def _pattern_label(vec) -> str:
    return ",".join(str(int(round(c))) for c in vec)


# ---------------------------------------------------------------------------
# catalogs


def cube13() -> RaySet:
    """The 13 rays of a cube in R^3: 3 face, 6 edge, 4 corner diagonals."""
    vecs = [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1), (1, 1, 0), (1, -1, 0),
        (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
    ]
    return build_rayset(vecs, REAL, [_pattern_label(v) for v in vecs])


def peres24() -> RaySet:
    """The 24-ray set in R^4: 4 basis rays, 12 two-entry rays, 8 half-integer rays."""
    vecs: list[tuple[int, ...]] = []
    for i in range(4):
        v = [0, 0, 0, 0]
        v[i] = 1
        vecs.append(tuple(v))
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1, -1):
                v = [0, 0, 0, 0]
                v[i] = 1
                v[j] = s
                vecs.append(tuple(v))
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                vecs.append((1, s1, s2, s3))
    return build_rayset(vecs, REAL, [_pattern_label(v) for v in vecs])


# The peres24 rows of ceg18, in the vertex order that graph, bounds and
# catalog emit print.
_CEG18_ROWS = (3, 2, 4, 5, 1, 6, 7, 21, 22, 14, 16, 13, 8, 9, 11, 18, 17, 23)


def ceg18() -> RaySet:
    """The 18 rays in R^4 of Cabello, Estebaranz and Garcia-Alcaine
    (Phys. Lett. A 212, 1996): peres24 less six rays, with its labels.

    Its orthogonality graph has exactly 9 complete bases with every ray in
    exactly 2 of them, which is what the parity certificate needs.
    """
    rs = peres24()
    return build_rayset(rs.matrix[list(_CEG18_ROWS)], REAL,
                        [rs.labels[k] for k in _CEG18_ROWS])


# Change of basis sending (0,1,1)/sqrt2 -> e1, (0,1,-1)/sqrt2 -> e2,
# (1,0,0) -> e3.  These are the three rays common to all three cubes;
# the intercube maps below are written in this frame.
_SQ2 = math.sqrt(2.0)
_COMMON_FRAME = np.array([
    [0.0, 1.0 / _SQ2, 1.0 / _SQ2],
    [0.0, 1.0 / _SQ2, -1.0 / _SQ2],
    [1.0, 0.0, 0.0],
])


def _rot_to_second(phi: float) -> np.ndarray:
    return np.array([
        [np.exp(1j * phi), 0, 0],
        [0, 0, -1],
        [0, 1, 0],
    ], dtype=np.complex128)


def _rot_to_third(phi: float) -> np.ndarray:
    return np.array([
        [0, 0, -1],
        [0, np.exp(-1j * phi), 0],
        [1, 0, 0],
    ], dtype=np.complex128)


def three_cubes(phi: float = 0.0) -> RaySet:
    """Union of three interlocking cubes, 33 rays, with a free phase.

    Cube I is cube13 rotated so the three rays shared by all cubes become
    the standard basis.  Cubes II and III are its images under ninety degree
    rotations about two of those shared rays; the phase phi multiplies one
    matrix entry of each rotation and never changes any orthogonality.
    Labels record every (cube, source ray) pair that lands on a given ray,
    joined by "|"; deduplication keeps first occurrences in construction
    order (cube I, then II, then III, each in cube13 order).  A phase that
    is NaN or infinite raises InvalidInput.
    """
    phi = float(phi)
    if not math.isfinite(phi):
        raise InvalidInput(f"phase must be finite, got {phi!r}")
    phi %= 2.0 * math.pi
    field = REAL if phi == 0.0 else COMPLEX
    base = cube13()
    cube_one = _COMMON_FRAME @ base.matrix[:, :, None]
    stacked = np.concatenate([cube_one, _rot_to_second(phi) @ cube_one,
                              _rot_to_third(phi) @ cube_one])[:, :, 0]
    tags = [f"{tag}:{src}" for tag in ("I", "II", "III") for src in base.labels]
    # unit rows up to rounding, so copies sit far inside DUP_TOL
    first = _first_copies(np.abs(stacked.conj() @ stacked.T))
    keep = np.flatnonzero(first == np.arange(len(stacked)))
    labels = ["|".join(t for t, f in zip(tags, first) if f == k) for k in keep]
    return build_rayset(stacked[keep].real if field == REAL else stacked[keep],
                        field, labels)


def cube_members(label: str) -> frozenset[str]:
    """Cube tags ("I", "II", "III") recorded in a three_cubes label."""
    return frozenset(part.split(":", 1)[0] for part in label.split("|"))


def kcbs5() -> RaySet:
    """Five rays in R^3 whose orthogonality graph is the pentagon.

    v_k = (sin t cos(4 pi k/5), sin t sin(4 pi k/5), cos t) with
    cos^2 t = cos(pi/5)/(1 + cos(pi/5)); consecutive rays are orthogonal.
    """
    c = math.cos(math.pi / 5.0)
    cos_t = math.sqrt(c / (1.0 + c))
    sin_t = math.sqrt(1.0 - c / (1.0 + c))
    vecs = []
    for k in range(5):
        a = 4.0 * math.pi * k / 5.0
        vecs.append((sin_t * math.cos(a), sin_t * math.sin(a), cos_t))
    return build_rayset(vecs, REAL)


# ---------------------------------------------------------------------------
# file exchange


def rayset_to_json(rs: RaySet) -> str:
    """The ray set in the exchange format, rays canonicalized."""
    return json.dumps({
        "dimension": rs.dimension,
        "field": rs.field,
        "rays": [[[float(c.real), float(c.imag)] for c in row]
                 for row in rs.matrix],
        "labels": list(rs.labels),
    }, indent=1) + "\n"


def _read_json(text: str):
    """json.loads, with every refusal raised as InvalidInput."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past int()'s digit limit, or arrays nested too deep
        raise InvalidInput(str(exc)) from exc


def load_rayset(text: str) -> RaySet:
    """Read a ray set from JSON text in the rayset_to_json format.

    The reader canonicalizes every ray and enforces the ray-set invariants;
    every problem raises InvalidInput, with the offending index when it
    belongs to one ray.  A component that is true, false or an integer beyond
    float range is refused naming its ray.
    """
    obj = _read_json(text)
    if not isinstance(obj, dict):
        raise InvalidInput("top level must be an object")
    for key in ("dimension", "field", "rays"):
        if key not in obj:
            raise InvalidInput(f"missing field {key!r}")
    dim = obj["dimension"]
    field = obj["field"]
    _check_dim(dim, "dimension")
    _check_field(field)
    raw = obj["rays"]
    if not isinstance(raw, list) or not raw:
        raise InvalidInput("rays must be a nonempty array")
    bools = "true" in text or "false" in text  # complex() reads them as 1, 0
    vectors = []
    for k, entry in enumerate(raw):
        try:
            if bools and any(isinstance(x, bool)
                             for pair in entry for x in pair):
                raise TypeError("a boolean is not a number")
            vec = [complex(re, im) for re, im in entry]
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInput(f"ray {k}: entries must be [re, im] pairs "
                               "of numbers", index=k) from exc
        if len(vec) != dim:
            raise InvalidInput(
                f"ray {k}: length {len(vec)} != dimension {dim}", index=k)
        vectors.append(vec)
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or len(labels) != len(vectors)):
        raise InvalidInput("labels must match the number of rays")
    return build_rayset(vectors, field, labels)


# Named catalogs in listing order; three-cubes takes its phase.
CATALOGS = {
    "cube13": cube13,
    "peres24": peres24,
    "three-cubes": three_cubes,
    "kcbs5": kcbs5,
    "ceg18": ceg18,
}
