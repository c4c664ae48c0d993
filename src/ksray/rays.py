"""Rays, ray sets, and the named catalogs (cube, Peres, interlocking cubes, pentagon).

A ray is a unit vector taken modulo global phase.  Canonical form: the first
component whose modulus exceeds 1e-12 is real and strictly positive.  All
catalog entries are built from closed-form expressions, so orthogonality and
duplicate decisions sit many orders of magnitude away from the tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

NORM_TOL = 1e-12
DUP_TOL = 1e-9  # |<u,v>| > 1 - DUP_TOL means u and v are the same ray

REAL = "real"
COMPLEX = "complex"


class ZeroVector(ValueError):
    """Vector too short to normalize (norm <= 1e-12)."""


class FieldMismatch(ValueError):
    """Real field requested but a component has a nonzero imaginary part."""


class ParseError(ValueError):
    """Ray-set file does not match the exchange format."""


class InvariantViolation(ValueError):
    """A ray-set invariant failed; carries the offending ray index."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, eq=False)
class Ray:
    """Unit vector modulo global phase, with canonical phase fixed.

    Rays compare and hash by identity; compare values with np.array_equal
    on components.
    """

    dimension: int
    field: str
    components: np.ndarray

    def inner(self, other: "Ray") -> complex:
        return complex(np.vdot(self.components, other.components))


def _canonical_rows(M, field: str) -> np.ndarray:
    """Canonical form of each row of an (n, d) array, as a new complex array.

    Each row is divided by its norm and then by the phase of its first
    component above 1e-12, which is then set exactly real; in the real field
    only the real parts are kept.  The first row that is not finite, has an
    imaginary part in the real field, or has norm at most 1e-12 raises
    InvariantViolation with its index, chained to the ValueError,
    FieldMismatch or ZeroVector that names the problem.
    """
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field {field!r}")
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.size == 0 or M.shape[1] < 2:
        raise ValueError("rays need at least 2 components each, "
                         f"got shape {M.shape}")
    # np.linalg.norm of each row, bit for bit: the same two dot products
    re, im = M.real[:, None, :], M.imag[:, None, :]
    norms = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])
    imaginary = np.any(M.imag != 0.0, axis=1) & (field == REAL)
    bad = np.flatnonzero(~np.isfinite(norms) | imaginary | (norms <= NORM_TOL))
    if bad.size:
        k = int(bad[0])
        if not np.isfinite(norms[k]):
            exc = ValueError(f"norm {norms[k]:g} is not finite")
        elif imaginary[k]:
            exc = FieldMismatch("real field with nonzero imaginary part")
        else:
            exc = ZeroVector(f"norm {norms[k]:g} <= {NORM_TOL:g}")
        raise InvariantViolation(f"ray {k}: {exc}", index=k) from exc
    V = M / norms[:, None]
    # np.hypot rounds as abs() of one complex scalar does; np.abs on a
    # complex array can differ in the last bit, which files would show
    mags = np.hypot(V.real, V.imag)
    rows = np.arange(len(V))
    lead = np.argmax(mags > NORM_TOL, axis=1)
    a = mags[rows, lead]
    V *= (V[rows, lead].conj() / a)[:, None]
    V[rows, lead] = a  # kill the residual imaginary part exactly
    return V.real.astype(np.complex128) if field == REAL else V


def canonicalize(components, field: str = REAL) -> Ray:
    """Normalize and phase-fix a raw component list into a Ray.

    Idempotent: feeding the output back in reproduces it to 1e-15
    componentwise.  Raises ZeroVector when the norm is at most 1e-12,
    FieldMismatch when field is "real" but an imaginary part is nonzero, and
    ValueError when a component is NaN or infinite.
    """
    try:
        v = _canonical_rows(np.reshape(components, (1, -1)), field)[0]
    except InvariantViolation as exc:
        raise exc.__cause__ from None  # a lone vector has no index to report
    v.setflags(write=False)
    return Ray(dimension=v.size, field=field, components=v)


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


def build_rayset(vectors, field: str, labels=None) -> RaySet:
    """Canonicalize raw vectors and enforce the ray-set invariants.

    Raises InvariantViolation (with the offending index) on a zero or
    non-finite vector, a dimension mismatch, a field mismatch, or a
    duplicate ray.
    """
    try:
        M = np.asarray(vectors, dtype=np.complex128)
    except ValueError:  # rows of different lengths
        dim = len(vectors[0])
        k = next(k for k, v in enumerate(vectors) if len(v) != dim)
        raise InvariantViolation(
            f"ray {k}: dimension {len(vectors[k])} != {dim}", index=k) from None
    V = _canonical_rows(M, field)
    overlaps = np.abs(V.conj() @ V.T)
    first = _first_copies(overlaps)
    copies = np.flatnonzero(first != np.arange(len(V)))
    if copies.size:
        k = int(copies[0])
        j = int(first[k])
        raise InvariantViolation(
            f"ray {k} duplicates ray {j} (|overlap| = {overlaps[j, k]:.12f})",
            index=k)
    if labels is None:
        labels = tuple(f"v{k}" for k in range(len(V)))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(V):
            raise InvariantViolation("labels length differs from ray count")
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
    order (cube I, then II, then III, each in cube13 order).
    """
    phi = float(phi) % (2.0 * math.pi)
    field = REAL if phi == 0.0 else COMPLEX
    base = cube13()
    cube_one = _COMMON_FRAME @ base.matrix[:, :, None]
    stacked = np.concatenate([cube_one, _rot_to_second(phi) @ cube_one,
                              _rot_to_third(phi) @ cube_one])[:, :, 0]
    tags = [f"{tag}:{src}" for tag in ("I", "II", "III") for src in base.labels]
    V = _canonical_rows(stacked, COMPLEX)
    first = _first_copies(np.abs(V.conj() @ V.T))
    keep = np.flatnonzero(first == np.arange(len(V)))
    labels = ["|".join(t for t, f in zip(tags, first) if f == k) for k in keep]
    # build_rayset canonicalizes again; the catalog's bits are those of the
    # two passes
    return build_rayset(V[keep].real if field == REAL else V[keep], field,
                        labels)


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
    return build_rayset(vecs, REAL, [f"v{k}" for k in range(5)])


# ---------------------------------------------------------------------------
# file exchange

_FIELDS = {REAL, COMPLEX}


def rayset_to_json(rs: RaySet) -> str:
    """The ray set in the exchange format, rays canonicalized."""
    return json.dumps({
        "dimension": rs.dimension,
        "field": rs.field,
        "rays": [[[float(c.real), float(c.imag)] for c in row]
                 for row in rs.matrix],
        "labels": list(rs.labels),
    }, indent=1) + "\n"


def load_rayset(source) -> RaySet:
    """Read a ray set from a path, file object, or JSON text.

    A str is JSON text when its first non-blank character is "{" and a path
    otherwise; an os.PathLike is always a path.

    The reader canonicalizes every ray and enforces the ray-set invariants;
    structural problems raise ParseError, per-ray problems raise
    InvariantViolation with the offending index.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    for key in ("dimension", "field", "rays"):
        if key not in obj:
            raise ParseError(f"missing field {key!r}")
    dim = obj["dimension"]
    field = obj["field"]
    if not isinstance(dim, int) or dim < 2:
        raise ParseError(f"dimension must be an integer >= 2, got {dim!r}")
    if field not in _FIELDS:
        raise ParseError(f'field must be "real" or "complex", got {field!r}')
    raw = obj["rays"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("rays must be a nonempty array")
    vectors = []
    for k, entry in enumerate(raw):
        try:
            vec = [complex(re, im) for re, im in entry]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"ray {k}: entries must be [re, im] pairs") from exc
        if len(vec) != dim:
            raise InvariantViolation(
                f"ray {k}: length {len(vec)} != dimension {dim}", index=k)
        vectors.append(vec)
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or len(labels) != len(vectors)):
        raise ParseError("labels must match the number of rays")
    return build_rayset(vectors, field, labels)


def ceg18() -> RaySet:
    """The 18-ray set in R^4 shipped as a transcribed data file.

    Its orthogonality graph has exactly 9 complete bases with every ray in
    exactly 2 of them, which is what the parity certificate needs.
    """
    text = resources.files("ksray.data").joinpath("ceg18.json").read_text("utf-8")
    return load_rayset(text)


# Named catalogs in listing order; three-cubes takes its phase.
CATALOGS = {
    "cube13": cube13,
    "peres24": peres24,
    "three-cubes": three_cubes,
    "kcbs5": kcbs5,
    "ceg18": ceg18,
}
