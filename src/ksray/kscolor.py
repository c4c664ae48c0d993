"""Two-coloring of orthogonality graphs under the exactly-one-red basis rule.

The rules: no edge may join two Red vertices, and every complete basis must
contain exactly one Red vertex.  A graph with no complete bases is colorable
(all Green satisfies both rules vacuously).
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

from .ortho import OrthoGraph, _bits, complete_bases
from .rays import InvalidInput, _check_int, _is_int


class Color(enum.Enum):
    RED = "R"
    GREEN = "G"


@dataclass(frozen=True)
class ParityCertificate:
    """Counting proof of uncolorability.

    Each basis holds exactly one Red, so summing incidence counts over the
    Red vertices must reproduce the basis count; with an odd basis count and
    all-even incidences that is impossible.
    """

    basis_count: int
    incidence_counts: tuple[int, ...]

    def __post_init__(self):
        if self.basis_count % 2 == 0:
            raise InvalidInput("parity certificate needs an odd basis count")
        if any(c % 2 for c in self.incidence_counts):
            raise InvalidInput("parity certificate needs all-even incidences")


@dataclass(frozen=True)
class ExhaustionProof:
    """The backtracking search itself, summarized by its node count."""

    nodes_explored: int


@dataclass(frozen=True)
class KSVerdict:
    colorable: bool
    witness: tuple[Color, ...] | None = None
    certificate: ParityCertificate | ExhaustionProof | None = None


class _Searcher:
    """Backtracking with unit propagation over Red/Green assignments.

    A partial coloring is the pair of bitmasks (red, green).  Branch order:
    vertices by descending degree (index on ties), Red tried before Green.
    Propagation: a Red vertex greens its neighbors; a basis with a Red
    greens its rest; a basis with all but one Green reddens the last; a
    fully Green basis is a conflict.
    """

    def __init__(self, g: OrthoGraph, basis_masks: list[int]):
        self.n = g.n
        self.nbrs = g._neighbor_masks
        self.in_bases: list[list[int]] = [[] for _ in range(g.n)]
        for mask in basis_masks:
            for v in _bits(mask):
                self.in_bases[v].append(mask)
        self.order = sorted(range(g.n),
                            key=lambda v: (-self.nbrs[v].bit_count(), v))
        self.nodes = 0
        self.witness: tuple[Color, ...] | None = None
        self.counts: dict[int, int] = {}

    def _propagate(self, red: int, green: int, pending: int):
        """The fixpoint (red, green) of the rules from the pending vertices,
        or None on a conflict.

        The fixpoint, or the conflict, is the same in any order, so pending
        is a mask popped lowest bit first.
        """
        while pending:
            low = pending & -pending
            pending ^= low
            v = low.bit_length() - 1
            if red & low:
                if self.nbrs[v] & red:
                    return None
                new = self.nbrs[v] & ~green
                green |= new
                pending |= new
            for b in self.in_bases[v]:
                reds, unset = b & red, b & ~(red | green)
                if reds & (reds - 1):
                    return None
                if reds:
                    green |= unset
                    pending |= unset
                elif not unset:
                    return None  # fully green basis
                elif not unset & (unset - 1):
                    red |= unset
                    pending |= unset
        return red, green

    def search(self, red: int = 0, green: int = 0,
               limit: int | None = None) -> int:
        """Count the colorings extending (red, green), stopping once limit
        of them are found.

        The first coloring reached is kept in self.witness.  Without a
        limit each total is memoized on the assigned mask red | green.  That
        is exact because after propagation every basis with an unassigned
        vertex holds no Red and no unassigned vertex touches a Red, so the
        completions depend only on which vertices are unassigned.
        """
        assigned = red | green
        if limit is None and assigned in self.counts:
            return self.counts[assigned]
        self.nodes += 1
        v = next((u for u in self.order if not assigned >> u & 1), None)
        if v is None:
            if self.witness is None:
                self.witness = tuple(Color.RED if red >> u & 1 else Color.GREEN
                                     for u in range(self.n))
            return 1
        total = 0
        for branch in ((red | 1 << v, green), (red, green | 1 << v)):
            state = self._propagate(*branch, 1 << v)
            if state is not None:
                total += self.search(*state, limit=limit)
            if limit is not None and total >= limit:
                break
        if limit is None:
            self.counts[assigned] = total
        return total


def _basis_masks(g: OrthoGraph, bases) -> list[int]:
    """Each basis as the bitmask of its vertices.

    A basis must be a sequence of distinct integer vertices of g; any other
    raises InvalidInput naming it.
    """
    masks = []
    for b in bases:
        try:
            entries = tuple(b)
        except TypeError:
            entries = (None,)  # not a sequence: refused below
        mask = 0
        for v in entries:
            if _is_int(v) and 0 <= v < g.n:
                mask |= 1 << int(v)
        # an entry that is not a vertex, or a repeated one, adds no new bit
        if mask.bit_count() != len(entries):
            raise InvalidInput(
                f"basis {b!r} must list distinct vertices in range({g.n})")
        masks.append(mask)
    return masks


def _parity_certificate(basis_masks: list[int],
                        n: int) -> ParityCertificate | None:
    """The certificate when the basis count is odd and every vertex lies in
    an even number of bases, that is when the basis masks XOR to zero."""
    if len(basis_masks) % 2 == 0 or functools.reduce(operator.xor,
                                                      basis_masks):
        return None
    counts = tuple(sum(b >> v & 1 for b in basis_masks) for v in range(n))
    return ParityCertificate(basis_count=len(basis_masks),
                             incidence_counts=counts)


def ks_solve(g: OrthoGraph, bases=None) -> KSVerdict:
    """Decide colorability; witness on success, certificate on failure.

    The parity certificate is attempted before any search, since it is a
    complete proof on its own; otherwise the exhaustive backtracking either
    produces the first witness in deterministic branch order or proves
    impossibility by exhaustion.  bases defaults to complete_bases(g).
    """
    masks = _basis_masks(g, complete_bases(g) if bases is None else bases)
    cert = _parity_certificate(masks, g.n)
    if cert is not None:
        return KSVerdict(colorable=False, certificate=cert)
    searcher = _Searcher(g, masks)
    if searcher.search(limit=1):
        return KSVerdict(colorable=True, witness=searcher.witness)
    return KSVerdict(colorable=False,
                     certificate=ExhaustionProof(nodes_explored=searcher.nodes))


def verify_coloring(g: OrthoGraph, bases, coloring):
    """Check a total coloring; returns (ok, first_violation).

    Violations are reported as ("edge", (i, j)) for the first Red-Red edge in
    (i, j) lexicographic order, then ("basis", k) for the first basis whose
    Red count differs from one.  A coloring that does not give each vertex a
    Color, or a basis that is not distinct vertices, raises InvalidInput.
    """
    masks = _basis_masks(g, bases)
    colors = list(coloring)
    if len(colors) != g.n or not all(isinstance(c, Color) for c in colors):
        raise InvalidInput("coloring must be total over the vertices")
    for i, j in g.edges:
        if colors[i] is Color.RED and colors[j] is Color.RED:
            return False, ("edge", (i, j))
    red = sum(1 << v for v, c in enumerate(colors) if c is Color.RED)
    for k, b in enumerate(masks):
        if (b & red).bit_count() != 1:
            return False, ("basis", k)
    return True, None


COUNT_GUARD = 36


def count_colorings(g: OrthoGraph, bases=None) -> int:
    """Exact number of valid total colorings, by counting backtracking.

    A parity certificate means none; the memo answers the second branch of a
    vertex in no edge and no basis.  bases defaults to complete_bases(g).
    """
    _check_int(g.n, f"{g.n} vertices", high=COUNT_GUARD)
    masks = _basis_masks(g, complete_bases(g) if bases is None else bases)
    if _parity_certificate(masks, g.n) is not None:
        return 0
    return _Searcher(g, masks).search()
