"""Two-coloring of orthogonality graphs under the exactly-one-red basis rule.

The rules: no edge may join two Red vertices, and every complete basis must
contain exactly one Red vertex.  A graph with no complete bases is colorable
(all Green satisfies both rules vacuously).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .ortho import (InvalidInput, OrthoGraph, _bits, _neighbor_masks,
                    complete_bases)


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

    def __init__(self, g: OrthoGraph, bases):
        self.n = g.n
        self.nbrs = _neighbor_masks(g)
        self.in_bases: list[list[int]] = [[] for _ in range(g.n)]
        for b in bases:
            mask = sum(1 << v for v in b)
            for v in b:
                self.in_bases[v].append(mask)
        self.order = sorted(range(g.n),
                            key=lambda v: (-self.nbrs[v].bit_count(), v))
        self.nodes = 0
        self.witness: tuple[Color, ...] | None = None

    def _propagate(self, red: int, green: int, queue: list[int]):
        """The fixpoint (red, green) of the rules from the queued vertices,
        or None on a conflict."""
        while queue:
            v = queue.pop()
            if red >> v & 1:
                if self.nbrs[v] & red:
                    return None
                new = self.nbrs[v] & ~green
                green |= new
                queue.extend(_bits(new))
            for b in self.in_bases[v]:
                reds, unset = b & red, b & ~(red | green)
                if reds & (reds - 1):
                    return None
                if reds:
                    green |= unset
                    queue.extend(_bits(unset))
                elif not unset:
                    return None  # fully green basis
                elif not unset & (unset - 1):
                    red |= unset
                    queue.append(unset.bit_length() - 1)
        return red, green

    def search(self, red: int = 0, green: int = 0,
               limit: int | None = None) -> int:
        """Count the colorings extending (red, green), stopping once limit
        of them are found.

        The first coloring reached is kept in self.witness.
        """
        self.nodes += 1
        v = next((u for u in self.order if not (red | green) >> u & 1), None)
        if v is None:
            if self.witness is None:
                self.witness = tuple(Color.RED if red >> u & 1 else Color.GREEN
                                     for u in range(self.n))
            return 1
        total = 0
        for branch in ((red | 1 << v, green), (red, green | 1 << v)):
            state = self._propagate(*branch, [v])
            if state is not None:
                total += self.search(*state, limit=limit)
            if limit is not None and total >= limit:
                break
        return total


def _parity_certificate(bases, n: int) -> ParityCertificate | None:
    counts = [0] * n
    for b in bases:
        for v in b:
            counts[v] += 1
    if len(bases) % 2 == 1 and all(c % 2 == 0 for c in counts):
        return ParityCertificate(basis_count=len(bases),
                                 incidence_counts=tuple(counts))
    return None


def ks_solve(g: OrthoGraph, bases=None) -> KSVerdict:
    """Decide colorability; witness on success, certificate on failure.

    The parity certificate is attempted before any search, since it is a
    complete proof on its own; otherwise the exhaustive backtracking either
    produces the first witness in deterministic branch order or proves
    impossibility by exhaustion.
    """
    if bases is None:
        bases = complete_bases(g)
    cert = _parity_certificate(bases, g.n)
    if cert is not None:
        return KSVerdict(colorable=False, certificate=cert)
    searcher = _Searcher(g, bases)
    if searcher.search(limit=1):
        return KSVerdict(colorable=True, witness=searcher.witness)
    return KSVerdict(colorable=False,
                     certificate=ExhaustionProof(nodes_explored=searcher.nodes))


def verify_coloring(g: OrthoGraph, bases, coloring):
    """Check a total coloring; returns (ok, first_violation).

    Violations are reported as ("edge", (i, j)) for the first Red-Red edge in
    (i, j) lexicographic order, then ("basis", k) for the first basis whose
    Red count differs from one.
    """
    colors = list(coloring)
    if len(colors) != g.n:
        raise InvalidInput("coloring must be total over the vertices")
    for i, j in g.edges:
        if colors[i] is Color.RED and colors[j] is Color.RED:
            return False, ("edge", (i, j))
    for k, b in enumerate(bases):
        reds = sum(1 for v in b if colors[v] is Color.RED)
        if reds != 1:
            return False, ("basis", k)
    return True, None


COUNT_GUARD = 36


def count_colorings(g: OrthoGraph, bases=None) -> int:
    """Exact number of valid total colorings, by counting backtracking.

    Vertices with no edges and no basis membership are unconstrained: they
    are pre-colored Green and factored out as a power of two.
    """
    if g.n > COUNT_GUARD:
        raise InvalidInput(f"{g.n} vertices exceeds the guard of {COUNT_GUARD}")
    if bases is None:
        bases = complete_bases(g)
    searcher = _Searcher(g, bases)
    free = sum(1 << v for v in range(g.n)
               if not searcher.nbrs[v] and not searcher.in_bases[v])
    return searcher.search(green=free) * 2 ** free.bit_count()
