"""Two-coloring of orthogonality graphs under the exactly-one-red basis rule.

The rules: no edge may join two Red vertices, and every complete basis must
contain exactly one Red vertex.  A graph with no complete bases is colorable
(all Green satisfies both rules vacuously).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .ortho import (OrthoGraph, TooLarge, basis_incidence, complete_bases,
                    from_edges)


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
            raise ValueError("parity certificate needs an odd basis count")
        if any(c % 2 for c in self.incidence_counts):
            raise ValueError("parity certificate needs all-even incidences")


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

    Branch order: vertices by descending degree (index on ties), Red tried
    before Green.  Propagation: a Red vertex greens its neighbors; a basis
    with a Red greens its rest; a basis with all but one Green reddens the
    last; a fully Green basis is a conflict.
    """

    def __init__(self, g: OrthoGraph, bases):
        self.n = g.n
        self.nbrs = [g.adjacency[v].nonzero()[0].tolist() for v in range(g.n)]
        self.bases = [tuple(b) for b in bases]
        self.in_bases = [[] for _ in range(g.n)]
        for k, b in enumerate(self.bases):
            for v in b:
                self.in_bases[v].append(k)
        self.order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        self.color: list[Color | None] = [None] * g.n
        self.trail: list[int] = []
        self.nodes = 0
        self.witness: tuple[Color, ...] | None = None

    def _propagate(self, queue: list[int]) -> bool:
        while queue:
            v = queue.pop()
            if self.color[v] is Color.RED:
                for u in self.nbrs[v]:
                    if self.color[u] is Color.RED:
                        return False
                    if self.color[u] is None:
                        self.color[u] = Color.GREEN
                        self.trail.append(u)
                        queue.append(u)
            for k in self.in_bases[v]:
                b = self.bases[k]
                reds = sum(1 for u in b if self.color[u] is Color.RED)
                if reds > 1:
                    return False
                unset = [u for u in b if self.color[u] is None]
                if reds == 1:
                    for u in unset:
                        self.color[u] = Color.GREEN
                        self.trail.append(u)
                        queue.append(u)
                elif not unset:
                    return False  # fully green basis
                elif len(unset) == 1:
                    u = unset[0]
                    self.color[u] = Color.RED
                    self.trail.append(u)
                    queue.append(u)
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            self.color[self.trail.pop()] = None

    def search(self, limit: int | None = None) -> int:
        """Count total colorings, stopping once limit of them are found.

        The first coloring reached is kept in self.witness.
        """
        self.nodes += 1
        v = next((u for u in self.order if self.color[u] is None), None)
        if v is None:
            if self.witness is None:
                self.witness = tuple(self.color)
            return 1
        total = 0
        for c in (Color.RED, Color.GREEN):
            mark = len(self.trail)
            self.color[v] = c
            self.trail.append(v)
            if self._propagate([v]):
                total += self.search(limit)
            self._undo(mark)
            if limit is not None and total >= limit:
                break
        return total


def _parity_certificate(bases, n: int) -> ParityCertificate | None:
    counts = basis_incidence(bases, n)
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
        raise ValueError("coloring must be total over the vertices")
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

    Vertices with no edges and no basis membership are unconstrained and
    factored out as a power of two.
    """
    if g.n > COUNT_GUARD:
        raise TooLarge(f"{g.n} vertices exceeds the guard of {COUNT_GUARD}")
    if bases is None:
        bases = complete_bases(g)
    in_any_basis = set()
    for b in bases:
        in_any_basis.update(b)
    free = [v for v in range(g.n)
            if g.degree(v) == 0 and v not in in_any_basis]
    if len(free) == g.n:
        return 2 ** g.n
    sub = [v for v in range(g.n) if v not in free]
    remap = {v: k for k, v in enumerate(sub)}
    h = from_edges(len(sub), [(remap[i], remap[j]) for i, j in g.edges],
                   g.dimension)
    hbases = [tuple(remap[v] for v in b) for b in bases]
    return _Searcher(h, hbases).search() * (2 ** len(free))
