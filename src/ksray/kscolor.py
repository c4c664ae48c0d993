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

    Each vertex's kill mask holds its neighbors and the other members of
    every basis through it: exactly what the first two rules green when it
    turns Red, and a Red among them is a conflict.  So a Red vertex is
    checked and settled in two bit operations, and a Green one visits only
    its bases that hold no Red (a basis with a Red is settled by that Red).
    The search walks an explicit stack, one entry per open node, so its
    depth is bounded by the vertex count and not by Python's recursion
    limit.
    """

    def __init__(self, g: OrthoGraph, basis_masks: list[int]):
        self.n = g.n
        nbrs = g._neighbor_masks
        self.kill = kill = list(nbrs)
        self.in_bases = in_bases = [[] for _ in range(g.n)]
        for mask in basis_masks:
            for v in _bits(mask):
                in_bases[v].append(mask)
                kill[v] |= mask & ~(1 << v)
        self.order = sorted(range(g.n),
                            key=lambda v: (-nbrs[v].bit_count(), v))
        self.nodes = 0
        self.witness: tuple[Color, ...] | None = None
        self.counts: dict[int, int] = {}

    def _propagate(self, red: int, green: int, pending: int):
        """The fixpoint (red, green) of the rules from the pending vertices,
        or None on a conflict.

        The fixpoint, or the conflict, is the same in any order, so pending
        is a mask popped lowest bit first.
        """
        kill, in_bases = self.kill, self.in_bases
        while pending:
            low = pending & -pending
            pending ^= low
            v = low.bit_length() - 1
            if red & low:
                if kill[v] & red:
                    return None
                new = kill[v] & ~green
                green |= new
                pending |= new
                continue
            for b in in_bases[v]:
                if b & red:
                    continue
                unset = b & ~(red | green)
                if not unset:
                    return None  # fully green basis
                if not unset & (unset - 1):
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
        counts, order, propagate = self.counts, self.order, self._propagate
        n, nodes = self.n, 0
        # one list per open node: its assigned mask, the colorings counted
        # so far, its Green branch as (red, green, bit) with bit 0 once
        # tried, and the place in order where its children's scan starts
        stack = []
        state, start = (red, green), 0
        while True:
            found = 0  # colorings under state, none when it is a conflict
            if state is not None:
                red, green = state
                assigned = red | green
                if limit is None and assigned in counts:
                    found = counts[assigned]
                else:
                    nodes += 1
                    i = start
                    while i < n and assigned >> order[i] & 1:
                        i += 1
                    if i < n:
                        bit, start = 1 << order[i], i + 1
                        stack.append(
                            [assigned, 0, red, green | bit, bit, start])
                        state = propagate(red | bit, green, bit)
                        continue
                    if self.witness is None:
                        self.witness = tuple(
                            Color.RED if red >> u & 1 else Color.GREEN
                            for u in range(n))
                    found = 1
            # close the nodes whose branches are done, innermost first
            while stack:
                node = stack[-1]
                node[1] += found
                if node[4] and (limit is None or node[1] < limit):
                    state = propagate(node[2], node[3], node[4])
                    start, node[4] = node[5], 0
                    break
                stack.pop()
                if limit is None:
                    counts[node[0]] = node[1]
                found = node[1]
            else:
                self.nodes += nodes
                return found


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
            if (type(v) is int or _is_int(v)) and 0 <= v < g.n:
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
