"""Orthogonality graphs: construction, clique enumeration, numeric realization."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .rays import (REAL, InvalidInput, NumericalFailure, RaySet, _check_field,
                   _read_json, build_rayset)
from .rng import gaussian_rows, stream_rng


ORTHO_TOL = 1e-9  # |<r_i, r_j>| below this is an edge
MAX_STEPS = 200  # Levenberg-Marquardt steps per realize start
RESTARTS = 8  # realize starts before NumericalFailure
UNBIASED_TOL = 1e-12  # on |<e,f>|^2 - 1/d in unbiased_basis_triples


def _is_int(x) -> bool:
    """An int or numpy integer; bool is an int too, and is rejected by type."""
    return isinstance(x, (int, np.integer)) and type(x) is not bool


def _check_dim(d, name: str) -> None:
    """Refuse a dimension d that is not an integer >= 2, naming it name."""
    if not _is_int(d):
        raise InvalidInput(f"{name} must be an integer, got {d!r}")
    if d < 2:
        raise InvalidInput(f"{name} must be >= 2")


@dataclass(frozen=True, eq=False)
class OrthoGraph:
    """Simple undirected graph on rays, with the ambient Hilbert dimension.

    adjacency is a symmetric boolean matrix with a false diagonal; an edge
    means the two rays are orthogonal.  Graphs compare and hash by identity;
    compare values with np.array_equal on adjacency.
    """

    n: int
    adjacency: np.ndarray
    dimension: int
    vertex_labels: tuple[str, ...]

    def __post_init__(self):
        _check_dim(self.dimension, "dimension")
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise InvalidInput("adjacency shape mismatch")
        if not np.array_equal(a, a.T):
            raise InvalidInput("adjacency must be symmetric")
        if np.any(np.diag(a)):
            raise InvalidInput("adjacency diagonal must be false")

    @property
    def edges(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(i.tolist(), j.tolist()))


def ortho_graph(rs: RaySet) -> OrthoGraph:
    """Graph with an edge wherever |<r_i, r_j>| < ORTHO_TOL."""
    if len(rs) == 0:
        raise InvalidInput("empty ray set")
    M = rs.matrix
    adj = np.abs(M.conj() @ M.T) < ORTHO_TOL
    np.fill_diagonal(adj, False)
    adj.setflags(write=False)
    return OrthoGraph(n=len(rs), adjacency=adj, dimension=rs.dimension,
                      vertex_labels=rs.labels)


def from_edges(n: int, edges, dimension: int) -> OrthoGraph:
    """Graph on vertices 0..n-1, labeled v0.., with the given edge pairs."""
    if not _is_int(n) or n < 0:
        raise InvalidInput(f"n must be an integer >= 0, got {n!r}")
    try:
        pairs = [(i, j) for i, j in edges]
    except (TypeError, ValueError):
        raise InvalidInput("edges must be a list of vertex pairs") from None
    adj = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        if not (_is_int(i) and _is_int(j)):
            raise InvalidInput(
                f"edge ({i!r}, {j!r}) has a non-integer endpoint")
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInput(
                f"edge ({i}, {j}) has an endpoint outside range({n})")
        if i == j:
            raise InvalidInput("self loop")
        adj[i, j] = adj[j, i] = True
    adj.setflags(write=False)
    return OrthoGraph(n=n, adjacency=adj, dimension=dimension,
                      vertex_labels=tuple(f"v{k}" for k in range(n)))


def cycle_graph(n: int) -> OrthoGraph:
    return from_edges(n, [(k, (k + 1) % n) for k in range(n)], 3)


def complete_graph(n: int, dimension: int) -> OrthoGraph:
    return from_edges(n, itertools.combinations(range(n), 2), dimension)


def empty_graph(n: int, dimension: int) -> OrthoGraph:
    return from_edges(n, [], dimension)


# ---------------------------------------------------------------------------
# cliques and bases


def _neighbor_masks(g: OrthoGraph) -> list[int]:
    """Adjacency rows as ints: bit u of entry v is set when u ~ v."""
    rows = np.packbits(g.adjacency.astype(bool, copy=False), axis=1,
                       bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def maximal_cliques(g: OrthoGraph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, each once, in lexicographic order.

    Bron-Kerbosch with pivoting on the candidate/excluded sets, held as
    bitmasks; the pivot is the vertex covering the most candidates, lowest
    index on ties, so the recursion itself is deterministic even before the
    final sort.
    """
    nbrs = _neighbor_masks(g)
    out: list[tuple[int, ...]] = []

    def extend(clique: int, cand: int, excl: int) -> None:
        if not cand and not excl:
            out.append(tuple(_bits(clique)))
            return
        pivot = max(_bits(cand | excl),
                    key=lambda u: (cand & nbrs[u]).bit_count())
        for v in _bits(cand & ~nbrs[pivot]):
            extend(clique | 1 << v, cand & nbrs[v], excl & nbrs[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    extend(0, (1 << g.n) - 1, 0)
    return sorted(out)


def complete_bases(g: OrthoGraph) -> list[tuple[int, ...]]:
    """All cliques of size exactly g.dimension: the complete measurements."""
    d = g.dimension
    seen: set[tuple[int, ...]] = set()
    for clique in maximal_cliques(g):
        if len(clique) >= d:
            for sub in itertools.combinations(clique, d):
                seen.add(sub)
    return sorted(seen)


def basis_incidence(bases, n: int) -> list[int]:
    counts = [0] * n
    for b in bases:
        for v in b:
            counts[v] += 1
    return counts


# ---------------------------------------------------------------------------
# numeric realization


def realize(g: OrthoGraph, d: int, seed: int, field: str = REAL) -> RaySet:
    """Find unit vectors in dimension d realizing the edges of g as orthogonalities.

    Levenberg-Marquardt (Marquardt 1963) on the n x d matrix V, stored as
    reals: a complex row is the pair [Re | Im].  The residuals are <v_i, v_j>
    for each edge (its real and imaginary parts in the complex field) and
    (|v_i|^2 - 1)/2 for each vertex.  Each step solves
    (J^T J + lam I) delta = -J^T r; lam falls threefold, to no less than
    1e-12, after a step that lowers r.r and rises fourfold after one that
    does not.  The floor keeps the system regular: J^T J is always singular,
    since rotating every vector leaves every residual unchanged.  A start
    ends when r.r < 1e-28, when lam exceeds 1e12 (a stall at a stationary
    point), or after MAX_STEPS steps.

    Success means r.r, which sums the squared edge overlaps and norm
    defects, falls below 1e-10 (in practice it reaches ~1e-28, so the
    realized graph contains every requested edge at ORTHO_TOL).  Non-edges
    are unconstrained.  Failure raises NumericalFailure with the best
    residual seen as its gap; it is a heuristic failure, not a proof of
    non-realizability.

    In the real field about one start in five stalls with some vectors
    shrunk towards zero, and more steps do not rescue it, so restart k of
    RESTARTS starts afresh from the substream stream_rng(seed, k); the
    first success by restart index wins.  d must be an integer >= 2.
    """
    _check_dim(d, "dimension")
    _check_field(field)
    n = g.n
    i, j = np.nonzero(np.triu(g.adjacency, 1))
    complex_ = field != REAL
    e = np.arange(len(i))
    # every residual is a quadratic form plus a constant, so by Euler's
    # theorem r = (J x - offset) / 2, with offset 1 on the vertex rows
    offset = np.repeat([0.0, 1.0], [(2 if complex_ else 1) * len(i), n])
    best_res = np.inf

    def jacobian(X: np.ndarray) -> np.ndarray:
        jac = np.zeros((len(offset), n, X.shape[1]))
        jac[e, i], jac[e, j] = X[j], X[i]
        if complex_:  # Im <v_i, v_j> = x_i . T x_j with T [a | b] = [b | -a]
            T = np.hstack([X[:, d:], -X[:, :d]])
            jac[len(i) + e, i], jac[len(i) + e, j] = T[j], -T[i]
        jac[len(offset) - n + np.arange(n), np.arange(n)] = X
        return jac.reshape(len(offset), -1)

    def solve(X: np.ndarray) -> tuple[np.ndarray, float]:
        x, lam = X.ravel(), 1e-3
        jac = jacobian(X)
        r = (jac @ x - offset) / 2
        for _ in range(MAX_STEPS):
            if r @ r < 1e-28 or lam > 1e12:
                break
            y = x - np.linalg.solve(jac.T @ jac + lam * np.eye(x.size),
                                    jac.T @ r)
            jac_y = jacobian(y.reshape(X.shape))
            r_y = (jac_y @ y - offset) / 2
            if r_y @ r_y < r @ r:
                x, jac, r, lam = y, jac_y, r_y, max(lam / 3, 1e-12)
            else:
                lam *= 4
        return x.reshape(X.shape), float(r @ r)

    for attempt in range(RESTARTS):
        V = gaussian_rows(stream_rng(seed, attempt), n, d, field)
        X, res = solve(np.hstack([V.real, V.imag]) if complex_ else V)
        best_res = min(best_res, res)
        if res < 1e-10:
            try:
                V = X[:, :d] + 1j * X[:, d:] if complex_ else X
                return build_rayset(V, field, g.vertex_labels)
            except InvalidInput:
                continue  # coincident rays cannot populate a RaySet
    raise NumericalFailure(
        f"no realization in d={d} after {RESTARTS} restart(s) of "
        f"{MAX_STEPS} steps (best residual {best_res:.3e})", best_res)


# ---------------------------------------------------------------------------
# unbiased basis partition (Peres set structure)


def unbiased_basis_triples(rs: RaySet):
    """Partition a ray set into bases that group into two unbiased triples.

    Searches the exact covers of the vertex set by complete bases and returns
    the first cover splitting into two triples in which every inter-basis
    overlap satisfies |<e,f>|^2 = 1/d within UNBIASED_TOL.  Returns (bases,
    triple_a, triple_b) with triples as index tuples into bases, or None
    when no cover works.
    """
    g = ortho_graph(rs)
    bases = complete_bases(g)
    n, d = len(rs), rs.dimension
    if n % d != 0:
        return None
    M = rs.matrix
    target = 1.0 / d

    def unbiased(b1, b2) -> bool:
        ov = np.abs(M[list(b1)].conj() @ M[list(b2)].T) ** 2
        return bool(np.all(np.abs(ov - target) < UNBIASED_TOL))

    result = None
    full = (1 << n) - 1
    masks = [sum(1 << v for v in b) for b in bases]

    def cover(used: int, chosen: list[tuple[int, ...]]):
        nonlocal result
        if result is not None:
            return
        if used == full:
            k = len(chosen)
            rel = [[unbiased(chosen[a], chosen[b]) for b in range(k)]
                   for a in range(k)]
            for tri in itertools.combinations(range(k), k // 2):
                rest = tuple(i for i in range(k) if i not in tri)
                if all(rel[a][b] for a, b in itertools.combinations(tri, 2)) \
                        and all(rel[a][b] for a, b in itertools.combinations(rest, 2)):
                    result = (list(chosen), tri, rest)
                    return
            return
        lo = next(_bits(full & ~used))  # the lowest uncovered vertex
        for b, mask in zip(bases, masks):
            if mask >> lo & 1 and not mask & used:
                chosen.append(b)
                cover(used | mask, chosen)
                chosen.pop()
                if result is not None:
                    return

    cover(0, [])
    return result


# ---------------------------------------------------------------------------
# graph exchange format


def graph_to_json(g: OrthoGraph) -> str:
    obj = {"n": g.n, "dimension": g.dimension,
           "edges": [[i, j] for i, j in g.edges]}
    return json.dumps(obj, sort_keys=True) + "\n"


def graph_from_json(text: str) -> OrthoGraph:
    """Read the graph_to_json format; malformed input raises InvalidInput."""
    obj = _read_json(text)
    if not isinstance(obj, dict):
        raise InvalidInput("graph JSON must be an object")
    for key in ("n", "edges", "dimension"):
        if key not in obj:
            raise InvalidInput(f"graph JSON is missing field {key!r}")
    if not isinstance(obj["edges"], list):
        raise InvalidInput("edges must be a list of vertex pairs")
    return from_edges(obj["n"], obj["edges"], obj["dimension"])
