"""Orthogonality graphs: construction, clique enumeration, numeric realization."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .rays import (REAL, InvalidInput, NumericalFailure, RaySet, _check_dim,
                   _check_field, _is_int, build_rayset)
from .rng import gaussian_rows, stream_rng


ORTHO_TOL = 1e-9  # |<r_i, r_j>| below this is an edge
MAX_STEPS = 200  # Levenberg-Marquardt steps per realize start
RESTARTS = 8  # realize starts before NumericalFailure


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
    first success by restart index wins.  d must be an integer >= 2, and
    a graph with no vertices raises InvalidInput.
    """
    _check_dim(d, "dimension")
    _check_field(field)
    if g.n == 0:
        raise InvalidInput("the graph has no vertices")
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
# graph exchange format


def graph_to_json(g: OrthoGraph) -> str:
    obj = {"n": g.n, "dimension": g.dimension,
           "edges": [[i, j] for i, j in g.edges]}
    return json.dumps(obj, sort_keys=True) + "\n"
