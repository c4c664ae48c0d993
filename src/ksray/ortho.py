"""Orthogonality graphs: construction, clique enumeration, numeric realization."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .rays import REAL, InvariantViolation, RaySet, build_rayset
from .rng import gaussian_rows, stream_rng


class TooLarge(ValueError):
    """Vertex count above the size guard of an exhaustive method."""


class NumericalFailure(RuntimeError):
    """A numerical result failed its check; the gap, residual or violation
    (or nan) attached."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


class NonConvergence(NumericalFailure):
    """Realization did not reach the residual target; best residual attached."""

    def __init__(self, message: str, residual: float):
        super().__init__(message, residual)
        self.residual = residual


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
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise ValueError("adjacency shape mismatch")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a)):
            raise ValueError("adjacency diagonal must be false")

    @property
    def edges(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(i.tolist(), j.tolist()))

    def degree(self, v: int) -> int:
        return int(self.adjacency[v].sum())


def ortho_graph(rs: RaySet, tol: float = 1e-9) -> OrthoGraph:
    """Graph with an edge wherever |<r_i, r_j>| < tol."""
    if len(rs) == 0:
        raise ValueError("empty ray set")
    M = rs.matrix
    adj = np.abs(M.conj() @ M.T) < tol
    np.fill_diagonal(adj, False)
    adj.setflags(write=False)
    return OrthoGraph(n=len(rs), adjacency=adj, dimension=rs.dimension,
                      vertex_labels=rs.labels)


def from_edges(n: int, edges, dimension: int, labels=None) -> OrthoGraph:
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(
                f"edge ({i}, {j}) has an endpoint outside range({n})")
        if i == j:
            raise ValueError("self loop")
        adj[i, j] = adj[j, i] = True
    adj.setflags(write=False)
    if labels is None:
        labels = tuple(f"v{k}" for k in range(n))
    return OrthoGraph(n=n, adjacency=adj, dimension=dimension,
                      vertex_labels=tuple(labels))


def cycle_graph(n: int, dimension: int = 3) -> OrthoGraph:
    return from_edges(n, [(k, (k + 1) % n) for k in range(n)], dimension)


def complete_graph(n: int, dimension: int) -> OrthoGraph:
    return from_edges(n, itertools.combinations(range(n), 2), dimension)


def empty_graph(n: int, dimension: int) -> OrthoGraph:
    return from_edges(n, [], dimension)


# ---------------------------------------------------------------------------
# cliques and bases


def maximal_cliques(g: OrthoGraph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, each once, in lexicographic order.

    Bron-Kerbosch with pivoting on the candidate/excluded sets; the pivot is
    the vertex covering the most candidates, lowest index on ties, so the
    recursion itself is deterministic even before the final sort.
    """
    nbrs = [frozenset(np.flatnonzero(g.adjacency[v]).tolist())
            for v in range(g.n)]
    out: list[tuple[int, ...]] = []

    def extend(clique: list[int], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            out.append(tuple(sorted(clique)))
            return
        pivot = max(sorted(cand | excl), key=lambda u: len(cand & nbrs[u]))
        for v in sorted(cand - nbrs[pivot]):
            extend(clique + [v], cand & nbrs[v], excl & nbrs[v])
            cand.remove(v)
            excl.add(v)

    extend([], set(range(g.n)), set())
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


def realize(g: OrthoGraph, d: int, seed: int, max_sweeps: int = 200,
            restarts: int = 8, field: str = REAL,
            strict: bool = False) -> RaySet:
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
    point), or after max_sweeps steps.

    Success means r.r, which sums the squared edge overlaps and norm
    defects, falls below 1e-10 (in practice it reaches ~1e-28, so the
    realized graph contains every requested edge at the 1e-9 orthogonality
    tolerance).  Non-edges are unconstrained unless strict is set, which
    nudges non-edges with overlap below 1e-3 apart and solves again.
    Failure raises NonConvergence with the best residual seen; it is a
    heuristic failure, not a proof of non-realizability.

    In the real field about one start in five stalls with some vectors
    shrunk towards zero, and more steps do not rescue it, so restart k
    starts afresh from the substream stream_rng(seed, k); the first success
    by restart index wins.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    n = g.n
    i, j = np.nonzero(np.triu(g.adjacency, 1))
    apart = ~g.adjacency & ~np.eye(n, dtype=bool)
    complex_ = field != REAL
    e = np.arange(len(i))
    # every residual is a quadratic form plus a constant, so by Euler's
    # theorem r = (J x - offset) / 2, with offset 1 on the vertex rows
    offset = np.repeat([0.0, 1.0], [(2 if complex_ else 1) * len(i), n])
    best_res = np.inf

    def vectors(X: np.ndarray) -> np.ndarray:
        return X[:, :d] + 1j * X[:, d:] if complex_ else X

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
        for _ in range(max_sweeps):
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

    for attempt in range(restarts):
        V = gaussian_rows(stream_rng(seed, attempt), n, d, field)
        X, res = solve(np.hstack([V.real, V.imag]) if complex_ else V)
        for _ in range(20 if strict else 0):
            V = vectors(X)
            close = (np.abs(V.conj() @ V.T) < 1e-3) & apart
            if res >= 1e-10 or not close.any():
                break
            X, res = solve(X + 5e-3 * close @ X)
        best_res = min(best_res, res)
        if res < 1e-10:
            try:
                return build_rayset(vectors(X), field, g.vertex_labels)
            except InvariantViolation:
                continue  # coincident rays cannot populate a RaySet
    raise NonConvergence(
        f"no realization in d={d} after {restarts} restart(s) of "
        f"{max_sweeps} steps (best residual {best_res:.3e})", best_res)


# ---------------------------------------------------------------------------
# unbiased basis partition (Peres set structure)


def unbiased_basis_triples(rs: RaySet, tol: float = 1e-12):
    """Partition a ray set into bases that group into two unbiased triples.

    Searches the exact covers of the vertex set by complete bases and returns
    the first cover splitting into two triples in which every inter-basis
    overlap satisfies |<e,f>|^2 = 1/d within tol.  Returns (bases, triple_a,
    triple_b) with triples as index tuples into bases, or None when no cover
    works.
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
        return bool(np.all(np.abs(ov - target) < tol))

    result = None

    def cover(used: set[int], chosen: list[tuple[int, ...]]):
        nonlocal result
        if result is not None:
            return
        if len(used) == n:
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
        lo = min(v for v in range(n) if v not in used)
        for b in bases:
            if lo in b and not (set(b) & used):
                chosen.append(b)
                cover(used | set(b), chosen)
                chosen.pop()
                if result is not None:
                    return

    cover(set(), [])
    return result


# ---------------------------------------------------------------------------
# graph exchange format


def graph_to_json(g: OrthoGraph) -> str:
    obj = {"n": g.n, "dimension": g.dimension,
           "edges": [[i, j] for i, j in g.edges]}
    return json.dumps(obj, sort_keys=True) + "\n"


def graph_from_json(text: str) -> OrthoGraph:
    obj = json.loads(text)
    return from_edges(obj["n"], obj["edges"], obj["dimension"])
