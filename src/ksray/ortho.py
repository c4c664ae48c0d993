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


class NonConvergence(RuntimeError):
    """Realization did not reach the residual target; best residual attached."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class OrthoGraph:
    """Simple undirected graph on rays, with the ambient Hilbert dimension.

    adjacency is a symmetric boolean matrix with a false diagonal; an edge
    means the two rays are orthogonal.
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


def realize(g: OrthoGraph, d: int, seed: int, max_sweeps: int = 10_000,
            restarts: int = 1, field: str = REAL,
            strict: bool = False) -> RaySet:
    """Find unit vectors in dimension d realizing the edges of g as orthogonalities.

    From a seeded random start the orthogonality residual is driven down in
    two phases.  First, alternating projections on the Gram matrix (unit
    diagonal and zero edge entries against the rank-d PSD cone) find the
    global shape; this handles rigid graphs whose realization is unique up
    to rotation, where purely local vertex updates stall.  Second, cyclic
    per-vertex projection onto the orthogonal complement of the neighbors'
    span polishes the factorization to machine precision.

    Success means the summed squared edge overlaps fall below 1e-10 (in
    practice they reach ~1e-30, so the realized graph contains every
    requested edge at the 1e-9 orthogonality tolerance).  Non-edges are
    unconstrained unless strict is set, which nudges nearly orthogonal
    non-edges apart.  Failure raises NonConvergence with the best residual
    seen; it is a heuristic failure, not a proof of non-realizability.

    Restarts use seed offsets as independent substreams; the first success
    by restart index wins.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    edges = g.edges
    adj = g.adjacency
    nbrs = [np.flatnonzero(adj[v]) for v in range(g.n)]
    non_nbrs = [np.array([u for u in range(g.n)
                          if u != v and not adj[v, u]], dtype=int)
                for v in range(g.n)]
    best_res = np.inf

    def residual(V: np.ndarray) -> float:
        return float(sum(abs(np.vdot(V[i], V[j])) ** 2 for i, j in edges))

    def polish(V: np.ndarray, rng, sweeps: int) -> None:
        # the span must be taken rank-revealingly: with d or more
        # neighbors a plain QR would return all of C^d and kill the vector
        for _ in range(sweeps):
            for v in range(g.n):
                if len(nbrs[v]) == 0:
                    continue
                u, s, _ = np.linalg.svd(V[nbrs[v]].T, full_matrices=False)
                q = u[:, s > 1e-6 * max(1.0, float(s[0]))]
                w = V[v] - q @ (q.conj().T @ V[v])
                norm = np.linalg.norm(w)
                if norm < 1e-8:
                    w = gaussian_rows(rng, 1, d, field)[0]
                    norm = np.linalg.norm(w)
                V[v] = w / norm
            if residual(V) < 1e-26:
                return

    for attempt in range(restarts):
        rng = stream_rng(seed, attempt)
        V = gaussian_rows(rng, g.n, d, field)
        gram = V @ V.conj().T
        converged = False
        for _ in range(max_sweeps):
            np.fill_diagonal(gram, 1.0)
            gram[adj] = 0.0
            gram = 0.5 * (gram + gram.conj().T)
            w, U = np.linalg.eigh(gram)
            top = np.argsort(w)[-d:]
            gram = (U[:, top] * np.clip(w[top], 0.0, None)) @ U[:, top].conj().T
            drift = max(float(np.abs(np.diag(gram).real - 1.0).max()),
                        float(np.abs(gram[adj]).max()) if edges else 0.0)
            if drift < 1e-9:
                converged = True
                break
        w, U = np.linalg.eigh(0.5 * (gram + gram.conj().T))
        top = np.argsort(w)[-d:]
        V = U[:, top] * np.sqrt(np.clip(w[top], 0.0, None))
        norms = np.linalg.norm(V, axis=1)
        degenerate = norms < 1e-6
        if np.any(degenerate):
            V[degenerate] = gaussian_rows(rng, int(degenerate.sum()), d,
                                           field)
            norms = np.linalg.norm(V, axis=1)
        V /= norms[:, None]
        if converged:
            polish(V, rng, 50)
        if strict:
            for _ in range(20):
                nudged = False
                for v in range(g.n):
                    if len(non_nbrs[v]) == 0:
                        continue
                    close = np.abs(V[non_nbrs[v]].conj() @ V[v]) < 1e-3
                    for u in non_nbrs[v][close]:
                        V[v] = V[v] + 5e-3 * V[u]
                        nudged = True
                    if nudged:
                        V[v] /= np.linalg.norm(V[v])
                if not nudged:
                    break
                polish(V, rng, 20)
        res = residual(V)
        best_res = min(best_res, res)
        if res < 1e-10:
            try:
                return build_rayset(V.real if field == REAL else V, field,
                                    g.vertex_labels)
            except InvariantViolation:
                continue  # coincident rays cannot populate a RaySet
    raise NonConvergence(
        f"no realization in d={d} after {restarts} restart(s) of "
        f"{max_sweeps} sweeps (best residual {best_res:.3e})", best_res)


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
