"""Classical, quantum, and conspiratorial bounds of a contextuality graph.

classical  = independence number, exact branch and bound
quantum    = Lovasz theta, primal-dual path following with an
             a-posteriori certified duality gap
conspiratorial = fractional packing number, LP over maximal cliques
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import (LinAlgWarning, cho_solve, lu_factor, lu_solve,
                          solve_triangular)
from scipy.optimize import linprog

from .ortho import NumericalFailure, OrthoGraph, TooLarge, maximal_cliques

SIZE_GUARD = 64
MAX_ITERATIONS = 100


def _check_size(g: OrthoGraph) -> None:
    if g.n > SIZE_GUARD:
        raise TooLarge(f"{g.n} vertices exceeds the guard of {SIZE_GUARD}")


# ---------------------------------------------------------------------------
# independence number


def independence_number(g: OrthoGraph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set with a verified witness.

    Branch and bound on the complement (max clique there), pruned by a
    greedy coloring bound; vertices are bitmasks so set algebra is cheap.
    """
    _check_size(g)
    n = g.n
    comp = []
    for v in range(n):
        mask = 0
        for u in range(n):
            if u != v and not g.adjacency[v, u]:
                mask |= 1 << u
        comp.append(mask)

    best_size = 0
    best_mask = 0

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def expand(current: int, size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if cand == 0:
            if size > best_size:
                best_size, best_mask = size, current
            return
        # greedy coloring of the candidates; color index bounds the clique
        classes: list[int] = []
        color: dict[int, int] = {}
        for v in bits(cand):
            for ci, cmask in enumerate(classes):
                if not (cmask & comp[v]):
                    classes[ci] |= 1 << v
                    color[v] = ci + 1
                    break
            else:
                classes.append(1 << v)
                color[v] = len(classes)
        for v in sorted(color, key=lambda u: (-color[u], u)):
            if size + color[v] <= best_size:
                return
            expand(current | (1 << v), size + 1, cand & comp[v])
            cand &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    witness = tuple(sorted(bits(best_mask)))
    for a, b in itertools.combinations(witness, 2):
        if g.adjacency[a, b]:
            raise NumericalFailure("witness not independent", np.nan)
    return best_size, witness


# ---------------------------------------------------------------------------
# Lovasz theta


@dataclass(frozen=True, eq=False)
class ThetaCertificate:
    """Certified bracket around theta.

    lower is <J, X> for an exactly feasible primal X (trace one, zeros on
    edges, PSD); upper is the largest eigenvalue of the dual matrix J with
    the edge duals subtracted.  value is the bracket midpoint.  Certificates
    compare and hash by identity; compare values with np.array_equal on
    primal_matrix and edge_duals.
    """

    value: float
    lower: float
    upper: float
    gap: float
    primal_matrix: np.ndarray
    edge_duals: np.ndarray


def theta_certificate(g: OrthoGraph, eps: float = 1e-6) -> ThetaCertificate:
    """Solve max <J,X> s.t. tr X = 1, X zero on edges, X PSD.

    Feasible primal-dual path following on the pair (X, Z), where the dual
    is min t with Z = t I + sum_e y_e E_e - J PSD: HKM search direction with
    a Mehrotra predictor-corrector, started from the strictly feasible
    X = I/n, Z = (n+1) I - J.  Every iterate stays feasible, so <X, Z> is
    the duality gap; the loop stops once it is below 1e-3 eps or rounding
    stops it from falling.  The returned bracket is certified independently
    of the path taken: any dual point gives the upper bound, and the
    repaired X gives the lower bound.
    """
    _check_size(g)
    n = g.n
    ridx, cidx = np.nonzero(np.triu(g.adjacency, 1))
    m = len(ridx)
    ones = np.ones((n, n))
    # constraints A_0 = I (right side 1) and A_e = E_e (right side 0)
    b = np.zeros(1 + m)
    b[0] = 1.0

    def op(w: np.ndarray) -> np.ndarray:
        """(<A_k, W>)_k."""
        return np.concatenate([[np.trace(w)], w[ridx, cidx] + w[cidx, ridx]])

    def adjoint(v: np.ndarray) -> np.ndarray:
        """sum_k v_k A_k."""
        w = v[0] * np.eye(n)
        w[ridx, cidx] += v[1:]
        w[cidx, ridx] += v[1:]
        return w

    def max_step(chol: np.ndarray, d: np.ndarray) -> float:
        """Largest alpha keeping L L^T + alpha d PSD (inf if unbounded)."""
        s = solve_triangular(chol, d, lower=True)
        s = solve_triangular(chol, s.T, lower=True)
        lam = float(np.linalg.eigvalsh(0.5 * (s + s.T))[0])
        return -1.0 / lam if lam < 0.0 else np.inf

    x = np.eye(n) / n
    v = np.zeros(1 + m)
    v[0] = n + 1.0
    z = adjoint(v) - ones
    gap_xz = float(np.sum(x * z))
    for _ in range(MAX_ITERATIONS):
        if gap_xz < 1e-3 * eps:
            break
        mu = gap_xz / n
        try:
            lx = np.linalg.cholesky(x)
            lz = np.linalg.cholesky(z)
        except np.linalg.LinAlgError:
            break
        zi = cho_solve((lz, True), np.eye(n))
        xz = x @ zi
        schur = np.empty((1 + m, 1 + m))
        schur[0, :] = schur[:, 0] = op(xz)
        # M_ef = <E_e, X E_f Z^-1> for e = (a, b), f = (c, d) is
        # X_bc Zi_ad + X_bd Zi_ac + X_ac Zi_bd + X_ad Zi_bc; the first and
        # last terms are transposes of each other
        xr, xc = x.take(ridx, axis=0), x.take(cidx, axis=0)
        zr, zc = zi.take(ridx, axis=0), zi.take(cidx, axis=0)
        block = schur[1:, 1:]
        np.multiply(xc.take(ridx, axis=1), zc.take(ridx, axis=1).T, out=block)
        block += block.T.copy()
        block += xc.take(cidx, axis=1) * zr.take(ridx, axis=1)
        block += xr.take(ridx, axis=1) * zc.take(cidx, axis=1)
        # M is singular to working precision near the optimum of degenerate
        # graphs; an exactly zero pivot ends the loop at the last iterate
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            try:
                lu = lu_factor(schur, check_finite=False)
            except LinAlgWarning:
                break

        def step(target: np.ndarray):
            """HKM direction for dX Z + X dZ = target Z - X Z, and the step
            length: 0.98 of the largest keeping X and Z PSD, at most 1."""
            dv = lu_solve(lu, op(target) - b, check_finite=False)
            dz = adjoint(dv)
            dx = target - x - x @ dz @ zi
            dx = 0.5 * (dx + dx.T)
            # project out the solve's rounding so that X stays exactly
            # feasible: zero on edges, trace one
            dx[ridx, cidx] = dx[cidx, ridx] = 0.0
            dx -= np.trace(dx) / n * np.eye(n)
            alpha = min(1.0, 0.98 * max_step(lx, dx), 0.98 * max_step(lz, dz))
            return dx, dv, dz, alpha

        dx, dv, dz, alpha = step(np.zeros((n, n)))
        mu_aff = float(np.sum((x + alpha * dx) * (z + alpha * dz))) / n
        sigma = min(1.0, (mu_aff / mu) ** 3)
        dx, dv, dz, alpha = step((sigma * mu * np.eye(n) - dx @ dz) @ zi)
        x_new = x + alpha * dx
        v_new = v + alpha * dv
        z_new = adjoint(v_new) - ones
        # with equal step lengths <X, Z> falls in exact arithmetic; when it
        # does not, rounding has taken over and the last iterate is kept
        gap_new = float(np.sum(x_new * z_new))
        if not gap_new < gap_xz:
            break
        x, v, z, gap_xz = x_new, v_new, z_new, gap_new
    y = v[1:]

    # certified bracket
    x = 0.5 * (x + x.T)
    x[ridx, cidx] = 0.0
    x[cidx, ridx] = 0.0
    lam_min = float(np.linalg.eigvalsh(x)[0])
    if lam_min < 0.0:
        x = x + (-lam_min + 1e-15) * np.eye(n)
    x /= np.trace(x)
    lower = float(x.sum())
    dual = ones.copy()
    dual[ridx, cidx] -= y
    dual[cidx, ridx] -= y
    upper = float(np.linalg.eigvalsh(dual)[-1])
    gap = upper - lower
    if gap > eps:
        raise NumericalFailure(
            f"duality gap {gap:.3e} above target {eps:.1e}", gap)
    return ThetaCertificate(value=0.5 * (lower + upper), lower=lower,
                            upper=upper, gap=gap, primal_matrix=x,
                            edge_duals=y)


def lovasz_theta(g: OrthoGraph, eps: float = 1e-6) -> float:
    return theta_certificate(g, eps).value


# ---------------------------------------------------------------------------
# fractional packing


def fractional_packing(g: OrthoGraph) -> tuple[float, np.ndarray]:
    """max sum x, x >= 0, sum over each maximal clique <= 1.

    Maximal cliques dominate all clique constraints, so the LP is the full
    fractional packing program with fewer rows.
    """
    _check_size(g)
    cliques = maximal_cliques(g)
    rows = np.zeros((len(cliques), g.n))
    for k, clique in enumerate(cliques):
        rows[k, list(clique)] = 1.0
    res = linprog(c=-np.ones(g.n), A_ub=rows, b_ub=np.ones(len(cliques)),
                  bounds=[(0, None)] * g.n, method="highs")
    if not res.success:
        raise NumericalFailure(f"LP failed: {res.message}", np.nan)
    weights = np.asarray(res.x)
    slack = rows @ weights - 1.0
    if slack.max() > 1e-9:
        raise NumericalFailure(
            f"LP weights violate a clique constraint by {slack.max():.3e}",
            float(slack.max()))
    return float(weights.sum()), weights


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """alpha, theta and alpha* of one graph, with their witnesses.

    Reports compare and hash by identity; compare values with np.array_equal
    on theta_matrix and packing_weights.
    """

    alpha: int
    theta: float
    alpha_star: float
    independent_set: tuple[int, ...]
    theta_gap: float
    theta_matrix: np.ndarray
    packing_weights: np.ndarray


def bounds_report(g: OrthoGraph, eps: float = 1e-6) -> BoundsReport:
    """All three bounds, with the sandwich inequality asserted."""
    alpha, witness = independence_number(g)
    cert = theta_certificate(g, eps)
    alpha_star, weights = fractional_packing(g)
    if not (alpha <= cert.upper + eps and cert.lower <= alpha_star + eps):
        raise NumericalFailure(
            f"sandwich violated: alpha={alpha}, theta in "
            f"[{cert.lower}, {cert.upper}], alpha*={alpha_star}", cert.gap)
    return BoundsReport(alpha=alpha, theta=cert.value, alpha_star=alpha_star,
                        independent_set=witness, theta_gap=cert.gap,
                        theta_matrix=cert.primal_matrix,
                        packing_weights=weights)
