"""Classical, quantum, and conspiratorial bounds of a contextuality graph.

classical  = independence number, exact branch and bound
quantum    = Lovasz theta, primal-dual path following with an
             a-posteriori certified duality gap
conspiratorial = fractional packing number, primal-dual LP over maximal
                 cliques with a certified gap
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ortho import OrthoGraph, _bits, maximal_cliques
from .rays import InvalidInput, NumericalFailure, _check_int

SIZE_GUARD = 64
MAX_ITERATIONS = 100
EPS = 1e-6  # largest certified theta gap; the sandwich check's slack


def _check_size(g: OrthoGraph) -> None:
    _check_int(g.n, f"{g.n} vertices", high=SIZE_GUARD)
    if g.n == 0:
        raise InvalidInput("the graph has no vertices")


# ---------------------------------------------------------------------------
# independence number


def independence_number(g: OrthoGraph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set with a verified witness.

    Branch and bound on the complement (max clique there), pruned by a
    greedy coloring bound; vertices are bitmasks so set algebra is cheap.
    """
    _check_int(g.n, f"{g.n} vertices", high=SIZE_GUARD)
    full = (1 << g.n) - 1
    comp = [full & ~nbrs & ~(1 << v)
            for v, nbrs in enumerate(g._neighbor_masks)]
    best_size = 0
    best_mask = 0

    def expand(current: int, size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if cand == 0:
            if size > best_size:
                best_size, best_mask = size, current
            return
        # greedy coloring of the candidates, one class at a time: the lowest
        # uncoloured candidate, then the next one outside its neighbourhood
        # in comp, and so on; a vertex of class k bounds the clique by k
        classes: list[int] = []
        rest = cand
        while rest:
            cls, free = 0, rest
            while free:
                low = free & -free
                cls |= low
                free = (free ^ low) & ~comp[low.bit_length() - 1]
            classes.append(cls)
            rest ^= cls
        for k in range(len(classes), 0, -1):
            for v in _bits(classes[k - 1]):
                if size + k <= best_size:
                    return
                expand(current | (1 << v), size + 1, cand & comp[v])
                cand &= ~(1 << v)

    expand(0, 0, full)
    witness = tuple(_bits(best_mask))
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


def theta_certificate(g: OrthoGraph) -> ThetaCertificate:
    """Solve max <J,X> s.t. tr X = 1, X zero on edges, X PSD.

    Feasible primal-dual path following on the pair (X, Z), where the dual
    is min t with Z = t I + sum_e y_e E_e - J PSD: HKM search direction with
    a Mehrotra predictor-corrector, started from the strictly feasible
    X = I/n, Z = (n+1) I - J.  Every iterate stays feasible, so <X, Z> is
    the duality gap; the loop stops once it is below 1e-3 EPS or rounding
    stops it from falling.  The returned bracket is certified independently
    of the path taken: any dual point gives the upper bound, and the
    repaired X gives the lower bound.  A bracket wider than EPS raises
    NumericalFailure.
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

    def max_step(chol_inv: np.ndarray, d: np.ndarray) -> float:
        """Largest alpha keeping L L^T + alpha d PSD (inf if unbounded),
        given L^-1."""
        s = chol_inv @ d @ chol_inv.T
        lam = float(np.linalg.eigvalsh(0.5 * (s + s.T))[0])
        return -1.0 / lam if lam < 0.0 else np.inf

    x = np.eye(n) / n
    v = np.zeros(1 + m)
    v[0] = n + 1.0
    z = adjoint(v) - ones
    gap_xz = float(np.sum(x * z))
    for _ in range(MAX_ITERATIONS):
        if gap_xz < 1e-3 * EPS:
            break
        mu = gap_xz / n
        try:
            lxi = np.linalg.inv(np.linalg.cholesky(x))
            lzi = np.linalg.inv(np.linalg.cholesky(z))
        except np.linalg.LinAlgError:
            break
        zi = lzi.T @ lzi
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

        def step(target: np.ndarray):
            """HKM direction for dX Z + X dZ = target Z - X Z, and the step
            length: 0.98 of the largest keeping X and Z PSD, at most 1."""
            dv = np.linalg.solve(schur, op(target) - b)
            dz = adjoint(dv)
            dx = target - x - x @ dz @ zi
            dx = 0.5 * (dx + dx.T)
            # project out the solve's rounding so that X stays exactly
            # feasible: zero on edges, trace one
            dx[ridx, cidx] = dx[cidx, ridx] = 0.0
            dx -= np.trace(dx) / n * np.eye(n)
            alpha = min(1.0, 0.98 * max_step(lxi, dx),
                        0.98 * max_step(lzi, dz))
            return dx, dv, dz, alpha

        # M is singular to working precision near the optimum of degenerate
        # graphs; an exactly zero pivot ends the loop at the last iterate
        try:
            dx, dv, dz, alpha = step(np.zeros((n, n)))
            mu_aff = float(np.sum((x + alpha * dx) * (z + alpha * dz))) / n
            sigma = min(1.0, (mu_aff / mu) ** 3)
            dx, dv, dz, alpha = step((sigma * mu * np.eye(n) - dx @ dz) @ zi)
        except np.linalg.LinAlgError:
            break
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
    upper = float(np.linalg.eigvalsh(ones - adjoint(np.r_[0.0, y]))[-1])
    gap = upper - lower
    if gap > EPS:
        raise NumericalFailure(
            f"duality gap {gap:.3e} above target {EPS:.1e}", gap)
    return ThetaCertificate(value=0.5 * (lower + upper), lower=lower,
                            upper=upper, gap=gap, primal_matrix=x,
                            edge_duals=y)


# ---------------------------------------------------------------------------
# fractional packing


PACKING_GAP = 1e-9


def _step_to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha keeping v + alpha dv >= 0 (inf if unbounded)."""
    neg = dv < 0
    return float((-v[neg] / dv[neg]).min()) if neg.any() else np.inf


def _packing_path(rows: np.ndarray):
    """Feasible primal-dual path following on max 1x, rows x <= 1, x >= 0
    and its dual min 1y, rows^T y >= 1, y >= 0 (a fractional clique cover).

    x and y are the iterates; the slacks s = 1 - rows x and z = rows^T y - 1
    are recomputed from them, so every iterate is exactly feasible and
    1y - 1x = sy + xz is the duality gap.  Mehrotra predictor-corrector on
    the n x n normal equations, with separate primal and dual step lengths,
    so the gap need not fall at every step.  Stops once the gap is below
    1e-8 or has not set a new low for three steps (rounding has taken
    over), and returns the iterate (x, y, s, z) with the lowest gap.
    """
    m, n = rows.shape
    x = np.full(n, 0.5 / rows.sum(axis=1).max())
    y = (rows * (2.0 / rows.sum(axis=0))).max(axis=1)
    s, z = 1.0 - rows @ x, rows.T @ y - 1.0
    gap = y.sum() - x.sum()
    best, stale = (gap, x, y, s, z), 0
    for _ in range(MAX_ITERATIONS):
        if best[0] < 1e-8 or stale == 3:
            break
        mu = gap / (n + m)
        normal = (rows.T * (y / s)) @ rows
        normal[np.diag_indices(n)] += z / x

        def step(r_sy: np.ndarray, r_xz: np.ndarray, frac: float):
            """Direction for s dy + y ds = r_sy, x dz + z dx = r_xz, and the
            primal and dual step lengths: frac of the largest keeping x, s
            and y, z nonnegative, at most 1."""
            dx = np.linalg.solve(normal, r_xz / x - rows.T @ (r_sy / s))
            ds = -(rows @ dx)
            dy = (r_sy - y * ds) / s
            dz = rows.T @ dy
            ap = min(1.0, frac * _step_to_boundary(x, dx),
                     frac * _step_to_boundary(s, ds))
            ad = min(1.0, frac * _step_to_boundary(y, dy),
                     frac * _step_to_boundary(z, dz))
            return dx, ds, dy, dz, ap, ad

        # a normal matrix singular to working precision (a primal optimal
        # face of positive dimension) ends the loop
        try:
            dx, ds, dy, dz, ap, ad = step(-s * y, -x * z, 1.0)
            mu_aff = ((s + ap * ds) @ (y + ad * dy)
                      + (x + ap * dx) @ (z + ad * dz)) / (n + m)
            sigma = (mu_aff / mu) ** 3
            dx, ds, dy, dz, ap, ad = step(sigma * mu - s * y - ds * dy,
                                          sigma * mu - x * z - dx * dz, 0.99)
        except np.linalg.LinAlgError:
            break
        x_new, y_new = x + ap * dx, y + ad * dy
        s_new, z_new = 1.0 - rows @ x_new, rows.T @ y_new - 1.0
        if not (s_new.min() > 0.0 and z_new.min() > 0.0):
            break
        x, y, s, z = x_new, y_new, s_new, z_new
        gap = y.sum() - x.sum()
        stale += 1
        if gap < best[0]:
            best, stale = (gap, x, y, s, z), 0
    return best[1:]


def _on_tight_set(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The point of {w : a w = 1} nearest v; the solution itself when a is
    square and nonsingular, so a unique optimum comes out as a vertex."""
    ones = np.ones(len(a))
    shift, _, rank, _ = np.linalg.lstsq(a, ones - a @ v, rcond=None)
    if rank == len(a) == len(v):
        return np.linalg.solve(a, ones)
    return v + shift


def fractional_packing(g: OrthoGraph) -> tuple[float, np.ndarray]:
    """max sum x, x >= 0, sum over each maximal clique <= 1.

    Maximal cliques dominate all clique constraints, so the LP is the full
    fractional packing program with fewer rows.  The interior-point iterate
    (`_packing_path`) splits the vertices and cliques into the optimal
    partition (x > z, y > s); the packing and the clique cover are then put
    on the equality sets that partition makes tight.  The value is
    certified: the packing, clipped at zero and scaled by 1/max row sum, is
    feasible and gives the lower bound; the cover, clipped at zero with any
    vertex covered less than once topped up on one of its cliques, gives
    the upper bound.  A gap above 1e-9 raises NumericalFailure.
    """
    _check_size(g)
    cliques = maximal_cliques(g)
    rows = np.zeros((len(cliques), g.n))
    for k, clique in enumerate(cliques):
        rows[k, list(clique)] = 1.0
    x, y, s, z = _packing_path(rows)
    support, tight = x > z, y > s
    a = rows[np.ix_(tight, support)]
    weights, cover = np.zeros(g.n), np.zeros(len(rows))
    weights[support] = np.maximum(_on_tight_set(a, x[support]), 0.0)
    cover[tight] = np.maximum(_on_tight_set(a.T, y[tight]), 0.0)
    weights /= max(1.0, float((rows @ weights).max()))
    lower = float(weights.sum())
    upper = float(cover.sum() + np.maximum(1.0 - rows.T @ cover, 0.0).sum())
    if not upper - lower <= PACKING_GAP:
        raise NumericalFailure(
            f"packing gap {upper - lower:.3e} above target {PACKING_GAP:.1e}",
            upper - lower)
    return lower, weights


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


def bounds_report(g: OrthoGraph) -> BoundsReport:
    """All three bounds, with the sandwich inequality asserted to EPS."""
    alpha, witness = independence_number(g)
    cert = theta_certificate(g)
    alpha_star, weights = fractional_packing(g)
    if not (alpha <= cert.upper + EPS and cert.lower <= alpha_star + EPS):
        raise NumericalFailure(
            f"sandwich violated: alpha={alpha}, theta in "
            f"[{cert.lower}, {cert.upper}], alpha*={alpha_star}", cert.gap)
    return BoundsReport(alpha=alpha, theta=cert.value, alpha_star=alpha_star,
                        independent_set=witness, theta_gap=cert.gap,
                        theta_matrix=cert.primal_matrix,
                        packing_weights=weights)
