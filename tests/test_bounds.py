import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from ksray import (
    bounds_report, ceg18, cube13, cycle_graph, fractional_packing, from_edges,
    independence_number, kcbs5, maximal_cliques, ortho_graph,
    peres24, stream_rng, theta_certificate, three_cubes,
)
from ksray import bounds as bounds_mod
from ksray.bounds import InvalidInput, NumericalFailure
from ksray.cli import run

SQRT5 = math.sqrt(5.0)


def brute_alpha(g):
    """Oracle: all subsets."""
    best = 0
    for mask in range(1 << g.n):
        sub = [v for v in range(g.n) if mask >> v & 1]
        if len(sub) > best and not any(
                g.adjacency[a, b] for a, b in itertools.combinations(sub, 2)):
            best = len(sub)
    return best


# --- independence number ----------------------------------------------------

def test_alpha_c5():
    alpha, witness = independence_number(cycle_graph(5))
    assert alpha == 2 and len(witness) == 2


def test_alpha_k4():
    k4 = from_edges(4, itertools.combinations(range(4), 2), 4)
    alpha, _ = independence_number(k4)
    assert alpha == 1


def test_alpha_cube13_vs_bruteforce():
    g = ortho_graph(cube13())
    alpha, witness = independence_number(g)
    assert alpha == brute_alpha(g) == 5
    assert not any(g.adjacency[a, b]
                   for a, b in itertools.combinations(witness, 2))


@pytest.mark.parametrize("seed", range(5))
def test_alpha_random_graphs(seed):
    rng = stream_rng(909, seed)
    n = int(rng.integers(5, 13))
    adj = rng.random((n, n)) < 0.4
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i, j]]
    g = from_edges(n, edges, dimension=n)
    alpha, _ = independence_number(g)
    assert alpha == brute_alpha(g)


def first_fit_alpha(g):
    """Oracle: the same branch and bound with the coloring bound built
    vertex by vertex, each candidate in index order going to the first
    class that holds none of its neighbours in the complement."""
    full = (1 << g.n) - 1
    comp = [full & ~nbrs & ~(1 << v)
            for v, nbrs in enumerate(g._neighbor_masks)]
    best = [0, 0]

    def expand(current, size, cand):
        if cand == 0:
            if size > best[0]:
                best[:] = size, current
            return
        classes, color = [], {}
        for v in (u for u in range(g.n) if cand >> u & 1):
            for ci, cmask in enumerate(classes):
                if not cmask & comp[v]:
                    classes[ci] |= 1 << v
                    color[v] = ci + 1
                    break
            else:
                classes.append(1 << v)
                color[v] = len(classes)
        for v in sorted(color, key=lambda u: (-color[u], u)):
            if size + color[v] <= best[0]:
                return
            expand(current | 1 << v, size + 1, cand & comp[v])
            cand &= ~(1 << v)

    expand(0, 0, full)
    return best[0], tuple(v for v in range(g.n) if best[1] >> v & 1)


@pytest.mark.parametrize("k", range(200))
def test_alpha_and_witness_match_first_fit_coloring(k):
    # the class-at-a-time coloring gives the first-fit classes, so the
    # branch order, alpha and the witness are all unchanged
    rng = stream_rng(1931, k)
    n, p = int(rng.integers(2, 33)), float(rng.uniform(0.05, 0.7))
    adj = np.triu(rng.random((n, n)) < p, 1)
    g = from_edges(n, list(zip(*np.nonzero(adj))), dimension=3)
    assert independence_number(g) == first_fit_alpha(g)


@pytest.mark.parametrize("n,p,isolated", [
    (n, p, isolated) for n in (8, 24, 40, 64) for p in (0.15, 0.3, 0.5)
    for isolated in (0, 3)])
def test_alpha_against_networkx(n, p, isolated):
    nx = pytest.importorskip("networkx")
    adj = np.triu(stream_rng(1960, n).random((n, n)) < p, 1)
    adj[:isolated] = adj[:, :isolated] = False
    g = from_edges(n, list(zip(*np.nonzero(adj))), dimension=3)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.edges)
    alpha, witness = independence_number(g)
    assert alpha == len(witness)
    assert alpha == nx.max_weight_clique(nx.complement(h), weight=None)[1]


def test_empty_graph_has_no_theta_or_packing():
    g = from_edges(0, [], 3)
    assert independence_number(g) == (0, ())
    for bound in (theta_certificate, fractional_packing, bounds_report):
        with pytest.raises(ValueError, match="no vertices"):
            bound(g)


def test_alpha_guard():
    with pytest.raises(InvalidInput, match="exceeds the guard"):
        independence_number(from_edges(65, [], 3))


# --- Lovasz theta -----------------------------------------------------------

def test_theta_c5():
    assert abs(theta_certificate(cycle_graph(5)).value - SQRT5) < 1e-5


def test_theta_complete_graphs():
    for n in (2, 4, 6):
        kn = from_edges(n, itertools.combinations(range(n), 2), n)
        assert abs(theta_certificate(kn).value - 1.0) < 1e-5


def test_theta_edgeless():
    assert abs(theta_certificate(from_edges(5, [], 3)).value - 5.0) < 1e-5


def test_theta_certified_gap():
    cert = theta_certificate(cycle_graph(5))
    assert cert.gap <= 1e-6
    assert cert.lower <= SQRT5 <= cert.upper + 1e-12
    X = cert.primal_matrix
    assert abs(np.trace(X) - 1.0) < 1e-12
    w = np.linalg.eigvalsh(X)
    assert w[0] > -1e-14
    for i, j in cycle_graph(5).edges:
        assert abs(X[i, j]) == 0.0


def test_theta_disjoint_union_adds():
    g = from_edges(10, [(k, (k + 1) % 5) for k in range(5)]
                   + [(5 + k, 5 + (k + 1) % 5) for k in range(5)], dimension=3)
    assert abs(theta_certificate(g).value - 2 * SQRT5) < 1e-4


def _complement(g):
    return from_edges(g.n, [(i, j) for i, j in itertools.combinations(
        range(g.n), 2) if not g.adjacency[i, j]], dimension=3)


def _circulant(n, steps):
    return from_edges(n, {tuple(sorted((i, (i + s) % n)))
                          for i in range(n) for s in steps}, dimension=3)


def _petersen():
    return from_edges(10, [e for k in range(5) for e in (
        (k, (k + 1) % 5), (5 + k, 5 + (k + 2) % 5), (k, 5 + k))], dimension=3)


def _odd_cycle_theta(n):
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


ODD = (5, 7, 9, 11, 13)
THETA_CLOSED_FORMS = (
    [pytest.param([cycle_graph(n)], _odd_cycle_theta(n), id=f"C{n}")
     for n in ODD]
    + [pytest.param([_complement(cycle_graph(n))], n / _odd_cycle_theta(n),
                    id=f"C{n}-bar") for n in ODD]
    + [pytest.param([_petersen()], 4.0, id="petersen"),
       pytest.param([_complement(_petersen())], 2.5, id="petersen-bar")]
    # vertex-transitive: theta(G) theta(G-bar) = n
    + [pytest.param([g, _complement(g)], float(g.n), id=name)
       for name, g in (("C12(1,3)-pair", _circulant(12, (1, 3))),
                       ("C17(1,2,4,8)-pair", _circulant(17, (1, 2, 4, 8))))])


@pytest.mark.parametrize("graphs, value", THETA_CLOSED_FORMS)
def test_theta_closed_forms(graphs, value):
    """The product of the certified brackets contains the closed form."""
    certs = [theta_certificate(g) for g in graphs]
    assert all(c.gap <= 1e-6 for c in certs)
    lower = math.prod(c.lower for c in certs)
    upper = math.prod(c.upper for c in certs)
    assert lower - 1e-9 <= value <= upper + 1e-9


# G(n, p) upper triangles np.triu(default_rng(seed).random((n, n)) < p, 1),
# chosen where a log-det barrier solver stopping at a gap of eps/2 missed
# the 1e-6 target (seed 35 only under one BLAS thread)
@pytest.mark.parametrize("n, p, seed", [
    (32, 0.5, 55), (32, 0.5, 35), (64, 0.05, 6405),
    (24, 0.1, 24105), (32, 0.1, 32107), (32, 0.3, 32307), (40, 0.1, 40106),
    (40, 0.1, 40107), (40, 0.1, 40109), (48, 0.1, 48102), (48, 0.1, 48104),
    (48, 0.1, 48109), (48, 0.2, 48204),
])
def test_theta_certifies_random_graphs(n, p, seed):
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    g = from_edges(n, list(zip(*np.nonzero(upper))), dimension=3)
    cert = theta_certificate(g)
    assert cert.lower <= cert.upper and cert.gap <= 1e-6


def test_theta_monotone_under_edge_deletion():
    full = theta_certificate(cycle_graph(5)).value
    minus = theta_certificate(from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)],
                                         dimension=3)).value
    assert minus >= full - 1e-5
    assert abs(minus - 3.0) < 1e-5  # the path P5 is perfect, alpha = 3


def test_theta_no_decrease_exit():
    """On this degenerate G(32, 0.5) rounding stops <X, Z> from falling
    before it reaches the stop target, so the loop ends on its no-decrease
    rule with its last iterate.  alpha = alpha* = 7, so theta = 7; the
    certified gap's digits follow LAPACK's rounding and are not pinned."""
    upper = np.triu(np.random.default_rng([32, 5, 2, 77])
                    .random((32, 32)) < 0.5, 1)
    g = from_edges(32, list(zip(*np.nonzero(upper))), dimension=3)
    assert len(g.edges) == 251
    eps = bounds_mod.EPS
    cert = theta_certificate(g)
    assert cert.gap <= eps
    assert cert.lower <= 7 + eps and cert.upper >= 7 - eps
    report = bounds_report(g)
    assert report.alpha == 7 and abs(report.alpha_star - 7) <= 1e-9


# --- fractional packing -----------------------------------------------------

def test_packing_c5():
    value, weights = fractional_packing(cycle_graph(5))
    assert abs(value - 2.5) < 1e-9
    assert np.abs(weights - 0.5).max() < 1e-9


def test_packing_k4():
    k4 = from_edges(4, itertools.combinations(range(4), 2), 4)
    value, _ = fractional_packing(k4)
    assert abs(value - 1.0) < 1e-9


def test_packing_edgeless():
    value, _ = fractional_packing(from_edges(3, [], 3))
    assert abs(value - 3.0) < 1e-9


def test_packing_weights_feasible_on_catalogs():
    for rs in (cube13(), kcbs5(), ceg18()):
        g = ortho_graph(rs)
        _, weights = fractional_packing(g)
        assert weights.min() > -1e-12
        for clique in maximal_cliques(g):
            assert weights[list(clique)].sum() <= 1.0 + 1e-9


# the five catalogs and seeded G(n, 0.5) up to the 64-vertex guard
PACKING_CATALOGS = {"cube13": cube13, "peres24": peres24, "kcbs5": kcbs5,
                    "ceg18": ceg18, "three_cubes": lambda: three_cubes(0.0)}
PACKING_GRAPHS = [*PACKING_CATALOGS, *(f"G{n}-0.5" for n in range(16, 65, 8))]


@functools.cache
def _packing_case(name):
    """(clique rows, ksray's packing, HiGHS's value and clique cover)."""
    if name in PACKING_CATALOGS:
        g = ortho_graph(PACKING_CATALOGS[name]())
    else:
        n = int(name[1:3])
        upper = np.triu(stream_rng(2014, n).random((n, n)) < 0.5, 1)
        g = from_edges(n, list(zip(*np.nonzero(upper))), dimension=3)
    cliques = maximal_cliques(g)
    rows = np.zeros((len(cliques), g.n))
    for k, clique in enumerate(cliques):
        rows[k, list(clique)] = 1.0
    res = linprog(-np.ones(g.n), A_ub=rows, b_ub=np.ones(len(rows)),
                  bounds=(0, None), method="highs")
    assert res.success
    return rows, fractional_packing(g), -res.fun, -res.ineqlin.marginals


@pytest.mark.parametrize("name", PACKING_GRAPHS)
def test_packing_matches_highs(name):
    _, (value, _), highs, _ = _packing_case(name)
    assert abs(value - highs) <= 1e-9


@pytest.mark.parametrize("name", PACKING_GRAPHS)
def test_packing_gap_certified_by_highs_cover(name):
    """The returned packing is feasible, and HiGHS's clique cover, topped up
    to cover every vertex once, is within 1e-9 above its value."""
    rows, (value, weights), _, cover = _packing_case(name)
    assert weights.min() >= 0.0 and (rows @ weights).max() <= 1.0 + 1e-12
    assert value == weights.sum()
    cover = np.maximum(cover, 0.0)
    upper = cover.sum() + np.maximum(1.0 - rows.T @ cover, 0.0).sum()
    assert upper - value <= 1e-9


def test_packing_open_gap_is_numerical(monkeypatch):
    real = bounds_mod._on_tight_set
    monkeypatch.setattr(bounds_mod, "_on_tight_set",
                        lambda a, v: 0.9 * real(a, v))
    with pytest.raises(NumericalFailure, match="packing gap"):
        fractional_packing(cycle_graph(5))
    assert run(["bounds", "--set", "kcbs5"]) == 1


def test_theta_open_gap_is_numerical(monkeypatch, capsys):
    # no certified bracket is narrower than -1, so the gate must refuse it
    monkeypatch.setattr(bounds_mod, "EPS", -1.0)
    with pytest.raises(NumericalFailure, match="duality gap"):
        theta_certificate(cycle_graph(5))
    assert run(["bounds", "--set", "kcbs5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("numerical failure: duality gap")


# --- combined report --------------------------------------------------------

def test_bounds_report_c5():
    rep = bounds_report(cycle_graph(5))
    assert rep.alpha == 2
    assert abs(rep.theta - SQRT5) < 1e-5
    assert abs(rep.alpha_star - 2.5) < 1e-9


def test_bounds_report_k3():
    k3 = from_edges(3, itertools.combinations(range(3), 2), 3)
    rep = bounds_report(k3)
    assert rep.alpha == 1
    assert abs(rep.theta - 1.0) < 1e-5
    assert abs(rep.alpha_star - 1.0) < 1e-9


def test_bounds_report_sandwich_failure_is_numerical(monkeypatch):
    real = bounds_mod.theta_certificate

    def broken(g):
        cert = real(g)
        return dataclasses.replace(cert, lower=cert.lower + 1.0,
                                   upper=cert.upper + 1.0)

    monkeypatch.setattr(bounds_mod, "theta_certificate", broken)
    with pytest.raises(NumericalFailure, match="sandwich"):
        bounds_report(cycle_graph(5))
    assert run(["bounds", "--set", "kcbs5"]) == 1


def test_sandwich_on_catalog_graphs():
    for rs in (cube13(), kcbs5(), ceg18(), peres24(), three_cubes(0.0)):
        rep = bounds_report(ortho_graph(rs))
        assert rep.alpha <= rep.theta + 1e-5
        assert rep.theta <= rep.alpha_star + 2e-5


@pytest.mark.parametrize("make", [
    cube13,
    lambda: ortho_graph(cube13()), lambda: cycle_graph(5),
    lambda: theta_certificate(cycle_graph(5)),
    lambda: bounds_report(cycle_graph(5)),
])
def test_array_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False
    assert len({a, a, b}) == 2
