import collections
import functools
import itertools
import json
import re

import numpy as np
import pytest

from ksray import (
    CATALOGS, InvalidInput, NumericalFailure, OrthoGraph, RaySet, ceg18,
    complete_bases, cube13, cycle_graph,
    from_edges, graph_to_json, kcbs5, maximal_cliques, ortho_graph, peres24,
    realize, sample_rays, stream_rng, three_cubes, build_rayset, ks_solve,
)
from ksray import ortho
from ksray.cli import run
from ksray.rng import gaussian_rows


def brute_maximal_cliques(g):
    """Oracle: test every subset for clique-ness and maximality."""
    n = g.n
    cliques = []
    for r in range(1, n + 1):
        for sub in itertools.combinations(range(n), r):
            if all(g.adjacency[a, b] for a, b in itertools.combinations(sub, 2)):
                cliques.append(set(sub))
    return sorted(tuple(sorted(c)) for c in cliques
                  if not any(c < d for d in cliques))


def test_ortho_graph_cube13():
    g = ortho_graph(cube13())
    assert g.n == 13 and len(g.edges) == 24 and g.dimension == 3


def test_ortho_graph_standard_basis_triangle():
    rs = build_rayset([(1, 0, 0), (0, 1, 0), (0, 0, 1)], "real")
    g = ortho_graph(rs)
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]


def test_ortho_graph_kcbs_is_c5():
    g = ortho_graph(kcbs5())
    assert sorted(g.edges) == sorted(cycle_graph(5).edges)


def test_maximal_cliques_triangle():
    triangle = from_edges(3, itertools.combinations(range(3), 2), 3)
    assert maximal_cliques(triangle) == [(0, 1, 2)]


def test_maximal_cliques_c5():
    got = maximal_cliques(cycle_graph(5))
    assert got == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_maximal_cliques_cube13():
    got = maximal_cliques(ortho_graph(cube13()))
    triangles = [c for c in got if len(c) == 3]
    assert triangles == [(0, 1, 2), (0, 3, 4), (1, 5, 6), (2, 7, 8)]


@pytest.mark.parametrize("seed", range(6))
def test_maximal_cliques_against_bruteforce(seed):
    rng = stream_rng(808, seed)
    n = int(rng.integers(4, 9))
    adj = rng.random((n, n)) < 0.45
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i, j]]
    g = from_edges(n, edges, dimension=n)
    assert maximal_cliques(g) == brute_maximal_cliques(g)


def _seeded_graph(k, n, p, isolated):
    """G(n, p) from stream_rng(1977, k), its first `isolated` vertices cut
    off from the rest."""
    adj = np.triu(stream_rng(1977, k).random((n, n)) < p, 1)
    adj[:isolated] = adj[:, :isolated] = False
    return from_edges(n, list(zip(*np.nonzero(adj))), dimension=3)


@pytest.mark.parametrize("k", range(12))
def test_maximal_cliques_against_networkx(k):
    nx = pytest.importorskip("networkx")
    g = _seeded_graph(k, n=4 + 3 * k, p=(0.2, 0.4, 0.6)[k % 3],
                      isolated=k % 4)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    assert maximal_cliques(g) == sorted(
        tuple(sorted(c)) for c in nx.find_cliques(h))


def test_maximal_cliques_deterministic():
    g = ortho_graph(peres24())
    assert maximal_cliques(g) == maximal_cliques(g)


def test_complete_bases_cube13():
    assert len(complete_bases(ortho_graph(cube13()))) == 4


def test_complete_bases_ceg18():
    bases = complete_bases(ortho_graph(ceg18()))
    assert len(bases) == 9
    counts = [0] * 18
    for b in bases:
        for v in b:
            counts[v] += 1
    assert counts == [2] * 18


def test_complete_bases_c5_empty():
    assert complete_bases(cycle_graph(5)) == []


def test_catalog_cliques_respect_dimension():
    for rs in (cube13(), peres24(), ceg18(), kcbs5(), three_cubes(0.0)):
        g = ortho_graph(rs)
        assert max(len(c) for c in maximal_cliques(g)) <= g.dimension


def brute_bases(g):
    """Oracle: every d-subset of the vertices that is a clique, in order."""
    return [c for c in itertools.combinations(range(g.n), g.dimension)
            if all(g.adjacency[a, b] for a, b in itertools.combinations(c, 2))]


def test_complete_bases_are_exactly_the_full_size_cliques():
    # cross-check against direct subset enumeration on every catalog set
    for rs in (cube13(), peres24(), ceg18(), kcbs5(), three_cubes(0.0)):
        g = ortho_graph(rs)
        assert complete_bases(g) == brute_bases(g)


@pytest.mark.parametrize("k", range(16))
def test_complete_bases_where_cliques_exceed_the_dimension(k):
    # dense G(n, p) in dimensions 2-5: every graph here holds a clique
    # larger than d, each of whose d-subsets is a basis
    d = 2 + k % 4
    rng = stream_rng(2718, k)
    n = int(rng.integers(10, 17))
    adj = np.triu(rng.random((n, n)) < 0.75, 1)
    g = from_edges(n, list(zip(*np.nonzero(adj))), dimension=d)
    assert max(map(len, maximal_cliques(g))) > d
    assert complete_bases(g) == brute_bases(g)


def test_complete_bases_k5_in_dimension_3():
    g = from_edges(5, itertools.combinations(range(5), 2), 3)
    assert complete_bases(g) == list(itertools.combinations(range(5), 3))
    assert len(complete_bases(g)) == 10


def test_adjacency_is_copied_when_it_could_change():
    # the neighbour masks are cached per graph, so a later write to the
    # caller's array must not reach the graph
    adj = np.zeros((3, 3), dtype=bool)
    view = adj.view()
    view.setflags(write=False)
    graphs = [OrthoGraph(n=3, adjacency=a, dimension=2,
                         vertex_labels=("a", "b", "c")) for a in (adj, view)]
    adj[0, 1] = adj[1, 0] = True
    for g in graphs:
        assert not g.adjacency.flags.writeable and not g.adjacency.any()
        assert g._neighbor_masks == (0, 0, 0)
        assert complete_bases(g) == []
    g = ortho_graph(cube13())
    assert g._neighbor_masks is g._neighbor_masks


# Peres's six bases of peres24, by label, in two unbiased triples: the
# standard basis with the even and odd sign classes of (1, +-1, +-1, +-1),
# and the three pairings of the two-entry rays
PERES_TRIPLES = (
    (("1,0,0,0", "0,1,0,0", "0,0,1,0", "0,0,0,1"),
     ("1,1,1,1", "1,1,-1,-1", "1,-1,1,-1", "1,-1,-1,1"),
     ("1,-1,-1,-1", "1,-1,1,1", "1,1,-1,1", "1,1,1,-1")),
    (("1,1,0,0", "1,-1,0,0", "0,0,1,1", "0,0,1,-1"),
     ("1,0,1,0", "1,0,-1,0", "0,1,0,1", "0,1,0,-1"),
     ("1,0,0,1", "1,0,0,-1", "0,1,1,0", "0,1,-1,0")),
)


def test_peres24_unbiased_triples():
    rs = peres24()
    index = {label: k for k, label in enumerate(rs.labels)}
    triples = [[tuple(sorted(index[s] for s in basis)) for basis in triple]
               for triple in PERES_TRIPLES]
    bases = complete_bases(ortho_graph(rs))
    assert all(b in bases for triple in triples for b in triple)
    covered = sorted(v for triple in triples for b in triple for v in b)
    assert covered == list(range(24))
    M = rs.matrix
    for triple in triples:
        for a, b in itertools.combinations(triple, 2):
            ov = np.abs(M[list(a)].conj() @ M[list(b)].T) ** 2
            assert np.abs(ov - 0.25).max() < 1e-12


# --- realize ----------------------------------------------------------------

def test_realize_c5_in_3d():
    g = cycle_graph(5)
    rs = realize(g, 3, seed=1)
    M = rs.matrix
    residual = sum(abs(np.vdot(M[i], M[j])) ** 2 for i, j in g.edges)
    assert residual < 1e-10
    realized = ortho_graph(rs)
    for i, j in g.edges:
        assert realized.adjacency[i, j]


def test_realize_c5_in_2d_fails():
    with pytest.raises(NumericalFailure) as err:
        realize(cycle_graph(5), 2, seed=3)
    assert err.value.gap > 1e-10


def test_realize_k4_in_3d_fails():
    with pytest.raises(NumericalFailure):
        realize(from_edges(4, itertools.combinations(range(4), 2), 4), 3,
                seed=5)


def test_realize_cube13_graph():
    g = ortho_graph(cube13())
    rs = realize(g, 3, seed=11)
    realized = ortho_graph(rs)
    for i, j in g.edges:
        assert realized.adjacency[i, j]


# three_cubes at 2 pi / 3 is left out: its orthogonality graph equals the
# phase-0 graph (test_rays.test_three_cubes_adjacency_independent_of_phase),
# so its seeds would repeat the same realize calls
SWEEP_SETS = {
    "cube13": cube13, "peres24": peres24,
    "three_cubes-0": lambda: three_cubes(0.0),
    "kcbs5": kcbs5, "ceg18": ceg18,
}


# how many seeds of the sweep may need a second start: with stalled starts
# repaired in place, 1 of the 250 real-field (graph, seed) pairs and none of
# the 250 complex ones do
RESTARTED = {("peres24", "real"): 1}


def _count_starts(monkeypatch):
    """The restart index of every start realize makes from now on."""
    starts = []

    def counting(seed, stream):
        starts.append(stream)
        return stream_rng(seed, stream)

    monkeypatch.setattr(ortho, "stream_rng", counting)
    return starts


def _assert_realizes(g, field, seeds, monkeypatch):
    # every requested edge and no other: the adjacency matches exactly;
    # returns how many seeds needed a second start
    colorable = ks_solve(g, complete_bases(g)).colorable
    starts = _count_starts(monkeypatch)
    for seed in seeds:
        realized = ortho_graph(realize(g, g.dimension, seed, field=field))
        assert np.array_equal(realized.adjacency, g.adjacency)
        verdict = ks_solve(realized, complete_bases(realized))
        assert verdict.colorable == colorable
    return starts.count(1)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("name", SWEEP_SETS)
def test_realize_catalog_graphs_on_50_seeds(name, field, monkeypatch):
    restarted = _assert_realizes(ortho_graph(SWEEP_SETS[name]()), field,
                                 range(50), monkeypatch)
    assert restarted <= RESTARTED.get((name, field), 0)


@pytest.mark.parametrize("g,field", [(ortho_graph(cube13()), "real"),
                                     (cycle_graph(5), "complex")],
                         ids=["cube13-real", "c5-complex"])
def test_realize_redraws_a_zero_row_in_place(g, field, monkeypatch):
    # a zero row is stationary for every residual it enters, so without a
    # repair the first start stalls and realize restarts
    draws = []

    def first_row_zero(rng, n, d, field):
        rows = gaussian_rows(rng, n, d, field)
        if not draws:
            rows[0] = 0
        draws.append(n)
        return rows

    monkeypatch.setattr(ortho, "gaussian_rows", first_row_zero)
    starts = _count_starts(monkeypatch)
    rs = realize(g, g.dimension, seed=0, field=field)
    assert starts == [0]
    assert draws[:2] == [g.n, 1]
    M = rs.matrix
    assert sum(abs(np.vdot(M[i], M[j])) ** 2 for i, j in g.edges) < 1e-10


def test_realize_restarts_on_coincident_rays(monkeypatch):
    # a start that meets every residual with two rays equal cannot build a
    # RaySet; realize then returns the next start's set
    built = []

    def refuse_first(*args):
        built.append(args)
        if len(built) == 1:
            raise InvalidInput("duplicate ray")
        return build_rayset(*args)

    starts = _count_starts(monkeypatch)
    monkeypatch.setattr(ortho, "build_rayset", refuse_first)
    g = cycle_graph(5)
    rs = realize(g, 3, seed=0)
    assert starts == [0, 1] and len(built) == 2
    assert np.array_equal(rs.matrix, build_rayset(*built[1]).matrix)
    assert np.array_equal(ortho_graph(rs).adjacency, g.adjacency)


def test_oversize_draw_is_invalid_input():
    # numpy refuses the shape before it allocates; the refusal names both
    with pytest.raises(InvalidInput, match=f"^5 rows of dimension {2**62}: "):
        realize(cycle_graph(5), 2**62, 0)
    with pytest.raises(InvalidInput, match=f"^1 rows of dimension {2**62}: "):
        sample_rays("real", 2**62, 1, stream_rng(0, 0))


def test_realize_repairs_a_start_at_most_d_times(monkeypatch):
    # C5 has no realization in d = 2 and keeps collapsing a row: each start
    # draws its rows once and then makes at most d repairs
    starts, draws = _count_starts(monkeypatch), []

    def logged(*args):
        draws.append(len(starts))
        return gaussian_rows(*args)

    monkeypatch.setattr(ortho, "gaussian_rows", logged)
    with pytest.raises(NumericalFailure):
        realize(cycle_graph(5), 2, seed=0)
    per_start = collections.Counter(draws)
    assert len(per_start) == ortho.RESTARTS
    assert max(per_start.values()) == 1 + 2


def test_realize_failure_is_a_numerical_failure():
    with pytest.raises(NumericalFailure) as err:
        realize(cycle_graph(5), 2, seed=3)
    assert err.value.gap > 1e-10


def test_realize_refuses_a_graph_with_no_vertices():
    with pytest.raises(InvalidInput, match="the graph has no vertices"):
        realize(from_edges(0, [], 3), 3, seed=0)


@pytest.mark.parametrize("make", [
    lambda: from_edges(3, [(-1, 0)], 3),
    lambda: from_edges(3, [(0, 3)], 3),
    lambda: from_edges(3, [(0, 5)], 3),
])
def test_edge_endpoint_outside_vertex_range(make):
    with pytest.raises(ValueError, match="outside range"):
        make()


@pytest.mark.parametrize("edge,shown", [("[0.5, 1]", "(0.5, 1)"),
                                        ("[true, 2]", "(True, 2)")])
def test_edge_endpoint_not_an_integer(edge, shown):
    # the edge as JSON spells it: a float or a boolean endpoint
    with pytest.raises(ValueError,
                       match=re.escape(f"edge {shown} has a non-integer")):
        from_edges(3, [json.loads(edge)], 3)


@pytest.mark.parametrize("make,field", [
    *[(functools.partial(from_edges, 3, [(0, 1)], d), "dimension must")
      for d in (1, 0, -3, 2.0, True, "3", None)],
    (lambda: from_edges("3", [], 3), "n must"),
    (lambda: from_edges(-1, [], 3), "n must"),
    (lambda: from_edges(3, [0], 3), "edges must"),
    (lambda: from_edges(3, [(0, 1, 2)], 3), "edges must"),
    (lambda: from_edges(3, [("0", 1)], 3),
     "edge ('0', 1) has a non-integer endpoint"),
    (lambda: from_edges(3.0, [], 3), "n must"),
    (lambda: from_edges(3, True, 3), "edges must"),
    (lambda: from_edges(3, [(0,)], 3), "edges must"),
])
def test_malformed_graph_input_is_a_value_error(make, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        make()


NO_EDGES = np.zeros((2, 2), dtype=bool)
EMPTY_SET = RaySet(dimension=3, field="real",
                   matrix=np.zeros((0, 3), dtype=complex), labels=())


@pytest.mark.parametrize("make,message", [
    (lambda: OrthoGraph(3, NO_EDGES, 3, ("a", "b", "c")),
     "adjacency shape mismatch"),
    (lambda: OrthoGraph(2, np.array([[False, True], [False, False]]), 3,
                        ("a", "b")), "adjacency must be symmetric"),
    (lambda: OrthoGraph(2, np.eye(2, dtype=bool), 3, ("a", "b")),
     "adjacency diagonal must be false"),
    # too few labels would make `ksray color` drop a vertex from its witness
    (lambda: OrthoGraph(2, NO_EDGES, 3, ("a",)), "vertex labels must number n"),
    (lambda: OrthoGraph(2, NO_EDGES, 3, ("a", "b", "c")),
     "vertex labels must number n"),
    (lambda: from_edges(3, [(1, 1)], 3), "self loop"),
    (lambda: ortho_graph(EMPTY_SET), "empty ray set"),
    (lambda: OrthoGraph(2, [[0, 1], [1, 0]], 3, ("a", "b")),
     "adjacency must be a 2-D boolean array"),
    (lambda: OrthoGraph(2, [[0, 0.5], [0.5, 0]], 3, ("a", "b")),
     "adjacency must be a 2-D boolean array"),
    (lambda: OrthoGraph(2, np.array([[0, 2], [2, 0]]), 3, ("a", "b")),
     "adjacency must be a 2-D boolean array"),
    (lambda: OrthoGraph(2, np.zeros((2, 2, 1), dtype=bool), 3, ("a", "b")),
     "adjacency must be a 2-D boolean array"),
    (lambda: OrthoGraph(2.0, NO_EDGES, 3, ("a", "b")),
     "n must be an integer, got 2.0"),
    (lambda: OrthoGraph(True, np.zeros((1, 1), dtype=bool), 3, ("a",)),
     "n must be an integer, got True"),
], ids=["shape", "asymmetric", "diagonal", "few-labels", "many-labels",
        "self-loop", "empty-set", "int-list", "float", "int", "3-D", "n-float",
        "n-bool"])
def test_graph_refusals(make, message):
    with pytest.raises(InvalidInput, match=message):
        make()


def test_boolean_list_adjacency_is_a_graph():
    g = OrthoGraph(2, [[False, True], [True, False]], 3, ("a", "b"))
    assert isinstance(g.adjacency, np.ndarray)
    assert not g.adjacency.flags.writeable
    assert g.edges == [(0, 1)] and g._neighbor_masks == (2, 1)


# --- exchange format --------------------------------------------------------

@pytest.mark.parametrize("name", CATALOGS)
def test_graph_json_matches_ortho_graph(name, capsys):
    """graph_to_json holds n, dimension and the edges i < j of the
    adjacency, and `ksray graph --set NAME` prints exactly that text."""
    g = ortho_graph(CATALOGS[name]())
    text = graph_to_json(g)
    edges = [[i, j] for i in range(g.n) for j in range(i + 1, g.n)
             if g.adjacency[i, j]]
    assert json.loads(text) == {"n": g.n, "dimension": g.dimension,
                                "edges": edges}
    assert run(["graph", "--set", name]) == 0
    assert capsys.readouterr().out == text
