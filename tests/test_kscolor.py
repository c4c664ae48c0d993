import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from ksray import (
    Color, ExhaustionProof, InvalidInput, OrthoGraph, ParityCertificate,
    ceg18, complete_bases, count_colorings, cube13, cycle_graph, from_edges,
    kcbs5, ks_solve, ortho_graph, peres24, stream_rng, three_cubes,
    verify_coloring,
)

R, G = Color.RED, Color.GREEN


def brute_count(g, bases):
    """Oracle: enumerate all 2^n total colorings."""
    total = 0
    for bits in itertools.product((R, G), repeat=g.n):
        if any(bits[i] is R and bits[j] is R for i, j in g.edges):
            continue
        if any(sum(1 for v in b if bits[v] is R) != 1 for b in bases):
            continue
        total += 1
    return total


def numpy_count(g, bases):
    """Oracle: test all 2^n total colorings at once, coloring k making
    vertex v Red when bit v of k is set."""
    k = np.arange(2 ** g.n, dtype=np.uint32)
    ok = np.ones(k.size, dtype=bool)
    for i, j in g.edges:
        pair = np.uint32(1 << i | 1 << j)
        ok &= (k & pair) != pair
    for b in bases:
        reds = k & np.uint32(sum(1 << v for v in b))
        ok &= (reds != 0) & ((reds & (reds - np.uint32(1))) == 0)
    return int(ok.sum())


def deletions(g, k):
    """Every graph left when k rays, that is k vertices, are deleted."""
    for gone in itertools.combinations(range(g.n), k):
        keep = [v for v in range(g.n) if v not in gone]
        yield OrthoGraph(n=len(keep), adjacency=g.adjacency[np.ix_(keep, keep)],
                         dimension=g.dimension,
                         vertex_labels=tuple(g.vertex_labels[v] for v in keep))


# --- verify_coloring --------------------------------------------------------

def test_verify_triangle_one_red():
    g = from_edges(3, itertools.combinations(range(3), 2), 3)
    ok, violation = verify_coloring(g, [(0, 1, 2)], (R, G, G))
    assert ok and violation is None


def test_verify_triangle_zero_red():
    g = from_edges(3, itertools.combinations(range(3), 2), 3)
    ok, violation = verify_coloring(g, [(0, 1, 2)], (G, G, G))
    assert not ok and violation == ("basis", 0)


def test_verify_red_red_edge():
    g = from_edges(2, [(0, 1)], dimension=2)
    ok, violation = verify_coloring(g, [], (R, R))
    assert not ok and violation == ("edge", (0, 1))


@pytest.mark.parametrize("coloring", [
    [R] * 4, [R] * 6, ["R"] * 5, ["G"] * 5, [None] * 5, [1, 0, 1, 0, 0],
    [R, G, R, G, "G"],
], ids=["short", "long", "strings-red", "strings-green", "none", "ints",
        "one-string"])
def test_verify_refuses_what_is_not_a_total_coloring(coloring):
    # "R" spells Color.RED's value but is not a Color
    with pytest.raises(InvalidInput,
                       match="coloring must be total over the vertices"):
        verify_coloring(cycle_graph(5), [], coloring)


MALFORMED_BASES = [(0, 99, 1), (0, -1, 2), (0.5, 1, 2), (0, 0, 1), (True, 2, 3),
                   5, "012"]


@pytest.mark.parametrize("basis", MALFORMED_BASES,
                         ids=["past-n", "negative", "float", "repeated",
                              "bool", "not-a-sequence", "string"])
@pytest.mark.parametrize("call", [
    ks_solve, count_colorings,
    lambda g, bases: verify_coloring(g, bases, [G] * g.n),
], ids=["ks_solve", "count_colorings", "verify_coloring"])
def test_malformed_bases_refused(call, basis):
    with pytest.raises(InvalidInput, match=re.escape(f"basis {basis!r} ")):
        call(ortho_graph(cube13()), [(0, 1, 2), basis])


def test_numpy_integer_bases_accepted():
    g = ortho_graph(cube13())
    bases = np.array(complete_bases(g))
    assert count_colorings(g, bases) == 24
    assert ks_solve(g, bases) == ks_solve(g)


# --- ks_solve ---------------------------------------------------------------

def test_cube13_colorable_with_witness():
    g = ortho_graph(cube13())
    bases = complete_bases(g)
    verdict = ks_solve(g, bases)
    assert verdict.colorable
    ok, _ = verify_coloring(g, bases, verdict.witness)
    assert ok


@pytest.mark.parametrize("phi", [0.0, 2 * math.pi / 3])
def test_three_cubes_uncolorable(phi):
    g = ortho_graph(three_cubes(phi))
    verdict = ks_solve(g)
    assert not verdict.colorable


def test_ceg18_parity_certificate():
    verdict = ks_solve(ortho_graph(ceg18()))
    assert not verdict.colorable
    cert = verdict.certificate
    assert isinstance(cert, ParityCertificate)
    assert cert.basis_count == 9
    assert cert.incidence_counts == (2,) * 18
    assert cert.basis_count % 2 == 1
    assert all(c % 2 == 0 for c in cert.incidence_counts)


def test_peres24_uncolorable_by_exhaustion():
    verdict = ks_solve(ortho_graph(peres24()))
    assert not verdict.colorable
    assert isinstance(verdict.certificate, ExhaustionProof)
    assert verdict.certificate.nodes_explored > 0


def test_single_triangle_basis():
    g = from_edges(3, itertools.combinations(range(3), 2), 3)
    verdict = ks_solve(g, [(0, 1, 2)])
    assert verdict.colorable
    assert sum(1 for c in verdict.witness if c is R) == 1


def test_two_reds_in_a_caller_basis():
    # a caller's bases need not be cliques: no edge joins 1 and 2, so only
    # the basis rule refuses G,R,R,R; four bases leave no parity certificate
    g = from_edges(4, [], 2)
    bases = [(0, 1), (0, 2), (1, 2), (0, 3)]
    assert verify_coloring(g, bases, (G, R, R, R)) == (False, ("basis", 2))
    verdict = ks_solve(g, bases)
    assert not verdict.colorable
    assert isinstance(verdict.certificate, ExhaustionProof)
    assert count_colorings(g, bases) == 0


def test_no_bases_means_colorable():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], dimension=3)
    verdict = ks_solve(g, [])
    assert verdict.colorable
    ok, _ = verify_coloring(g, [], verdict.witness)
    assert ok


def test_ks_solve_deterministic():
    g = ortho_graph(cube13())
    bases = complete_bases(g)
    a = ks_solve(g, bases)
    b = ks_solve(g, bases)
    assert a.colorable == b.colorable and a.witness == b.witness


def test_parity_certificate_rejects_bad_arithmetic():
    with pytest.raises(ValueError):
        ParityCertificate(basis_count=4, incidence_counts=(2, 2))
    with pytest.raises(ValueError):
        ParityCertificate(basis_count=3, incidence_counts=(1, 2))


# --- count_colorings --------------------------------------------------------

def test_count_single_triangle():
    g = from_edges(3, itertools.combinations(range(3), 2), 3)
    assert count_colorings(g, [(0, 1, 2)]) == 3


def test_count_two_free_vertices():
    assert count_colorings(from_edges(2, [], 3), []) == 4
    # at the guard, each free vertex's Green branch is a memo hit
    assert count_colorings(from_edges(36, [], 3), []) == 2 ** 36


def test_count_ceg18_zero():
    g = ortho_graph(ceg18())
    assert count_colorings(g) == 0


def test_count_cube13():
    g = ortho_graph(cube13())
    bases = complete_bases(g)
    got = count_colorings(g, bases)
    assert got == brute_count(g, bases)
    assert got == 24


def test_count_matches_bruteforce_on_small_graphs():
    g = ortho_graph(kcbs5())
    bases = complete_bases(g)  # empty: no triangles in C5
    assert count_colorings(g, bases) == brute_count(g, bases)


@pytest.mark.parametrize("k", range(6))
def test_count_against_verified_bruteforce(k):
    n = 9 + k
    adj = np.triu(stream_rng(1414, k).random((n, n)) < 0.45, 1)
    adj[:2] = adj[:, :2] = False  # two free vertices
    g = from_edges(n, list(zip(*np.nonzero(adj))), dimension=2 + k % 2)
    bases = complete_bases(g)
    assert bases
    want = sum(verify_coloring(g, bases, coloring)[0]
               for coloring in itertools.product((R, G), repeat=n))
    assert count_colorings(g, bases) == want


def test_count_guard():
    with pytest.raises(InvalidInput, match="exceeds the guard"):
        count_colorings(from_edges(37, [], 3), [])


def test_count_ceg18_deletions_against_numpy():
    # every one- and two-ray deletion of ceg18: 18 + 153 graphs of 17 and
    # 16 vertices, each counted over all 2^n colorings at once
    g18 = ortho_graph(ceg18())
    graphs = [g for k in (1, 2) for g in deletions(g18, k)]
    assert len(graphs) == 171
    for g in graphs:
        bases = complete_bases(g)
        count = count_colorings(g, bases)
        assert count == numpy_count(g, bases)
        assert ks_solve(g, bases).colorable == (count > 0)


def test_solve_iff_count_positive():
    for rs in (cube13(), kcbs5(), ceg18(), peres24(), three_cubes(0.0)):
        g = ortho_graph(rs)
        bases = complete_bases(g)
        assert ks_solve(g, bases).colorable == (count_colorings(g, bases) > 0)


# --- pinned verdicts ----------------------------------------------------------

def _word(witness):
    return "".join(c.value for c in witness)


def test_pinned_witnesses_and_certificates():
    assert _word(ks_solve(ortho_graph(cube13())).witness) == "RGGGGRGRGRGGG"
    assert _word(ks_solve(ortho_graph(kcbs5())).witness) == "RGRGG"
    assert ks_solve(ortho_graph(three_cubes(0.0))).certificate == \
        ExhaustionProof(nodes_explored=11)
    assert ks_solve(ortho_graph(peres24())).certificate == \
        ExhaustionProof(nodes_explored=15)
    assert isinstance(ks_solve(ortho_graph(ceg18())).certificate,
                      ParityCertificate)


def _tree_pin(graphs):
    """Sum of nodes_explored and a digest of every witness word, which
    together fix the search tree of ks_solve on each graph."""
    nodes, words = 0, []
    for g in graphs:
        verdict = ks_solve(g)
        if verdict.colorable:
            words.append(_word(verdict.witness))
        else:
            words.append(type(verdict.certificate).__name__)
            if isinstance(verdict.certificate, ExhaustionProof):
                nodes += verdict.certificate.nodes_explored
    return nodes, hashlib.sha256("\n".join(words).encode()).hexdigest()[:16]


def test_pinned_search_trees_on_deletions():
    g18 = ortho_graph(ceg18())
    assert _tree_pin(deletions(ortho_graph(peres24()), 1)) == \
        (376, "b2e525e79d2a4356")
    assert _tree_pin(deletions(ortho_graph(three_cubes(0.0)), 1)) == \
        (0, "f387fe48d0adfdc8")
    assert _tree_pin(g for k in (1, 2) for g in deletions(g18, k)) == \
        (0, "597733e7b29c980a")


def test_pinned_counts():
    assert count_colorings(ortho_graph(cube13())) == 24
    assert count_colorings(ortho_graph(kcbs5())) == 11


def test_one_too_large_class():
    import ksray
    from ksray import bounds, kscolor
    assert ksray.InvalidInput is kscolor.InvalidInput is bounds.InvalidInput
