import itertools
import json
import math

import numpy as np
import pytest

from ksray import (
    COMPLEX, REAL, FieldMismatch, InvariantViolation, ParseError, ZeroVector,
    build_rayset, canonicalize, ceg18, cube13, cube_members, kcbs5,
    load_rayset, peres24, rayset_to_json, three_cubes, ortho_graph,
    stream_rng,
)

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


# --- canonicalize -----------------------------------------------------------

def test_canonicalize_normalizes():
    r = canonicalize((0, 2, 0), REAL)
    assert np.allclose(r.components, [0, 1, 0], atol=1e-15)


def test_canonicalize_removes_global_phase():
    r = canonicalize((1j, 0, 0), COMPLEX)
    assert np.allclose(r.components, [1, 0, 0], atol=1e-15)


def test_canonicalize_equal_weights():
    r = canonicalize((1, 1, 0), REAL)
    assert np.allclose(r.components, [1 / SQ2, 1 / SQ2, 0], atol=1e-15)


def test_canonicalize_flips_leading_sign():
    r = canonicalize((-1, 1, 0), REAL)
    assert np.allclose(r.components, [1 / SQ2, -1 / SQ2, 0], atol=1e-15)


def test_canonicalize_zero_vector():
    with pytest.raises(ZeroVector):
        canonicalize((0, 0, 1e-13), REAL)


def test_canonicalize_field_mismatch():
    with pytest.raises(FieldMismatch):
        canonicalize((1j, 0, 0), REAL)


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_canonicalize_rejects_non_finite(bad, field):
    with pytest.raises(ValueError, match="not finite") as err:
        canonicalize((1, bad, 0), field)
    assert not isinstance(err.value, (ZeroVector, FieldMismatch))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_build_rayset_rejects_non_finite(bad):
    with pytest.raises(InvariantViolation, match="not finite") as err:
        build_rayset([(1, 0, 0), (0, 1, 0), (0, 0, bad)], REAL)
    assert err.value.index == 2


def test_build_rayset_reports_first_duplicate():
    # two duplicate pairs, (2, 1) and (3, 0): the smaller k is reported
    with pytest.raises(InvariantViolation) as err:
        build_rayset([(1, 0, 0), (0, 1, 0), (0, 2, 0), (-1, 0, 0)], REAL)
    assert err.value.index == 2
    assert str(err.value) == \
        "ray 2 duplicates ray 1 (|overlap| = 1.000000000000)"


def test_rayset_matrix_is_read_only():
    rs = cube13()
    assert rs.matrix.shape == (13, 3) and rs.matrix.dtype == np.complex128
    with pytest.raises(ValueError):
        rs.matrix[0, 0] = 0.0


def test_canonicalize_idempotent_random():
    rng = stream_rng(2024, 0)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        once = canonicalize(v, COMPLEX)
        twice = canonicalize(once.components, COMPLEX)
        assert np.abs(once.components - twice.components).max() < 1e-15


# --- cube13 -----------------------------------------------------------------

def test_cube13_counts():
    rs = cube13()
    assert len(rs) == 13
    assert rs.dimension == 3 and rs.field == REAL


def test_cube13_contains_face_ray():
    M = cube13().matrix
    assert any(np.allclose(row, [1, 0, 0]) for row in M)


def test_cube13_edge_count():
    assert len(ortho_graph(cube13()).edges) == 24


# --- peres24 ----------------------------------------------------------------

def test_peres24_count():
    assert len(peres24()) == 24


def test_peres24_component_families():
    M = np.abs(peres24().matrix)
    nonzeros = (M > 1e-12).sum(axis=1)
    assert sorted(nonzeros.tolist()) == [1] * 4 + [2] * 12 + [4] * 8


# --- three cubes ------------------------------------------------------------

PHASES = [0.0, 0.3, math.pi / 2, 2 * math.pi / 3, 1.7]


@pytest.mark.parametrize("phi", PHASES)
def test_three_cubes_has_33_rays(phi):
    assert len(three_cubes(phi)) == 33


def test_three_cubes_membership_counts():
    rs = three_cubes(0.0)
    members = [cube_members(lbl) for lbl in rs.labels]
    assert sum(1 for m in members if m == {"I", "II", "III"}) == 3
    assert sum(1 for m in members if m == {"II"}) == 10
    assert sum(1 for m in members if m == {"III"}) == 10
    assert sum(1 for m in members if m == {"I"}) == 10


def test_three_cubes_intercube_orthogonalities():
    rs = three_cubes(0.0)
    members = [cube_members(lbl) for lbl in rs.labels]
    g = ortho_graph(rs)
    intercube = [(i, j) for i, j in g.edges if not (members[i] & members[j])]
    assert len(intercube) == 6


def test_three_cubes_adjacency_independent_of_phase():
    base = ortho_graph(three_cubes(0.0)).adjacency
    for phi in PHASES[1:]:
        assert np.array_equal(base, ortho_graph(three_cubes(phi)).adjacency)


def test_three_cubes_phase_zero_patterns():
    # every ray is proportional to a vector with entries in {0, +-1, +-sqrt2}
    for row in three_cubes(0.0).matrix:
        mags = np.sort(np.abs(row[np.abs(row) > 1e-9]))
        ratios = mags / mags[0]
        assert all(abs(r - 1) < 1e-9 or abs(r - SQ2) < 1e-9 for r in ratios)


THREE_CUBES_LABELS = (
    "I:1,0,0|II:0,1,-1|III:0,1,1", "I:0,1,0", "I:0,0,1",
    "I:0,1,1|II:0,1,1|III:1,0,0", "I:0,1,-1|II:1,0,0|III:0,1,-1",
    "I:1,0,1", "I:1,0,-1", "I:1,1,0", "I:1,-1,0",
    "I:1,1,1", "I:1,1,-1", "I:1,-1,1", "I:1,-1,-1",
    "II:0,1,0", "II:0,0,1", "II:1,0,1", "II:1,0,-1", "II:1,1,0", "II:1,-1,0",
    "II:1,1,1", "II:1,1,-1", "II:1,-1,1", "II:1,-1,-1",
    "III:0,1,0", "III:0,0,1", "III:1,0,1", "III:1,0,-1", "III:1,1,0",
    "III:1,-1,0", "III:1,1,1", "III:1,1,-1", "III:1,-1,1", "III:1,-1,-1",
)


@pytest.mark.parametrize("phi", [0.0, 0.7, 2 * math.pi / 3])
def test_three_cubes_labels_pinned(phi):
    assert three_cubes(phi).labels == THREE_CUBES_LABELS


def test_three_cubes_complex_field_off_zero():
    assert three_cubes(0.0).field == REAL
    assert three_cubes(0.3).field == COMPLEX


# --- kcbs5 ------------------------------------------------------------------

def test_kcbs5_is_pentagon():
    g = ortho_graph(kcbs5())
    assert g.n == 5
    assert sorted(g.edges) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert all(g.degree(v) == 2 for v in range(5))


def test_kcbs5_unit_norms():
    for row in kcbs5().matrix:
        assert abs(np.linalg.norm(row) - 1.0) < 1e-12


def test_kcbs5_consecutive_orthogonality_identity():
    # <v_k, v_k+1> = (cos(4 pi/5) + cos(pi/5)) / (1 + cos(pi/5)) = 0
    c = math.cos(math.pi / 5)
    assert abs((math.cos(4 * math.pi / 5) + c) / (1 + c)) < 1e-15


# --- file exchange ----------------------------------------------------------

def test_rayset_roundtrip(tmp_path):
    rs = cube13()
    path = tmp_path / "cube.json"
    path.write_text(rayset_to_json(rs), encoding="utf-8")
    back = load_rayset(str(path))
    assert len(back) == 13
    assert np.abs(back.matrix - rs.matrix).max() < 1e-15
    assert back.labels == rs.labels


def test_load_rayset_standard_basis():
    text = json.dumps({
        "dimension": 3, "field": "real",
        "rays": [[[1, 0], [0, 0], [0, 0]],
                 [[0, 0], [1, 0], [0, 0]],
                 [[0, 0], [0, 0], [1, 0]]],
    })
    rs = load_rayset(text)
    assert len(rs) == 3
    assert rs.labels == ("v0", "v1", "v2")


def test_load_rayset_zero_vector():
    text = json.dumps({
        "dimension": 2, "field": "real",
        "rays": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    })
    with pytest.raises(InvariantViolation) as err:
        load_rayset(text)
    assert err.value.index == 1


def test_load_rayset_duplicate():
    text = json.dumps({
        "dimension": 2, "field": "real",
        "rays": [[[1, 0], [1, 0]], [[-2, 0], [-2, 0]]],
    })
    with pytest.raises(InvariantViolation) as err:
        load_rayset(text)
    assert err.value.index == 1


def test_load_rayset_dimension_mismatch():
    text = json.dumps({
        "dimension": 3, "field": "real",
        "rays": [[[1, 0], [0, 0], [0, 0]], [[1, 0], [0, 0]]],
    })
    with pytest.raises(InvariantViolation) as err:
        load_rayset(text)
    assert err.value.index == 1


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_load_rayset_rejects_non_finite(bad):
    text = ('{"dimension": 2, "field": "real", '
            f'"rays": [[[1, 0], [0, 0]], [[0, 0], [{bad}, 0]]]}}')
    with pytest.raises(InvariantViolation, match="not finite") as err:
        load_rayset(text)
    assert err.value.index == 1


def test_load_rayset_bad_json():
    with pytest.raises(ParseError):
        load_rayset("{not json")


def test_load_rayset_text_and_paths(tmp_path):
    text = rayset_to_json(kcbs5())
    path = tmp_path / "{a}.json"
    path.write_text(text, encoding="utf-8")
    for source in (" \n" + text, path, str(path)):
        assert np.array_equal(load_rayset(source).matrix, kcbs5().matrix)


def test_load_rayset_bad_field():
    text = json.dumps({"dimension": 2, "field": "rational",
                       "rays": [[[1, 0], [0, 0]]]})
    with pytest.raises(ParseError):
        load_rayset(text)


# --- ceg18 ------------------------------------------------------------------

def test_ceg18_structure():
    rs = ceg18()
    assert len(rs) == 18 and rs.dimension == 4
    # brute-force enumeration of complete bases, independent of the
    # clique machinery
    M = rs.matrix
    ortho = np.abs(M.conj() @ M.T) < 1e-9
    bases = [c for c in itertools.combinations(range(18), 4)
             if all(ortho[a, b] for a, b in itertools.combinations(c, 2))]
    assert len(bases) == 9
    counts = [0] * 18
    for b in bases:
        for v in b:
            counts[v] += 1
    assert counts == [2] * 18
