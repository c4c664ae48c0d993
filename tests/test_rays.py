import itertools
import json
import math

import numpy as np
import pytest

from ksray import (
    CATALOGS, COMPLEX, REAL, InvalidInput,
    build_rayset, canonicalize, ceg18, cube13, cube_members, kcbs5,
    load_rayset, peres24, rayset_to_json, three_cubes, ortho_graph,
    stream_rng,
)

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


# --- canonicalize -----------------------------------------------------------

def test_canonicalize_normalizes():
    r = canonicalize((0, 2, 0), REAL)
    assert np.allclose(r, [0, 1, 0], atol=1e-15)


def test_canonicalize_removes_global_phase():
    r = canonicalize((1j, 0, 0), COMPLEX)
    assert np.allclose(r, [1, 0, 0], atol=1e-15)


def test_canonicalize_equal_weights():
    r = canonicalize((1, 1, 0), REAL)
    assert np.allclose(r, [1 / SQ2, 1 / SQ2, 0], atol=1e-15)


def test_canonicalize_flips_leading_sign():
    r = canonicalize((-1, 1, 0), REAL)
    assert np.allclose(r, [1 / SQ2, -1 / SQ2, 0], atol=1e-15)


def test_canonicalize_returns_read_only_row():
    for field, vec in ((REAL, (3, 0, 4)), (COMPLEX, (0, 1j, 1))):
        r = canonicalize(vec, field)
        assert r.shape == (3,) and r.dtype == np.complex128
        with pytest.raises(ValueError):
            r[0] = 0.0


def test_canonicalize_zero_vector():
    with pytest.raises(InvalidInput, match="<= 1e-12"):
        canonicalize((0, 0, 1e-13), REAL)


def test_canonicalize_field_mismatch():
    with pytest.raises(InvalidInput, match="imaginary"):
        canonicalize((1j, 0, 0), REAL)


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_canonicalize_rejects_non_finite(bad, field):
    with pytest.raises(InvalidInput, match="not finite"):
        canonicalize((1, bad, 0), field)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_build_rayset_rejects_non_finite(bad):
    with pytest.raises(InvalidInput, match="not finite") as err:
        build_rayset([(1, 0, 0), (0, 1, 0), (0, 0, bad)], REAL)
    assert err.value.index == 2


def test_build_rayset_reports_first_duplicate():
    # two duplicate pairs, (2, 1) and (3, 0): the smaller k is reported
    with pytest.raises(InvalidInput) as err:
        build_rayset([(1, 0, 0), (0, 1, 0), (0, 2, 0), (-1, 0, 0)], REAL)
    assert err.value.index == 2
    assert str(err.value) == \
        "ray 2 duplicates ray 1 (|overlap| = 1.000000000000)"


@pytest.mark.parametrize("vectors,index", [
    ([[1, 0], 5], 1), ([[1, "a"]], 0), ([5, [1, 0]], 0), (object(), None),
])
def test_build_rayset_refuses_what_is_not_rows_of_numbers(vectors, index):
    with pytest.raises(InvalidInput, match="rows? of numbers") as err:
        build_rayset(vectors, REAL)
    assert err.value.index == index


def test_build_rayset_names_a_ragged_row():
    with pytest.raises(InvalidInput) as err:
        build_rayset([(1, 0), (0, 1), (1, 1, 0)], REAL)
    assert (str(err.value), err.value.index) == ("ray 2: dimension 3 != 2", 2)


def test_rayset_matrix_is_read_only():
    rs = cube13()
    assert rs.matrix.shape == (13, 3) and rs.matrix.dtype == np.complex128
    with pytest.raises(ValueError):
        rs.matrix[0, 0] = 0.0


def test_canonicalize_idempotent_random():
    # a canonical row passes through bit for bit, at every scale of input
    rng = stream_rng(2024, 0)
    for field in (REAL, COMPLEX):
        for d in range(2, 65):
            for _ in range(10):
                v = rng.standard_normal(d)
                if field == COMPLEX:
                    v = v + 1j * rng.standard_normal(d)
                v *= 10.0 ** rng.uniform(-6, 6)
                once = canonicalize(v, field)
                assert canonicalize(once, field).tobytes() == once.tobytes()


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


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_three_cubes_rejects_non_finite_phase(phi):
    with pytest.raises(ValueError, match="phase must be finite"):
        three_cubes(phi)


def test_three_cubes_complex_field_off_zero():
    assert three_cubes(0.0).field == REAL
    assert three_cubes(0.3).field == COMPLEX


# --- kcbs5 ------------------------------------------------------------------

def test_kcbs5_is_pentagon():
    g = ortho_graph(kcbs5())
    assert g.n == 5
    assert sorted(g.edges) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert all(g.adjacency.sum(axis=1) == 2)


def test_kcbs5_unit_norms():
    for row in kcbs5().matrix:
        assert abs(np.linalg.norm(row) - 1.0) < 1e-12


def test_kcbs5_consecutive_orthogonality_identity():
    # <v_k, v_k+1> = (cos(4 pi/5) + cos(pi/5)) / (1 + cos(pi/5)) = 0
    c = math.cos(math.pi / 5)
    assert abs((math.cos(4 * math.pi / 5) + c) / (1 + c)) < 1e-15


# --- file exchange ----------------------------------------------------------

def test_rayset_roundtrip(tmp_path):
    sets = [make() for make in CATALOGS.values()]
    sets += [three_cubes(phi) for phi in (0.3, 0.7, 2 * math.pi / 3)]
    for rs in sets:
        path = tmp_path / "set.json"
        path.write_text(rayset_to_json(rs), encoding="utf-8")
        back = load_rayset(path.read_text(encoding="utf-8"))
        assert (back.dimension, back.field) == (rs.dimension, rs.field)
        assert back.matrix.tobytes() == rs.matrix.tobytes()
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
    with pytest.raises(InvalidInput) as err:
        load_rayset(text)
    assert err.value.index == 1


def test_load_rayset_duplicate():
    text = json.dumps({
        "dimension": 2, "field": "real",
        "rays": [[[1, 0], [1, 0]], [[-2, 0], [-2, 0]]],
    })
    with pytest.raises(InvalidInput) as err:
        load_rayset(text)
    assert err.value.index == 1


def test_load_rayset_dimension_mismatch():
    text = json.dumps({
        "dimension": 3, "field": "real",
        "rays": [[[1, 0], [0, 0], [0, 0]], [[1, 0], [0, 0]]],
    })
    with pytest.raises(InvalidInput) as err:
        load_rayset(text)
    assert err.value.index == 1


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_load_rayset_rejects_non_finite(bad):
    text = ('{"dimension": 2, "field": "real", '
            f'"rays": [[[1, 0], [0, 0]], [[0, 0], [{bad}, 0]]]}}')
    with pytest.raises(InvalidInput, match="not finite") as err:
        load_rayset(text)
    assert err.value.index == 1


def test_load_rayset_bad_json():
    with pytest.raises(InvalidInput, match="not valid JSON"):
        load_rayset("{not json")


def test_load_rayset_text_and_paths(tmp_path):
    text = rayset_to_json(kcbs5())
    path = tmp_path / "{a}.json"
    path.write_text(text, encoding="utf-8")
    for source in (" \n" + text, path.read_text(encoding="utf-8")):
        assert np.array_equal(load_rayset(source).matrix, kcbs5().matrix)
    with pytest.raises(InvalidInput, match="not valid JSON"):
        load_rayset(str(path))  # a path is not JSON text


@pytest.mark.parametrize("make,message", [
    (lambda: canonicalize([1.0]), "rays need at least 2 components each"),
    (lambda: build_rayset([(1, 0), (0, 1)], REAL, labels=["a"]),
     "labels length differs from ray count"),
    (lambda: load_rayset('{"dimension": 2, "field": "real", "rays": []}'),
     "rays must be a nonempty array"),
    (lambda: load_rayset('{"dimension": 2, "field": "real", '
                         '"rays": [[[1, 0], [0, 0]]], "labels": ["a", "b"]}'),
     "labels must match the number of rays"),
], ids=["one-component", "build-labels", "no-rays", "load-labels"])
def test_ray_set_refusals(make, message):
    with pytest.raises(InvalidInput, match=message):
        make()


def test_load_rayset_bad_field():
    text = json.dumps({"dimension": 2, "field": "rational",
                       "rays": [[[1, 0], [0, 0]]]})
    with pytest.raises(InvalidInput, match="unknown field 'rational'"):
        load_rayset(text)


@pytest.mark.parametrize("component", ["true", "false", "1" + "0" * 400])
def test_load_rayset_rejects_non_number_component(component):
    """A boolean is not read as 1 or 0, and an integer beyond float range
    is an InvalidInput, not an OverflowError."""
    text = ('{"dimension": 2, "field": "real", '
            f'"rays": [[[1, 0], [0, 0]], [[{component}, 0], [1, 0]]]}}')
    with pytest.raises(InvalidInput, match="^ray 1: "):
        load_rayset(text)


def test_load_rayset_fuzz():
    """Arbitrary JSON over the keys dimension, field, rays and labels: only
    ValueError escapes, and an accepted set reads back from rayset_to_json
    with the same labels and the same rays."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    keys = st.sampled_from(("dimension", "field", "rays", "labels"))
    small = st.integers(-2, 2) | st.floats(-2.0, 2.0)
    numbers = (small | st.booleans() | st.floats()
               | st.integers(-10**400, 10**400))
    scalars = st.none() | numbers | st.text(max_size=2)
    junk = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(keys, inner, max_size=3),
                        max_leaves=6)

    def shaped(components):
        """Documents of n rays of d [re, im] pairs, with n labels or none."""
        def sets(d, n):
            ray = st.lists(st.lists(components, min_size=2, max_size=2),
                           min_size=d, max_size=d)
            return st.fixed_dictionaries(
                {"dimension": st.just(d),
                 "field": st.sampled_from((REAL, COMPLEX)),
                 "rays": st.lists(ray, min_size=n, max_size=n)},
                optional={"labels": st.lists(scalars, min_size=n, max_size=n)})
        return st.tuples(st.integers(2, 3), st.integers(1, 3)).flatmap(
            lambda dn: sets(*dn))

    fields = {"dimension": st.integers(1, 3),
              "field": st.sampled_from((REAL, COMPLEX)),
              "rays": st.lists(st.lists(st.lists(numbers, max_size=3)
                                        | junk, max_size=3), max_size=3),
              "labels": st.lists(scalars, max_size=3)}
    documents = (junk | shaped(small) | shaped(numbers)
                 | st.fixed_dictionaries({}, optional={
                     key: value | junk for key, value in fields.items()}))

    @hypothesis.settings(max_examples=300, derandomize=True, database=None,
                         deadline=None)
    @hypothesis.given(documents)
    def check(obj):
        try:
            rs = load_rayset(json.dumps(obj))
        except ValueError:
            return
        back = load_rayset(rayset_to_json(rs))
        assert (back.dimension, back.field) == (rs.dimension, rs.field)
        assert back.matrix.tobytes() == rs.matrix.tobytes()
        assert back.labels == rs.labels

    check()


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


def test_ceg18_is_peres24_less_six_rays():
    small, big = ceg18(), peres24()
    # each ceg18 row is a peres24 row byte for byte, and carries its label
    rows = {row.tobytes(): k for k, row in enumerate(big.matrix)}
    assert all(row.tobytes() in rows for row in small.matrix)
    kept = [rows[row.tobytes()] for row in small.matrix]
    assert small.labels == tuple(big.labels[k] for k in kept)
    left_out = [big.labels[k] for k in range(24) if k not in kept]
    assert left_out == ["1,0,0,0", "0,1,1,0", "0,1,0,1", "0,0,1,-1",
                        "1,1,-1,-1", "1,-1,1,1"]
