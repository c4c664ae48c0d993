import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from ksray import (
    COMPLEX, REAL, ClassicalStrategy, ConspiratorialStrategy, InvalidInput,
    MCEstimate, Quadrant, QuantumStrategy, Region, RegionColoring,
    SeparableState,
    basis_colored_fraction_mc, canonicalize, classify,
    colored_fraction_complex, colored_fraction_real, cycle_graph,
    mc_colored_fraction, platter_simulate, pole_counterexample, realize,
    region_validity_mc, sample_rays, separable_quadrant, separable_to_ray,
    separable_validity_mc, stream_rng,
)
from ksray import measure, ortho
from ksray.measure import _quadrant
from ksray.rays import _canonical_rows
from ksray.rng import CHUNK, chunks, gaussian_rows

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


# --- classification -----------------------------------------------------------

def test_classify_real_pole_is_red():
    rc = RegionColoring(REAL, 3)
    assert classify(rc, canonicalize((1, 0, 0), REAL)) is Region.RED


def test_classify_real_equator_is_green():
    rc = RegionColoring(REAL, 3)
    assert classify(rc, canonicalize((0, 1, 0), REAL)) is Region.GREEN


def _integer_rays():
    """(d, rays) for d = 2-9: every nonzero ray with entries in
    {0, +-1, +-2, 3} for d = 2-4 and in {0, +-1} for d = 5-9."""
    for d in range(2, 10):
        entries = (0, 1, -1, 2, -2, 3) if d <= 4 else (0, 1, -1)
        yield d, [v for v in itertools.product(entries, repeat=d) if any(v)]


@functools.cache
def _exact_region(top: int, total: int, d: int) -> Region:
    """The cap-and-belt rule on the exact weight p_0 = top / total."""
    p0 = Fraction(top, total)
    if p0 > Fraction(1, 2):
        return Region.RED
    return Region.GREEN if p0 < Fraction(1, d) else Region.UNCOLORED


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_classify_matches_exact_rule_on_integer_rays(field):
    # p_0 of an integer ray is rational, so the exact rule decides every
    # region, and a ray exactly on a boundary is Uncolored whatever rounding
    # does to its canonical form; complex rays put i on the odd coordinates.
    # Each dimension's rays are canonicalized in one batch, row by row the
    # same bits as canonicalize.
    wrong = []
    for d, rays in _integer_rays():
        rc = RegionColoring(field, d)
        M = np.array(rays, dtype=np.complex128)
        if field == COMPLEX:
            M[:, 1::2] *= 1j
        for v, row in zip(rays, _canonical_rows(M, field)):
            got = classify(rc, row)
            if got is not _exact_region(v[0] ** 2, sum(x * x for x in v), d):
                wrong.append(v)
    assert not wrong, wrong[:5]


def test_boundary_pairs_are_not_both_red_or_both_green():
    # orthogonal rays on the cap boundary of R^2, and a basis of C^2 on its
    # belt boundary
    for field, pair in [(REAL, [(3, 3), (3, -3)]),
                        (COMPLEX, [(1 / SQ2, 1 / SQ2), (1 / SQ2, -1 / SQ2)])]:
        rc = RegionColoring(field, 2)
        regions = {classify(rc, canonicalize(v, field)) for v in pair}
        assert regions != {Region.RED} and regions != {Region.GREEN}


def test_classify_real_band_is_uncolored():
    rc = RegionColoring(REAL, 3)
    x0 = math.sin(math.radians(40))  # between 1/sqrt3 and 1/sqrt2
    vec = (x0, math.sqrt(1 - x0 * x0), 0)
    assert classify(rc, canonicalize(vec, REAL)) is Region.UNCOLORED


def test_classify_complex_thresholds():
    rc = RegionColoring(COMPLEX, 4)
    assert classify(rc, canonicalize((0.8, 0.6, 0, 0), COMPLEX)) is Region.RED
    assert classify(rc, canonicalize((0.3, 0.9, 0.3, 0.1), COMPLEX)) is Region.GREEN


@pytest.mark.parametrize("ray", [
    np.array([0.8, 0.6j, 0.0]), canonicalize((0.8, 0.6j, 0.0), COMPLEX),
], ids=["ndarray", "canonical"])
def test_classify_real_coloring_rejects_imaginary_part(ray):
    with pytest.raises(ValueError, match="ray field does not match"):
        classify(RegionColoring(REAL, 3), ray)
    assert classify(RegionColoring(COMPLEX, 3), ray) is Region.RED


@pytest.mark.parametrize("ray", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0)])
def test_classify_rejects_dimension_mismatch(ray):
    with pytest.raises(InvalidInput,
                       match="ray dimension does not match the coloring"):
        classify(RegionColoring(REAL, 3), np.asarray(ray))


def test_classify_phase_invariant():
    rc = RegionColoring(COMPLEX, 3)
    rng = stream_rng(606, 0)
    for _ in range(10_000):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        assert classify(rc, v) is classify(rc, phase * v)


# --- closed forms ---------------------------------------------------------------

def test_complex_fraction_n3_exact():
    assert abs(colored_fraction_complex(3) - 29.0 / 36.0) < 1e-12


def test_complex_fraction_terms_match_beta_tails():
    # cap P(p0 > 1/2) = (1/2)^(N-1), belt P(p0 < 1/N) = 1 - (1-1/N)^(N-1)
    for N in (2, 3, 5, 9):
        cap = (1 - 0.5) ** (N - 1)
        belt = 1 - (1 - 1.0 / N) ** (N - 1)
        assert abs(colored_fraction_complex(N) - (cap + belt)) < 1e-14


def test_complex_fraction_minimum_at_nine():
    values = {n: colored_fraction_complex(n) for n in range(2, 65)}
    assert min(values, key=values.get) == 9
    assert 0.610 <= values[9] <= 0.620


def test_complex_fraction_limit():
    assert abs(colored_fraction_complex(10_000) - (1 - 1 / math.e)) < 1e-3


def test_real_fraction_d3_exact():
    expect = 1 - 1 / SQ2 + 1 / SQ3
    assert abs(colored_fraction_real(3) - expect) < 1e-10


def test_real_fraction_against_quadrature():
    # independent oracle: integrate the marginal density directly
    for d in (3, 4, 7, 12, 30):
        dens = lambda x: (1 - x * x) ** ((d - 3) / 2.0)
        z, _ = integrate.quad(dens, -1, 1)
        cap, _ = integrate.quad(dens, 1 / SQ2, 1)
        belt, _ = integrate.quad(dens, 0, 1 / math.sqrt(d))
        oracle = (2 * cap + 2 * belt) / z
        assert abs(colored_fraction_real(d) - oracle) < 1e-10


def test_real_fraction_against_mpmath_and_scipy():
    """The recurrence against 30-digit incomplete beta values (2e-15) and
    against scipy's betainc (1e-14), d = 2..200."""
    with mpmath.workdps(30):
        for d in range(2, 201):
            a, b = mpmath.mpf(1) / 2, mpmath.mpf(d - 1) / 2
            exact = (1 - mpmath.betainc(a, b, 0, a, regularized=True)
                     + mpmath.betainc(a, b, 0, 1 / mpmath.mpf(d),
                                      regularized=True))
            scipy_value = (1.0 - special.betainc(0.5, (d - 1) / 2, 0.5)
                           + special.betainc(0.5, (d - 1) / 2, 1.0 / d))
            value = colored_fraction_real(d)
            assert abs(value - float(exact)) <= 2e-15, d
            assert abs(value - scipy_value) <= 1e-14, d


def test_real_fraction_large_d_near_erf():
    assert abs(colored_fraction_real(10_000) - special.erf(1 / SQ2)) < 1e-2


def test_real_fraction_minimum_location():
    # the integer minimum of the pinned closed form sits at d = 13, one past
    # the dimension quoted in the acceptance criteria; values at 12 and 13
    # agree to three decimals (0.668 vs 0.668)
    values = {d: colored_fraction_real(d) for d in range(3, 65)}
    assert min(values, key=values.get) == 13
    assert 0.66 <= values[12] <= 0.68
    assert 0.66 <= values[13] <= 0.68


def test_fraction_d2_is_one():
    assert abs(colored_fraction_real(2) - 1.0) < 1e-12
    assert abs(colored_fraction_complex(2) - 1.0) < 1e-12


@pytest.mark.parametrize("call", [
    lambda: colored_fraction_real(3.5),
    lambda: colored_fraction_real(True),
    lambda: colored_fraction_complex(2.5),
    lambda: RegionColoring(REAL, 2.5),
    lambda: mc_colored_fraction(REAL, 2.5, 10, 0),
    lambda: region_validity_mc(COMPLEX, 2.5, 10, 0),
    lambda: basis_colored_fraction_mc(2.5, 10, 0),
    lambda: realize(cycle_graph(5), 3.5, 0),
    lambda: sample_rays(REAL, 3.0, 2, stream_rng(0, 0)),
    lambda: sample_rays(REAL, True, 2, stream_rng(0, 0)),
    lambda: sample_rays(REAL, 3, 2.5, stream_rng(0, 0)),
    lambda: sample_rays(REAL, 3, "2", stream_rng(0, 0)),
], ids=["real", "real-bool", "complex", "coloring", "fraction-mc",
        "validity-mc", "bases-mc", "realize", "sample-d-float",
        "sample-d-bool", "sample-n-float", "sample-n-string"])
def test_non_integer_dimension_is_a_value_error(call):
    with pytest.raises(ValueError, match="must be an integer, got"):
        call()


def _no_draws(*args):
    raise AssertionError("random numbers drawn for an unknown field")


def test_unknown_field_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(ortho, "stream_rng", _no_draws)
    calls = [
        lambda: gaussian_rows(stream_rng(0, 0), 1, 3, "Complex"),
        lambda: gaussian_rows(stream_rng(0, 0), 1, 3, [COMPLEX]),
        lambda: realize(cycle_graph(5), 3, 0, field="Real"),
        lambda: sample_rays("Real", 3, 1, stream_rng(0, 0)),
        lambda: RegionColoring("Real", 3),
        lambda: canonicalize((1, 0), "Real"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown field"):
            call()


def test_numpy_integer_dimension_is_valid():
    d = np.int64(5)
    assert colored_fraction_real(d) == colored_fraction_real(5)
    assert colored_fraction_complex(d) == colored_fraction_complex(5)
    assert RegionColoring(COMPLEX, d) == RegionColoring(COMPLEX, 5)


# --- sampling -------------------------------------------------------------------

def test_sample_ray_is_canonical():
    rng = stream_rng(42, 0)
    for field in (REAL, COMPLEX):
        for ray in sample_rays(field, 4, 100, rng):
            assert abs(np.linalg.norm(ray) - 1) < 1e-12
            lead = ray[np.argmax(np.abs(ray) > 1e-12)]
            assert abs(lead.imag) < 1e-15 and lead.real > 0


def test_complex_p0_moments():
    # p0 ~ Beta(1, d-1): mean 1/3 and P(p0 > 1/2) = 1/4 in d = 3
    rows = sample_rays(COMPLEX, 3, 200_000, stream_rng(7, 0))
    p0 = np.abs(rows[:, 0]) ** 2
    se_mean = p0.std() / math.sqrt(len(p0))
    assert abs(p0.mean() - 1 / 3) < 4 * se_mean
    tail = (p0 > 0.5).mean()
    se_tail = math.sqrt(tail * (1 - tail) / len(p0))
    assert abs(tail - 0.25) < 4 * se_tail


def test_real_first_coordinate_uniform():
    rows = sample_rays(REAL, 3, 200_000, stream_rng(8, 0))
    x0 = np.abs(rows[:, 0])
    frac = (x0 < 1 / SQ3).mean()
    se = math.sqrt(frac * (1 - frac) / len(x0))
    assert abs(frac - 1 / SQ3) < 4 * se


def sample_bases(field: str, d: int, n: int, rng) -> np.ndarray:
    """n Haar orthonormal bases, shape (n, d, d), basis vectors in columns.

    QR of an i.i.d. Gaussian matrix, with the phase of each diagonal entry
    of R moved into Q (Mezzadri, Notices AMS 54, 2007): that is the
    positive-diagonal convention that makes the distribution Haar.  An
    exactly zero r_ii has measure zero and keeps phase 1.
    """
    Q, R = np.linalg.qr(gaussian_rows(rng, n, d * d, field).reshape(n, d, d))
    r = np.diagonal(R, axis1=1, axis2=2)
    absr = np.abs(r)
    phase = np.divide(r, absr, out=np.ones_like(r), where=absr > 0)
    return Q * phase[:, None, :]


def test_sample_bases_orthonormal():
    for field in (REAL, COMPLEX):
        Q = sample_bases(field, 4, 500, stream_rng(9, 0))
        eye = np.einsum("nij,nik->njk", Q.conj(), Q)
        assert np.abs(eye - np.eye(4)).max() < 1e-12


def test_sample_bases_sign_convention():
    # Householder QR alone leaves Q[:, 0, 0] one-signed; the phase fix makes
    # the first entry of a Haar basis symmetric about zero
    x = sample_bases(REAL, 3, 20_000, stream_rng(1111, 0))[:, 0, 0]
    assert abs(x.mean()) < 4 * x.std() / math.sqrt(len(x))


class _ZeroNormals:
    def standard_normal(self, shape):
        return np.zeros(shape)


def test_sample_bases_zero_pivot_keeps_phase_one():
    for field in (REAL, COMPLEX):
        Q = sample_bases(field, 3, 2, _ZeroNormals())
        assert np.isfinite(Q).all()
        eye = np.einsum("nij,nik->njk", Q.conj(), Q)
        assert np.abs(eye - np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_haar_bases_obey_region_rules(field, d):
    # row i of Q classifies the basis by coordinate i, and column j
    # classifies the standard basis against the axis q_j; either way the d
    # weights belong to one orthonormal basis: no two Red, never all Green
    rc = RegionColoring(field, d)
    Q = sample_bases(field, d, 20_000, stream_rng(1212, d))
    a = np.abs(np.concatenate([Q, Q.transpose(0, 2, 1)], axis=1))
    red, green = rc.masks((a ** 2).reshape(-1, d))
    assert red.sum(axis=1).max() <= 1
    assert not green.all(axis=1).any()


# --- Monte Carlo fractions ------------------------------------------------------

@pytest.mark.parametrize("field,d", [(REAL, 3), (REAL, 12), (REAL, 64),
                                     (COMPLEX, 3), (COMPLEX, 16)])
def test_mc_fraction_against_sampled_rays(field, d):
    # oracle: classify the first weight of whole rays from sample_rays,
    # against the estimator's two variates per sample: a squared normal or
    # an exponential for the head, one gamma variate for the rest
    n = 50_000
    rows = sample_rays(field, d, n, stream_rng(3131, d))
    red, green = RegionColoring(field, d).masks(np.abs(rows[:, 0]) ** 2)
    oracle = (red | green).mean()
    est = mc_colored_fraction(field, d, 200_000, seed=3132)
    se = math.sqrt(est.stderr ** 2 + oracle * (1 - oracle) / n)
    assert abs(est.value - oracle) <= 4 * se


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_mc_fraction_d2_is_one(field):
    # p_0 > 1/2 or p_0 < 1/2: every ray of dimension two is colored
    est = mc_colored_fraction(field, 2, 20_000, seed=3133)
    assert (est.value, est.stderr) == (1.0, 0.0)


@pytest.mark.parametrize("field,d", [(REAL, 3), (REAL, 4), (REAL, 9),
                                     (REAL, 12), (COMPLEX, 3), (COMPLEX, 4),
                                     (COMPLEX, 9), (COMPLEX, 12)])
def test_mc_matches_closed_form(field, d):
    est = mc_colored_fraction(field, d, 200_000, seed=101)
    closed = (colored_fraction_real(d) if field == REAL
              else colored_fraction_complex(d))
    assert abs(est.value - closed) <= 4 * est.stderr


def test_mc_estimate_fields():
    est = mc_colored_fraction(REAL, 3, 10_000, seed=5)
    assert isinstance(est, MCEstimate)
    assert est.samples == 10_000 and est.seed == 5
    assert abs(est.stderr
               - math.sqrt(est.value * (1 - est.value) / 10_000)) < 1e-15


def test_mc_deterministic():
    a = mc_colored_fraction(COMPLEX, 3, 50_000, seed=77)
    b = mc_colored_fraction(COMPLEX, 3, 50_000, seed=77)
    assert a == b


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_region_validity(field, d):
    assert region_validity_mc(field, d, 20_000, seed=303) == (0, 0)


def _row_weights(field, d, samples, seed, rows):
    """Each chunk's coordinate weights, one row per ray: the chunk's (d, size)
    draw of squared normals (real) or exponentials (complex), copied into
    rows and divided by each row's own sum."""
    for rng, size in chunks(seed, samples, rows=rows):
        if field == REAL:
            x = np.ascontiguousarray(rng.standard_normal((d, size)).T) ** 2
        else:
            x = np.ascontiguousarray(rng.standard_exponential((d, size)).T)
        yield x / x.sum(axis=1, keepdims=True)


def test_region_reductions_count_a_widened_band(monkeypatch):
    # a negative band -w widens both regions (Red p > 1/2 - w, Green
    # p < 1/d + w) so the reductions count non-zero events; an oracle
    # recounts them row by row.  From d = 8 the sampler's sum down each
    # coordinate column may round unlike numpy's pairwise row sum, and at
    # d = 65 a chunk holds CHUNK * 64 // 65 rows.
    samples, seed = 70_000, 5  # a full chunk and a short last one
    for field, d, w in ((REAL, 3, 0.2), (COMPLEX, 4, 0.2),
                        (REAL, 9, 0.2), (COMPLEX, 9, 0.2),
                        (REAL, 65, 0.42), (COMPLEX, 65, 0.42)):
        rows = CHUNK * 64 // max(d, 64)
        both_red = all_green = full = 0
        for p in _row_weights(field, d, samples, seed, rows):
            reds = (p > 0.5 - w).sum(axis=1)
            both_red += int((reds * (reds - 1) // 2).sum())
            all_green += int((p < 1 / d + w).all(axis=1).sum())
            # a fully colored basis in the unwidened regions
            full += int(((p > 0.5 + 1e-12) | (p < 1 / d - 1e-12))
                        .all(axis=1).sum())
        assert both_red > 0 and all_green > 0
        if field == REAL:
            assert basis_colored_fraction_mc(d, samples, seed).value == (
                full / samples)
        monkeypatch.setattr(measure, "BOUNDARY_TOL", -w)
        assert region_validity_mc(field, d, samples, seed) == (both_red,
                                                               all_green)
        monkeypatch.undo()
    monkeypatch.setattr(measure, "BOUNDARY_TOL", -0.2)
    with pytest.raises(AssertionError, match="exactly one Red"):
        basis_colored_fraction_mc(3, samples, seed)
    # widening the Green belt alone leaves no basis two Reds, so the check
    # trips on its zero-Red side: fully Green bases
    monkeypatch.undo()
    masks = measure.RegionColoring.masks
    monkeypatch.setattr(measure.RegionColoring, "masks", lambda rc, p: (
        masks(rc, p)[0], p < 1 / rc.dimension + 0.2))
    both_red, all_green = region_validity_mc(REAL, 3, samples, seed)
    assert both_red == 0 and all_green > 0
    with pytest.raises(AssertionError, match="exactly one Red"):
        basis_colored_fraction_mc(3, samples, seed)


@pytest.mark.parametrize("call", [
    colored_fraction_real,
    colored_fraction_complex,
    lambda d: mc_colored_fraction(REAL, d, 10, 0),
    lambda d: region_validity_mc(COMPLEX, d, 10, 0),
    lambda d: basis_colored_fraction_mc(d, 10, 0),
], ids=["real", "complex", "fraction-mc", "validity-mc", "bases-mc"])
def test_dimension_guard(call):
    with pytest.raises(InvalidInput, match="exceeds the guard of 1000000"):
        call(measure.DIM_GUARD + 1)


def test_dimension_guard_admits_its_value():
    d = measure.DIM_GUARD
    assert abs(colored_fraction_complex(d) - (1 - 1 / math.e)) < 1e-6
    assert mc_colored_fraction(COMPLEX, d, 10, 0).samples == 10


SEEDED = {  # entry point: (call(budget, seed), budget name, a valid budget)
    "fraction": (lambda n, s: mc_colored_fraction(REAL, 3, n, s),
                 "samples", 1000),
    "validity": (lambda n, s: region_validity_mc(COMPLEX, 3, n, s),
                 "samples", 1000),
    "bases": (lambda n, s: basis_colored_fraction_mc(3, n, s),
              "samples", 1000),
    "separable": (separable_validity_mc, "samples", 1000),
    "platter": (lambda n, s: platter_simulate(ConspiratorialStrategy(), n, s),
                "trials", 1000),
    # realize has no budget; its dimension takes that place
    "realize": (lambda d, s: realize(cycle_graph(5), d, s).matrix.tolist(),
                "dimension", 3),
    # a Philox stream has no budget; its stream index takes that place
    "stream": (lambda k, s: stream_rng(s, k).random(4).tolist(), "stream", 3),
}


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_entry_points_refuse_non_integers(name):
    # a record must report the budget and the seed its streams ran with, so
    # a float, string or bool is refused, naming the argument
    call, budget, good = SEEDED[name]
    for bad in (2.5, 1000.0, "3", True):
        with pytest.raises(InvalidInput, match=re.escape(
                f"{budget} must be an integer, got {bad!r}")):
            call(bad, 7)
    for bad in (7.9, "7", True):
        with pytest.raises(InvalidInput, match=re.escape(
                f"seed must be an integer, got {bad!r}")):
            call(good, bad)
    assert call(np.int64(good), np.int64(7)) == call(good, 7)


REFUSAL_ORDER = {  # entry point: (call(budget, dimension or strategy, seed),
    # each argument as (position, bad, good, refusal) in the order refused)
    "fraction": (lambda n, d, s: mc_colored_fraction(REAL, d, n, s), [
        (0, 0, 100, "samples must be >= 1"),
        (1, 1, 3, "dimension must be >= 2"),
        (2, 7.9, 7, "seed must be an integer, got 7.9")]),
    "validity": (lambda n, d, s: region_validity_mc(COMPLEX, d, n, s), [
        (0, 0, 100, "samples must be >= 1"),
        (1, 1, 3, "dimension must be >= 2"),
        (2, 7.9, 7, "seed must be an integer, got 7.9")]),
    # the basis fraction checks its dimension before its budget
    "bases": (lambda n, d, s: basis_colored_fraction_mc(d, n, s), [
        (1, 1, 3, "d must be >= 2"),
        (0, 0, 100, "samples must be >= 1"),
        (2, 7.9, 7, "seed must be an integer, got 7.9")]),
    "separable": (lambda n, _, s: separable_validity_mc(n, s), [
        (0, 0, 100, "samples must be >= 1"),
        (2, 7.9, 7, "seed must be an integer, got 7.9")]),
    "platter": (lambda n, q, s: platter_simulate(QuantumStrategy(q), n, s), [
        (0, 0, 100, "trials must be >= 1"),
        (1, (0, 0, 0), (0, 0, 1), "state norm 0 is not finite and positive"),
        (2, 7.9, 7, "seed must be an integer, got 7.9")]),
}


@pytest.mark.parametrize("name", REFUSAL_ORDER)
def test_chunked_entry_points_refuse_in_order(name):
    # the budget is refused at call time and the seed only when the first
    # chunk is drawn, so a bad seed never hides a bad dimension or strategy
    call, steps = REFUSAL_ORDER[name]
    args = [None] * 3
    for position, bad, _, _ in steps:
        args[position] = bad
    for position, _, good, message in steps:
        with pytest.raises(InvalidInput, match=re.escape(message)):
            call(*args)
        args[position] = good
    call(*args)


class _RecordingRng:
    """A generator that records the size of every draw made from it."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def __getattr__(self, name):
        def draw(size):
            self._sizes.append(size)
            return getattr(self._rng, name)(size)
        return draw


@pytest.mark.parametrize("d,rows", [(64, CHUNK), (65, CHUNK * 64 // 65),
                                    (1000, CHUNK * 64 // 1000)])
def test_wide_rows_shrink_their_chunk(monkeypatch, d, rows):
    # a chunk draws one (d, rows) array of at most CHUNK * 64 variates in
    # either field; the last chunk is short
    plain = measure.chunks
    for field in (REAL, COMPLEX):
        shapes = []
        monkeypatch.setattr(measure, "chunks", lambda *a, **k: (
            (_RecordingRng(rng, shapes), size) for rng, size in plain(*a, **k)))
        region_validity_mc(field, d, 2 * rows + 7, seed=0)
        assert shapes == [(d, rows), (d, rows), (d, 7)]


@pytest.mark.parametrize("field,d,w", [
    (COMPLEX, 3, 0.2), (COMPLEX, 4, 0.2), (COMPLEX, 6, 0.3), (REAL, 3, 0.2),
    (REAL, 7, 0.3)])
def test_region_weights_follow_sampled_rays(monkeypatch, field, d, w):
    # the law of the drawn weights: widened-band counts (see above) against
    # the same counts on the weights |x_j|^2 of whole sample_rays rows; two
    # samples of n from one law differ by sqrt(2 var / n) in their means
    n = 50_000
    p = np.abs(sample_rays(field, d, n, stream_rng(4141, d))) ** 2
    reds = (p > 0.5 - w).sum(axis=1)
    oracle = (reds * (reds - 1) // 2, (p < 1 / d + w).all(axis=1))
    monkeypatch.setattr(measure, "BOUNDARY_TOL", -w)
    counts = region_validity_mc(field, d, n, seed=4142)
    for count, x in zip(counts, oracle):
        assert count > 0
        assert abs(count / n - x.mean()) <= 4 * math.sqrt(2 * x.var() / n)


RAGGED = 2 * CHUNK + 7  # two full chunks and a short last one


@pytest.mark.parametrize("run,expected", [
    (lambda: mc_colored_fraction(REAL, 5, RAGGED, 11),
     "MCEstimate(value=0.7412323865760343, stderr=0.0012096663332400392, "
     "samples=131079, seed=11)"),
    (lambda: mc_colored_fraction(COMPLEX, 4, RAGGED, 12),
     "MCEstimate(value=0.7031713699372134, stderr=0.0012618767077379005, "
     "samples=131079, seed=12)"),
    (lambda: region_validity_mc(REAL, 3, RAGGED, 13), "(0, 0)"),
    (lambda: region_validity_mc(COMPLEX, 4, RAGGED, 13), "(0, 0)"),
    (lambda: basis_colored_fraction_mc(2, RAGGED, 14),
     "MCEstimate(value=1.0, stderr=0.0, samples=131079, seed=14)"),
    (lambda: basis_colored_fraction_mc(3, RAGGED, 15),
     "MCEstimate(value=0.6976250963159621, stderr=0.0012685785375499427, "
     "samples=131079, seed=15)"),
    (lambda: basis_colored_fraction_mc(4, RAGGED, 16),
     "MCEstimate(value=0.45315420471623985, stderr=0.0013749562701981118, "
     "samples=131079, seed=16)"),
    (lambda: separable_validity_mc(RAGGED, 17), "0"),
    (lambda: platter_simulate(ClassicalStrategy((1, 0, 1, 0, 0)), RAGGED, 18),
     "PlatterOutcome(strategy='classical', estimate=2.0, trials=131079, "
     "seed=18, frequencies=(1.0, 0.0, 1.0, 0.0, 0.0))"),
    (lambda: platter_simulate(ConspiratorialStrategy(), RAGGED, 19),
     "PlatterOutcome(strategy='conspiratorial', estimate=2.4999999901768115, "
     "trials=131079, seed=19, frequencies=(0.49931441630165685, "
     "0.4987669425911411, 0.5024979977880325, 0.4978562853712914, "
     "0.50156434812469))"),
    (lambda: platter_simulate(QuantumStrategy((0, 0, 1)), RAGGED, 20),
     "PlatterOutcome(strategy='quantum', estimate=2.2335156536806453, "
     "trials=131079, seed=20, frequencies=(0.4439893586480124, "
     "0.447225826146684, 0.447323890103622, 0.449056747155043, "
     "0.44591983162728405))"),
], ids=["fraction-real", "fraction-complex", "validity-real",
        "validity-complex", "bases-2", "bases-3", "bases-4", "separable",
        "platter-classical", "platter-conspiratorial", "platter-quantum"])
def test_chunked_entry_points_pinned(run, expected):
    """Every chunked Monte Carlo result, to the last digit, over a budget
    whose last chunk is short: the chunk/stream split must never move."""
    assert repr(run()) == expected


def _spawned(seed, k):
    """Child k of SeedSequence(seed mod 2^64) as an SFC64 generator."""
    child = np.random.SeedSequence(int(seed) % 2**64).spawn(k + 1)[k]
    return np.random.Generator(np.random.SFC64(child))


@pytest.mark.parametrize("seed", [5, -3, np.int64(2**40 + 9)])
def test_chunk_k_draws_child_k_of_the_seed(seed):
    for k, (rng, size) in enumerate(chunks(seed, RAGGED)):
        assert rng.standard_normal(16).tolist() == (
            _spawned(seed, k).standard_normal(16).tolist())
        assert size == (7 if k == 2 else CHUNK)


def test_chunk_streams_are_uncorrelated():
    # neighbouring seeds and chunks, and chunk 0 of seed 2^32 + 1 against
    # chunk 1 of seed 1, which SeedSequence([s, k]) would draw alike
    n = 2**16

    def stream(seed, k):
        rng, _ = list(chunks(seed, (k + 1) * CHUNK))[k]
        return rng.standard_normal(n)

    s, k = 41, 3
    pairs = [((s, k), (s, k + 1)), ((s, k), (s + 1, k)),
             ((s, k + 1), (s + 1, k)), ((2**32 + 1, 0), (1, 1))]
    for a, b in pairs:
        r = np.corrcoef(stream(*a), stream(*b))[0, 1]
        assert abs(r) < 4 / math.sqrt(n)


def test_first_chunk_of_a_large_budget_is_small():
    # a list of chunk sizes held 8.5 MB per million chunks before any draw
    tracemalloc.start()
    try:
        next(chunks(0, CHUNK * 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_basis_fraction_d2_is_one():
    est = basis_colored_fraction_mc(2, 20_000, seed=404)
    assert est.value == 1.0


def test_basis_fraction_d3_against_marginal_oracle():
    # oracle: the first coordinates of a Haar basis form a uniform unit
    # vector, so classify sphere samples coordinatewise
    est = basis_colored_fraction_mc(3, 200_000, seed=505)
    rng = stream_rng(9090, 0)
    g = rng.standard_normal((400_000, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    a = np.abs(g)
    colored = (a > 1 / SQ2) | (a < 1 / SQ3)
    oracle = colored.all(axis=1).mean()
    se = math.sqrt(est.value * (1 - est.value) / est.samples
                   + oracle * (1 - oracle) / 400_000)
    assert abs(est.value - oracle) < 4 * se


def _basis_fraction_quadrature(d: int) -> float:
    """d P(x_1^2 > 1/2, x_j^2 < 1/d for j >= 2), x uniform on S^(d-1), d = 3, 4.

    Given x_1 = x, the rest is sqrt(1 - x^2) y with y uniform on S^(d-2), and
    the belt asks |y_j| < c = 1/sqrt(d (1 - x^2)).  For x^2 > 1/2, c > 1/sqrt2,
    so at most one |y_j| reaches c: the belt holds with probability
    1 - (d-1) P(|y_1| >= c), where P(|y_1| >= c) is (2/pi) arccos c on the
    circle and 1 - c on S^2 (Archimedes).  x_1 has density proportional to
    (1 - x^2)^((d-3)/2), and the belt always holds once c >= 1.
    """
    tail = {3: lambda c: 2 * math.acos(c) / math.pi, 4: lambda c: 1 - c}[d]

    def density(x):
        return (1 - x * x) ** ((d - 3) / 2)

    def integrand(x):
        c = 1 / math.sqrt(d * (1 - x * x))
        return density(x) * (1 - (d - 1) * tail(c) if c < 1 else 1)

    kink = math.sqrt(1 - 1 / d)  # c = 1
    cap = sum(integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
              for lo, hi in ((1 / SQ2, kink), (kink, 1)))
    norm, _ = integrate.quad(density, 0, 1, epsabs=1e-13, epsrel=1e-13)
    return d * cap / norm


@pytest.mark.parametrize("d,reference", [(3, 0.69575947), (4, 0.45255457)])
def test_basis_fraction_against_quadrature(d, reference):
    # reference: the same integral in 30-digit mpmath arithmetic, rounded
    exact = _basis_fraction_quadrature(d)
    assert abs(exact - reference) < 1e-8
    est = basis_colored_fraction_mc(d, 10 ** 6, seed=707)
    assert abs(est.value - exact) <= 4 * est.stderr


@pytest.mark.parametrize("d", [3, 4])
def test_basis_fraction_against_haar_first_rows(d):
    # the ray-sampled estimate must match classifying actual Haar bases
    n = 200_000
    a = np.abs(sample_bases(REAL, d, n, stream_rng(1313, d))[:, 0, :])
    haar = ((a > 1 / SQ2) | (a < 1 / math.sqrt(d))).all(axis=1).mean()
    est = basis_colored_fraction_mc(d, n, seed=1314)
    se = math.sqrt(est.value * (1 - est.value) / n + haar * (1 - haar) / n)
    assert abs(est.value - haar) < 4 * se


# --- separable quadrants --------------------------------------------------------

def test_quadrant_partition():
    assert separable_quadrant(
        SeparableState(1.0, 0.1, 1.0, 0.2)) is Quadrant.I
    assert separable_quadrant(
        SeparableState(1.0, 0.1, 1.0, math.pi + 0.1)) is Quadrant.II
    assert separable_quadrant(
        SeparableState(1.0, math.pi + 0.1, 1.0, 0.1)) is Quadrant.III
    assert separable_quadrant(
        SeparableState(1.0, math.pi + 0.1, 1.0, math.pi + 0.2)) is Quadrant.IV


def test_quadrant_rule_elementwise():
    # the edges of each half-interval, then seeded phases
    edges = [0.0, math.nextafter(math.pi, 0.0), math.pi]
    a, b = np.array(list(itertools.product(edges, repeat=2))).T
    drawn = stream_rng(515, 0).uniform(0.0, 2 * math.pi, (2, 500))
    a, b = np.concatenate([a, drawn[0]]), np.concatenate([b, drawn[1]])
    states = [SeparableState(1.0, x, 1.0, y) for x, y in zip(a, b)]
    want = [tuple(Quadrant).index(separable_quadrant(s)) for s in states]
    assert _quadrant(a, b).tolist() == want


def test_phase_flip_is_mod_bit_for_bit():
    # the edges of the wrap, then one full chunk of draws; int64 views tell
    # -0.0 from 0.0
    edges = np.array([0.0, math.nextafter(math.pi, 0.0), math.pi,
                      math.nextafter(2 * math.pi, 0.0)])
    drawn = stream_rng(616, 0).uniform(0.0, 2 * math.pi, (CHUNK, 2))
    for phi in (edges, drawn):
        want = np.mod(phi + math.pi, 2 * math.pi)
        assert np.array_equal(measure._flip(phi).view(np.int64),
                              want.view(np.int64))


def test_orthogonal_partner_lands_in_other_quadrant():
    # flipping one factor moves its phase by pi, off the poles
    rng = stream_rng(111, 0)
    for _ in range(200):
        theta = math.acos(rng.uniform(-0.999, 0.999))
        phi = rng.uniform(0, 2 * math.pi)
        s = SeparableState(theta, phi, 1.3, 2.1)
        perp = SeparableState(math.pi - theta, (phi + math.pi) % (2 * math.pi),
                              0.7, 0.4)
        assert abs(np.vdot(separable_to_ray(s), separable_to_ray(perp))) < 1e-12
        assert separable_quadrant(s) is not separable_quadrant(perp)


def test_separable_validity():
    assert separable_validity_mc(20_000, seed=202) == 0


def test_pole_counterexample():
    s1, s2 = pole_counterexample()
    r1, r2 = separable_to_ray(s1), separable_to_ray(s2)
    assert abs(np.vdot(r1, r2)) < 1e-12  # orthogonal rays
    assert separable_quadrant(s1) is separable_quadrant(s2)  # same quadrant
    assert s1.phi_a == 0.0 and s2.phi_a == 0.0  # chart pins the pole phase


def test_pole_chart_convention():
    s = SeparableState(0.0, 2.5, 1.0, 1.0)
    assert s.phi_a == 0.0
    s = SeparableState(1.0, 1.0, math.pi, 4.0)
    assert s.phi_b == 0.0


def test_separable_state_validates_ranges():
    with pytest.raises(ValueError):
        SeparableState(-0.1, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SeparableState(1.0, 7.0, 1.0, 0.0)
