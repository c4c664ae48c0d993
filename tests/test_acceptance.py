"""Acceptance suite: one test per criterion, full sample sizes, pinned
tolerances.  Each test prints a single pass/fail line (visible with -s).

Criteria 2 and 4 each contain one required target that the implemented
definitions provably do not reproduce; those assertions are kept exactly as
required and fail with the measured value in the message.  Everything else
is green.
"""

import math

import numpy as np
import pytest
from scipy import special

from ksray import (
    COMPLEX, REAL, ClassicalStrategy, ConspiratorialStrategy,
    ParityCertificate, QuantumStrategy, RegionColoring, basis_colored_fraction_mc,
    canonicalize, ceg18, classify, colored_fraction_complex,
    colored_fraction_real, complete_bases, cube13, cube_members, eigen_max,
    equal_weight_povm_check, independence_number, kcbs5, ks_solve,
    mc_colored_fraction, ortho_graph, peres24, platter_simulate,
    pole_counterexample, projector_sum, region_validity_mc, sample_rays,
    separable_quadrant, separable_to_ray, separable_validity_mc, stream_rng,
    theta_certificate, three_cubes, verify_coloring, build_rayset,
    fractional_packing,
)

SQRT5 = math.sqrt(5.0)
PHASES = (0.0, 0.3, math.pi / 2, 2 * math.pi / 3, 1.7)


def report(num: int, label: str):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except AssertionError:
                print(f"criterion {num:2d} [{label}]: FAIL")
                raise
            print(f"criterion {num:2d} [{label}]: PASS")
        wrapper.__name__ = fn.__name__
        return wrapper
    return decorator


@report(1, "complex closed forms")
def test_criterion_01_complex_closed_forms():
    assert abs(colored_fraction_complex(3) - 29.0 / 36.0) <= 1e-12
    values = {n: colored_fraction_complex(n) for n in range(2, 65)}
    assert 0.610 <= values[9] <= 0.620
    assert min(values, key=values.get) == 9
    assert abs(colored_fraction_complex(10_000) - (1 - 1 / math.e)) <= 1e-3


@report(2, "real closed forms")
def test_criterion_02_real_closed_forms():
    assert abs(colored_fraction_real(3)
               - (1 - 1 / math.sqrt(2) + 1 / math.sqrt(3))) <= 1e-10
    assert abs(colored_fraction_real(10_000)
               - special.erf(1 / math.sqrt(2))) <= 1e-2
    values = {d: colored_fraction_real(d) for d in range(3, 65)}
    assert 0.66 <= values[12] <= 0.68
    argmin = min(values, key=values.get)
    # required: the minimum over d in [3, 64] sits at d = 12.  The pinned
    # closed form puts it at d = 13 (0.6676325 there vs 0.6680716 at 12),
    # confirmed by independent quadrature; kept as required.
    assert argmin == 12, (
        f"argmin is d={argmin} (value {values[argmin]:.7f}); "
        f"d=12 gives {values[12]:.7f}")


@report(3, "Monte Carlo agreement")
def test_criterion_03_monte_carlo_agreement():
    cases = ((REAL, 3), (REAL, 12), (COMPLEX, 3), (COMPLEX, 9))
    for field, d in cases:
        est = mc_colored_fraction(field, d, 10 ** 6, seed=2101)
        closed = (colored_fraction_real(d) if field == REAL
                  else colored_fraction_complex(d))
        assert abs(est.value - closed) <= 4 * est.stderr, (field, d, est)
    for field in (REAL, COMPLEX):
        for d in (3, 4, 5):
            assert region_validity_mc(field, d, 10 ** 5, seed=2103) == (0, 0)


@report(4, "fully colored basis fractions")
def test_criterion_04_basis_fractions():
    d3 = basis_colored_fraction_mc(3, 10 ** 6, seed=2104)
    assert abs(d3.value - 0.69) <= 0.01, d3
    d4 = basis_colored_fraction_mc(4, 10 ** 6, seed=2105)
    # required: 0.34 +- 0.01.  The defined cap-belt region yields 0.45255
    # in dimension four (quadrature oracle in test_measure.py); the
    # requirement is asserted unchanged.
    assert abs(d4.value - 0.34) <= 0.01, (
        f"measured {d4.value:.4f} +- {d4.stderr:.4f}, required 0.34 +- 0.01")


@report(5, "colorability verdicts")
def test_criterion_05_colorability():
    g13 = ortho_graph(cube13())
    bases13 = complete_bases(g13)
    verdict = ks_solve(g13, bases13)
    assert verdict.colorable
    ok, _ = verify_coloring(g13, bases13, verdict.witness)
    assert ok
    for phi in (0.0, 2 * math.pi / 3):
        assert not ks_solve(ortho_graph(three_cubes(phi))).colorable
    assert not ks_solve(ortho_graph(peres24())).colorable
    v18 = ks_solve(ortho_graph(ceg18()))
    assert not v18.colorable
    cert = v18.certificate
    assert isinstance(cert, ParityCertificate)
    assert cert.basis_count == 9
    assert cert.incidence_counts == (2,) * 18


@report(6, "structure counts")
def test_criterion_06_structure_counts():
    g13 = ortho_graph(cube13())
    assert g13.n == 13
    assert len(g13.edges) == 24
    assert len(complete_bases(g13)) == 4
    reference = None
    for phi in PHASES:
        rs = three_cubes(phi)
        assert len(rs) == 33
        members = [cube_members(lbl) for lbl in rs.labels]
        assert sum(1 for m in members if len(m) == 3) == 3
        assert sum(1 for m in members if m == {"II"}) == 10
        assert sum(1 for m in members if m == {"III"}) == 10
        g = ortho_graph(rs)
        intercube = [e for e in g.edges
                     if not (members[e[0]] & members[e[1]])]
        assert len(intercube) == 6
        if reference is None:
            reference = g.adjacency
        else:
            assert np.array_equal(reference, g.adjacency)


@report(7, "bounds triple")
def test_criterion_07_bounds_triple():
    g5 = ortho_graph(kcbs5())
    alpha, _ = independence_number(g5)
    assert alpha == 2
    assert abs(theta_certificate(g5).value - SQRT5) <= 1e-5
    alpha_star, _ = fractional_packing(g5)
    assert abs(alpha_star - 2.5) <= 1e-9
    for rs in (cube13(), peres24(), ceg18(), kcbs5(), three_cubes(0.0)):
        g = ortho_graph(rs)
        a, _ = independence_number(g)
        cert = theta_certificate(g)
        astar, _ = fractional_packing(g)
        assert a <= cert.value + 1e-5
        assert cert.value <= astar + 1e-5


@report(8, "spectra")
def test_criterion_08_spectra():
    assert abs(eigen_max(projector_sum(kcbs5())) - SQRT5) <= 1e-9
    sigma = projector_sum(cube13())
    assert np.abs(sigma - (13.0 / 3.0) * np.eye(3)).max() <= 1e-12
    flat, const = equal_weight_povm_check(cube13())
    assert flat and abs(const - 13.0 / 3.0) <= 1e-12
    basis = build_rayset([(1, 0, 0), (0, 1, 0), (0, 0, 1)], REAL)
    assert np.abs(projector_sum(basis) - np.eye(3)).max() <= 1e-12


@report(9, "platter simulation")
def test_criterion_09_platter():
    classical = platter_simulate(ClassicalStrategy((1, 0, 1, 0, 0)),
                                 10 ** 6, seed=2109)
    assert abs(classical.estimate - 2.00) <= 0.01
    consp = platter_simulate(ConspiratorialStrategy(), 10 ** 6, seed=2110)
    assert abs(consp.estimate - 2.50) <= 0.01
    quantum = platter_simulate(QuantumStrategy((0, 0, 1)), 10 ** 6, seed=2111)
    assert abs(quantum.estimate - 2.236) <= 0.01


@report(10, "separable quadrants")
def test_criterion_10_separable():
    assert separable_validity_mc(10 ** 5, seed=2112) == 0
    s1, s2 = pole_counterexample()
    assert abs(np.vdot(separable_to_ray(s1), separable_to_ray(s2))) < 1e-12
    assert separable_quadrant(s1) is separable_quadrant(s2)
    assert s1.phi_a == 0.0 and s2.phi_a == 0.0


@report(11, "property suites")
def test_criterion_11_properties():
    # canonicalize idempotence on 10^4 random vectors
    rng = stream_rng(2113, 0)
    for _ in range(10 ** 4):
        d = int(rng.integers(2, 7))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        once = canonicalize(v, COMPLEX)
        twice = canonicalize(once, COMPLEX)
        assert np.abs(once - twice).max() < 1e-15
    # classify phase invariance on 10^4 pairs
    rc = RegionColoring(COMPLEX, 3)
    rows = sample_rays(COMPLEX, 3, 10 ** 4, stream_rng(2114, 0))
    phases = np.exp(1j * stream_rng(2114, 1).uniform(0, 2 * math.pi, 10 ** 4))
    for row, phase in zip(rows, phases):
        assert classify(rc, row) is classify(rc, phase * row)
    # determinism: ks_solve and every seeded Monte Carlo entry point
    g = ortho_graph(three_cubes(0.0))
    bases = complete_bases(g)
    assert repr(ks_solve(g, bases)) == repr(ks_solve(g, bases))
    runs = [
        lambda: mc_colored_fraction(COMPLEX, 3, 50_000, seed=2115),
        lambda: region_validity_mc(REAL, 3, 20_000, seed=2116),
        lambda: basis_colored_fraction_mc(3, 50_000, seed=2117),
        lambda: separable_validity_mc(20_000, seed=2118),
        lambda: platter_simulate(ConspiratorialStrategy(), 50_000, seed=2119),
    ]
    for make in runs:
        assert repr(make()) == repr(make())


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
