import math

import numpy as np
import pytest

from ksray import operators
from ksray.cli import run
from ksray import (
    ClassicalStrategy, ConspiratorialStrategy, InvalidInput,
    QuantumStrategy, RaySet, build_rayset, ceg18, cube13, eigen_max,
    equal_weight_povm_check, kcbs5, peres24, platter_simulate,
    projector_sum, stream_rng, three_cubes, NumericalFailure,
)

SQRT5 = math.sqrt(5.0)


# --- projector sums and spectra ----------------------------------------------

def test_projector_sum_standard_basis_is_identity():
    rs = build_rayset([(1, 0, 0), (0, 1, 0), (0, 0, 1)], "real")
    assert np.abs(projector_sum(rs) - np.eye(3)).max() < 1e-15


def test_projector_sum_cube13_is_flat():
    sigma = projector_sum(cube13())
    assert np.abs(sigma - (13.0 / 3.0) * np.eye(3)).max() < 1e-12


def test_projector_sum_kcbs5():
    sigma = projector_sum(kcbs5())
    assert abs(np.trace(sigma).real - 5.0) < 1e-12
    assert abs(eigen_max(sigma) - SQRT5) < 1e-9


def test_trace_counts_rays():
    for rs in (cube13(), peres24(), ceg18(), kcbs5()):
        sigma = projector_sum(rs)
        assert abs(np.trace(sigma).real - len(rs)) < 1e-10


def test_eigen_max_identity():
    assert abs(eigen_max(np.eye(3)) - 1.0) < 1e-14


def test_eigen_max_diagonal():
    assert abs(eigen_max(np.diag([1.0, 2.0, 3.0])) - 3.0) < 1e-14


def test_eigen_max_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eigen_max(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("H", [np.full((2, 2), np.nan),
                               [[np.inf, 0.0], [0.0, 1.0]]])
def test_eigen_max_rejects_non_finite_entries(H):
    # NaN passes both tolerance gates, so it must be refused up front
    with pytest.raises(InvalidInput):
        eigen_max(H)


@pytest.mark.parametrize("make,message", [
    (lambda: projector_sum(RaySet(3, "real", np.zeros((0, 3), complex), ())),
     "empty ray set"),
    (lambda: eigen_max(np.zeros((2, 3))), "square matrix required"),
    (lambda: ClassicalStrategy((1, 0, 1, 0)), "five 0/1 entries"),
    (lambda: ClassicalStrategy((2, 0, 0, 0, 0)), "five 0/1 entries"),
    (lambda: QuantumStrategy((1, 0)).probabilities(), "3 components"),
], ids=["empty-set", "non-square", "four-entries", "entry-2",
        "two-components"])
def test_operator_refusals(make, message):
    with pytest.raises(InvalidInput, match=message):
        make()


def test_platter_unknown_strategy_is_a_type_error():
    with pytest.raises(TypeError, match="unknown strategy"):
        platter_simulate("quantum", 10, 0)


def test_eigen_max_failed_residual_is_numerical_failure(monkeypatch):
    monkeypatch.setattr(operators, "EIGEN_TOL", -1.0)
    with pytest.raises(NumericalFailure) as err:
        eigen_max(np.eye(3))
    assert err.value.gap >= 0.0


def test_eigen_max_above_mean_bound():
    for rs in (cube13(), peres24(), ceg18(), kcbs5(), three_cubes(0.0)):
        sigma = projector_sum(rs)
        mean = np.trace(sigma).real / rs.dimension
        assert eigen_max(sigma) >= mean - 1e-12


def test_povm_check_cube13():
    flat, const = equal_weight_povm_check(cube13())
    assert flat and abs(const - 13.0 / 3.0) < 1e-12


def test_povm_check_kcbs5():
    flat, const = equal_weight_povm_check(kcbs5())
    assert not flat and const is None


def test_povm_check_single_basis():
    rs = build_rayset([(1, 0, 0), (0, 1, 0), (0, 0, 1)], "real")
    flat, const = equal_weight_povm_check(rs)
    assert flat and abs(const - 1.0) < 1e-15


def test_random_states_below_max_eigenvalue():
    sigma = projector_sum(kcbs5())
    lam = eigen_max(sigma)
    rng = stream_rng(515, 0)
    for _ in range(1000):
        psi = rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        assert psi @ sigma.real @ psi <= lam + 1e-9


# --- platter -----------------------------------------------------------------

def test_platter_rejects_adjacent_stones():
    with pytest.raises(InvalidInput, match="adjacent stones"):
        ClassicalStrategy((1, 1, 0, 0, 0))
    with pytest.raises(InvalidInput, match="adjacent stones"):
        ClassicalStrategy((1, 0, 0, 0, 1))  # cups 4 and 0 share an edge


def test_platter_classical_two_stones():
    out = platter_simulate(ClassicalStrategy((1, 0, 1, 0, 0)), 100_000, 42)
    assert abs(out.estimate - 2.0) < 0.02
    assert out.strategy == "classical" and out.seed == 42


def test_platter_classical_never_beats_two():
    # every valid assignment: the 11 independent sets of the pentagon
    import itertools
    valid = [a for a in itertools.product((0, 1), repeat=5)
             if not any(a[k] and a[(k + 1) % 5] for k in range(5))]
    assert len(valid) == 11
    for assignment in valid:
        out = platter_simulate(ClassicalStrategy(assignment), 50_000, 7)
        assert out.estimate <= 2.0 + 1e-12


def test_platter_conspiratorial():
    out = platter_simulate(ConspiratorialStrategy(), 200_000, 11)
    assert abs(out.estimate - 2.5) < 0.02


def test_platter_quantum_pole_state():
    out = platter_simulate(QuantumStrategy((0, 0, 1)), 200_000, 13)
    assert abs(out.estimate - SQRT5) < 0.02


def test_platter_quantum_cup_frequencies():
    # the five probabilities differ, so a second cup credited to the wrong
    # neighbour moves some frequency by many standard errors
    trials = 10**6
    strategy = QuantumStrategy((1, 2, 3))
    probs = strategy.probabilities()
    out = platter_simulate(strategy, trials, 31)
    for freq, p in zip(out.frequencies, probs):
        assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / (2 * trials / 5))


# kcbs5 row 3, whose own probability rounds to 1 + 4.4e-16
ROW3 = "0.22975292054736143,0.7071067811865476,0.668740304976422"


def test_platter_state_on_a_kcbs5_ray(capsys):
    strategy = QuantumStrategy(tuple(float(x) for x in ROW3.split(",")))
    assert strategy.probabilities().max() == 1.0
    out = platter_simulate(strategy, 10_000, 3)
    assert out.frequencies[3] == 1.0
    assert out.frequencies[2] == out.frequencies[4] == 0.0
    assert run(["platter", "--strategy", "quantum", "--trials", "10000",
                "--seed", "3", "--state", ROW3]) == 0
    assert f"estimate: {out.estimate:.12g}\n" in capsys.readouterr().out


def test_platter_quantum_probabilities_sum_to_sqrt5():
    probs = QuantumStrategy((0, 0, 1)).probabilities()
    assert abs(probs.sum() - SQRT5) < 1e-12


def test_platter_deterministic():
    a = platter_simulate(ConspiratorialStrategy(), 30_000, 3)
    b = platter_simulate(ConspiratorialStrategy(), 30_000, 3)
    assert a == b


def test_platter_estimate_in_range():
    out = platter_simulate(ClassicalStrategy((0, 0, 0, 0, 0)), 1000, 1)
    assert 0.0 <= out.estimate <= 5.0
    assert out.estimate == 0.0


@pytest.mark.parametrize("state", [(0, 0, 0), (0, float("nan"), 1),
                                   (float("inf"), 0, 0)])
def test_quantum_state_must_be_finite_and_nonzero(state):
    with pytest.raises(ValueError, match="state norm"):
        QuantumStrategy(state).probabilities()
