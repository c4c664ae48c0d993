"""Tests of the benchmark itself: every check can fail, and seeds matter.

    python3 bench/selftest.py          (from the repository root)
    python3 -m pytest bench/selftest.py

Each test runs a real job through worker.py, confirms the oracle accepts the
genuine output, then corrupts it and confirms the oracle rejects it.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
from scipy import stats  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402

import ksray  # noqa: E402
import ksray.cli  # noqa: E402,F401


def run(workload, name, seed=1):
    jobs = inputs.build(workload, seed)
    k = next(i for i, job in enumerate(jobs) if job["name"] == name)
    return jobs, k, worker._run_job(ksray, jobs[k])


def check(jobs, k, out, outputs=None):
    return oracles.Checker(jobs).check(k, out, outputs)


def test_flipped_witness_color_is_rejected():
    jobs, k, out = run("ks-critical", "cube13")
    assert check(jobs, k, out) is None
    colorable, witness, cert, count = out
    in_bases = {v for b in oracles.ColoringOracle(jobs[k]["vectors"]).bases
                for v in b}
    for v in sorted(in_bases):  # a ray in no basis may be either color
        flipped = witness[:v] + ("G" if witness[v] == "R" else "R") + witness[v + 1:]
        assert check(jobs, k, (colorable, flipped, cert, count))


def test_odd_incidence_certificate_is_rejected():
    jobs, k, out = run("ks-critical", "ceg18")
    assert out[2][0] == "parity"
    assert check(jobs, k, out) is None
    counts = list(out[2][2])
    counts[0] += 1
    bad = (out[0], out[1], ("parity", out[2][1], tuple(counts)), out[3])
    assert "incidence" in check(jobs, k, bad)


def test_wrong_verdict_and_count_are_rejected():
    jobs = inputs.build("ks-critical", 1)
    for name in ("peres24", next(job["name"] for job in jobs
                                 if job["source"] == "peres24" and job["deleted"])):
        jobs, k, out = run("ks-critical", name)
        assert check(jobs, k, out) is None
        colorable, witness, cert, count = out
        assert check(jobs, k, (colorable, witness, cert, count + 1))
        assert check(jobs, k,
                     (not colorable, None, ("exhaustion", 5), 0))


def test_count_oracle_matches_known_counts():
    for name, want in (("cube13", 24), ("kcbs5", 11)):
        jobs, k, out = run("ks-critical", name)
        assert out[3] == want
        assert oracles.ColoringOracle(jobs[k]["vectors"]).count == want


def _shift_theta(out, delta):
    alpha, witness, (value, lower, upper, gap), alpha_star, weights = out
    return (alpha, witness, (value + delta, lower + delta, upper + delta, gap),
            alpha_star, weights)


def test_theta_off_by_1e_3_is_rejected():
    jobs = inputs.build("bounds-ladder", 1)
    outputs = [None] * len(jobs)
    names = ("C7", "C7-bar", "circ13-1.3.4", "circ13-1.3.4-bar")
    index = {job["name"]: k for k, job in enumerate(jobs)}
    for name in names:
        outputs[index[name]] = worker._run_job(ksray, jobs[index[name]])
    checker = oracles.Checker(jobs)
    for name in names:
        k = index[name]
        assert checker.check(k, outputs[k], outputs) is None
        for delta in (1e-3, -1e-3):
            shifted = list(outputs)
            shifted[k] = _shift_theta(outputs[k], delta)
            assert checker.check(k, shifted[k], shifted), (name, delta)


def test_wrong_alpha_and_alpha_star_are_rejected():
    jobs, k, out = run("bounds-ladder", "G40-0.3-s")
    assert check(jobs, k, out) is None
    alpha, witness, theta, alpha_star, weights = out
    assert check(jobs, k,
                 (alpha + 1, witness, theta, alpha_star, weights))
    assert check(jobs, k,
                 (alpha, witness, theta, alpha_star + 1e-3, weights))


def test_mc_value_moved_by_5_sigma_is_rejected():
    jobs = inputs.build("mc-scan", 1)
    checker = oracles.Checker(jobs)
    for k, job in enumerate(jobs):
        out = worker._run_job(ksray, job)
        assert checker.check(k, out, None) is None, job["name"]
        if job["kind"] in ("fraction", "basis"):
            value, stderr, samples = out
            p = (oracles.basis_fraction(job["d"]) if job["kind"] == "basis"
                 else oracles.fraction_real(job["d"]) if job["field"] == "real"
                 else oracles.fraction_complex(job["d"]))
            away = 5 * math.sqrt(p * (1 - p) / samples) * (1 if value >= p else -1)
            assert checker.check(k, (value + away, stderr, samples), None), \
                job["name"]
        elif job["kind"] == "platter" and job["strategy"] != "classical":
            strategy, estimate, trials = out
            if strategy == "quantum":
                p = oracles.pentagon_probability()
                away = 5 * math.sqrt(5 * p * (1 - p) / (2 * trials / 5))
            else:  # no sigma test there: move it just past its bound
                away = 1.01 * oracles.conspiratorial_bound(trials)
            target = 5 * p if strategy == "quantum" else 2.5
            moved = (strategy, estimate + away * (1 if estimate >= target
                                                  else -1), trials)
            assert checker.check(k, moved, None), job["name"]
        elif job["kind"] == "validity":
            assert checker.check(k, (0, 1), None)
        elif job["kind"] == "separable":
            assert checker.check(k, 1, None)


def test_bad_input_that_exits_0_is_rejected():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        jobs = inputs.build("cli-files", 1, workdir)
        inputs.write_bad_files(1, workdir)
        checker = oracles.Checker(jobs)
        _, _, outputs = worker.run_round(ksray, jobs)
        for k, job in enumerate(jobs):
            reason = checker.check(k, outputs[k], outputs)
            assert (reason is not None) == ("fault" in job), (job["name"], reason)
            if job["expect"] == "reject" and "fault" not in job:
                assert checker.check(k, (0, "COLORABLE\n", ""), outputs)
                assert checker.check(k, (2, "", "Traceback (most recent call "
                                               "last):\nerror: x\n"), outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_new_seed_changes_the_inputs():
    workdir = "seed-test"
    for workload in inputs.WORKLOADS:
        a = inputs.build(workload, 1, workdir)
        b = inputs.build(workload, 2, workdir)
        assert len(a) == len(b)
        assert pickle.dumps(a) != pickle.dumps(b), workload
        assert pickle.dumps(a) == pickle.dumps(inputs.build(workload, 1, workdir))
    assert inputs.bad_files(1) != inputs.bad_files(2)


def test_mc_targets_agree_with_independent_forms():
    for n in range(2, 30):
        beta = stats.beta(1, n - 1)
        assert abs(oracles.fraction_complex(n)
                   - (beta.sf(0.5) + beta.cdf(1.0 / n))) < 1e-12
    # the d = 3 quadrature against a direct two-dimensional integral over
    # the sphere in (cos polar angle, azimuth) coordinates
    u = np.linspace(-1, 1, 2001)[:, None]
    phi = np.linspace(0, 2 * np.pi, 4001)[None, :]
    x = np.stack([np.broadcast_to(u, (2001, 4001)),
                  np.sqrt(1 - u ** 2) * np.cos(phi),
                  np.sqrt(1 - u ** 2) * np.sin(phi)]) ** 2
    red, green = x > 0.5, x < 1 / 3
    fully = ((red | green).all(axis=0)).mean()
    assert abs(oracles.basis_fraction(3) - fully) < 2e-3
    assert abs(oracles.basis_fraction(4) - 0.4526) < 1e-3


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except Exception as exc:  # report every test, then fail overall
            failed += 1
            print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
