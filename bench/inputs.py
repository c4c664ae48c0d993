"""Seeded job lists for the four workloads.

A job is a plain dict: ``kind`` selects the ksray call sequence (see
``worker.py``), ``name`` identifies it in reports, and the remaining keys are
its inputs.  The same ``(workload, seed)`` always gives the same list, and
every list has the same length and the same kinds of jobs for every seed, so
each round of a run does the same amount of work.  A job carrying ``fault``
is an input on which ksray is known to give a wrong answer today; the text
says which fault.

Catalog ray coordinates are read from ksray's constructors; everything the
oracles compare against is computed in ``oracles.py`` without ksray.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

WORKLOADS = ("ks-critical", "bounds-ladder", "mc-scan", "cli-files")

MASK62 = (1 << 62) - 1

# The G(32, 0.5) graph on which theta_certificate misses its gap target
# (gap 1.3e-5 > eps 1e-6 with one BLAS thread); kept as a counted failure.
THETA_FAULT_SEED = 55
THETA_FAULT = "theta_certificate raises NumericalFailure (gap 1.3e-5 > 1e-6)"

# Fixed theta ladder: G(n, p) drawn from default_rng([n, 2012]).  Seeded
# G(n, p) graphs are not used for theta because theta_certificate fails on a
# few per cent of them, so a seeded ladder would fail on some seeds only.
# (48, 0.2) and (56, 0.15) are left out: their gaps sit within 5 % of the
# 1e-6 gate (9.5e-7 and 1.05e-6), where the verdict flips with BLAS rounding.
THETA_LADDER = ((16, 0.5), (24, 0.4), (32, 0.3), (40, 0.25), (64, 0.1))
# Seeded G(n, p) ladder for the exact alpha and alpha* solvers.  Sparse
# 64-vertex graphs are left out: alpha's branch and bound time there varies
# ninefold between seeds (20-180 ms at p = 0.1).  Every seeded graph stays
# clear of the job that sets job_tail_ms: G(64, 0.5) above it, the rest
# below it.
PAIR_LADDER = (tuple((n, 0.3) for n in (16, 24, 32, 40, 48, 56))
               + tuple((n, 0.5) for n in (16, 24, 32, 40)) + ((64, 0.5),))


def build(workload: str, seed: int, workdir: str | None = None) -> list[dict]:
    """The job list of one workload for one seed."""
    if workload == "ks-critical":
        return _ks_critical(seed)
    if workload == "bounds-ladder":
        return _bounds_ladder(seed)
    if workload == "mc-scan":
        return _mc_scan(seed)
    if workload == "cli-files":
        return _cli_files(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def catalog_vectors():
    """(name, vectors, field) for every catalog, three_cubes at 0 and 2pi/3."""
    from ksray import rays
    sets = [("cube13", rays.cube13()), ("peres24", rays.peres24()),
            ("three_cubes@0", rays.three_cubes(0.0)),
            ("three_cubes@2pi/3", rays.three_cubes(2.0 * math.pi / 3.0)),
            ("kcbs5", rays.kcbs5()), ("ceg18", rays.ceg18())]
    return [(name, rs.matrix, rs.field) for name, rs in sets]


def haar(rng: np.random.Generator, d: int, complex_: bool) -> np.ndarray:
    """Haar orthogonal (or unitary) matrix: QR with the diagonal phase fix."""
    z = rng.standard_normal((d, d))
    if complex_:
        z = z + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def ortho_adjacency(vectors: np.ndarray) -> np.ndarray:
    """Boolean adjacency with an edge where |<v_i, v_j>| < 1e-9."""
    adj = np.abs(vectors.conj() @ vectors.T) < 1e-9
    np.fill_diagonal(adj, False)
    return adj


def edges_of(adj: np.ndarray):
    i, j = np.nonzero(np.triu(adj, 1))
    return list(zip(i.tolist(), j.tolist()))


# ---------------------------------------------------------------------------
# ks-critical


PERES_DELETIONS = 150  # of the 2024 three-ray deletions of peres24


def _ks_critical(seed: int) -> list[dict]:
    """Every catalog and ray-deletion subsets of three of them, each under a
    seeded rotation, plus realizations of each catalog graph.

    The rotation changes every coordinate but no inner product, so the
    verdicts do not depend on the seed while the inputs do.  The seed also
    picks which three-ray deletions of peres24 run.
    """
    rng = np.random.default_rng([seed, 1])
    jobs = []
    rotated = {}
    for k, (name, vecs, field) in enumerate(catalog_vectors()):
        rot = haar(np.random.default_rng([seed, k]), vecs.shape[1],
                   field == "complex")
        v = vecs @ rot.T
        if field == "real":
            v = v.real.astype(np.complex128)
        rotated[name] = (v, field)
        jobs.append({"kind": "chain", "name": name, "source": name,
                     "deleted": (), "vectors": v, "field": field})
    triples = list(itertools.combinations(range(24), 3))
    picked = sorted(rng.choice(len(triples), PERES_DELETIONS, replace=False))
    deletions = [("peres24", [triples[i] for i in picked])]
    for source, k in (("three_cubes@0", 1), ("three_cubes@2pi/3", 1),
                      ("ceg18", 1), ("ceg18", 2)):
        n = len(rotated[source][0])
        deletions.append((source, list(itertools.combinations(range(n), k))))
    for source, subsets in deletions:
        v, field = rotated[source]
        for gone in subsets:
            keep = [i for i in range(len(v)) if i not in gone]
            jobs.append({"kind": "chain", "source": source, "deleted": gone,
                         "name": f"{source}-{'-'.join(map(str, gone))}",
                         "vectors": v[keep], "field": field})
    # Realizations use fixed seeds.  The three_cubes graph is not realized:
    # realize fails there for about half the seeds (see CHANGES.md), and one
    # converging call takes 0.3-0.5 s, a third of a round.  Nine of these
    # realizations take 20-35 ms: fewer than the ten jobs that must lie
    # beyond the tail percentile, which therefore falls among the chain jobs
    # of 3-5 ms.  A job of 20 ms or more rarely runs whole in a quiet spell
    # of the shared host, and with the tail among the realizations the tail
    # spread twice as much from run to run.
    for name, vecs, field in catalog_vectors():
        if name.startswith("three_cubes"):
            continue
        runs = [(field, 0)] if name == "kcbs5" else [(field, s) for s in range(3)]
        for f, s in runs:
            jobs.append({"kind": "realize", "name": f"realize-{name}-{f}-{s}",
                         "source": name, "n": len(vecs),
                         "edges": edges_of(ortho_adjacency(vecs)), "d": vecs.shape[1],
                         "field": f, "seed": s})
    return jobs


# ---------------------------------------------------------------------------
# bounds-ladder


def gnp_adjacency(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < p, 1)
    return upper | upper.T


def circulant_adjacency(n: int, steps) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for s in steps:
            adj[i, (i + s) % n] = adj[(i + s) % n, i] = True
    return adj


def complement(adj: np.ndarray) -> np.ndarray:
    out = ~adj
    np.fill_diagonal(out, False)
    return out


def petersen_adjacency() -> np.ndarray:
    adj = np.zeros((10, 10), dtype=bool)
    for k in range(5):
        for a, b in ((k, (k + 1) % 5), (5 + k, 5 + (k + 2) % 5), (k, 5 + k)):
            adj[a, b] = adj[b, a] = True
    return adj


def odd_cycle_theta(n: int) -> float:
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


def _bounds_ladder(seed: int) -> list[dict]:
    """Bound triples on fixed graphs; alpha and alpha* on a seeded ladder.

    ``closed`` is theta's closed form where one exists; ``partner`` names
    the complement of a vertex-transitive graph, for theta(G)theta(Gc) = n.
    """
    jobs = []

    def triple(name, adj, closed=None, partner=None, fault=None):
        job = {"kind": "triple", "name": name, "n": len(adj),
               "edges": edges_of(adj), "closed": closed, "partner": partner}
        if fault:
            job["fault"] = fault
        jobs.append(job)

    for name, vecs, _ in catalog_vectors():
        if name != "three_cubes@2pi/3":  # same graph as three_cubes@0
            triple(name, ortho_adjacency(vecs))
    for n in (5, 7, 9, 11, 13):
        cyc = circulant_adjacency(n, (1,))
        triple(f"C{n}", cyc, odd_cycle_theta(n), f"C{n}-bar")
        triple(f"C{n}-bar", complement(cyc), n / odd_cycle_theta(n), f"C{n}")
    pet = petersen_adjacency()
    triple("petersen", pet, 4.0, "petersen-bar")
    triple("petersen-bar", complement(pet), 2.5, "petersen")
    for n, steps in ((12, (1, 3)), (13, (1, 3, 4)), (17, (1, 2, 4, 8)),
                     (20, (1, 4, 9))):
        name = f"circ{n}-{'.'.join(map(str, steps))}"
        adj = circulant_adjacency(n, steps)
        triple(name, adj, None, name + "-bar")
        triple(name + "-bar", complement(adj), None, name)
    for n, p in THETA_LADDER:
        triple(f"G{n}-{p}", gnp_adjacency(n, p, np.random.default_rng([n, 2012])))
    fault_adj = np.triu(np.random.default_rng(THETA_FAULT_SEED)
                        .random((32, 32)) < 0.5, 1)
    triple("G32-0.5-rng55", fault_adj | fault_adj.T, fault=THETA_FAULT)
    for n, p in PAIR_LADDER:
        adj = gnp_adjacency(n, p, np.random.default_rng([seed, n, int(p * 10)]))
        jobs.append({"kind": "pair", "name": f"G{n}-{p}-s", "n": n,
                     "edges": edges_of(adj)})
    return jobs


# ---------------------------------------------------------------------------
# mc-scan

FRACTION_SAMPLES = 50_000
BASIS_SAMPLES = 100_000
VALIDITY_SAMPLES = 40_000
SEPARABLE_SAMPLES = 100_000
PLATTER_TRIALS = 100_000


def pentagon_independent_sets():
    """Every 0/1 stone placement on the pentagon with no adjacent stones."""
    out = []
    for bits in itertools.product((0, 1), repeat=5):
        if all(not (bits[k] and bits[(k + 1) % 5]) for k in range(5)):
            out.append(bits)
    return out


def _mc_scan(seed: int) -> list[dict]:
    """Every Monte Carlo entry point over a dimension scan; seeded streams."""
    # The dimensions leave 19 jobs above 14 ms and 10 between 4 and 12 ms,
    # so the median job falls inside the lower band.  With real d = 13 and
    # complex d = 9 as well it fell on the edge between them, and the
    # median jumped by a third whenever one separable job crossed it.
    specs = []
    for d in (3, 4, 6, 8, 12, 16, 24):
        specs.append({"kind": "fraction", "field": "real", "d": d,
                      "samples": FRACTION_SAMPLES})
    for d in (3, 4, 6, 12, 16):
        specs.append({"kind": "fraction", "field": "complex", "d": d,
                      "samples": FRACTION_SAMPLES})
    for d in (3, 3, 4, 4):
        specs.append({"kind": "basis", "d": d, "samples": BASIS_SAMPLES})
    for field, dims in (("real", (3, 4, 5, 6, 7)), ("complex", (3, 4, 5, 6))):
        for d in dims:
            specs.append({"kind": "validity", "field": field, "d": d,
                          "samples": VALIDITY_SAMPLES})
    for _ in range(3):
        specs.append({"kind": "separable", "samples": SEPARABLE_SAMPLES})
    for bits in pentagon_independent_sets():
        specs.append({"kind": "platter", "strategy": "classical",
                      "assignment": bits, "trials": PLATTER_TRIALS})
    specs.append({"kind": "platter", "strategy": "conspiratorial",
                  "trials": PLATTER_TRIALS})
    specs.append({"kind": "platter", "strategy": "quantum",
                  "state": (0, 0, 1), "trials": PLATTER_TRIALS})
    streams = np.random.default_rng([seed, 3]).integers(0, MASK62, len(specs))
    jobs = []
    for k, (spec, stream) in enumerate(zip(specs, streams)):
        spec["seed"] = int(stream)
        label = "-".join(str(spec[key]) for key in
                         ("field", "d", "strategy") if key in spec)
        spec["name"] = f"{k:02d}-{spec['kind']}-{label}".rstrip("-")
        jobs.append(spec)
    return jobs


# ---------------------------------------------------------------------------
# cli-files

CLI_CATALOGS = ("cube13", "peres24", "kcbs5", "ceg18")
BOUNDS_SETS = ("cube13", "kcbs5", "ceg18")

# Bad inputs the CLI must reject with exit 2 and a one-line message.  The
# first group is answered wrongly today and counted as failed; the second
# group is rejected correctly and guards against regressions.
BAD_FAULTS = (
    ("nan-color", ["color", "--file", "{nan}"],
     "a NaN ray component is accepted: COLORABLE, exit 0"),
    ("nan-bounds", ["bounds", "--file", "{nan}"],
     "a NaN ray component is accepted: bounds answers, exit 0"),
    ("platter-zero-state", ["platter", "--strategy", "quantum", "--trials",
                            "1000", "--state", "0,0,0"],
     "a zero quantum state gives estimate 0 with exit 0"),
    ("bases-mc0", ["measure", "bases", "--dim", "3", "--mc", "0"],
     "--mc 0 raises ZeroDivisionError"),
    ("validity-mc0", ["measure", "validity", "--field", "real", "--dim", "3",
                      "--mc", "0"],
     "--mc 0 exits 0 and reports zero samples"),
    ("fraction-no-dim", ["measure", "fraction", "--field", "real"],
     "missing --dim raises TypeError"),
    ("missing-file", ["color", "--file", "{missing}"],
     "a missing --file raises FileNotFoundError"),
)
BAD_REJECTED = (
    ("not-json", ["color", "--file", "{notjson}"]),
    ("zero-ray", ["color", "--file", "{zero}"]),
    ("duplicate-ray", ["graph", "--file", "{dup}"]),
    ("too-large", ["bounds", "--file", "{big}"]),
    ("adjacent-stones", ["platter", "--strategy", "classical", "--trials",
                         "100", "--assignment", "1,1,0,0,0"]),
    ("zero-trials", ["platter", "--strategy", "quantum", "--trials", "0"]),
    ("fraction-dim1", ["measure", "fraction", "--field", "real", "--dim", "1"]),
    ("unknown-emit", ["catalog", "emit", "nosuch"]),
    ("unknown-set", ["graph", "--set", "nosuch"]),
)


def _ray_file(vectors) -> str:
    return json.dumps({"dimension": len(vectors[0]), "field": "real",
                       "rays": [[[float(c), 0.0] for c in v] for v in vectors]})


def bad_files(seed: int) -> dict[str, str]:
    """Contents of the malformed ray-set files; ``big`` is seeded."""
    big = np.random.default_rng([seed, 70]).standard_normal((70, 3))
    return {
        "nan": _ray_file([(1, 0, 0), (0, 1, 0), (0, 0, float("nan"))]),
        "notjson": "dimension: 3, rays: none\n",
        "zero": _ray_file([(1, 0, 0), (0, 0, 0), (0, 0, 1)]),
        "dup": _ray_file([(1, 0, 0), (0, 1, 0), (2, 0, 0)]),
        "big": _ray_file(big.tolist()),
    }


def write_bad_files(seed: int, workdir: str) -> None:
    for stem, text in bad_files(seed).items():
        with open(os.path.join(workdir, f"bad-{stem}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)


def _cli_files(seed: int, workdir: str | None) -> list[dict]:
    """Emit every catalog to a file, read each back through the CLI, scan
    the closed forms, and feed the bad inputs; phases are seeded."""
    workdir = workdir or "."

    def path(stem):
        return os.path.join(workdir, stem + ".json")

    phases = [0.0] + sorted(np.random.default_rng([seed, 5])
                            .uniform(0.1, 2.0 * math.pi - 0.1, 4).tolist())
    sets = [(name, name, []) for name in CLI_CATALOGS]
    sets += [(f"three-cubes@{k}", "three-cubes", ["--phase", repr(phi)])
             for k, phi in enumerate(phases)]
    jobs = []
    for stem, name, extra in sets:
        jobs.append({"kind": "cli", "name": f"emit-{stem}", "set": stem,
                     "argv": ["catalog", "emit", name] + extra,
                     "write": path(stem), "expect": "emit"})
    for verb in ("graph", "color", "spectrum"):
        for stem, name, _ in sets:
            jobs.append({"kind": "cli", "name": f"{verb}-{stem}", "set": stem,
                         "argv": [verb, "--file", path(stem)],
                         "expect": verb})
    for name in BOUNDS_SETS:
        jobs.append({"kind": "cli", "name": f"bounds-{name}", "set": name,
                     "argv": ["bounds", "--file", path(name), "--json"],
                     "expect": "bounds"})
    for field in ("real", "complex"):
        jobs.append({"kind": "cli", "name": f"scan-{field}", "field": field,
                     "lo": 2, "hi": 64, "expect": "scan",
                     "argv": ["measure", "fraction", "--field", field,
                              "--scan", "2:64"]})
    files = {stem: path(f"bad-{stem}") for stem in bad_files(seed)}
    files["missing"] = path("no-such-file")
    for name, argv, fault in BAD_FAULTS:
        jobs.append({"kind": "cli", "name": f"bad-{name}", "expect": "reject",
                     "argv": [a.format(**files) for a in argv],
                     "fault": fault})
    for name, argv in BAD_REJECTED:
        jobs.append({"kind": "cli", "name": f"bad-{name}", "expect": "reject",
                     "argv": [a.format(**files) for a in argv]})
    return jobs
