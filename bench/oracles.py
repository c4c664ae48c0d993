"""Checks of every job output against computations made without ksray.

Orthogonality comes from the benchmark's own inner products, complete bases
from networkx cliques, colorability and coloring counts from an exhaustive
search written here, alpha from networkx ``max_weight_clique`` on the
complement, alpha* from ``scipy.optimize.linprog`` over networkx maximal
cliques, theta from closed forms, and the Monte Carlo targets from
``scipy.stats.beta``, a closed form derived below and quadrature.

``Checker(jobs).check(k, out, outputs)`` returns None when output
``out`` of job ``k`` is right, else the reason it is wrong; ``outputs`` are
all outputs of the same round, for checks that span two jobs.
"""

from __future__ import annotations

import json
import math

import networkx as nx
import numpy as np
from scipy import integrate, optimize, stats

ORTHO_TOL = 1e-9
THETA_EPS = 1e-6
# Monte Carlo estimates must lie within SIGMAS standard errors of their
# targets.  At 4 a correct mc-scan run, with 19 such estimates, would fail by
# chance about once in 850 runs; at 5, about once in 90000.
SIGMAS = 5.0

# (rays, orthogonal pairs, complete bases, colorable) of each catalog
CATALOG_FACTS = {
    "cube13": (13, 24, 4, True),
    "peres24": (24, 108, 24, False),
    "three_cubes": (33, 72, 16, False),
    "kcbs5": (5, 5, 0, True),
    "ceg18": (18, 63, 9, False),
}


def catalog_of(name: str) -> str:
    return name.replace("-", "_").split("@")[0]


# ---------------------------------------------------------------------------
# graphs and colorings


def adjacency(vectors: np.ndarray) -> np.ndarray:
    adj = np.abs(vectors.conj() @ vectors.T) < ORTHO_TOL
    np.fill_diagonal(adj, False)
    return adj


def nx_graph(adj: np.ndarray) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from(zip(*np.nonzero(np.triu(adj, 1))))
    return g


def d_cliques(adj: np.ndarray, d: int) -> list[tuple[int, ...]]:
    """Every clique of exactly d vertices (the complete bases)."""
    out = []
    for clique in nx.enumerate_all_cliques(nx_graph(adj)):
        if len(clique) > d:
            break
        if len(clique) == d:
            out.append(tuple(sorted(int(v) for v in clique)))
    return sorted(out)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def count_colorings(adj: np.ndarray, bases) -> int:
    """Red sets with no orthogonal pair and exactly one member per basis.

    Branches on the unsatisfied basis with fewest admissible members over
    which member is Red; once every basis is satisfied, the remaining
    admissible vertices lie in no basis and any independent subset of them
    may also be Red.
    """
    n = len(adj)
    nbr = [sum(1 << int(u) for u in np.flatnonzero(adj[v])) for v in range(n)]
    basis_mask = [sum(1 << v for v in b) for b in bases]
    member = [0] * n
    for k, b in enumerate(bases):
        for v in b:
            member[v] |= 1 << k

    def independent_sets(mask: int) -> int:
        if not mask:
            return 1
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        return independent_sets(rest) + independent_sets(rest & ~nbr[v])

    def search(blocked: int, unsat: int) -> int:
        if not unsat:
            return independent_sets(((1 << n) - 1) & ~blocked)
        best = min(_bits(unsat),
                   key=lambda k: bin(basis_mask[k] & ~blocked).count("1"))
        total = 0
        for v in _bits(basis_mask[best] & ~blocked):
            total += search(blocked | nbr[v] | (1 << v), unsat & ~member[v])
        return total

    return search(0, (1 << len(bases)) - 1)


def coloring_violation(adj: np.ndarray, bases, reds) -> str | None:
    """The benchmark's own rule check of a total coloring."""
    red = np.zeros(len(adj), dtype=bool)
    red[list(reds)] = True
    both = np.argwhere(np.triu(adj & red[:, None] & red[None, :], 1))
    if len(both):
        return f"orthogonal rays {tuple(both[0])} both Red"
    for b in bases:
        if int(red[list(b)].sum()) != 1:
            return f"basis {b} has {int(red[list(b)].sum())} Red"
    return None


def incidence(bases, n: int) -> list[int]:
    counts = [0] * n
    for b in bases:
        for v in b:
            counts[v] += 1
    return counts


class ColoringOracle:
    """Bases and coloring count of a ray set, from its vectors alone."""

    def __init__(self, vectors: np.ndarray, bases=None):
        self.adj = adjacency(vectors)
        self.n = len(vectors)
        self.bases = d_cliques(self.adj, vectors.shape[1]) \
            if bases is None else bases
        self.count = count_colorings(self.adj, self.bases)

    def check_verdict(self, colorable, witness, cert, count=None):
        if count is not None and count != self.count:
            return f"count {count} != {self.count}"
        if colorable != (self.count > 0):
            return f"colorable={colorable} but {self.count} colorings exist"
        if colorable:
            if witness is None or len(witness) != self.n:
                return "colorable without a total witness"
            reds = [v for v, c in enumerate(witness) if c == "R"]
            return coloring_violation(self.adj, self.bases, reds)
        return self.check_certificate(cert)

    def check_certificate(self, cert):
        if cert is None:
            return "uncolorable without a certificate"
        if cert[0] == "parity":
            _, basis_count, counts = cert
            if basis_count != len(self.bases) or basis_count % 2 == 0:
                return f"parity basis count {basis_count} vs {len(self.bases)}"
            if list(counts) != incidence(self.bases, self.n) \
                    or any(c % 2 for c in counts):
                return f"parity incidence counts {counts} wrong or odd"
            return None
        if cert[0] == "exhaustion":
            return None if cert[1] >= 1 else "exhaustion with no nodes"
        return f"unknown certificate {cert!r}"


# ---------------------------------------------------------------------------
# bounds


def alpha_oracle(adj: np.ndarray) -> int:
    return int(nx.max_weight_clique(nx.complement(nx_graph(adj)),
                                    weight=None)[1])


def alpha_star_oracle(adj: np.ndarray) -> tuple[float, list[list[int]]]:
    cliques = [sorted(c) for c in nx.find_cliques(nx_graph(adj))]
    rows = np.zeros((len(cliques), len(adj)))
    for k, c in enumerate(cliques):
        rows[k, c] = 1.0
    res = optimize.linprog(-np.ones(len(adj)), A_ub=rows,
                           b_ub=np.ones(len(cliques)),
                           bounds=[(0, None)] * len(adj), method="highs")
    return -float(res.fun), cliques


class BoundsOracle:
    def __init__(self, adj: np.ndarray):
        self.adj = adj
        self.alpha = alpha_oracle(adj)
        self.alpha_star, self.cliques = alpha_star_oracle(adj)

    def check(self, alpha, witness, theta, alpha_star, weights,
              closed=None) -> str | None:
        if alpha != self.alpha:
            return f"alpha {alpha} != {self.alpha}"
        w = list(witness)
        if len(w) != alpha or self.adj[np.ix_(w, w)].any():
            return "alpha witness is not an independent set of size alpha"
        if abs(alpha_star - self.alpha_star) > 1e-7:
            return f"alpha* {alpha_star} != {self.alpha_star}"
        x = np.asarray(weights)
        if x.min() < -1e-9 or max(x[c].sum() for c in self.cliques) > 1 + 1e-9 \
                or abs(x.sum() - alpha_star) > 1e-7:
            return "packing weights infeasible or not summing to alpha*"
        if theta is None:
            return None
        value, lower, upper, gap = theta
        if not (lower <= value <= upper and upper - lower <= THETA_EPS):
            return f"theta bracket [{lower}, {upper}] wider than {THETA_EPS}"
        if alpha > upper + 1e-9 or lower > alpha_star + 1e-9:
            return f"sandwich broken: {alpha} <= [{lower}, {upper}] <= {alpha_star}"
        if closed is not None and not lower - 1e-9 <= closed <= upper + 1e-9:
            return f"theta [{lower}, {upper}] misses closed form {closed}"
        return None


def theta_product_violation(theta, partner_theta, n: int) -> str | None:
    """theta(G) theta(Gc) = n for a vertex-transitive G."""
    lo = theta[1] * partner_theta[1]
    hi = theta[2] * partner_theta[2]
    if lo - 1e-9 <= n <= hi + 1e-9:
        return None
    return f"theta(G) theta(Gc) in [{lo}, {hi}] misses n = {n}"


# ---------------------------------------------------------------------------
# Monte Carlo targets


def fraction_real(d: int) -> float:
    """x_0^2 ~ Beta(1/2, (d-1)/2) for x uniform on S^(d-1)."""
    dist = stats.beta(0.5, (d - 1) / 2.0)
    return float(dist.sf(0.5) + dist.cdf(1.0 / d))


def fraction_complex(n: int) -> float:
    """p_0 ~ Beta(1, n-1), whose tail is P(p_0 > x) = (1 - x)^(n-1):
    the cap p_0 > 1/2 has (1/2)^(n-1), the belt p_0 < 1/n has
    1 - (1 - 1/n)^(n-1)."""
    return 0.5 ** (n - 1) + 1.0 - (1.0 - 1.0 / n) ** (n - 1)


def basis_fraction(d: int) -> float:
    """d P(x_1^2 > 1/2, x_j^2 < 1/d for j >= 2), x uniform on S^(d-1).

    (x_1^2, ..., x_d^2) is Dirichlet(1/2, ..., 1/2).  With s = 1 - x_1^2 ~
    Beta((d-1)/2, 1/2), the rest divided by s is an independent
    Dirichlet(1/2 x (d-1)) vector z, and the condition is max z < c with
    c = 1/(d s).  For c > 1/2 at most one z_j can exceed c, so
    P(max z < c) = 1 - (d-1) P(z_1 >= c) with z_1 ~ Beta(1/2, (d-2)/2).
    Here s < 1/2 gives c > 2/d, which is above 1/2 for d <= 4 only.
    """
    if d not in (3, 4):
        raise ValueError("the quadrature covers d = 3 and 4")
    s_dist = stats.beta((d - 1) / 2.0, 0.5)
    z_dist = stats.beta(0.5, (d - 2) / 2.0)

    def integrand(s):
        return s_dist.pdf(s) * (1.0 - (d - 1) * z_dist.sf(1.0 / (d * s)))

    inner, _ = integrate.quad(integrand, 1.0 / d, 0.5, epsabs=1e-12)
    return d * (float(s_dist.cdf(1.0 / d)) + inner)


def pentagon_probability() -> float:
    """|<v_k|e_3>|^2 = cos^2 t = cos(pi/5)/(1 + cos(pi/5)) for every cup."""
    c = math.cos(math.pi / 5.0)
    return c / (1.0 + c)


def conspiratorial_bound(trials: int, reps: int = 20000) -> float:
    """Twice the largest |sum_k c_k/(c_k + c_{k-1}) - 2.5| over simulated
    multinomial edge counts.

    The first two orders of the count fluctuations cancel, so the deviation
    is a cubic in nearly normal variables.  Its tails are too heavy for a
    test in standard deviations: about one seed in a hundred lands beyond
    four of them.  The largest of 20000 simulated deviations is 11-17
    standard deviations; twice it is passed by chance about once in 10^6.
    """
    rng = np.random.default_rng(2012)
    c = rng.multinomial(trials, [0.2] * 5, size=reps).astype(float)
    s = (c / (c + np.roll(c, 1, axis=1))).sum(axis=1)
    return 2.0 * float(np.abs(s - 2.5).max())


def within(value: float, target: float, sigma: float, what: str):
    if abs(value - target) <= SIGMAS * sigma:
        return None
    return (f"{what} {value!r} is {abs(value - target) / sigma:.1f} sigma "
            f"from {target!r}")


# ---------------------------------------------------------------------------
# CLI answers


def rays_of(obj: dict) -> np.ndarray:
    """The ray vectors of a parsed ray-set file, one per row."""
    return np.array([[complex(re, im) for re, im in ray] for ray in obj["rays"]])


def rejection_violation(code, stdout: str, stderr: str) -> str | None:
    """Exit 2, nothing on stdout, one message line (after argparse usage)."""
    if code != 2:
        return f"exit {code}, expected 2"
    if stdout:
        return "bad input produced stdout"
    lines = stderr.strip().splitlines()
    if not lines or "error" not in lines[-1] or "Traceback" in stderr:
        return f"stderr is not a one-line message: {stderr!r}"
    if any(not (ln.startswith("usage:") or ln.startswith(" "))
           for ln in lines[:-1]):
        return f"stderr has more than one message line: {stderr!r}"
    return None


# ---------------------------------------------------------------------------


class Checker:
    def __init__(self, jobs: list[dict]):
        self.jobs = jobs
        self.index = {job["name"]: k for k, job in enumerate(jobs)}
        self._memo: dict = {}

    def _cached(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def check(self, k: int, out, outputs) -> str | None:
        job = self.jobs[k]
        if isinstance(out, tuple) and len(out) == 3 and out[0] == "error":
            return f"raised {out[1]}: {out[2]}"
        return getattr(self, "_" + job["kind"])(job, out, outputs)

    # ks-critical --------------------------------------------------------

    def _full_bases(self, source):
        full = self.jobs[self.index[source]]
        return self._cached(("bases", source), lambda: d_cliques(
            adjacency(full["vectors"]), full["vectors"].shape[1]))

    def _chain(self, job, out, outputs):
        gone = set(job["deleted"])
        keep = [v for v in range(len(job["vectors"]) + len(gone))
                if v not in gone]
        pos = {v: i for i, v in enumerate(keep)}
        # the complete bases of a subset are the full set's bases inside it
        bases = [tuple(pos[v] for v in b) for b in self._full_bases(job["source"])
                 if not gone & set(b)]
        oracle = self._cached(("coloring", job["name"]),
                              lambda: ColoringOracle(job["vectors"], bases))
        colorable, witness, cert, count = out
        if not gone:
            expected = CATALOG_FACTS[catalog_of(job["source"])][3]
            if colorable != expected:
                return f"{job['source']} colorable={colorable}"
        return oracle.check_verdict(colorable, witness, cert, count)

    def _realize(self, job, out, outputs):
        vectors, verdict = out
        dots = np.abs(np.einsum("ij,ij->i", vectors.conj(), vectors) - 1.0)
        if dots.max() > 1e-9:
            return "realized rays are not unit vectors"
        for i, j in job["edges"]:
            if abs(np.vdot(vectors[i], vectors[j])) >= ORTHO_TOL:
                return f"requested edge {(i, j)} not orthogonal"
        source = CATALOG_FACTS[catalog_of(job["source"])][3]
        if verdict[0] != source:
            return f"realized set colorable={verdict[0]}, source {source}"
        oracle = ColoringOracle(vectors)
        return oracle.check_verdict(*verdict)

    # bounds-ladder ------------------------------------------------------

    def _bounds_oracle(self, job):
        def make():
            adj = np.zeros((job["n"], job["n"]), dtype=bool)
            for i, j in job["edges"]:
                adj[i, j] = adj[j, i] = True
            return BoundsOracle(adj)
        return self._cached(("bounds", job["name"]), make)

    def _triple(self, job, out, outputs):
        reason = self._bounds_oracle(job).check(*out, closed=job["closed"])
        if reason or job["partner"] is None:
            return reason
        partner = outputs[self.index[job["partner"]]]
        if partner[0] == "error":
            return None  # the partner job reports its own failure
        return theta_product_violation(out[2], partner[2], job["n"])

    def _pair(self, job, out, outputs):
        return self._bounds_oracle(job).check(*out)

    # mc-scan ------------------------------------------------------------

    def _fraction(self, job, out, outputs):
        value, _, samples = out
        p = (fraction_real(job["d"]) if job["field"] == "real"
             else fraction_complex(job["d"]))
        if samples != job["samples"]:
            return f"samples {samples} != {job['samples']}"
        return within(value, p, math.sqrt(p * (1 - p) / samples), "fraction")

    def _basis(self, job, out, outputs):
        value, _, samples = out
        p = self._cached(("basis", job["d"]), lambda: basis_fraction(job["d"]))
        return within(value, p, math.sqrt(p * (1 - p) / samples),
                      "basis fraction")

    def _validity(self, job, out, outputs):
        return None if tuple(out) == (0, 0) else f"violations {out}"

    def _separable(self, job, out, outputs):
        return None if out == 0 else f"{out} same-quadrant orthogonal pairs"

    def _platter(self, job, out, outputs):
        strategy, estimate, trials = out
        if strategy != job["strategy"] or trials != job["trials"]:
            return f"outcome for {strategy} with {trials} trials"
        if strategy == "classical":
            stones = float(sum(job["assignment"]))
            return None if estimate == stones else \
                f"classical estimate {estimate} != {stones} stones"
        if strategy == "conspiratorial":
            bound = self._cached(("consp", trials),
                                 lambda: conspiratorial_bound(trials))
            return None if abs(estimate - 2.5) <= bound else (
                f"conspiratorial estimate {estimate!r} is "
                f"{abs(estimate - 2.5):.3g} from 2.5, past the bound "
                f"{bound:.3g}")
        p = pentagon_probability()
        sigma = math.sqrt(5 * p * (1 - p) / (2 * trials / 5))
        return within(estimate, 5 * p, sigma, "quantum estimate")

    # cli-files ----------------------------------------------------------

    def _cli(self, job, out, outputs):
        code, stdout, stderr = out
        if job["expect"] == "reject":
            return rejection_violation(code, stdout, stderr)
        if code != 0 or stderr:
            return f"exit {code}, stderr {stderr!r}"
        return getattr(self, "_cli_" + job["expect"])(job, stdout)

    def _set_oracle(self, job):
        """(vectors, labels, coloring oracle) of the file a job reads."""
        path = self.jobs[self.index["emit-" + job["set"]]]["write"]

        def make():
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
            vectors = rays_of(obj)
            return vectors, obj["labels"], ColoringOracle(vectors)
        return self._cached(("set", job["set"]), make)

    def _cli_emit(self, job, stdout):
        obj = json.loads(stdout)
        vectors = rays_of(obj)
        n, pairs, nbases, _ = CATALOG_FACTS[catalog_of(job["set"])]
        adj = adjacency(vectors)
        got = (len(vectors), int(np.triu(adj, 1).sum()),
               len(d_cliques(adj, obj["dimension"])))
        if got != (n, pairs, nbases):
            return f"(rays, pairs, bases) {got} != {(n, pairs, nbases)}"
        if np.abs(np.linalg.norm(vectors, axis=1) - 1).max() > 1e-12:
            return "emitted rays are not unit vectors"
        return None

    def _cli_graph(self, job, stdout):
        vectors, _, oracle = self._set_oracle(job)
        obj = json.loads(stdout)
        edges = [tuple(e) for e in obj["edges"]]
        want = [tuple(map(int, e)) for e in np.argwhere(np.triu(oracle.adj, 1))]
        if (obj["n"], obj["dimension"], edges) != (len(vectors),
                                                   vectors.shape[1], want):
            return "graph differs from the file's orthogonal pairs"
        return None

    def _cli_color(self, job, stdout):
        _, labels, oracle = self._set_oracle(job)
        lines = stdout.splitlines()
        if lines[0] == "COLORABLE":
            colors = dict(item.rsplit("=", 1)
                          for item in lines[1].removeprefix("witness: ").split())
            witness = "".join(colors[label] for label in labels)
            return oracle.check_verdict(True, witness, None)
        if lines[0] != "UNCOLORABLE":
            return f"unexpected answer {lines[0]!r}"
        text = lines[1]
        if text.startswith("certificate: parity"):
            counts = incidence(oracle.bases, oracle.n)
            want = (f"certificate: parity ({len(oracle.bases)} bases, "
                    f"incidence counts {sorted(set(counts))} all even)")
            if text != want or len(oracle.bases) % 2 == 0 or \
                    any(c % 2 for c in counts):
                return f"parity line {text!r}, recomputed {want!r}"
            return oracle.check_verdict(False, None, ("parity", len(oracle.bases),
                                                       tuple(counts)))
        nodes = int(text.split("(")[1].split()[0])
        return oracle.check_verdict(False, None, ("exhaustion", nodes))

    def _cli_spectrum(self, job, stdout):
        vectors, _, _ = self._set_oracle(job)
        sigma = vectors.T @ vectors.conj()
        eigs = np.linalg.eigvalsh(sigma)
        lines = stdout.splitlines()
        got = np.array([float(x) for x in lines[0].split()[1:]])
        if got.shape != eigs.shape or np.abs(got - eigs).max() > 1e-9:
            return f"eigenvalues {got} != {eigs}"
        if abs(float(lines[1].split(":")[1]) - eigs[-1]) > 1e-9:
            return "max eigenvalue differs"
        n, d = vectors.shape
        flat = np.abs(sigma - (n / d) * np.eye(d)).max() < 1e-9
        if lines[2].startswith("equal-weight POVM: yes") != flat:
            return f"POVM answer {lines[2]!r}, proportional={flat}"
        if flat and abs(float(lines[2].split("= ")[1].split(" *")[0]) - n / d) > 1e-9:
            return "POVM constant differs from n/d"
        return None

    def _cli_bounds(self, job, stdout):
        _, _, coloring = self._set_oracle(job)
        obj = json.loads(stdout)
        oracle = self._cached(("set-bounds", job["set"]),
                              lambda: BoundsOracle(coloring.adj))
        half = obj["theta_gap"] / 2
        theta = (obj["theta"], obj["theta"] - half, obj["theta"] + half,
                 obj["theta_gap"])
        return oracle.check(obj["alpha"], obj["independent_set"], theta,
                            obj["alpha_star"], obj["packing_weights"])

    def _cli_scan(self, job, stdout):
        fn = fraction_real if job["field"] == "real" else fraction_complex
        lines = stdout.splitlines()
        if lines[0] != "dimension,fraction":
            return "scan header"
        rows = [ln.split(",") for ln in lines[1:]]
        if [int(r[0]) for r in rows] != list(range(job["lo"], job["hi"] + 1)):
            return "scan dimensions"
        for d, value in rows:
            if abs(float(value) - fn(int(d))) > 1e-10:
                return f"scan d={d}: {value} != {fn(int(d))}"
        return None
