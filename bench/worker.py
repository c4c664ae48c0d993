"""The process that runs one workload's jobs.

    python3 bench/worker.py --workload W --seed N --seconds S --trace T --out F

times its start-up (import ksray, one warm-up call into each layer the
workload uses), then runs whole rounds of the workload's job list while the
next one still fits in S seconds, and writes the start-up times and every
latency and output to F, a pickle read back by run.py.

With --trace 1 or 2 the rounds alternate untraced and traced, so one run
gives both the per-layer self times and the tracing overhead; with 1 the
first round is untraced, with 2 it is traced.  The process imports
only ksray, numpy and the benchmark's input module, so its peak resident
memory is ksray's.  run.py pins BLAS to one thread in its environment.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402


def start_up(workload: str) -> tuple[float, float]:
    """Import ksray and warm up each layer the workload uses; (import_s,
    warmup_s), timed from interpreter start of this script."""
    import ksray
    if workload == "cli-files":
        import ksray.cli  # noqa: F401
    t_import = time.perf_counter()
    warm_up(workload)
    return t_import - _T0, time.perf_counter() - t_import


def warm_up(workload: str) -> None:
    import ksray
    if workload == "ks-critical":
        rs = ksray.build_rayset(ksray.cube13().matrix, "real")
        g = ksray.ortho_graph(rs)
        bases = ksray.complete_bases(g)
        ksray.ks_solve(g, bases)
        ksray.count_colorings(g, bases)
        ksray.realize(ksray.cycle_graph(5), 3, seed=0)
    elif workload == "bounds-ladder":
        g = ksray.cycle_graph(5)
        ksray.independence_number(g)
        ksray.theta_certificate(g)
        ksray.fractional_packing(g)
    elif workload == "mc-scan":
        ksray.mc_colored_fraction("complex", 3, 1000, seed=0)
        ksray.basis_colored_fraction_mc(3, 1000, seed=0)
        ksray.region_validity_mc("complex", 3, 1000, seed=0)
        ksray.separable_validity_mc(1000, seed=0)
        ksray.platter_simulate(ksray.QuantumStrategy((0, 0, 1)), 1000, seed=0)
    elif workload == "cli-files":
        from ksray import cli
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for argv in (["catalog", "emit", "kcbs5"], ["color", "--set", "kcbs5"],
                         ["bounds", "--set", "kcbs5"], ["spectrum", "--set", "kcbs5"],
                         ["measure", "fraction", "--field", "real", "--dim", "3"]):
                cli.run(argv)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# jobs: each returns a compact, picklable output for the oracles


def _verdict(v):
    from ksray import ExhaustionProof, ParityCertificate
    witness = "".join(c.value for c in v.witness) if v.witness else None
    cert = v.certificate
    if isinstance(cert, ParityCertificate):
        cert = ("parity", cert.basis_count, cert.incidence_counts)
    elif isinstance(cert, ExhaustionProof):
        cert = ("exhaustion", cert.nodes_explored)
    return v.colorable, witness, cert


def _solve(ksray, rs):
    g = ksray.ortho_graph(rs)
    bases = ksray.complete_bases(g)
    verdict = ksray.ks_solve(g, bases)
    count = (ksray.count_colorings(g, bases)
             if g.n <= ksray.kscolor.COUNT_GUARD else None)
    return _verdict(verdict) + (count,)


def _run_job(ksray, job):
    kind = job["kind"]
    if kind == "chain":
        return _solve(ksray, ksray.build_rayset(job["vectors"], job["field"]))
    if kind == "realize":
        g = ksray.from_edges(job["n"], job["edges"], job["d"])
        rs = ksray.realize(g, job["d"], job["seed"], field=job["field"])
        return rs.matrix, _solve(ksray, rs)
    if kind in ("triple", "pair"):
        g = ksray.from_edges(job["n"], job["edges"], 3)
        alpha, witness = ksray.independence_number(g)
        theta = None
        if kind == "triple":
            cert = ksray.theta_certificate(g)
            theta = (cert.value, cert.lower, cert.upper, cert.gap)
        alpha_star, weights = ksray.fractional_packing(g)
        return alpha, witness, theta, alpha_star, weights.tolist()
    if kind == "fraction":
        e = ksray.mc_colored_fraction(job["field"], job["d"], job["samples"],
                                      job["seed"])
        return e.value, e.stderr, e.samples
    if kind == "basis":
        e = ksray.basis_colored_fraction_mc(job["d"], job["samples"],
                                            job["seed"])
        return e.value, e.stderr, e.samples
    if kind == "validity":
        return ksray.region_validity_mc(job["field"], job["d"],
                                        job["samples"], job["seed"])
    if kind == "separable":
        return ksray.separable_validity_mc(job["samples"], job["seed"])
    if kind == "platter":
        if job["strategy"] == "classical":
            strategy = ksray.ClassicalStrategy(job["assignment"])
        elif job["strategy"] == "conspiratorial":
            strategy = ksray.ConspiratorialStrategy()
        else:
            strategy = ksray.QuantumStrategy(job["state"])
        out = ksray.platter_simulate(strategy, job["trials"], job["seed"])
        return out.strategy, out.estimate, out.trials
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = ksray.cli.run(job["argv"])
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code
        if "write" in job:
            with open(job["write"], "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        return code, out.getvalue(), err.getvalue()
    raise ValueError(f"unknown job kind {kind!r}")


def run_round(ksray, jobs, tracer=None):
    """One pass over the job list: (wall_s, latencies_s, outputs)."""
    latencies, outputs = [], []
    clock = time.perf_counter
    start = clock()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        t = clock()
        try:
            out = _run_job(ksray, job)
        except Exception as exc:  # a failed job is reported, not fatal
            out = ("error", type(exc).__name__, str(exc))
        latencies.append(clock() - t)
        outputs.append(out)
    return clock() - start, latencies, outputs


def rng_floor_ms(jobs) -> float:
    """Time to draw the fraction jobs' normals straight from stream_rng."""
    from ksray.rng import CHUNK, chunk_sizes, stream_rng
    fractions = [job for job in jobs if job["kind"] == "fraction"]
    if not fractions:
        return 0.0
    start = time.perf_counter()
    for job in fractions:
        for stream, size in enumerate(chunk_sizes(job["samples"], CHUNK)):
            rng = stream_rng(job["seed"], stream)
            rng.standard_normal((size, job["d"]))
            if job["field"] == "complex":
                rng.standard_normal((size, job["d"]))
    return (time.perf_counter() - start) * 1e3


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1, 2), default=0)
    ap.add_argument("--workdir", default=".")
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import_s, warmup_s = start_up(args.workload)

    import ksray
    import inputs
    jobs = inputs.build(args.workload, args.seed, args.workdir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    rounds = []
    span_rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == args.trace % 2
        if traced:
            tracer.install()
        try:
            wall, latencies, outputs = run_round(
                ksray, jobs, tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        record = {"traced": traced, "wall_s": wall, "latencies": latencies,
                  "outputs": outputs}
        if traced:
            spans = tracer.take()
            record["self_ms"], record["layer_self_ms"] = \
                tracing.self_times(spans)
            span_rounds.append((len(rounds), spans))
            record["rng_floor_ms"] = rng_floor_ms(jobs)
        rounds.append(record)
        # stop before a round that would run past --seconds
        done = time.perf_counter() - start + wall >= args.seconds
        if done and (tracer is None or len(rounds) >= 2):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if span_rounds and args.spans:
        tracing.write_spans(args.spans, span_rounds)
    with open(args.out, "wb") as fh:
        pickle.dump({"import_s": import_s, "warmup_s": warmup_s,
                     "rounds": rounds, "peak_rss_mb": peak_rss_mb}, fh)


if __name__ == "__main__":
    main()
