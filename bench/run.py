"""Benchmark of ksray: one workload per run, every output checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; ksray is imported from ./src.  A run starts
WORKERS worker processes one after another.  Each times its own start-up
(import ksray plus one warm-up call into each layer the workload uses), then
runs whole rounds of the workload's job list; together they take S seconds.
Every output is then checked against oracles.py.  The last line of stdout
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
job_p50_ms, job_tail_ms, peak_rss_mb); with --trace 1 the per-layer self
times from the traced rounds.  The full result and, for traced runs, every
span go to bench/out/.  BLAS is pinned to one thread in every process.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# Worker processes per run.  They share --seconds, and their start-ups are
# the samples of setup_s.
WORKERS = 5
WORKER_GRACE_S = 120

MC_KINDS = ("fraction", "basis", "validity", "separable")


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least ten jobs of the list beyond it."""
    return math.floor(100.0 * (1.0 - 10.0 / jobs))


def check_rounds(checker, rounds):
    """Per round, the (job index, reason) of every output that fails."""
    failures = []
    seen: dict = {}
    for rnd in rounds:
        bad = []
        for k, out in enumerate(rnd["outputs"]):
            key = (k, pickle.dumps(out))
            if key not in seen:
                seen[key] = checker.check(k, out, rnd["outputs"])
            if seen[key] is not None:
                bad.append((k, seen[key]))
        failures.append(bad)
    return failures


def job_latencies(rounds) -> list[float]:
    """Each job's best latency over the rounds, in seconds.

    Other tenants of a shared host slow a job by up to half, in spells of
    milliseconds to minutes, so a median over a run's rounds reads whichever
    spells the run met.  The best of the rounds, as timeit reports it, is
    the job's time when nothing else held the core, and varies less between
    runs.
    """
    return [min(times) for times in zip(*(rnd["latencies"] for rnd in rounds))]


def end_to_end(peak_rss_mb, setups, plain) -> dict:
    latencies = job_latencies(plain)
    p = tail_percentile(len(latencies))
    return {
        "setup_s": statistics.median(s["import_s"] + s["warmup_s"]
                                     for s in setups),
        "wall_s": sum(latencies),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": statistics.quantiles(latencies, n=100,
                                            method="inclusive")[p - 1] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(jobs, setups, traced) -> dict:
    import tracing
    metrics = {
        "setup.import_ms": statistics.median(s["import_s"] for s in setups) * 1e3,
        "setup.warmup_ms": statistics.median(s["warmup_s"] for s in setups) * 1e3,
    }
    for name in tracing.METRICS:
        metrics[name] = statistics.median(rnd["self_ms"].get(name, 0.0)
                                          for rnd in traced)
    metrics["cli.self_ms"] = statistics.median(
        rnd["layer_self_ms"].get("cli", 0.0) for rnd in traced)

    def nodes(job, out):
        if job["kind"] not in ("chain", "realize") or len(out) == 3:
            return 0  # not a KS job, or it raised
        cert = (out[1] if job["kind"] == "realize" else out)[2]
        return cert[1] if cert and cert[0] == "exhaustion" else 0

    metrics["kscolor.nodes"] = statistics.median(
        sum(nodes(job, out) for job, out in zip(jobs, rnd["outputs"]))
        for rnd in traced)
    mc = [k for k, job in enumerate(jobs) if job["kind"] in MC_KINDS]
    busy = sum(rnd["latencies"][k] for rnd in traced for k in mc)
    draws = sum(jobs[k]["samples"] for k in mc) * len(traced)
    metrics["measure.draws_per_s"] = draws / busy if busy else 0.0
    metrics["rng.draw_ms"] = statistics.median(rnd["rng_floor_ms"]
                                               for rnd in traced)
    return metrics


UNITS = {"per_s": "1/s", "_ms": "ms", "_s": "s", "_mb": "MB",
         "nodes": "count"}


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, exit through subprocess.run, which kills and reaps the
    # running worker, and through the clean-up of the work directory.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ksray", "__init__.py")):
        print(f"error: no ksray sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import inputs
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=out_dir)
    try:
        jobs = inputs.build(args.workload, args.seed, workdir)
        if args.workload == "cli-files":
            inputs.write_bad_files(args.seed, workdir)
        setups, rounds, peak_rss_mb, measured = [], [], 0.0, 0.0
        for w in range(WORKERS):
            share = max(args.seconds - measured, 0.0) / (WORKERS - w)
            result_path = os.path.join(workdir, f"result-{w}.pickle")
            subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(share),
                 # traced workers take turns to start with a traced round,
                 # so that the first, coldest rounds fall on both kinds
                 "--trace", str(args.trace and 1 + w % 2),
                 "--workdir", workdir,
                 "--out", result_path, "--spans",
                 os.path.join(out_dir, f"spans-{tag}-w{w}.jsonl.gz")],
                env=env, timeout=args.seconds + WORKER_GRACE_S, check=True)
            with open(result_path, "rb") as fh:
                result = pickle.load(fh)
            setups.append({"import_s": result["import_s"],
                           "warmup_s": result["warmup_s"]})
            rounds += result["rounds"]
            measured += sum(rnd["wall_s"] for rnd in result["rounds"])
            peak_rss_mb = max(peak_rss_mb, result["peak_rss_mb"])

        import oracles
        checker = oracles.Checker(jobs)
        failures = check_rounds(checker, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_jobs = {k: reason for bad in failures for k, reason in bad}
    unexpected = {k: r for k, r in failed_jobs.items() if "fault" not in jobs[k]}
    plain = [rnd for rnd in rounds if not rnd["traced"]]
    traced = [rnd for rnd in rounds if rnd["traced"]]
    metrics = (per_layer(jobs, setups, traced) if args.trace
               else end_to_end(peak_rss_mb, setups, plain))
    overhead = (sum(job_latencies(traced))
                - sum(job_latencies(plain))) if traced else None

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "jobs_per_round": len(jobs),
        "tail_percentile": tail_percentile(len(jobs)),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "setups": setups, "trace_overhead_s": overhead,
        "job_best_ms": {job["name"]: t * 1e3 for job, t in
                          zip(jobs, job_latencies(rounds))},
        "layer_self_ms": [r["layer_self_ms"] for r in traced],
        "failed_jobs": {jobs[k]["name"]: {"reason": reason,
                                          "known_fault": jobs[k].get("fault")}
                        for k, reason in sorted(failed_jobs.items())},
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    for k, reason in sorted(failed_jobs.items()):
        label = "known fault" if k not in unexpected else "UNEXPECTED"
        print(f"failed ({label}): {jobs[k]['name']}: {reason}")
    for name, value in metrics.items():
        print(f"{name:24s} {value:14.4f} {unit_of(name)}")
    if overhead is not None:
        print(f"{'trace overhead (wall_s)':24s} {overhead:14.4f} s")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(jobs) * len(rounds),
        "failed": sum(len(bad) for bad in failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
