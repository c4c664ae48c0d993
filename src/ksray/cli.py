"""Command-line entry point.

Subcommands: catalog, graph, color, bounds, spectrum, platter, measure.
Exit codes: 0 success, 2 invalid input (InvalidInput or OSError), 1 numerical
failure (NumericalFailure or numpy's LinAlgError); any other exception is a
bug and surfaces as a traceback.  A command that fails writes nothing to
stdout.  Output for a fixed argv (including seeds) is byte-identical between
runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import kscolor, measure, operators, ortho, rays


def _resolve_set(args) -> rays.RaySet:
    """The one place that picks a command's ray set: --file overrides the
    named catalog, and --phase applies to three-cubes alone."""
    if not args.file and args.set is None:
        raise rays.InvalidInput("no ray set given; use --set or --file")
    if args.phase is not None and (args.file or args.set != "three-cubes"):
        raise rays.InvalidInput("--phase applies only to three-cubes")
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:  # a binary file
                raise rays.InvalidInput(str(exc)) from exc
        return rays.load_rayset(text)
    make = rays.CATALOGS.get(args.set)
    if make is None:
        raise rays.InvalidInput(f"unknown set {args.set!r}; "
                                f"choices: {', '.join(rays.CATALOGS)}")
    return make() if args.phase is None else make(args.phase)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _render(as_json: bool, record: dict, lines: list[str]) -> str:
    """One result: its record as a sorted-key JSON line, or its text."""
    return (json.dumps(record, sort_keys=True) if as_json
            else "\n".join(lines)) + "\n"


def _estimate(est: measure.MCEstimate) -> tuple[dict, list[str]]:
    """The record and text line of one Monte Carlo estimate."""
    return dataclasses.asdict(est), [
        f"value: {_fmt(est.value)} stderr: {_fmt(est.stderr)} "
        f"samples: {est.samples} seed: {est.seed}"]


def cmd_catalog(args) -> str:
    if args.action == "list":
        return "".join(f"{name}\n" for name in rays.CATALOGS)
    return rays.rayset_to_json(_resolve_set(args))


def cmd_graph(args) -> str:
    return ortho.graph_to_json(ortho.ortho_graph(_resolve_set(args)))


def cmd_color(args) -> str:
    g = ortho.ortho_graph(_resolve_set(args))
    verdict = kscolor.ks_solve(g)
    if verdict.colorable:
        row = " ".join(f"{lbl}={c.value}"
                       for lbl, c in zip(g.vertex_labels, verdict.witness))
        return f"COLORABLE\nwitness: {row}\n"
    cert = verdict.certificate
    if isinstance(cert, kscolor.ParityCertificate):
        incid = sorted(set(cert.incidence_counts))
        why = (f"parity ({cert.basis_count} bases, "
               f"incidence counts {incid} all even)")
    else:
        why = f"exhaustive search ({cert.nodes_explored} nodes explored)"
    return f"UNCOLORABLE\ncertificate: {why}\n"


def cmd_bounds(args) -> str:
    g = ortho.ortho_graph(_resolve_set(args))
    report = bounds_mod.bounds_report(g)
    return _render(args.json, dict(
        alpha=report.alpha, theta=report.theta, alpha_star=report.alpha_star,
        theta_gap=report.theta_gap,
        independent_set=list(report.independent_set),
        packing_weights=[float(w) for w in report.packing_weights],
    ), [f"alpha      = {report.alpha}",
        f"theta      = {_fmt(report.theta)} (gap {report.theta_gap:.2e})",
        f"alpha_star = {_fmt(report.alpha_star)}",
        f"independent set: {list(report.independent_set)}"])


def cmd_spectrum(args) -> str:
    rs = _resolve_set(args)
    sigma = operators.projector_sum(rs)
    eigs = " ".join(_fmt(w) for w in np.linalg.eigvalsh(sigma))
    top = _fmt(operators.eigen_max(sigma))
    flat, const = operators.equal_weight_povm_check(rs)
    povm = f"yes (sum = {_fmt(const)} * I)" if flat else "no"
    return (f"eigenvalues: {eigs}\nmax eigenvalue: {top}\n"
            f"equal-weight POVM: {povm}\n")


def _components(kind, text: str) -> tuple:
    """The comma-separated entries of text, each read by kind."""
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError as exc:
        raise rays.InvalidInput(str(exc)) from exc


def cmd_platter(args) -> str:
    for flag, owner in (("assignment", "classical"), ("state", "quantum")):
        if getattr(args, flag) is not None and args.strategy != owner:
            raise rays.InvalidInput(f"--{flag} applies only to {owner}")
    if args.strategy == "classical":
        strategy = operators.ClassicalStrategy(_components(
            int, "1,0,1,0,0" if args.assignment is None else args.assignment))
    elif args.strategy == "conspiratorial":
        strategy = operators.ConspiratorialStrategy()
    else:
        strategy = operators.QuantumStrategy(_components(
            complex, "0,0,1" if args.state is None else args.state))
    out = operators.platter_simulate(strategy, args.trials, args.seed)
    return (f"strategy: {out.strategy}\nestimate: {_fmt(out.estimate)}\n"
            f"trials: {out.trials} seed: {out.seed}\n")


def _parse_scan(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise rays.InvalidInput(
            f"--scan must be LO:HI, got {text!r}") from None
    if not 2 <= lo <= hi:
        raise rays.InvalidInput(f"--scan needs 2 <= LO <= HI, got {text!r}")
    # the closed forms cost up to O(d) each: a scan gets the budget of one d
    rays._check_int((lo + hi) * (hi - lo + 1) // 2,
                    "the sum of --scan dimensions", high=measure.DIM_GUARD)
    return lo, hi


def cmd_fraction(args) -> str:
    fn = (measure.colored_fraction_real if args.field == "real"
          else measure.colored_fraction_complex)
    if args.scan:
        lo, hi = _parse_scan(args.scan)
        dims = list(range(lo, hi + 1))
        fracs = [fn(d) for d in dims]
        return _render(args.json, {"dimensions": dims, "fractions": fracs},
                       ["dimension,fraction",
                        *(f"{d},{_fmt(f)}" for d, f in zip(dims, fracs))])
    if args.dim is None:
        raise rays.InvalidInput("measure fraction needs --dim or --scan")
    exact = fn(args.dim)
    record, lines = {"closed_form": exact}, [f"closed form: {_fmt(exact)}"]
    if args.mc is not None:
        est, est_lines = _estimate(measure.mc_colored_fraction(
            args.field, args.dim, args.mc, args.seed))
        record, lines = record | est, lines + est_lines
    return _render(args.json, record, lines)


def cmd_bases(args) -> str:
    est = measure.basis_colored_fraction_mc(args.dim, args.mc, args.seed)
    return _render(args.json, *_estimate(est))


def cmd_validity(args) -> str:
    both_red, all_green = measure.region_validity_mc(
        args.field, args.dim, args.mc, args.seed)
    return _render(args.json, {"both_red_pairs": both_red,
                               "all_green_bases": all_green,
                               "samples": args.mc, "seed": args.seed},
                   [f"both-red orthogonal pairs: {both_red}",
                    f"all-green bases: {all_green}",
                    f"samples: {args.mc} seed: {args.seed}"])


def cmd_separable(args) -> str:
    violations = measure.separable_validity_mc(args.mc, args.seed)
    return _render(args.json, {"same_quadrant_pairs": violations,
                               "samples": args.mc, "seed": args.seed},
                   [f"same-quadrant orthogonal pairs: {violations}",
                    f"samples: {args.mc} seed: {args.seed}"])


@functools.cache  # one tree per process: building it costs more than most runs
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ksray",
        description="Ray catalogs, orthogonality graphs, KS colorability, "
                    "contextuality bounds, and coloring measures.")
    sub = top.add_subparsers(dest="command", required=True)

    # options that several commands share, each declared once; a parent's
    # options come first in its children's help
    named, phase_file, seed, as_json, mc = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    named.add_argument("--set", help="named catalog set: "
                                     + ", ".join(rays.CATALOGS))
    phase_file.add_argument("--phase", type=float,
                            help="free phase for three-cubes (default 0)")
    phase_file.add_argument("--file",
                            help="ray-set file (overrides the set name)")
    seed.add_argument("--seed", type=int, default=0)
    as_json.add_argument("--json", action="store_true")
    mc.add_argument("--mc", type=int, required=True)
    ray_set, sampled = [named, phase_file], [mc, seed, as_json]

    p = sub.add_parser("catalog", parents=[phase_file],
                       help="list or emit the named ray sets")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("set", nargs="?", metavar="name", help="set name for emit")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("graph", parents=ray_set,
                       help="emit the orthogonality graph as JSON "
                            "(fields: n, dimension, edges)")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("color", parents=ray_set,
                       help="decide KS colorability")
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("bounds", parents=[*ray_set, as_json],
                       help="classical/quantum/conspiratorial bounds")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("spectrum", parents=ray_set,
                       help="projector-sum spectrum and POVM check")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("platter", parents=[seed],
                       help="pentagon platter simulation")
    p.add_argument("--strategy", required=True,
                   choices=("classical", "conspiratorial", "quantum"))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--assignment", help="five 0/1 entries for classical "
                                        "(default 1,0,1,0,0)")
    p.add_argument("--state", help="three components for quantum "
                                   "(default 0,0,1)")
    p.set_defaults(fn=cmd_platter)

    p = sub.add_parser("measure", help="colored fractions and validity checks")
    msub = p.add_subparsers(dest="measure_cmd", required=True)

    q = msub.add_parser("fraction", parents=[seed, as_json],
                        help="cap-and-belt colored fraction")
    q.add_argument("--field", choices=("real", "complex"), required=True)
    q.add_argument("--dim", type=int)
    q.add_argument("--mc", type=int, help="Monte Carlo sample count")
    q.add_argument("--scan", metavar="LO:HI",
                   help="CSV of closed-form values for dimensions LO..HI, "
                        "2 <= LO <= HI, whose sum is at most "
                        f"{measure.DIM_GUARD} (columns: dimension, fraction); "
                        "with --json one record of dimensions and fractions")
    q.set_defaults(fn=cmd_fraction)

    q = msub.add_parser("bases", parents=sampled,
                        help="fraction of fully colored real bases")
    q.add_argument("--dim", type=int, required=True)
    q.set_defaults(fn=cmd_bases)

    q = msub.add_parser("validity", parents=sampled,
                        help="cap/belt rule violations over bases")
    q.add_argument("--field", choices=("real", "complex"), required=True)
    q.add_argument("--dim", type=int, required=True)
    q.set_defaults(fn=cmd_validity)

    q = msub.add_parser("separable", parents=sampled,
                        help="separable-quadrant validity check")
    q.set_defaults(fn=cmd_separable)

    return top


def run(argv=None) -> int:
    """Run one command; its text reaches stdout only when it succeeds."""
    args = build_parser().parse_args(argv)
    try:
        sys.stdout.write(args.fn(args))
        return 0
    except (rays.InvalidInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (rays.NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
