"""Command-line entry point.

Subcommands: catalog, graph, color, bounds, spectrum, platter, measure.
Exit codes: 0 success, 2 invalid input, 1 numerical failure.  Output for a
fixed argv (including seeds) is byte-identical between runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import kscolor, measure, operators, ortho, rays


def _resolve_set(args) -> rays.RaySet:
    """Named catalog sets resolve first; an explicit file overrides the name."""
    path = getattr(args, "file", None)
    if path:  # opened here, so a name starting with "{" is never JSON text
        with open(path, encoding="utf-8") as fh:
            return rays.load_rayset(fh)
    name = args.set
    if name is None:
        raise rays.ParseError("no ray set given; use --set or --file")
    make = rays.CATALOGS.get(name)
    if make is None:
        raise rays.ParseError(
            f"unknown set {name!r}; choices: {', '.join(rays.CATALOGS)}")
    return make(args.phase) if make is rays.three_cubes else make()


def _add_set_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", choices=tuple(rays.CATALOGS),
                   help="named catalog set")
    p.add_argument("--phase", type=float, default=0.0,
                   help="free phase for three-cubes (default 0)")
    p.add_argument("--file", help="ray-set file (overrides --set)")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in rays.CATALOGS:
            print(name)
        return 0
    rs = _resolve_set(argparse.Namespace(set=args.name, phase=args.phase,
                                         file=args.file))
    sys.stdout.write(rays.rayset_to_json(rs))
    return 0


def cmd_graph(args) -> int:
    g = ortho.ortho_graph(_resolve_set(args))
    sys.stdout.write(ortho.graph_to_json(g))
    return 0


def cmd_color(args) -> int:
    rs = _resolve_set(args)
    g = ortho.ortho_graph(rs)
    bases = ortho.complete_bases(g)
    verdict = kscolor.ks_solve(g, bases)
    if verdict.colorable:
        print("COLORABLE")
        row = " ".join(f"{lbl}={c.value}"
                       for lbl, c in zip(g.vertex_labels, verdict.witness))
        print(f"witness: {row}")
    else:
        print("UNCOLORABLE")
        cert = verdict.certificate
        if isinstance(cert, kscolor.ParityCertificate):
            incid = sorted(set(cert.incidence_counts))
            print(f"certificate: parity ({cert.basis_count} bases, "
                  f"incidence counts {incid} all even)")
        else:
            print(f"certificate: exhaustive search "
                  f"({cert.nodes_explored} nodes explored)")
    return 0


def cmd_bounds(args) -> int:
    g = ortho.ortho_graph(_resolve_set(args))
    report = bounds_mod.bounds_report(g)
    if args.json:
        obj = {
            "alpha": report.alpha,
            "theta": report.theta,
            "alpha_star": report.alpha_star,
            "theta_gap": report.theta_gap,
            "independent_set": list(report.independent_set),
            "packing_weights": [float(w) for w in report.packing_weights],
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"alpha      = {report.alpha}")
        print(f"theta      = {_fmt(report.theta)} (gap {report.theta_gap:.2e})")
        print(f"alpha_star = {_fmt(report.alpha_star)}")
        print(f"independent set: {list(report.independent_set)}")
    return 0


def cmd_spectrum(args) -> int:
    rs = _resolve_set(args)
    sigma = operators.projector_sum(rs)
    eigs = np.linalg.eigvalsh(sigma)
    print("eigenvalues:", " ".join(_fmt(w) for w in eigs))
    print(f"max eigenvalue: {_fmt(operators.eigen_max(sigma))}")
    flat, const = operators.equal_weight_povm_check(rs)
    if flat:
        print(f"equal-weight POVM: yes (sum = {_fmt(const)} * I)")
    else:
        print("equal-weight POVM: no")
    return 0


def cmd_platter(args) -> int:
    if args.strategy == "classical":
        assignment = tuple(int(x) for x in args.assignment.split(","))
        strategy = operators.ClassicalStrategy(assignment)
    elif args.strategy == "conspiratorial":
        strategy = operators.ConspiratorialStrategy()
    else:
        state = tuple(complex(x) for x in args.state.split(","))
        strategy = operators.QuantumStrategy(state)
    out = operators.platter_simulate(strategy, args.trials, args.seed)
    print(f"strategy: {out.strategy}")
    print(f"estimate: {_fmt(out.estimate)}")
    print(f"trials: {out.trials} seed: {out.seed}")
    return 0


def _print_estimate(est: measure.MCEstimate, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"value": est.value, "stderr": est.stderr,
                          "samples": est.samples, "seed": est.seed},
                         sort_keys=True))
    else:
        print(f"value: {_fmt(est.value)} stderr: {_fmt(est.stderr)} "
              f"samples: {est.samples} seed: {est.seed}")


def _parse_scan(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise rays.ParseError(f"--scan must be LO:HI, got {text!r}") from None
    if not 2 <= lo <= hi:
        raise rays.ParseError(f"--scan needs 2 <= LO <= HI, got {text!r}")
    return lo, hi


def cmd_fraction(args) -> int:
    fn = (measure.colored_fraction_real if args.field == "real"
          else measure.colored_fraction_complex)
    if args.scan:
        lo, hi = _parse_scan(args.scan)
        print("dimension,fraction")
        for d in range(lo, hi + 1):
            print(f"{d},{_fmt(fn(d))}")
        return 0
    if args.dim is None:
        raise rays.ParseError("measure fraction needs --dim or --scan")
    exact = fn(args.dim)
    if args.mc:
        est = measure.mc_colored_fraction(args.field, args.dim, args.mc,
                                          args.seed)
        if args.json:
            print(json.dumps({"closed_form": exact, "value": est.value,
                              "stderr": est.stderr, "samples": est.samples,
                              "seed": est.seed}, sort_keys=True))
        else:
            print(f"closed form: {_fmt(exact)}")
            _print_estimate(est, False)
    elif args.json:
        print(json.dumps({"closed_form": exact}, sort_keys=True))
    else:
        print(f"closed form: {_fmt(exact)}")
    return 0


def cmd_bases(args) -> int:
    est = measure.basis_colored_fraction_mc(args.dim, args.mc, args.seed)
    _print_estimate(est, args.json)
    return 0


def cmd_validity(args) -> int:
    both_red, all_green = measure.region_validity_mc(
        args.field, args.dim, args.mc, args.seed)
    if args.json:
        print(json.dumps({"both_red_pairs": both_red,
                          "all_green_bases": all_green,
                          "samples": args.mc, "seed": args.seed},
                         sort_keys=True))
    else:
        print(f"both-red orthogonal pairs: {both_red}")
        print(f"all-green bases: {all_green}")
        print(f"samples: {args.mc} seed: {args.seed}")
    return 0


def cmd_separable(args) -> int:
    violations = measure.separable_validity_mc(args.mc, args.seed)
    if args.json:
        print(json.dumps({"same_quadrant_pairs": violations,
                          "samples": args.mc, "seed": args.seed},
                         sort_keys=True))
    else:
        print(f"same-quadrant orthogonal pairs: {violations}")
        print(f"samples: {args.mc} seed: {args.seed}")
    return 0


@functools.cache  # one tree per process: building it costs more than most runs
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ksray",
        description="Ray catalogs, orthogonality graphs, KS colorability, "
                    "contextuality bounds, and coloring measures.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list or emit the named ray sets")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?", help="set name for emit")
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--file", help="ray-set file (overrides the name)")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("graph", help="emit the orthogonality graph as JSON "
                                     "(fields: n, dimension, edges)")
    _add_set_options(p)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("color", help="decide KS colorability")
    _add_set_options(p)
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("bounds", help="classical/quantum/conspiratorial bounds")
    _add_set_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("spectrum", help="projector-sum spectrum and POVM check")
    _add_set_options(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("platter", help="pentagon platter simulation")
    p.add_argument("--strategy", required=True,
                   choices=("classical", "conspiratorial", "quantum"))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assignment", default="1,0,1,0,0",
                   help="five 0/1 entries for the classical strategy")
    p.add_argument("--state", default="0,0,1",
                   help="three components for the quantum strategy")
    p.set_defaults(fn=cmd_platter)

    p = sub.add_parser("measure", help="colored fractions and validity checks")
    msub = p.add_subparsers(dest="measure_cmd", required=True)

    q = msub.add_parser("fraction", help="cap-and-belt colored fraction")
    q.add_argument("--field", choices=("real", "complex"), required=True)
    q.add_argument("--dim", type=int)
    q.add_argument("--mc", type=int, help="Monte Carlo sample count")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true")
    q.add_argument("--scan", metavar="LO:HI",
                   help="CSV of closed-form values for dimensions LO..HI, "
                        "2 <= LO <= HI (columns: dimension, fraction)")
    q.set_defaults(fn=cmd_fraction)

    q = msub.add_parser("bases", help="fraction of fully colored real bases")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--mc", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_bases)

    q = msub.add_parser("validity", help="cap/belt rule violations over bases")
    q.add_argument("--field", choices=("real", "complex"), required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--mc", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_validity)

    q = msub.add_parser("separable", help="separable-quadrant validity check")
    q.add_argument("--mc", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_separable)

    return top


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "emit" and not args.name:
        parser.error("catalog emit needs a set name")
    if args.command == "catalog" and args.name:
        args.name = args.name.replace("_", "-")
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ortho.NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
