"""Command-line front end: scenario-driven simulation and verification.

Exit codes: 0 success (all requested checks passed), 1 input error (the
message names the offending field), 2 completed run with failing checks,
3 divergence or a formula pole aborting a trajectory product.
"""

import argparse
import os
import sys

from ._version import __version__
from .errors import DivergenceError, PoleError, ScenarioError
from . import scenario as sc

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK_FAILED = 2
EXIT_DIVERGED = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lsb-lab",
        description="Simulate and certify optimal-control flows on matrix "
                    "Lie groups from JSON scenario files.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("scenario", help="path to the scenario JSON file")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="directory prefixed to the scenario's output "
                            "paths")
        p.add_argument("--step", type=float, default=None, metavar="H",
                       help="override the scenario step")
        p.add_argument("--horizon", type=float, default=None, metavar="T",
                       help="override the scenario horizon")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       dest="assignments",
                       help="override a scenario field by dotted path "
                            "(repeatable)")

    p_sim = sub.add_parser("simulate", help="integrate and write the "
                                            "trajectory CSV")
    add_common(p_sim)
    p_ver = sub.add_parser("verify", help="run the scenario's checks and "
                                          "write the report")
    add_common(p_ver)
    p_cmp = sub.add_parser("compare", help="closed-form vs numeric table")
    add_common(p_cmp)
    p_swp = sub.add_parser("sweep", help="repeat simulate+verify over a "
                                         "parameter axis")
    add_common(p_swp)
    p_swp.add_argument("--param", required=True, metavar="PATH",
                       help="dotted path of the swept field")
    p_swp.add_argument("--values", required=True, metavar="LIST",
                       help="comma-separated values for the swept field")
    return parser


def _resolve(args):
    raw = sc.load_raw(args.scenario)
    raw = sc.apply_overrides(raw, args.assignments, step=args.step,
                             horizon=args.horizon)
    return sc.Scenario(raw)


def _output_path(args, scn, key):
    path = scn.outputs.get(key)
    if path is None:
        return None
    if args.out is not None:
        return os.path.join(args.out, path)
    return path


def _report_lines(report):
    lines = []
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status} {c.name}: residual {c.max_residual:.6e} "
                     f"(tolerance {c.tolerance:.6e})")
    return lines


def _cmd_simulate(args):
    scn = _resolve(args)
    cols = sc.simulate_columns(scn)
    path = _output_path(args, scn, "trajectory_csv")
    if path is None:
        path = os.path.join(args.out or ".", "trajectory.csv")
    sc.write_csv(path, cols)
    print(f"wrote {path} ({cols[0][1].size} samples, "
          f"{len(cols)} columns)")
    return EXIT_OK


def _cmd_verify(args):
    scn = _resolve(args)
    report = sc.run_checks(scn)
    for line in _report_lines(report):
        print(line)
    path = _output_path(args, scn, "report_json")
    if path is not None:
        sc.write_report(path, report)
        print(f"wrote {path}")
    csv_path = _output_path(args, scn, "trajectory_csv")
    if csv_path is not None:
        sc.write_csv(csv_path, sc.simulate_columns(scn))
        print(f"wrote {csv_path}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_compare(args):
    scn = _resolve(args)
    header, rows, escape = sc.compare_table(scn)
    print(sc.format_table(header, rows))
    if escape is not None:
        print(f"numeric solution diverged near t = {escape:.6g}; "
              "table truncated to the surviving prefix")
        return EXIT_DIVERGED
    return EXIT_OK


def _sweep_values(text):
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        raise ScenarioError("--values", "no values given")
    return values


def _cmd_sweep(args):
    values = _sweep_values(args.values)
    base_raw = sc.load_raw(args.scenario)
    base_raw = sc.apply_overrides(base_raw, args.assignments, step=args.step,
                                  horizon=args.horizon)

    worst = EXIT_OK
    for value in values:
        # each value writes under its own directory and shares nothing
        label = f"{args.param}={value}"
        out_dir = os.path.join(args.out or "sweep_out",
                               label.replace("/", "_"))
        print(f"--- {label}")
        code = EXIT_OK
        try:
            # an invalid value fails on its own; later values still run
            scn = sc.Scenario(
                sc.apply_overrides(base_raw, [f"{args.param}={value}"]))
            csv_path = scn.outputs.get("trajectory_csv", "trajectory.csv")
            sc.write_csv(os.path.join(out_dir, csv_path),
                         sc.simulate_columns(scn))
            if scn.checks:
                report = sc.run_checks(scn)
                for line in _report_lines(report):
                    print(line)
                sc.write_report(
                    os.path.join(out_dir,
                                 scn.outputs.get("report_json",
                                                 "report.json")), report)
                if not report.all_passed:
                    code = EXIT_CHECK_FAILED
        except (DivergenceError, PoleError) as e:
            print(f"aborted: {e}")
            code = EXIT_DIVERGED
        except ScenarioError as e:
            print(f"input error: {e}")
            code = EXIT_INPUT
        worst = max(worst, code)
    return worst


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
    }[args.command]
    try:
        return handler(args)
    except ScenarioError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except PoleError as e:
        loc = f" at t = {e.location:.6g}" if e.location is not None else ""
        print(f"formula pole{loc}: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except DivergenceError as e:
        print(f"diverged near t = {e.escape_time:.6g}: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
