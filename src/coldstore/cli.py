"""Command-line entry point: scenario subcommands plus parameter scans.

Exit code 0 means every check in the emitted report passed; 1 means at
least one check failed; 2 means the invocation itself was invalid
(configuration errors, budget refusals).
"""

from __future__ import annotations

import sys
from argparse import ArgumentParser
from pathlib import Path

from .errors import BudgetExceededError, ConfigError
from .harness import SCENARIOS, load_config, run, scan


def _build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="coldstore",
        description="Exact finite-N checks for collective atomic storage: "
                    "run a verification scenario and emit a report.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def add_common(sp):
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON configuration file (defaults per scenario)")
        sp.add_argument("--out", type=Path, default=None,
                        help="directory to write the report into")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report file format (default json)")

    for kind, scenario in SCENARIOS.items():
        add_common(sub.add_parser(kind, help=scenario.description))
    scan_parser = sub.add_parser(
        "scan", help="run one scenario over a Cartesian parameter grid")
    add_common(scan_parser)
    scan_parser.add_argument("--jobs", type=int, default=1,
                             help="worker processes for scan points")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        if args.seed is not None:
            config["seed"] = args.seed
        if args.command == "scan":
            report = scan(config, out_dir=args.out, fmt=args.format,
                          jobs=args.jobs)
        else:
            report = run(args.command, config, out_dir=args.out,
                         fmt=args.format)
    except (ConfigError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary_line())
    for c in report.failed():
        print(f"  FAIL {c.name}: actual={c.actual:.6g} "
              f"({c.comparison} expected={c.expected:.6g}, "
              f"tolerance={c.tolerance:.6g}) [{c.provenance}] {c.detail}")
    if args.out is not None:
        print(f"report written under {args.out}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
