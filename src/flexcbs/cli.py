"""Command-line entry point for solving a single MAPF instance."""

from __future__ import annotations

import argparse
import json
import sys

from .flex import FlexMode
from .highlevel import SolverConfig, Solver
from .map_io import MapFormatError, InstanceError, load_instance
from .oracle import validate

EXIT_SOLVED = 0
EXIT_TIMEOUT = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64


class UsageParser(argparse.ArgumentParser):
    """An argument parser that exits with EXIT_USAGE on bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def positive_int(text: str) -> int:
    """argparse type for --agents: an integer of at least 1."""
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {k}")
    return k


def factor_at_least_one(text: str) -> float:
    """argparse type for --suboptimality: a number of at least 1, not NaN."""
    w = float(text)
    if not w >= 1.0:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return w


def positive_seconds(text: str) -> float:
    """argparse type for --time-limit: seconds above 0, not NaN."""
    seconds = float(text)
    if not seconds > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return seconds


def build_parser() -> argparse.ArgumentParser:
    ap = UsageParser(prog="flexcbs", description="Bounded-suboptimal MAPF solver")
    ap.add_argument("--map", required=True, help="MovingAI .map file")
    ap.add_argument("--scen", required=True, help="MovingAI .scen file")
    ap.add_argument("--agents", required=True, type=positive_int)
    ap.add_argument("--suboptimality", type=factor_at_least_one, default=1.05)
    ap.add_argument("--flex", default="none",
                    choices=[m.value for m in FlexMode])
    ap.add_argument("--lowlevel", default="focal", choices=["focal", "fastar"])
    ap.add_argument("--bypass", action=argparse.BooleanOptionalAction,
                    default=True)
    ap.add_argument("--prioritize", action=argparse.BooleanOptionalAction,
                    default=True)
    ap.add_argument("--symmetry", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="turn target-conflict reasoning on or off")
    ap.add_argument("--time-limit", type=positive_seconds, default=60.0)
    ap.add_argument("--out", default=None, help="solution output path")
    return ap


def write_solution(path: str, paths) -> None:
    with open(path, "w") as f:
        for p in paths:
            f.write(" ".join(f"({r},{c})" for r, c in p.cells) + "\n")


def metrics_dict(metrics) -> dict:
    return {
        "outcome": metrics.outcome,
        "soc": metrics.soc,
        "lb0": metrics.lb0,
        "lb_final": metrics.lb_final,
        "lbi": metrics.lbi,
        "generated": metrics.generated,
        "expanded": metrics.expanded,
        "depth": metrics.depth,
        "gb_ratio": metrics.gb_ratio,
        "low_level_expansions": metrics.low_level_expansions,
        "wall_time": metrics.wall_time,
        "violations": metrics.violations,
    }


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        instance = load_instance(args.map, args.scen, args.agents)
    except (MapFormatError, InstanceError, OSError) as exc:
        print(f"flexcbs: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = SolverConfig(
        w=args.suboptimality, flex_mode=FlexMode(args.flex),
        low_level=args.lowlevel, bypass=args.bypass,
        prioritize=args.prioritize, symmetry=args.symmetry,
        time_limit=args.time_limit)
    result = Solver(instance, config).solve()
    if result.paths is not None:
        problems = validate(result.paths, instance)
        if problems:
            print("flexcbs: emitted solution failed validation:",
                  file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return EXIT_INFEASIBLE
    if args.out:
        try:
            if result.paths is not None:
                write_solution(args.out, result.paths)
            with open(args.out + ".metrics.json", "w") as f:
                json.dump(metrics_dict(result.metrics), f, indent=2)
        except OSError as exc:
            print(f"flexcbs: cannot write output: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        json.dump(metrics_dict(result.metrics), sys.stdout, indent=2)
        print()
    return {"solved": EXIT_SOLVED, "timeout": EXIT_TIMEOUT,
            "infeasible": EXIT_INFEASIBLE}[result.outcome]


if __name__ == "__main__":
    raise SystemExit(main())
