"""Batch benchmark execution, CSV/JSON outputs, and plot-ready aggregates."""

from __future__ import annotations

import csv
import json
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from .cli import (EXIT_USAGE, UsageParser, factor_at_least_one, positive_int,
                  positive_seconds)
from .flex import FlexMode
from .highlevel import RunMetrics, SolverConfig, Solver
from .map_io import (Instance, InstanceError, MapFormatError, parse_map,
                     parse_scenario)
from .oracle import validate

CSV_SCHEMA_COMMENT = "# flexcbs results schema v1"
HIST_EDGES = [0, 1, 2, 5, 10, 20]  # last bucket is open-ended
HIST_LABELS = ["hist_0_1", "hist_1_2", "hist_2_5", "hist_5_10", "hist_10_20",
               "hist_20_inf"]

CSV_COLUMNS = ["instance_id", "k", "w", "mode", "lowlevel", "outcome", "soc",
               "lb0", "lb_final", "subopt", "runtime", "generated", "expanded",
               "depth", "gb_ratio", "lbi"] + HIST_LABELS
RUNTIME_COLUMNS = {"runtime"}


def flex_histogram(values: list[float]) -> list[float]:
    """Bucketed flex-usage percentages over [0,1),[1,2),[2,5),[5,10),[10,20),[20,inf)."""
    counts = [0] * 6
    for v in values:
        # a value >= 20 or NaN bisects to 6 and a negative one to 0, so both
        # land in the last bucket, the negative one through index -1
        counts[bisect_right(HIST_EDGES, v) - 1] += 1
    if not values:
        return [0.0] * 6
    return [100.0 * c / len(values) for c in counts]


@dataclass
class ResultRow:
    """One run of a sweep: its instance, its own config and its metrics."""
    instance_id: str
    k: int
    config: SolverConfig
    metrics: RunMetrics

    @property
    def mode(self) -> str:
        return self.config.flex_mode.value

    def to_csv_values(self) -> list:
        c, m = self.config, self.metrics
        subopt = m.subopt
        base = [self.instance_id, self.k, c.w, self.mode, c.low_level,
                m.outcome, m.soc if m.soc is not None else "", m.lb0,
                m.lb_final, round(subopt, 6) if subopt is not None else "",
                round(m.wall_time, 4), m.generated, m.expanded, m.depth,
                round(m.gb_ratio, 6), round(m.lbi, 6)]
        hist = flex_histogram(m.flex_usage_values())
        return base + [round(h, 3) for h in hist]


@dataclass
class BenchSpec:
    map_path: str
    scen_paths: list[str]
    agent_counts: list[int]
    w_values: list[float]
    flex_modes: list[str]
    low_level: str = "focal"
    time_limit: float = 60.0
    out_csv: str | None = None
    out_summary: str | None = None
    out_plots: str | None = None

    def __post_init__(self):
        if not self.map_path or not self.scen_paths:
            raise ValueError("map and at least one scenario are required")
        # one config per (w, mode) in run order; SolverConfig rejects a bad
        # w, mode, low level or time limit here, before any file is opened
        self.configs = [
            SolverConfig(w=w, flex_mode=FlexMode(mode),
                         low_level=self.low_level, time_limit=self.time_limit)
            for w in self.w_values for mode in self.flex_modes]
        if not (self.agent_counts and self.configs):
            raise ValueError("a sweep needs an agent count, a w and a mode")


def _load_sweep(spec: BenchSpec) -> list[tuple[str, int, Instance]]:
    """(scenario path, k, instance) for every instance of the sweep, in run
    order; all share one parsed map. Raises OSError, MapFormatError or
    InstanceError on a bad input file."""
    with open(spec.map_path) as f:
        grid = parse_map(f.read())
    sweep = []
    for scen in spec.scen_paths:
        with open(scen) as f:
            text = f.read()
        for k in spec.agent_counts:
            agents = parse_scenario(text, grid, k)
            sweep.append((scen, k, Instance(grid, tuple(agents))))
    return sweep


def run_benchmark(spec: BenchSpec) -> list[ResultRow]:
    # every input is checked before the CSV is opened, so a bad file leaves
    # no partial results behind
    sweep = _load_sweep(spec)
    rows = []
    writer = None
    csv_file = None
    if spec.out_csv:
        csv_file = open(spec.out_csv, "w", newline="")
        csv_file.write(CSV_SCHEMA_COMMENT + "\n")
        writer = csv.writer(csv_file)
        writer.writerow(CSV_COLUMNS)
    try:
        for scen, k, instance in sweep:
            for config in spec.configs:
                result = Solver(instance, config).solve()
                if result.paths is not None and validate(result.paths,
                                                         instance):
                    result.metrics.outcome = "invalid"
                row = ResultRow(f"{scen}:{k}", k, config, result.metrics)
                rows.append(row)
                if writer is not None:
                    writer.writerow(row.to_csv_values())
    finally:
        if csv_file is not None:
            csv_file.close()
    if spec.out_summary:
        with open(spec.out_summary, "w") as f:
            json.dump(summarize(rows), f, indent=2)
    if spec.out_plots:
        with open(spec.out_plots, "w") as f:
            json.dump(emit_plot_data(rows), f, indent=2)
    return rows


def _group(rows: list[ResultRow], key) -> list[tuple]:
    """(key, rows with that key in run order) for each key, keys sorted."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return sorted(groups.items())


def summarize(rows: list[ResultRow]) -> dict:
    """Per-(mode, w) success rates, plus overall counts."""
    out = {"configs": []}
    for (mode, w), grp in _group(rows, lambda r: (r.mode, r.config.w)):
        solved = sum(r.metrics.outcome == "solved" for r in grp)
        out["configs"].append({
            "mode": mode, "w": w, "runs": len(grp), "solved": solved,
            "success_rate": solved / len(grp)})
    out["total_runs"] = len(rows)
    return out


def emit_plot_data(rows: list[ResultRow]) -> dict:
    """Plain numeric series for external plotting tools; a mean over no runs
    is None, written as JSON null."""
    if not rows:
        raise ValueError("no rows to aggregate")
    success_vs_k = {}
    gb_vs_k = {}
    depth_expansion = {}
    lbi_box = {}
    flex_hist = {}
    subopts = {}  # mode -> ((instance_id, w), SOC/LB) per solved run
    for mode, mrows in _group(rows, lambda r: r.mode):
        by_k = _group(mrows, lambda r: r.k)
        success_vs_k[mode] = [
            [k, sum(r.metrics.outcome == "solved" for r in g) / len(g)]
            for k, g in by_k]
        gb_vs_k[mode] = [[k, _mean([r.metrics.gb_ratio for r in g])]
                         for k, g in by_k]
        depth_expansion[mode] = [
            [k, _mean([r.metrics.depth_expansion_ratio for r in g
                       if r.metrics.expanded > 0])] for k, g in by_k]
        lbi_box[mode] = [r.metrics.lbi for r in mrows]
        hists = [flex_histogram(r.metrics.flex_usage_values()) for r in mrows]
        flex_hist[mode] = [sum(col) / len(mrows) for col in zip(*hists)]
        subopts[mode] = [((r.instance_id, r.config.w), r.metrics.subopt)
                         for r in mrows if r.metrics.subopt is not None]

    # each pair of modes compares runs of the same instance at the same w
    scatter = {}
    for a, b in combinations(subopts, 2):
        of_a = dict(subopts[a])
        scatter[f"{a}_vs_{b}"] = [[of_a[key], s] for key, s in subopts[b]
                                  if key in of_a]

    return {"success_rate_vs_k": success_vs_k,
            "gb_ratio_vs_k": gb_vs_k,
            "depth_expansion_ratio_vs_k": depth_expansion,
            "suboptimality_scatter": scatter,
            "lbi": lbi_box,
            "flex_usage_histogram": flex_hist}


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def main(argv=None) -> int:
    ap = UsageParser(prog="flexcbs-bench",
                     description="Run a MAPF benchmark sweep")
    ap.add_argument("--map", required=True)
    ap.add_argument("--scen", required=True, nargs="+")
    ap.add_argument("--agents", required=True, nargs="+", type=positive_int)
    ap.add_argument("--suboptimality", nargs="+", type=factor_at_least_one,
                    default=[1.05])
    ap.add_argument("--flex", nargs="+", default=["none"],
                    choices=[m.value for m in FlexMode])
    ap.add_argument("--lowlevel", default="focal", choices=["focal", "fastar"])
    ap.add_argument("--time-limit", type=positive_seconds, default=60.0)
    ap.add_argument("--out-csv", default="results.csv")
    ap.add_argument("--out-summary", default=None)
    ap.add_argument("--out-plots", default=None)
    args = ap.parse_args(argv)
    spec = BenchSpec(map_path=args.map, scen_paths=args.scen,
                     agent_counts=args.agents, w_values=args.suboptimality,
                     flex_modes=args.flex, low_level=args.lowlevel,
                     time_limit=args.time_limit, out_csv=args.out_csv,
                     out_summary=args.out_summary, out_plots=args.out_plots)
    try:
        rows = run_benchmark(spec)
    except (MapFormatError, InstanceError, OSError) as exc:
        print(f"flexcbs-bench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    solved = sum(r.metrics.outcome == "solved" for r in rows)
    print(f"{len(rows)} runs, {solved} solved -> {args.out_csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
