"""Batch benchmark execution, CSV/JSON outputs, and plot-ready aggregates."""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field

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
        for idx in range(5):
            if HIST_EDGES[idx] <= v < HIST_EDGES[idx + 1]:
                counts[idx] += 1
                break
        else:
            counts[5] += 1
    total = sum(counts)
    if total == 0:
        return [0.0] * 6
    return [100.0 * c / total for c in counts]


@dataclass
class ResultRow:
    instance_id: str
    k: int
    w: float
    mode: str
    lowlevel: str
    outcome: str
    soc: int | None
    lb0: float
    lb_final: float
    subopt: float | None
    runtime: float
    generated: int
    expanded: int
    depth: int
    gb_ratio: float
    lbi: float
    hist: list[float] = field(default_factory=lambda: [0.0] * 6)

    @classmethod
    def from_metrics(cls, instance_id: str, k: int, config: SolverConfig,
                     metrics: RunMetrics) -> "ResultRow":
        subopt = None
        if metrics.outcome == "solved" and metrics.lb_final > 0:
            subopt = metrics.soc / metrics.lb_final
        return cls(
            instance_id=instance_id, k=k, w=config.w,
            mode=config.flex_mode.value, lowlevel=config.low_level,
            outcome=metrics.outcome, soc=metrics.soc, lb0=metrics.lb0,
            lb_final=metrics.lb_final, subopt=subopt,
            runtime=metrics.wall_time, generated=metrics.generated,
            expanded=metrics.expanded, depth=metrics.depth,
            gb_ratio=metrics.gb_ratio, lbi=metrics.lbi,
            hist=flex_histogram(metrics.flex_usage_values()))

    def to_csv_values(self) -> list:
        base = [self.instance_id, self.k, self.w, self.mode, self.lowlevel,
                self.outcome, self.soc if self.soc is not None else "",
                self.lb0, self.lb_final,
                round(self.subopt, 6) if self.subopt is not None else "",
                round(self.runtime, 4), self.generated, self.expanded,
                self.depth, round(self.gb_ratio, 6), round(self.lbi, 6)]
        return base + [round(h, 3) for h in self.hist]


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
        if not all(w >= 1.0 for w in self.w_values):  # also rejects NaN
            raise ValueError("all w values must be >= 1")


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
            for w in spec.w_values:
                for mode in spec.flex_modes:
                    config = SolverConfig(
                        w=w, flex_mode=FlexMode(mode),
                        low_level=spec.low_level, time_limit=spec.time_limit)
                    result = Solver(instance, config).solve()
                    outcome = result.outcome
                    if result.paths is not None:
                        if validate(result.paths, instance):
                            outcome = "invalid"
                    result.metrics.outcome = outcome
                    row = ResultRow.from_metrics(f"{scen}:{k}", k, config,
                                                 result.metrics)
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


def summarize(rows: list[ResultRow]) -> dict:
    """Per-(mode, w) success rates, plus overall counts."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.mode, row.w), []).append(row)
    out = {"configs": []}
    for (mode, w), grp in sorted(groups.items()):
        solved = sum(1 for r in grp if r.outcome == "solved")
        out["configs"].append({
            "mode": mode, "w": w, "runs": len(grp), "solved": solved,
            "success_rate": solved / len(grp)})
    out["total_runs"] = len(rows)
    return out


def emit_plot_data(rows: list[ResultRow]) -> dict:
    """Plain numeric series for external plotting tools."""
    if not rows:
        raise ValueError("no rows to aggregate")
    modes = sorted({r.mode for r in rows})

    def by(pred):
        return [r for r in rows if pred(r)]

    success_vs_k = {}
    gb_vs_k = {}
    depth_expansion = {}
    lbi_box = {}
    flex_hist = {}
    for mode in modes:
        mrows = by(lambda r, m=mode: r.mode == m)
        ks = sorted({r.k for r in mrows})
        success_vs_k[mode] = [
            [k, sum(1 for r in mrows if r.k == k and r.outcome == "solved")
             / max(1, sum(1 for r in mrows if r.k == k))] for k in ks]
        gb_vs_k[mode] = [
            [k, _mean([r.gb_ratio for r in mrows if r.k == k])] for k in ks]
        depth_expansion[mode] = [
            [k, _mean([r.depth / r.expanded for r in mrows
                       if r.k == k and r.expanded > 0])] for k in ks]
        lbi_box[mode] = [r.lbi for r in mrows]
        sums = [0.0] * 6
        for r in mrows:
            for idx, v in enumerate(r.hist):
                sums[idx] += v
        n = len(mrows)
        flex_hist[mode] = [s / n for s in sums] if n else sums

    scatter = {}
    for a in modes:
        for b in modes:
            if a >= b:
                continue
            pairs = []
            index_a = {r.instance_id: r for r in rows
                       if r.mode == a and r.outcome == "solved"}
            for r in rows:
                if r.mode == b and r.outcome == "solved":
                    other = index_a.get(r.instance_id)
                    if other is not None and other.subopt is not None \
                            and r.subopt is not None:
                        pairs.append([other.subopt, r.subopt])
            scatter[f"{a}_vs_{b}"] = pairs

    return {"success_rate_vs_k": success_vs_k,
            "gb_ratio_vs_k": gb_vs_k,
            "depth_expansion_ratio_vs_k": depth_expansion,
            "suboptimality_scatter": scatter,
            "lbi": lbi_box,
            "flex_usage_histogram": flex_hist}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


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
    solved = sum(1 for r in rows if r.outcome == "solved")
    print(f"{len(rows)} runs, {solved} solved -> {args.out_csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
