import csv
import json
import math

import pytest

from flexcbs.bench import (BenchSpec, CSV_COLUMNS, CSV_SCHEMA_COMMENT,
                           ResultRow, RUNTIME_COLUMNS, emit_plot_data,
                           flex_histogram, main, run_benchmark, summarize)
from flexcbs.highlevel import RunMetrics, SolverConfig

MAP_TEXT = "type octile\nheight 3\nwidth 3\nmap\n...\n...\n...\n"
# two agents swapping along the top row (x = column, y = row)
SCEN_TEXT = ("version 1\n"
             "0\ttiny.map\t3\t3\t0\t0\t2\t0\t2\n"
             "0\ttiny.map\t3\t3\t2\t0\t0\t0\t2\n")


@pytest.fixture
def bench_files(tmp_path):
    map_path = tmp_path / "tiny.map"
    scen_path = tmp_path / "tiny.scen"
    map_path.write_text(MAP_TEXT)
    scen_path.write_text(SCEN_TEXT)
    return str(map_path), str(scen_path)


class TestFlexHistogram:
    def test_bucket_percentages(self):
        values = [0.5, 1.0, 3.0, 7.0, 15.0, 25.0, 0.9]
        hist = flex_histogram(values)
        counts = [2, 1, 1, 1, 1, 1]
        assert hist == [100.0 * c / 7 for c in counts]

    def test_empty_gives_zeros(self):
        assert flex_histogram([]) == [0.0] * 6

    def test_edges_are_left_inclusive(self):
        assert flex_histogram([1.0]) == [0.0, 100.0, 0.0, 0.0, 0.0, 0.0]
        assert flex_histogram([20.0]) == [0.0, 0.0, 0.0, 0.0, 0.0, 100.0]

    def test_percentages_sum_to_100(self):
        hist = flex_histogram([0.1, 4.0, 4.9, 11.0, 30.0])
        assert math.isclose(sum(hist), 100.0)


class TestResultRow:
    def metrics(self, outcome="solved"):
        m = RunMetrics(outcome=outcome, generated=10, expanded=4, depth=3,
                       gb_generated=5)
        m.soc = 21
        m.lb0 = 18.0
        m.lb_final = 20.0
        m.wall_time = 0.5
        return m

    def test_suboptimality_ratio(self):
        row = ResultRow.from_metrics("i", 2, SolverConfig(w=1.05),
                                     self.metrics())
        assert math.isclose(row.subopt, 21 / 20)

    def test_no_ratio_without_solution(self):
        row = ResultRow.from_metrics("i", 2, SolverConfig(w=1.05),
                                     self.metrics(outcome="timeout"))
        assert row.subopt is None

    def test_csv_values_match_schema(self):
        row = ResultRow.from_metrics("i", 2, SolverConfig(w=1.05),
                                     self.metrics())
        assert len(row.to_csv_values()) == len(CSV_COLUMNS)


class TestBenchSpec:
    def test_requires_map_and_scenarios(self):
        with pytest.raises(ValueError):
            BenchSpec(map_path="", scen_paths=["s"], agent_counts=[2],
                      w_values=[1.0], flex_modes=["none"])
        with pytest.raises(ValueError):
            BenchSpec(map_path="m", scen_paths=[], agent_counts=[2],
                      w_values=[1.0], flex_modes=["none"])

    def test_rejects_w_below_one(self):
        with pytest.raises(ValueError):
            BenchSpec(map_path="m", scen_paths=["s"], agent_counts=[2],
                      w_values=[0.5], flex_modes=["none"])


class TestRunBenchmark:
    def spec(self, bench_files, **kwargs):
        map_path, scen_path = bench_files
        defaults = dict(map_path=map_path, scen_paths=[scen_path],
                        agent_counts=[2], w_values=[1.0, 1.5],
                        flex_modes=["none", "mfd"], time_limit=10.0)
        defaults.update(kwargs)
        return BenchSpec(**defaults)

    def test_rows_cover_the_sweep(self, bench_files):
        rows = run_benchmark(self.spec(bench_files))
        assert len(rows) == 4
        assert all(r.outcome == "solved" for r in rows)
        assert all(r.soc <= r.w * 6 for r in rows)

    def test_csv_output_format(self, bench_files, tmp_path):
        out = tmp_path / "results.csv"
        run_benchmark(self.spec(bench_files, out_csv=str(out)))
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_SCHEMA_COMMENT
        reader = csv.reader(lines[1:])
        header = next(reader)
        assert header == CSV_COLUMNS
        assert len(list(reader)) == 4

    def test_deterministic_modulo_runtime(self, bench_files):
        spec = self.spec(bench_files)
        keep = [i for i, c in enumerate(CSV_COLUMNS)
                if c not in RUNTIME_COLUMNS]
        first = [[r.to_csv_values()[i] for i in keep]
                 for r in run_benchmark(spec)]
        second = [[r.to_csv_values()[i] for i in keep]
                  for r in run_benchmark(spec)]
        assert first == second

    def test_summary_and_plot_outputs(self, bench_files, tmp_path):
        summary_path = tmp_path / "summary.json"
        plots_path = tmp_path / "plots.json"
        rows = run_benchmark(self.spec(bench_files,
                                       out_summary=str(summary_path),
                                       out_plots=str(plots_path)))
        summary = json.loads(summary_path.read_text())
        assert summary["total_runs"] == len(rows)
        assert all(c["success_rate"] == 1.0 for c in summary["configs"])
        plots = json.loads(plots_path.read_text())
        assert set(plots) == {"success_rate_vs_k", "gb_ratio_vs_k",
                              "depth_expansion_ratio_vs_k",
                              "suboptimality_scatter", "lbi",
                              "flex_usage_histogram"}
        assert plots["success_rate_vs_k"]["mfd"] == [[2, 1.0]]


class TestSummarize:
    def test_groups_by_mode_and_w(self):
        m = RunMetrics(outcome="solved")
        m.soc, m.lb_final, m.lb0 = 6, 6.0, 6.0
        a = ResultRow.from_metrics("x", 2, SolverConfig(w=1.0), m)
        t = RunMetrics(outcome="timeout")
        b = ResultRow.from_metrics("y", 2, SolverConfig(w=1.0), t)
        out = summarize([a, b])
        assert out["configs"] == [{"mode": "none", "w": 1.0, "runs": 2,
                                   "solved": 1, "success_rate": 0.5}]


class TestEmitPlotData:
    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_plot_data([])

    def test_scatter_pairs_same_instance(self):
        rows = []
        for mode, soc in (("gfd", 6), ("mfd", 8)):
            m = RunMetrics(outcome="solved")
            m.soc, m.lb_final, m.lb0 = soc, 6.0, 6.0
            cfg = SolverConfig(w=1.5, flex_mode=mode)
            rows.append(ResultRow.from_metrics("shared", 2, cfg, m))
        scatter = emit_plot_data(rows)["suboptimality_scatter"]
        assert scatter["gfd_vs_mfd"] == [[1.0, 8 / 6]]


class TestMain:
    def test_smoke(self, bench_files, tmp_path, capsys):
        map_path, scen_path = bench_files
        out = tmp_path / "r.csv"
        rc = main(["--map", map_path, "--scen", scen_path, "--agents", "2",
                   "--suboptimality", "1.05", "--flex", "gfd",
                   "--out-csv", str(out)])
        assert rc == 0
        assert "1 runs, 1 solved" in capsys.readouterr().out
        assert out.exists()
