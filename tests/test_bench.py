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

    def test_negatives_and_nan_fall_in_the_last_bucket(self):
        assert flex_histogram([-0.5, math.nan, 19.999, math.inf]) == [
            0.0, 0.0, 0.0, 0.0, 25.0, 75.0]


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
        row = ResultRow("i", 2, SolverConfig(w=1.05), self.metrics())
        assert math.isclose(row.metrics.subopt, 21 / 20)

    def test_no_ratio_without_solution(self):
        row = ResultRow("i", 2, SolverConfig(w=1.05),
                        self.metrics(outcome="timeout"))
        assert row.metrics.subopt is None

    def test_csv_values_match_schema(self):
        row = ResultRow("i", 2, SolverConfig(w=1.05), self.metrics())
        assert len(row.to_csv_values()) == len(CSV_COLUMNS)

    def test_pinned_schema_v1_row(self):
        m = RunMetrics(outcome="solved", generated=7, expanded=3, depth=2,
                       gb_generated=2)
        m.soc, m.lb0, m.lb_final = 22, 18.0, 21.0
        m.wall_time = 0.123456789
        # usages 0.5, 3.0 and 25.0 count; the negative-slack replan and the
        # zero usage do not
        m.flex_records = [(1.0, 0.5, True), (2.0, 3.0, True),
                          (1.0, 25.0, True), (0.0, 4.0, False),
                          (0.5, 0.0, True)]
        row = ResultRow("scen:3", 3, SolverConfig(w=1.1, flex_mode="mfd",
                                                  low_level="fastar"), m)
        assert row.to_csv_values() == [
            "scen:3", 3, 1.1, "mfd", "fastar", "solved", 22, 18.0, 21.0,
            1.047619, 0.1235, 7, 3, 2, 0.285714, 0.166667,
            33.333, 0.0, 33.333, 0.0, 0.0, 33.333]

    @pytest.mark.parametrize("outcome", ["timeout", "invalid"])
    def test_pinned_row_without_solution(self, outcome):
        m = RunMetrics(outcome=outcome, generated=4, expanded=3, depth=4)
        m.lb0, m.lb_final = 12.0, 13.0
        if outcome == "invalid":
            m.soc = 14  # a solution that failed validation keeps its SOC
        m.wall_time = 2.00004
        row = ResultRow("s:2", 2, SolverConfig(), m)
        assert row.to_csv_values() == [
            "s:2", 2, 1.05, "none", "focal", outcome,
            14 if outcome == "invalid" else "", 12.0, 13.0, "", 2.0, 4, 3,
            4, 0.0, 0.083333, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


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

    @pytest.mark.parametrize("bad", [dict(flex_modes=["turbo"]),
                                     dict(time_limit=0),
                                     dict(low_level="astar"),
                                     dict(w_values=[1.0, math.inf]),
                                     dict(flex_modes=[]),
                                     dict(agent_counts=[])])
    def test_rejects_bad_settings(self, bad):
        kwargs = dict(map_path="m", scen_paths=["s"], agent_counts=[2],
                      w_values=[1.0], flex_modes=["none"])
        kwargs.update(bad)
        with pytest.raises(ValueError):
            BenchSpec(**kwargs)


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
        assert all(r.metrics.outcome == "solved" for r in rows)
        assert all(r.metrics.soc <= r.config.w * 6 for r in rows)

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

    @pytest.mark.parametrize("bad", [dict(flex_modes=["turbo"]),
                                     dict(time_limit=0),
                                     dict(low_level="astar"),
                                     dict(flex_modes=[])])
    def test_bad_setting_leaves_no_csv(self, bench_files, tmp_path, bad):
        out = tmp_path / "results.csv"
        with pytest.raises(ValueError):
            run_benchmark(self.spec(bench_files, out_csv=str(out), **bad))
        assert not out.exists()

    def test_conflict_free_sweep_writes_strict_json(self, bench_files,
                                                    tmp_path):
        map_path, _ = bench_files
        scen_path = tmp_path / "apart.scen"
        # two agents on rows 0 and 2 never meet, so no CT node is expanded
        scen_path.write_text("version 1\n"
                             "0\ttiny.map\t3\t3\t0\t0\t2\t0\t2\n"
                             "0\ttiny.map\t3\t3\t0\t2\t2\t2\t2\n")
        summary_path = tmp_path / "summary.json"
        plots_path = tmp_path / "plots.json"
        run_benchmark(self.spec((map_path, str(scen_path)),
                                out_summary=str(summary_path),
                                out_plots=str(plots_path)))

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        json.loads(summary_path.read_text(), parse_constant=reject)
        plots = json.loads(plots_path.read_text(), parse_constant=reject)
        assert plots["depth_expansion_ratio_vs_k"] == {"mfd": [[2, None]],
                                                       "none": [[2, None]]}


class TestSummarize:
    def test_groups_by_mode_and_w(self):
        m = RunMetrics(outcome="solved")
        m.soc, m.lb_final, m.lb0 = 6, 6.0, 6.0
        a = ResultRow("x", 2, SolverConfig(w=1.0), m)
        t = RunMetrics(outcome="timeout")
        b = ResultRow("y", 2, SolverConfig(w=1.0), t)
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
            rows.append(ResultRow("shared", 2, cfg, m))
        scatter = emit_plot_data(rows)["suboptimality_scatter"]
        assert scatter["gfd_vs_mfd"] == [[1.0, 8 / 6]]

    def test_scatter_pairs_same_w(self):
        rows = []
        for mode, socs in (("gfd", (6, 7)), ("mfd", (6, 8))):
            for w, soc in zip((1.0, 1.5), socs):
                m = RunMetrics(outcome="solved")
                m.soc, m.lb_final, m.lb0 = soc, 6.0, 6.0
                cfg = SolverConfig(w=w, flex_mode=mode)
                rows.append(ResultRow("shared", 2, cfg, m))
        scatter = emit_plot_data(rows)["suboptimality_scatter"]
        assert scatter == {"gfd_vs_mfd": [[1.0, 1.0], [7 / 6, 8 / 6]]}


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
