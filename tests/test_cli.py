import json

import pytest

from flexcbs import bench
from flexcbs.cli import main

MAP_TEXT = "type octile\nheight 3\nwidth 3\nmap\n...\n...\n...\n"
SCEN_TEXT = ("version 1\n"
             "0\ttiny.map\t3\t3\t0\t0\t2\t0\t2\n"
             "0\ttiny.map\t3\t3\t2\t0\t0\t0\t2\n")


@pytest.fixture
def files(tmp_path):
    map_path = tmp_path / "tiny.map"
    scen_path = tmp_path / "tiny.scen"
    map_path.write_text(MAP_TEXT)
    scen_path.write_text(SCEN_TEXT)
    return str(map_path), str(scen_path)


def base_args(files):
    map_path, scen_path = files
    return ["--map", map_path, "--scen", scen_path, "--agents", "2"]


class TestUsageErrors:
    def test_missing_required_arguments(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["--map", files[0]])
        assert exc.value.code == 64

    def test_suboptimality_below_one(self, files):
        with pytest.raises(SystemExit) as exc:
            main(base_args(files) + ["--suboptimality", "0.9"])
        assert exc.value.code == 64

    def test_nonpositive_time_limit(self, files):
        with pytest.raises(SystemExit) as exc:
            main(base_args(files) + ["--time-limit", "0"])
        assert exc.value.code == 64

    def test_nan_suboptimality(self, files):
        with pytest.raises(SystemExit) as exc:
            main(base_args(files) + ["--suboptimality", "nan"])
        assert exc.value.code == 64

    def test_nan_time_limit(self, files):
        with pytest.raises(SystemExit) as exc:
            main(base_args(files) + ["--time-limit", "nan"])
        assert exc.value.code == 64

    def test_unknown_flex_mode(self, files):
        with pytest.raises(SystemExit) as exc:
            main(base_args(files) + ["--flex", "turbo"])
        assert exc.value.code == 64

    def test_missing_map_file(self, files, tmp_path):
        args = ["--map", str(tmp_path / "nope.map"), "--scen", files[1],
                "--agents", "2"]
        assert main(args) == 64

    def test_too_many_agents_requested(self, files):
        assert main(base_args(files)[:-1] + ["5"]) == 64

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_agents_below_one(self, files, k):
        with pytest.raises(SystemExit) as exc:
            main(base_args(files)[:-1] + [k])
        assert exc.value.code == 64

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_bench_agents_below_one(self, files, tmp_path, k):
        map_path, scen_path = files
        with pytest.raises(SystemExit) as exc:
            bench.main(["--map", map_path, "--scen", scen_path,
                        "--agents", "2", k,
                        "--out-csv", str(tmp_path / "r.csv")])
        assert exc.value.code == 64
        assert not (tmp_path / "r.csv").exists()


class TestSolveRuns:
    def test_solved_prints_metrics_json(self, files, capsys):
        rc = main(base_args(files) + ["--suboptimality", "1.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "solved"
        assert payload["soc"] == 6
        assert payload["violations"] == []
        # each of the two agents expands at least its start state
        assert payload["low_level_expansions"] >= 2

    def test_solution_file_and_sidecar(self, files, tmp_path):
        out = tmp_path / "solution.txt"
        rc = main(base_args(files) + ["--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("(0,0)")
        sidecar = json.loads((tmp_path / "solution.txt.metrics.json")
                             .read_text())
        assert sidecar["outcome"] == "solved"

    def test_flag_combinations_smoke(self, files, capsys):
        rc = main(base_args(files) + ["--flex", "mfd", "--lowlevel", "fastar",
                                      "--no-bypass", "--no-symmetry",
                                      "--no-prioritize"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "solved"

    def test_timeout_exit_code(self, files, capsys):
        rc = main(base_args(files) + ["--time-limit", "0.000001"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["outcome"] == "timeout"

    def test_unwritable_out_is_a_usage_error(self, files, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "solution.txt"
        rc = main(base_args(files) + ["--out", str(out)])
        assert rc == 64  # not 1, the timeout code
        err = capsys.readouterr().err
        assert err.startswith("flexcbs: cannot write")
        assert len(err.splitlines()) == 1


class TestBenchUsageErrors:
    @pytest.mark.parametrize("args", [
        ["--suboptimality", "0.9"],
        ["--suboptimality", "1.05", "nan"],
        ["--time-limit", "0"],
        ["--time-limit", "nan"],
    ])
    def test_rejected_with_usage_exit(self, files, tmp_path, args):
        map_path, scen_path = files
        with pytest.raises(SystemExit) as exc:
            bench.main(["--map", map_path, "--scen", scen_path,
                        "--agents", "2", "--out-csv",
                        str(tmp_path / "r.csv")] + args)
        assert exc.value.code == 64
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("bad", ["missing_map", "short_scen"])
    def test_bad_input_file(self, files, tmp_path, capsys, bad):
        map_path, scen_path = files
        if bad == "missing_map":
            map_path = str(tmp_path / "nope.map")
            agents = "2"
        else:
            agents = "3"  # the scenario has two entries
        rc = bench.main(["--map", map_path, "--scen", scen_path,
                         "--agents", agents,
                         "--out-csv", str(tmp_path / "r.csv")])
        assert rc == 64
        err = capsys.readouterr().err
        assert err.startswith("flexcbs-bench: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "r.csv").exists()
