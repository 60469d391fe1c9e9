"""Checks of the benchmark itself: seeded corpora, traced metric names and a
reduced-size run of every workload.

    python3 -m pytest perfbench -q
"""

import filecmp
import json
import os
import time

import pytest

import run
from corpus import write_corpus
from flexcbs import conflicts, flex, highlevel
from flexcbs.conflicts import Classifier
from flexcbs.highlevel import Frontier, Solver

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
SMOKE_SIZE = {"dense32-mfd": 2, "open64-plain": 1, "warehouse-fastar": 4}


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seeds_give_identical_corpus_files(tmp_path, name):
    spec = run.WORKLOADS[name].corpus
    a = write_corpus(spec, 7, 3, 3, str(tmp_path / "a"), name)
    b = write_corpus(spec, 7, 3, 3, str(tmp_path / "b"), name)
    for fa, fb in zip(a, b):
        assert filecmp.cmp(fa.map_path, fb.map_path, shallow=False)
        assert filecmp.cmp(fa.scen_path, fb.scen_path, shallow=False)
    other = write_corpus(spec, 7, 4, 3, str(tmp_path / "c"), name)
    assert any(open(fa.scen_path).read() != open(fo.scen_path).read()
               for fa, fo in zip(a, other))


def _public_names():
    return [highlevel.compute_h, highlevel.focal_search, highlevel.fastar_search,
            highlevel.Occupancy, highlevel.detect_conflicts,
            highlevel.ConstraintTable, conflicts.ConstraintTable,
            conflicts.earliest_arrival, conflicts.find_corridor,
            flex.gfd_flex, flex.cfd_flex, flex.dfd_flex, flex.mfd_flex,
            Classifier.classify, Solver.make_root, Solver.make_child,
            Solver.solve, Frontier.push, Frontier.pop_best]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    before = _public_names()
    result, _lines = run.measure(name, 1, 1, 0.0, trace=True,
                                 n=SMOKE_SIZE[name])
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER
    assert _public_names() == before  # every wrapped name restored


def test_smoke_run_of_all_workloads_finishes_in_seconds():
    start = time.perf_counter()
    for name in sorted(run.WORKLOADS):
        result, lines = run.measure(name, 1, 1, 0.0, trace=False,
                                    n=SMOKE_SIZE[name])
        assert result["correct"], lines
        assert set(result["metrics"]) == END_TO_END
        assert result["attempted"] == SMOKE_SIZE[name]
        assert any(line.startswith("fingerprint ") for line in lines)
    assert time.perf_counter() - start < 60


def test_fingerprint_repeats_across_runs_and_placements():
    fps = []
    for seed in (5, 5, 6):
        lines = run.measure("warehouse-fastar", seed, 1, 0.0, False, n=4)[1]
        fps.append([line for line in lines if line.startswith("fingerprint ")])
    assert fps[0] and fps[0] == fps[1] == fps[2]
