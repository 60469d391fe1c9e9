"""End-to-end acceptance checks for the solver, search, flex policies, and
benchmark harness. Each criterion prints an explicit PASS/FAIL line."""

import random
import time

import pytest

from flexcbs.bench import (BenchSpec, CSV_COLUMNS, RUNTIME_COLUMNS,
                           flex_histogram, run_benchmark)
from flexcbs.constraints import ConstraintTable
from flexcbs.flex import FlexMode, cfd_flex, dfd_flex, mfd_flex
from flexcbs.highlevel import RunMetrics, Solver, SolverConfig
from flexcbs.lowlevel import (INF, LowLevelRequest, Occupancy, compute_h,
                              fastar_search, focal_search)
from flexcbs.map_io import AgentSpec, Instance
from flexcbs.oracle import optimal_soc, validate
from helpers import (TreeSolver, brute_constrained_opt, largest_component,
                     random_grid, random_instance, random_walk_path)
from test_lowlevel import _random_constraints

W_VALUES = [1.0, 1.02, 1.05, 1.5]
LOW_LEVELS = ["focal", "fastar"]
ALL_MODES = list(FlexMode)


def report(capsys, num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def fixed_size_instance(rng, size, k, density):
    while True:
        grid = random_grid(rng, size, size, density)
        comp = largest_component(grid)
        if len(comp) < 2 * k:
            continue
        starts = rng.sample(comp, k)
        targets = rng.sample(comp, k)
        try:
            return Instance(grid, tuple(
                AgentSpec(i, starts[i], targets[i]) for i in range(k)))
        except Exception:
            continue


@pytest.fixture(scope="module")
def small_corpus():
    """200 random oracle-solvable instances on maps up to 5x5, k in {2,3}."""
    rng = random.Random(1001)
    corpus = []
    while len(corpus) < 200:
        inst = random_instance(rng, 5, 5, rng.choice([2, 3]))
        opt = optimal_soc(inst)
        if opt.solvable:
            corpus.append((inst, opt.soc))
    return corpus


@pytest.fixture(scope="module")
def small_results(small_corpus):
    """Every corpus instance solved under every (w, mode, low-level) config."""
    t0 = time.monotonic()
    results = {}
    for idx, (inst, _) in enumerate(small_corpus):
        for w in W_VALUES:
            for mode in ALL_MODES:
                for ll in LOW_LEVELS:
                    cfg = SolverConfig(w=w, flex_mode=mode, low_level=ll,
                                       time_limit=30.0)
                    results[(idx, w, mode.value, ll)] = Solver(inst,
                                                               cfg).solve()
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def grid8_runs():
    """Instrumented runs on 50 random 8x8 instances, k <= 8, every mode."""
    rng = random.Random(2002)
    runs = []
    for _ in range(50):
        inst = fixed_size_instance(rng, 8, rng.randint(2, 8), 0.15)
        for mode in ALL_MODES:
            cfg = SolverConfig(w=1.05, flex_mode=mode, time_limit=3.0)
            solver = TreeSolver(inst, cfg)
            res = solver.solve()
            runs.append((inst, solver, res))
    return runs


def test_criterion_01_bounded_suboptimality_vs_oracle(capsys, small_corpus,
                                                      small_results):
    results, elapsed = small_results
    bad = []
    for (idx, w, mode, ll), res in results.items():
        opt = small_corpus[idx][1]
        if res.outcome != "solved":
            bad.append(f"instance {idx} {mode}/{ll} w={w}: {res.outcome}")
        elif res.metrics.soc > w * opt + 1e-9:
            bad.append(f"instance {idx} {mode}/{ll} w={w}: "
                       f"SOC {res.metrics.soc} > {w} * {opt}")
    report(capsys, 1, "bounded suboptimality vs oracle", not bad,
           f"{len(results)} runs over {len(small_corpus)} instances in "
           f"{elapsed:.1f}s" + ("; " + "; ".join(bad[:5]) if bad else ""))


def test_criterion_02_optimal_at_w1(capsys, small_corpus, small_results):
    results, _ = small_results
    bad = []
    for idx, (_inst, opt) in enumerate(small_corpus):
        for ll in LOW_LEVELS:
            res = results[(idx, 1.0, "none", ll)]
            if res.outcome != "solved" or res.metrics.soc != opt:
                bad.append(f"instance {idx} ({ll}): got "
                           f"{res.metrics.soc}, optimum {opt}")
    report(capsys, 2, "exact optimality at w=1", not bad,
           f"{2 * len(small_corpus)} runs" +
           ("; " + "; ".join(bad[:5]) if bad else ""))


def test_criterion_03_local_boundedness_invariant(capsys, grid8_runs):
    violations = []
    for _inst, _solver, res in grid8_runs:
        violations.extend(res.metrics.violations)
    report(capsys, 3, "local boundedness at generation and expansion", not violations,
           f"{len(grid8_runs)} runs" +
           ("; " + "; ".join(violations[:5]) if violations else ""))


def test_criterion_04_flex_bounds(capsys):
    rng = random.Random(4004)
    trials = 12000
    bad = 0
    for _ in range(trials):
        x_i = rng.randint(0, 20)
        x_total = x_i + rng.randint(0, 20)
        delay = rng.uniform(0, 60)
        w = rng.uniform(1.0, 2.0)
        lb_i = rng.uniform(0, 100)
        sum_lb = rng.uniform(0, 2000)
        sum_cost = rng.uniform(0, 2200)
        nf_sum = rng.uniform(0, 2000)
        delta_max = w * sum_lb - sum_cost
        computations = [
            cfd_flex(delta_max, x_i, x_total),
            dfd_flex(delta_max, x_i, x_total, delay),
            mfd_flex(w, lb_i, delta_max, x_i, x_total, delay, sum_cost,
                     sum_lb, nf_sum + lb_i, nf_sum),
        ]
        for fc in computations:
            if not 0.0 <= fc.rho <= 1.0:
                bad += 1
            elif delta_max < 0 and fc.delta != delta_max:
                bad += 1
            elif delta_max >= 0 and not (-1e-9 <= fc.delta
                                         <= delta_max + 1e-9):
                bad += 1
        if dfd_flex(delta_max, x_i, x_total, 0.0).delta != \
                cfd_flex(delta_max, x_i, x_total).delta:
            bad += 1
    report(capsys, 4, "flex share and bound properties", bad == 0,
           f"{trials} tuples, {bad} violations")


def test_criterion_05_fastar_lb_dominance(capsys):
    rng = random.Random(5005)
    checked = 0
    bad = []
    while checked < 500:
        grid = random_grid(rng, rng.randint(2, 5), rng.randint(2, 5), 0.2)
        cells = grid.passable_cells()
        if len(cells) < 4:
            continue
        start, goal = rng.sample(cells, 2)
        if compute_h(grid, goal)[grid.id_of(start)] == INF:
            continue
        cs = _random_constraints(rng, grid, goal)
        others = [random_walk_path(rng, grid, rng.choice(cells), 5)
                  for _ in range(rng.randint(0, 2))]
        targets = {1: rng.choice(cells)}
        ctable = ConstraintTable(0, cs, targets=targets)
        req = LowLevelRequest(grid=grid, agent=0, start=start, goal=goal,
                              ctable=ctable,
                              occupancy=Occupancy(grid, others),
                              w=rng.choice([1.0, 1.05, 1.5, 2.0]),
                              delta=rng.choice([0.0, 1.0, 3.0]))
        fres = fastar_search(req)
        sres = focal_search(req)
        brute = brute_constrained_opt(grid, cs, 0, start, goal, targets,
                                      req.effective_horizon())
        if fres is None:
            if brute is not None or sres is not None:
                bad.append("missed a feasible path")
        else:
            if fres.lb != brute:
                bad.append(f"lb {fres.lb} != optimum {brute}")
            if sres is None or fres.lb < sres.lb:
                bad.append("fastar lb below focal lb")
        checked += 1
    report(capsys, 5, "two-phase search lower-bound dominance", not bad,
           f"{checked} requests" + ("; " + "; ".join(bad[:5]) if bad else ""))


def test_criterion_06_lb_monotonicity(capsys, grid8_runs):
    bad = []
    branches = 0
    for _inst, solver, _res in grid8_runs:
        for node in solver.tree_nodes:
            parent = solver.parent_of.get(node.seq)
            if parent is None:
                continue
            branches += 1
            if node.solb < parent.solb - 1e-9:
                bad.append(f"node {node.seq}: LB {node.solb} < parent "
                           f"{parent.solb}")
            for i in range(len(node.lbs)):
                if node.lbs[i] < parent.lbs[i] - 1e-9:
                    bad.append(f"node {node.seq}: agent {i} lb dropped")
    report(capsys, 6, "lower-bound monotonicity along tree branches", not bad,
           f"{branches} parent-child edges" +
           ("; " + "; ".join(bad[:5]) if bad else ""))


def test_criterion_07_solution_validity(capsys, small_corpus, small_results,
                                        grid8_runs):
    results, _ = small_results
    bad = []
    n = 0
    for (idx, _w, mode, ll), res in results.items():
        if res.paths is not None:
            n += 1
            problems = validate(res.paths, small_corpus[idx][0])
            if problems:
                bad.append(f"instance {idx} {mode}/{ll}: {problems[0]}")
    for inst, _solver, res in grid8_runs:
        if res.paths is not None:
            n += 1
            problems = validate(res.paths, inst)
            if problems:
                bad.append(f"8x8 run: {problems[0]}")
    report(capsys, 7, "every emitted solution validates", not bad,
           f"{n} solutions" + ("; " + "; ".join(bad[:5]) if bad else ""))


def test_criterion_08_metrics_correctness(capsys):
    metrics = RunMetrics(outcome="solved", generated=8, expanded=4, depth=3,
                         gb_generated=6, lb0=20.0, lb_final=25.0, soc=26)
    metrics.flex_records = [
        (12.0, 0.5, True),   # counted: usable flex, positive usage
        (12.0, 1.5, True),   # counted
        (12.0, 0.0, True),   # unused flex, not counted
        (-3.0, 4.0, False),  # max flex negative, not counted
        (10.0, 7.0, True),   # counted
        (10.0, 25.0, True),  # counted, open-ended bucket
    ]
    ok = (metrics.gb_ratio == 6 / 8
          and metrics.depth_expansion_ratio == 3 / 4
          and metrics.lbi == (25.0 - 20.0) / 20.0
          and metrics.flex_usage_values() == [0.5, 1.5, 7.0, 25.0]
          and flex_histogram(metrics.flex_usage_values())
          == [25.0, 25.0, 0.0, 25.0, 0.0, 25.0])
    report(capsys, 8, "derived metrics match hand-computed values", ok,
           f"gb={metrics.gb_ratio} depth/exp={metrics.depth_expansion_ratio} "
           f"lbi={metrics.lbi}")


@pytest.mark.slow
def test_criterion_09_directional_performance(capsys):
    rng = random.Random(9009)
    stats = {"gfd": {"gb": [], "solved": 0}, "mfd": {"gb": [], "solved": 0}}
    trials = 25
    for _ in range(trials):
        inst = fixed_size_instance(rng, 32, rng.randint(40, 60), 0.1)
        for mode in ("gfd", "mfd"):
            cfg = SolverConfig(w=1.05, flex_mode=FlexMode(mode),
                               time_limit=120.0)
            res = Solver(inst, cfg).solve()
            stats[mode]["gb"].append(res.metrics.gb_ratio)
            if res.outcome == "solved":
                stats[mode]["solved"] += 1
    gfd_gb = sum(stats["gfd"]["gb"]) / trials
    mfd_gb = sum(stats["mfd"]["gb"]) / trials
    gfd_sr = stats["gfd"]["solved"] / trials
    mfd_sr = stats["mfd"]["solved"] / trials
    ok = mfd_gb >= gfd_gb - 1e-9 and mfd_sr >= gfd_sr - 0.05
    report(capsys, 9, "hierarchical flex keeps more nodes globally bounded", ok,
           f"avg GB ratio mfd={mfd_gb:.3f} gfd={gfd_gb:.3f}; "
           f"success mfd={mfd_sr:.2f} gfd={gfd_sr:.2f} over {trials} "
           "instances")


def test_criterion_10_benchmark_determinism(capsys, tmp_path):
    map_path = tmp_path / "tiny.map"
    scen_path = tmp_path / "tiny.scen"
    map_path.write_text("type octile\nheight 4\nwidth 4\nmap\n"
                        "....\n....\n....\n....\n")
    scen_path.write_text(
        "version 1\n"
        "0\ttiny.map\t4\t4\t0\t0\t3\t3\t6\n"
        "0\ttiny.map\t4\t4\t3\t0\t0\t3\t6\n"
        "0\ttiny.map\t4\t4\t0\t3\t3\t0\t6\n")
    spec = BenchSpec(map_path=str(map_path), scen_paths=[str(scen_path)],
                     agent_counts=[2, 3], w_values=[1.0, 1.05],
                     flex_modes=["none", "gfd", "mfd"], time_limit=30.0)
    keep = [i for i, c in enumerate(CSV_COLUMNS) if c not in RUNTIME_COLUMNS]
    first = [[r.to_csv_values()[i] for i in keep]
             for r in run_benchmark(spec)]
    second = [[r.to_csv_values()[i] for i in keep]
              for r in run_benchmark(spec)]
    report(capsys, 10, "repeated benchmark runs are identical modulo runtime",
           first == second, f"{len(first)} rows compared")
