import math
import random

import pytest

from flexcbs.conflicts import Classifier, detect_conflicts
from flexcbs.constraints import ConflictClass
from flexcbs.flex import FlexMode
from flexcbs.highlevel import Solver, SolverConfig, solve
from flexcbs.lowlevel import Occupancy
from flexcbs.map_io import AgentSpec, Instance
from flexcbs.oracle import optimal_soc, validate
from helpers import (grid_from_rows, occupancy_state, open_grid,
                     random_instance, swap_instance)

ALL_MODES = list(FlexMode)
LOW_LEVELS = ["focal", "fastar"]


def target_conflict_instance():
    # agent 0 sits on its start cell; agent 1 has to drive through it
    grid = open_grid(3, 3)
    return Instance(grid, (AgentSpec(0, (1, 1), (1, 1)),
                           AgentSpec(1, (1, 0), (1, 2))))


def corridor_instance():
    grid = grid_from_rows([".@@@.", ".....", ".@@@."])
    return Instance(grid, (AgentSpec(0, (0, 0), (0, 4)),
                           AgentSpec(1, (2, 4), (2, 0))))


class TestSolverConfig:
    def test_w_below_one_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(w=0.9)

    def test_unknown_low_level_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(low_level="dijkstra")

    def test_nonpositive_time_limit_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(time_limit=0.0)

    def test_nan_w_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(w=math.nan)

    def test_nan_time_limit_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(time_limit=math.nan)


class TestSolveSwap:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("low_level", LOW_LEVELS)
    def test_optimal_at_w1(self, mode, low_level):
        res = solve(swap_instance(), SolverConfig(w=1.0, flex_mode=mode,
                                                  low_level=low_level))
        assert res.outcome == "solved"
        assert res.metrics.soc == 6
        assert validate(res.paths, swap_instance()) == []

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_bounded_at_w15(self, mode):
        res = solve(swap_instance(), SolverConfig(w=1.5, flex_mode=mode))
        assert res.outcome == "solved"
        assert res.metrics.soc <= 1.5 * 6
        assert validate(res.paths, swap_instance()) == []


class TestConflictFreeRoot:
    def test_solved_without_expansions(self):
        grid = grid_from_rows(["...", "@@@", "..."])
        inst = Instance(grid, (AgentSpec(0, (0, 0), (0, 2)),
                               AgentSpec(1, (2, 2), (2, 0))))
        res = solve(inst, SolverConfig(w=1.05))
        assert res.outcome == "solved"
        assert res.metrics.soc == 4
        assert res.metrics.expanded == 0
        assert res.metrics.generated == 1
        assert res.metrics.depth == 1


class TestUnsolvableAndTimeout:
    def test_line_swap_times_out(self):
        grid = open_grid(1, 3)
        inst = Instance(grid, (AgentSpec(0, (0, 0), (0, 2)),
                               AgentSpec(1, (0, 2), (0, 0))))
        res = solve(inst, SolverConfig(w=1.0, time_limit=0.3))
        assert res.outcome in ("timeout", "infeasible")
        assert res.paths is None


class TestTargetConflict:
    def test_solved_optimally_with_symmetry(self):
        inst = target_conflict_instance()
        opt = optimal_soc(inst)
        assert opt.solvable
        for symmetry in (True, False):
            res = solve(inst, SolverConfig(w=1.0, symmetry=symmetry))
            assert res.outcome == "solved"
            assert res.metrics.soc == opt.soc
            assert validate(res.paths, inst) == []


class TestCorridorConflict:
    def test_solved_optimally_with_and_without_symmetry(self):
        inst = corridor_instance()
        opt = optimal_soc(inst)
        assert opt.solvable
        for symmetry in (True, False):
            res = solve(inst, SolverConfig(w=1.0, symmetry=symmetry))
            assert res.outcome == "solved"
            assert res.metrics.soc == opt.soc
            assert validate(res.paths, inst) == []

    def test_symmetry_adds_no_nodes_in_a_corridor(self, monkeypatch):
        """A head-on meeting in a one-cell passage is no TARGET conflict, so
        symmetry reasoning leaves the search unchanged: the same SOC with
        the same CT node counts as without it."""
        classes = []
        classify = Classifier.classify

        def spy(self, conflict, paths, constraints, targets):
            result = classify(self, conflict, paths, constraints, targets)
            classes.append(result.cls)
            return result

        monkeypatch.setattr(Classifier, "classify", spy)
        inst = corridor_instance()
        opt = optimal_soc(inst)
        runs = {}
        for symmetry in (True, False):
            res = solve(inst, SolverConfig(w=1.0, symmetry=symmetry))
            assert res.outcome == "solved"
            assert res.metrics.soc == opt.soc
            runs[symmetry] = (res.metrics.generated, res.metrics.expanded)
        assert runs[True] == runs[False]
        assert classes and ConflictClass.CORRIDOR not in classes


class TestBypass:
    def test_same_bound_with_and_without(self):
        rng = random.Random(21)
        for _ in range(10):
            inst = random_instance(rng, 4, 4, 3)
            opt = optimal_soc(inst)
            if not opt.solvable:
                continue
            for bypass in (True, False):
                res = solve(inst, SolverConfig(w=1.0, bypass=bypass))
                assert res.outcome == "solved"
                assert res.metrics.soc == opt.soc


class TestTreeInvariants:
    def test_lb_monotone_along_branches(self):
        rng = random.Random(22)
        pairs = 0
        for _ in range(10):
            inst = random_instance(rng, 5, 5, 3)
            # the second draw (3x5, 3 agents, optimum 26) times out under
            # every configuration; 5 s of its tree is plenty to check
            cfg = SolverConfig(w=1.05, flex_mode=FlexMode.MFD, keep_tree=True,
                               time_limit=5.0)
            solver = Solver(inst, cfg)
            solver.solve()
            for node in solver.tree_nodes:
                if node.parent is None:
                    continue
                pairs += 1
                assert node.solb >= node.parent.solb - 1e-9
                for i in range(len(node.lbs)):
                    assert node.lbs[i] >= node.parent.lbs[i] - 1e-9
        assert pairs >= 1000

    def test_soc_and_solb_sum_the_node(self, monkeypatch):
        """Every node, the root, children and bypass-adopted ones alike,
        carries the SOC and SOLB of its own paths and lower bounds."""
        adopted = []
        bypass = Solver._try_bypass

        def spy(self, *args):
            node = bypass(self, *args)
            if node is not None:
                adopted.append(node)
            return node

        monkeypatch.setattr(Solver, "_try_bypass", spy)
        rng = random.Random(25)
        generated = []  # the roots and children
        for _ in range(6):
            inst = random_instance(rng, 5, 5, 4)
            solver = Solver(inst, SolverConfig(
                w=1.05, flex_mode=FlexMode.MFD, keep_tree=True,
                time_limit=10.0))
            assert solver.solve().outcome == "solved"
            generated += solver.tree_nodes
        for node in generated + adopted:
            assert node.soc == sum(p.cost for p in node.paths)
            assert node.solb == sum(node.lbs)
        assert len(generated) >= 500 and len(adopted) >= 10

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("low_level", LOW_LEVELS)
    def test_incremental_state_matches_rescan(self, mode, low_level):
        rng = random.Random(25)
        nodes = 0
        for _ in range(6):
            inst = random_instance(rng, 5, 5, 3)
            if not optimal_soc(inst).solvable:
                continue
            solver = Solver(inst, SolverConfig(w=1.05, flex_mode=mode,
                                               low_level=low_level,
                                               time_limit=1.0, keep_tree=True))
            solver.solve()
            for node in solver.tree_nodes:
                nodes += 1
                conflicts, counts, total = detect_conflicts(inst.map, node.paths)
                assert set(node.conflicts) == set(conflicts)
                assert node.x_counts == counts
                assert node.x_total == total
                if node.parent is None:
                    continue
                # the child extends exactly one agent's tuple and shares the
                # others; a parent changed in place would share all of them
                own, parent = node.constraints, node.parent.constraints
                changed = [a for a in range(len(own)) if own[a] is not parent[a]]
                assert len(changed) == 1
                a = changed[0]
                assert own[a][:-1] == parent[a]
        assert nodes > 0

    @pytest.mark.parametrize("low_level", LOW_LEVELS)
    def test_every_replan_sees_the_other_paths(self, low_level, monkeypatch):
        """The one index the Solver moves between CT nodes holds exactly the
        paths a from-scratch Occupancy of the other agents would."""
        plan, root, child = Solver._plan, Solver.make_root, Solver.make_child
        current: dict[int, object] = {}  # agent -> path in the node being built
        node = {"child": False, "replans": 0}
        seen = {"children": 0, "later_replans": 0}

        def spy_root(self):
            current.clear()
            node.update(child=False, replans=0)
            return root(self)

        def spy_child(self, parent, *args, **kwargs):
            current.clear()
            current.update(enumerate(parent.paths))
            node.update(child=True, replans=0)
            seen["children"] += 1
            return child(self, parent, *args, **kwargs)

        def spy_plan(self, agent, ctable, occupancy, **kwargs):
            others = [p for m, p in current.items() if m != agent]
            assert occupancy_state(occupancy) == \
                occupancy_state(Occupancy(self.grid, others))
            if node["child"] and node["replans"]:
                seen["later_replans"] += 1
            result = plan(self, agent, ctable, occupancy, **kwargs)
            if result is not None:
                current[agent] = result.path
                node["replans"] += 1
            return result

        monkeypatch.setattr(Solver, "_plan", spy_plan)
        monkeypatch.setattr(Solver, "make_root", spy_root)
        monkeypatch.setattr(Solver, "make_child", spy_child)
        rng = random.Random(26)
        for _ in range(8):
            inst = random_instance(rng, 6, 6, 6)
            solve(inst, SolverConfig(w=1.05, flex_mode=FlexMode.MFD,
                                     low_level=low_level, time_limit=0.5))
        # every second child starts from its sibling's index; a LENGTH_LEQ
        # child can replan several agents, each seeing the ones before
        assert seen["children"] > 50
        assert seen["later_replans"] >= 1

    @pytest.mark.parametrize("low_level", LOW_LEVELS)
    def test_low_level_expansions_sum_the_replans(self, low_level,
                                                  monkeypatch):
        """RunMetrics.low_level_expansions is the sum of the expansions of
        every replan that returned a path, root and children alike."""
        plan = Solver._plan
        seen = {"expansions": 0, "replans": 0}

        def spy_plan(self, *args, **kwargs):
            result = plan(self, *args, **kwargs)
            if result is not None:
                seen["expansions"] += result.expansions
                seen["replans"] += 1
            return result

        monkeypatch.setattr(Solver, "_plan", spy_plan)
        rng = random.Random(27)
        for _ in range(8):
            inst = random_instance(rng, 6, 6, 5)
            seen.update(expansions=0, replans=0)
            res = solve(inst, SolverConfig(w=1.05, flex_mode=FlexMode.MFD,
                                           low_level=low_level,
                                           time_limit=0.5))
            assert seen["replans"] >= inst.num_agents
            assert res.metrics.low_level_expansions == seen["expansions"]
            assert res.metrics.low_level_expansions > 0

    def test_metrics_sanity(self):
        rng = random.Random(23)
        for _ in range(10):
            inst = random_instance(rng, 5, 5, 3)
            res = solve(inst, SolverConfig(w=1.05))
            m = res.metrics
            if res.outcome != "solved":
                continue
            assert m.depth <= m.expanded + 1
            assert m.generated >= m.expanded
            assert 0.0 <= m.gb_ratio <= 1.0
            assert m.lbi >= 0.0
            assert m.violations == []
            assert m.soc <= 1.05 * m.lb_final + 1e-6


class TestFlexModesAgree:
    def test_all_modes_stay_bounded(self):
        rng = random.Random(24)
        for _ in range(8):
            inst = random_instance(rng, 5, 5, 3)
            opt = optimal_soc(inst)
            if not opt.solvable:
                continue
            for mode in ALL_MODES:
                for w in (1.0, 1.05, 1.5):
                    res = solve(inst, SolverConfig(w=w, flex_mode=mode))
                    assert res.outcome == "solved"
                    assert res.metrics.soc <= w * opt.soc + 1e-9
                    assert validate(res.paths, inst) == []
