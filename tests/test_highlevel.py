import inspect
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from flexcbs import flex as flexmod
from flexcbs.conflicts import Classifier, detect_conflicts
from flexcbs.constraints import ConflictClass, ConstraintKind
from flexcbs.flex import FlexMode
from flexcbs.highlevel import EPS, Frontier, Solver, SolverConfig, solve
from flexcbs.lowlevel import Occupancy
from flexcbs.map_io import AgentSpec, Instance
from flexcbs.oracle import optimal_soc, validate
from helpers import (TreeSolver, grid_from_rows, occupancy_state, open_grid,
                     random_instance, swap_instance)
from test_acceptance import fixed_size_instance

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

        def spy(self, conflict, paths, constraints, blocks):
            result = classify(self, conflict, paths, constraints, blocks)
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
    def test_optimal_with_adoptions(self):
        """Bypass keeps w = 1 optimal, and adoptions do happen on these
        draws, so the check is not vacuous."""
        rng = random.Random(21)
        adoptions = 0
        for _ in range(10):
            inst = random_instance(rng, 4, 4, 3)
            opt = optimal_soc(inst)
            if not opt.solvable:
                continue
            solver = TreeSolver(inst, SolverConfig(w=1.0))
            res = solver.solve()
            assert res.outcome == "solved"
            assert res.metrics.soc == opt.soc
            adoptions += len(solver.adopted)
        assert adoptions >= 1


class TestTreeInvariants:
    def test_lb_monotone_along_branches(self):
        rng = random.Random(22)
        pairs = 0
        for _ in range(10):
            inst = random_instance(rng, 5, 5, 3)
            # the second draw (3x5, 3 agents, optimum 26) times out under
            # every configuration; 5 s of its tree is plenty to check
            cfg = SolverConfig(w=1.05, flex_mode=FlexMode.MFD, time_limit=5.0)
            solver = TreeSolver(inst, cfg)
            solver.solve()
            for node in solver.tree_nodes:
                parent = solver.parent_of.get(node.seq)
                if parent is None:
                    continue
                pairs += 1
                assert node.solb >= parent.solb - 1e-9
                for i in range(len(node.lbs)):
                    assert node.lbs[i] >= parent.lbs[i] - 1e-9
        assert pairs >= 1000

    def test_soc_and_solb_sum_the_node(self):
        """Every node, the root, children and bypass-adopted ones alike,
        carries the SOC and SOLB of its own paths and lower bounds, and the
        conflict count of its own conflict list."""
        rng = random.Random(25)
        generated = []  # the roots and children
        adopted = []
        for _ in range(6):
            inst = random_instance(rng, 5, 5, 4)
            solver = TreeSolver(inst, SolverConfig(
                w=1.05, flex_mode=FlexMode.MFD, time_limit=10.0))
            assert solver.solve().outcome == "solved"
            generated += solver.tree_nodes
            adopted += [node for _replaced, node in solver.adopted]
        for node in generated + adopted:
            assert node.soc == sum(p.cost for p in node.paths)
            assert node.solb == sum(node.lbs)
            assert node.x_total == len(node.conflicts)
        assert len(generated) >= 500 and len(adopted) >= 10

    def test_blocks_are_the_nodes_length_leq_constraints(self):
        """Every node's `blocks` holds exactly the LENGTH_LEQ constraints of
        its constraint tuples. A child whose split added none shares its
        parent's tuple, one whose split added one extends it, and a
        bypass-adopted node shares the tuple of the node it replaces."""
        rng = random.Random(25)
        nodes = blocked = shared = extended = adoptions = 0
        for _ in range(6):
            inst = random_instance(rng, 5, 5, 4)
            solver = TreeSolver(inst, SolverConfig(
                w=1.05, flex_mode=FlexMode.MFD, time_limit=10.0))
            assert solver.solve().outcome == "solved"
            adopted = [node for _replaced, node in solver.adopted]
            for node in solver.tree_nodes + adopted:
                nodes += 1
                blocked += bool(node.blocks)
                assert Counter(node.blocks) == Counter(
                    c for cs in node.constraints for c in cs
                    if c.kind is ConstraintKind.LENGTH_LEQ)
                parent = solver.parent_of.get(node.seq)
                if parent is None:
                    continue
                added = next(own[-1] for own, before
                             in zip(node.constraints, parent.constraints)
                             if own is not before)
                if added.kind is ConstraintKind.LENGTH_LEQ:
                    extended += 1
                    assert node.blocks == (*parent.blocks, added)
                else:
                    shared += 1
                    assert node.blocks is parent.blocks
            for replaced, node in solver.adopted:
                adoptions += 1
                assert node.blocks is replaced.blocks
                assert node.constraints is replaced.constraints
        assert nodes >= 500 and blocked >= 100 and shared >= 100
        assert extended >= 10 and adoptions >= 10

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("low_level", LOW_LEVELS)
    def test_incremental_state_matches_rescan(self, mode, low_level):
        rng = random.Random(25)
        nodes = 0
        for _ in range(6):
            inst = random_instance(rng, 5, 5, 3)
            if not optimal_soc(inst).solvable:
                continue
            solver = TreeSolver(inst, SolverConfig(
                w=1.05, flex_mode=mode, low_level=low_level, time_limit=1.0))
            solver.solve()
            for node in solver.tree_nodes:
                nodes += 1
                conflicts, _counts, total = detect_conflicts(inst.map,
                                                             node.paths)
                assert set(node.conflicts) == set(conflicts)
                assert node.x_total == total
                parent = solver.parent_of.get(node.seq)
                if parent is None:
                    continue
                # the child extends exactly one agent's tuple and shares the
                # others; a parent changed in place would share all of them
                own, parent = node.constraints, parent.constraints
                changed = [a for a in range(len(own)) if own[a] is not parent[a]]
                assert len(changed) == 1
                a = changed[0]
                assert own[a][:-1] == parent[a]
        assert nodes > 0

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_flex_reads_the_parents_conflict_counts(self, mode, monkeypatch):
        """CFD, DFD and MFD are handed x_i, how many of the parent's
        conflicts involve the replanned agent, and x_total, all of them, as
        a rescan of the parent's paths counts them."""
        compute = Solver._compute_flex
        replan = {}
        checked = {"calls": 0, "shares": 0}

        def spy_compute(self, lbs, paths, agent, parent, *args):
            _, counts, total = detect_conflicts(self.grid, parent.paths)
            replan.update(x_i=counts[agent], x_total=total)
            return compute(self, lbs, paths, agent, parent, *args)

        def spying(real):
            signature = inspect.signature(real)

            def spy(*args, **kwargs):
                got = signature.bind(*args, **kwargs).arguments
                assert (got["x_i"], got["x_total"]) == \
                    (replan["x_i"], replan["x_total"])
                checked["calls"] += 1
                # the agent takes part in some but not all of them
                checked["shares"] += 0 < got["x_i"] < got["x_total"]
                return real(*args, **kwargs)
            return spy

        monkeypatch.setattr(Solver, "_compute_flex", spy_compute)
        for name in ("cfd_flex", "dfd_flex", "mfd_flex"):
            monkeypatch.setattr(flexmod, name,
                                spying(getattr(flexmod, name)))
        rng = random.Random(28)
        for _ in range(6):
            inst = random_instance(rng, 5, 5, 4)
            solve(inst, SolverConfig(w=1.05, flex_mode=mode, time_limit=1.0))
        if mode in (FlexMode.NONE, FlexMode.GFD):
            assert checked["calls"] == 0
        else:
            assert checked["calls"] >= 20
            assert checked["shares"] >= 100

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


def negative_slack_family() -> list[Instance]:
    """Twelve 16x16 draws with 15-25 agents. With gfd at w = 1.05 and target
    reasoning, the other agents' costs often exceed w times their lower
    bounds, so a replan's flex is negative: draw 5 meets it in 45 of its 121
    replans."""
    rng = random.Random(1)
    return [fixed_size_instance(rng, 16, rng.randint(15, 25), 0.1)
            for _ in range(12)]


def gfd_config() -> SolverConfig:
    return SolverConfig(w=1.05, flex_mode=FlexMode.GFD, symmetry=True,
                        time_limit=10.0)


class TestNegativeSlack:
    def test_every_replan_stays_within_its_threshold(self, monkeypatch):
        """Each replan's flex is at most the slack the other agents leave,
        w * lb_j - cost_j summed over j != i, negative or not, and its path
        costs at most w * lb_i + delta."""
        compute = Solver._compute_flex
        negative_slack = []  # one flag per flex computation

        def spy(self, lbs, paths, agent, *args):
            fc = compute(self, lbs, paths, agent, *args)
            w = self.config.w
            delta_max = sum(w * lbs[j] - paths[j].cost
                            for j in range(len(lbs)) if j != agent)
            assert fc.delta_max == pytest.approx(delta_max)
            assert fc.delta <= delta_max + 1e-9
            negative_slack.append(delta_max < 0)
            return fc

        monkeypatch.setattr(Solver, "_compute_flex", spy)
        negative = []
        for inst in negative_slack_family():
            res = Solver(inst, gfd_config()).solve()
            assert res.outcome == "solved"
            assert res.metrics.violations == []
            records = res.metrics.flex_records
            # usage is the path's cost minus w times its new lower bound
            assert all(usage <= delta + 1e-9 for delta, usage, _ in records)
            negative.append(sum(not nonneg for *_, nonneg in records))
        assert sum(negative_slack) == sum(negative)
        assert negative[5] > 0 and sum(negative) >= 50

    def test_bound_check_reaches_negative_slack(self):
        """A solver that replans with no flex where the slack is negative
        lets a child's SOC exceed w times its SOLB, and its own bound check
        reports it."""

        class DropsNegativeFlex(Solver):
            def _compute_flex(self, *args):
                fc = super()._compute_flex(*args)
                return None if fc is not None and fc.delta < 0 else fc

        inst = negative_slack_family()[5]
        assert Solver(inst, gfd_config()).solve().metrics.violations == []
        res = DropsNegativeFlex(inst, gfd_config()).solve()
        assert res.metrics.violations


class TestFrontier:
    """`Frontier.pop_best` against a rescan of the EES rule over every open
    node, on random push/pop sequences. f-hat is a multiple of 1/4 and SOC,
    SOLB and LB are integers, so no bound falls within EPS of a value it is
    compared with unless equal to it."""

    @staticmethod
    def ees_pick(alive: list, w: float, lb: float):
        """FOCAL (f-hat within w times the least) by (conflicts, seq), else
        OPEN by (f-hat, seq), each only if its SOC is within w * LB; else
        CLEANUP by (SOLB, SOC, seq)."""
        least = min(n.fhat for n in alive)
        focal = min((n for n in alive if n.fhat <= w * least + EPS),
                    key=lambda n: (n.x_total, n.seq))
        if focal.soc <= w * lb + EPS:
            return focal, "focal"
        best = min(alive, key=lambda n: (n.fhat, n.seq))
        if best.soc <= w * lb + EPS:
            return best, "open"
        return min(alive, key=lambda n: (n.solb, n.soc, n.seq)), "cleanup"

    @pytest.mark.parametrize("w", [1.0, 1.05, 1.5])
    def test_pop_best_follows_the_ees_rule(self, w):
        rng = random.Random(31)
        picks = Counter()
        for _ in range(100):
            frontier = Frontier(w)
            alive: dict[int, SimpleNamespace] = {}
            lb = 0
            for seq in range(1, 61):
                if alive and rng.random() < 0.45:
                    least = min(n.solb for n in alive.values())
                    assert frontier.min_solb_node().solb == least
                    lb = max(lb, least)  # as Solver.solve keeps it
                    want, queue = self.ees_pick(list(alive.values()), w, lb)
                    assert frontier.pop_best(lb) is want
                    picks[queue] += 1
                    del alive[want.seq]
                else:
                    solb = rng.randint(10, 20)
                    soc = solb + rng.randint(0, 4)
                    x_total = rng.randint(0, 5)
                    node = SimpleNamespace(
                        seq=seq, solb=solb, soc=soc, x_total=x_total,
                        fhat=soc + rng.randint(0, 8) / 4 * x_total)
                    frontier.push(node)
                    alive[seq] = node
                assert len(frontier) == len(alive)
        # every branch of the rule is taken (OPEN least often at w = 1)
        assert min(picks[q] for q in ("focal", "open", "cleanup")) >= 5
