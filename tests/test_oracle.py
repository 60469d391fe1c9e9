import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexcbs.constraints import Path
from flexcbs.lowlevel import compute_h
from flexcbs.map_io import AgentSpec, Instance
from flexcbs.oracle import optimal_soc, validate
from helpers import (grid_from_rows, open_grid, pair_scan_conflict_lines,
                     random_instance, swap_instance)


def paths_from_witness(instance, witness):
    """Per-agent paths from a joint-configuration trace, trimmed to arrival."""
    paths = []
    for agent in instance.agents:
        cells = [cfg[agent.id] for cfg in witness]
        while len(cells) > 1 and cells[-1] == cells[-2] == agent.target:
            cells.pop()
        paths.append(Path(agent.id, tuple(cells)))
    return paths


class TestValidate:
    def good_solution(self):
        inst = swap_instance()
        p0 = Path(0, ((0, 0), (1, 0), (1, 1), (0, 1), (0, 2)))
        p1 = Path(1, ((0, 2), (0, 1), (0, 0)))
        return inst, [p0, p1]

    def test_clean_solution(self):
        inst, paths = self.good_solution()
        assert validate(paths, inst) == []

    def test_wrong_endpoints(self):
        inst, paths = self.good_solution()
        paths[0] = Path(0, ((1, 0), (1, 1), (0, 1), (0, 2)))
        assert any("starts at" in v for v in validate(paths, inst))
        paths[0] = Path(0, ((0, 0), (0, 1)))
        assert any("ends at" in v for v in validate(paths, inst))

    def test_wrong_path_count(self):
        inst, paths = self.good_solution()
        assert validate(paths[:1], inst) == ["expected 2 paths, got 1"]

    def test_discontinuous_step(self):
        inst, paths = self.good_solution()
        paths[0] = Path(0, ((0, 0), (1, 1), (0, 1), (0, 2)))
        assert any("illegal step" in v for v in validate(paths, inst))

    def test_blocked_cell(self):
        grid = grid_from_rows([".@."])
        inst = Instance(grid, (AgentSpec(0, (0, 0), (0, 0)),))
        bad = [Path(0, ((0, 0), (0, 1), (0, 0)))]
        assert any("blocked" in v for v in validate(bad, inst))

    def test_empty_path_reported_and_left_out(self):
        """An empty path is one violation; the other agents' paths are still
        checked, and their conflicts keep their agent ids."""
        grid = open_grid(2, 2)
        inst = Instance(grid, (AgentSpec(0, (0, 0), (0, 0)),
                               AgentSpec(1, (0, 1), (1, 0)),
                               AgentSpec(2, (1, 0), (1, 1))))
        good = [Path(1, ((0, 1), (0, 0), (1, 0))), Path(2, ((1, 0), (1, 1)))]
        assert validate([Path(0, ()), *good], inst) == ["agent 0: empty path"]
        bad = [Path(0, ()), Path(1, ((0, 1), (1, 1), (1, 0))),
               Path(2, ((1, 0), (1, 1)))]
        assert validate(bad, inst) == [
            "agent 0: empty path",
            "vertex conflict: agents 1,2 at (1, 1) t=1"]

    def test_vertex_conflict_reported(self):
        grid = open_grid(2, 2)
        inst = Instance(grid, (AgentSpec(0, (0, 0), (1, 0)),
                               AgentSpec(1, (0, 1), (1, 1))))
        bad = [Path(0, ((0, 0), (1, 0))), Path(1, ((0, 1), (1, 0)))]
        report = validate(bad, inst)
        assert any("vertex conflict" in v for v in report)

    def test_edge_conflict_reported(self):
        grid = open_grid(1, 3)
        inst = Instance(grid, (AgentSpec(0, (0, 0), (0, 1)),
                               AgentSpec(1, (0, 1), (0, 0))))
        bad = [Path(0, ((0, 0), (0, 1))), Path(1, ((0, 1), (0, 0)))]
        assert any("edge conflict" in v for v in validate(bad, inst))

    def test_parked_agent_conflict_reported(self):
        grid = open_grid(1, 4)
        inst = Instance(grid, (AgentSpec(0, (0, 0), (0, 1)),
                               AgentSpec(1, (0, 3), (0, 0))))
        bad = [Path(0, ((0, 0), (0, 1))),
               Path(1, ((0, 3), (0, 2), (0, 1), (0, 0)))]
        report = validate(bad, inst)
        assert any("vertex conflict" in v and "t=2" in v for v in report)


@st.composite
def crowded_solutions(draw):
    """An instance on a small open grid and one random walk per agent. Some
    walks copy an earlier one and wait on at its end, and some retrace an
    earlier one backwards, so shared ends, parked-agent vertex conflicts and
    edge swaps are common."""
    grid = open_grid(draw(st.integers(1, 3)), draw(st.integers(2, 4)))
    cells = grid.passable_cells()
    k = draw(st.integers(1, min(5, len(cells))))
    paths = []
    for agent in range(k):
        kind = draw(st.integers(0, 2)) if paths else 0
        if kind == 0:
            cur = [draw(st.sampled_from(cells))]
            for i in draw(st.lists(st.integers(0, 4), max_size=7)):
                moves = [cur[-1], *grid.neighbors(cur[-1])]
                cur.append(moves[i % len(moves)])
        else:
            other = list(draw(st.sampled_from(paths)).cells)
            wait = other[-1:] * draw(st.integers(0, 3))
            cur = other + wait if kind == 1 else other[::-1] + wait
        paths.append(Path(agent, tuple(cur)))
    inst = Instance(grid, tuple(AgentSpec(i, cells[i], cells[-1 - i])
                                for i in range(k)))
    return inst, paths


class TestValidateMatchesPairScan:
    @settings(max_examples=300, deadline=None)
    @given(solution=crowded_solutions())
    def test_conflict_lines_equal(self, solution):
        inst, paths = solution
        report = validate(paths, inst)
        lines = [v for v in report if " conflict: " in v]
        assert lines == pair_scan_conflict_lines(paths)
        # the conflicts come last, after the per-agent lines
        assert report[len(report) - len(lines):] == lines


class TestOptimalSoc:
    def test_single_agent_is_bfs_distance(self):
        grid = grid_from_rows(["...", ".@.", "..."])
        inst = Instance(grid, (AgentSpec(0, (0, 0), (2, 2)),))
        res = optimal_soc(inst)
        assert res.solvable and res.soc == compute_h(grid, (2, 2))[grid.id_of((0, 0))]

    def test_swap_instance(self):
        res = optimal_soc(swap_instance())
        assert res.solvable and res.soc == 6

    def test_disjoint_agents_sum_of_distances(self):
        grid = grid_from_rows(["...", "@@@", "..."])
        inst = Instance(grid, (AgentSpec(0, (0, 0), (0, 2)),
                               AgentSpec(1, (2, 2), (2, 0))))
        res = optimal_soc(inst)
        assert res.soc == 4

    def test_unsolvable_swap_line(self):
        grid = open_grid(1, 3)
        inst = Instance(grid, (AgentSpec(0, (0, 0), (0, 2)),
                               AgentSpec(1, (0, 2), (0, 0))))
        assert not optimal_soc(inst).solvable

    def test_agent_limit_enforced(self):
        grid = open_grid(3, 4)
        agents = tuple(AgentSpec(i, (0, i), (2, i)) for i in range(4))
        with pytest.raises(ValueError):
            optimal_soc(Instance(grid, agents))

    def test_cell_limit_enforced(self):
        grid = open_grid(7, 7)
        inst = Instance(grid, (AgentSpec(0, (0, 0), (6, 6)),))
        with pytest.raises(ValueError):
            optimal_soc(inst)

    def test_witness_is_a_valid_optimal_solution(self):
        rng = random.Random(12)
        for _ in range(20):
            inst = random_instance(rng, 4, 4, 2)
            res = optimal_soc(inst)
            if not res.solvable:
                continue
            paths = paths_from_witness(inst, res.witness)
            assert validate(paths, inst) == []
            assert sum(p.cost for p in paths) == res.soc

    def test_permutation_invariance(self):
        rng = random.Random(13)
        for _ in range(10):
            inst = random_instance(rng, 4, 4, 2)
            swapped = Instance(inst.map, (
                AgentSpec(0, inst.agents[1].start, inst.agents[1].target),
                AgentSpec(1, inst.agents[0].start, inst.agents[0].target)))
            a, b = optimal_soc(inst), optimal_soc(swapped)
            assert a.solvable == b.solvable
            assert a.soc == b.soc

    def test_matches_exhaustive_path_pair_enumeration(self):
        rng = random.Random(14)
        checked = 0
        while checked < 8:
            inst = random_instance(rng, 3, 3, 2)
            res = optimal_soc(inst)
            if not res.solvable:
                continue
            best = _enumerated_optimum(inst, slack=3)
            if best is None:
                continue
            assert res.soc == best
            checked += 1


def _enumerated_optimum(instance, slack):
    """Best SOC over all pairs of near-shortest paths, or None if the bound
    window contains no compatible pair."""
    grid = instance.map
    per_agent = []
    for agent in instance.agents:
        dist = compute_h(grid, agent.target)[grid.id_of(agent.start)]
        per_agent.append(_walks(grid, agent, dist + slack))
    best = None
    for p0, p1 in itertools.product(*per_agent):
        if validate([p0, p1], instance):
            continue
        soc = p0.cost + p1.cost
        if best is None or soc < best:
            best = soc
    return best


def _walks(grid, agent, max_cost):
    out = []
    stack = [(agent.start,)]
    while stack:
        cells = stack.pop()
        if cells[-1] == agent.target:
            trimmed = list(cells)
            while len(trimmed) > 1 and trimmed[-1] == trimmed[-2] == agent.target:
                trimmed.pop()
            out.append(Path(agent.id, tuple(trimmed)))
        if len(cells) - 1 >= max_cost:
            continue
        for nb in [cells[-1]] + grid.neighbors(cells[-1]):
            stack.append(cells + (nb,))
    return out
