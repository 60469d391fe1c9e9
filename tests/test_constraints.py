import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexcbs.constraints import (Constraint, ConstraintKind, Path,
                                 edge_constraint, estimate_delays, length_gt,
                                 length_leq, vertex_constraint)
from flexcbs.lowlevel import (ConstraintTable, Distances, LowLevelRequest,
                              Occupancy, fastar_search, focal_search)
from helpers import brute_steps, open_grid, small_grids


class TestPath:
    def test_cost_is_steps(self):
        p = Path(0, ((0, 0), (0, 1), (0, 2)))
        assert p.cost == 2

    def test_parked_after_arrival(self):
        p = Path(0, ((0, 0), (0, 1)))
        assert p.at(0) == (0, 0)
        assert p.at(1) == (0, 1)
        assert p.at(99) == (0, 1)


class TestConstraintFactories:
    def test_kinds(self):
        assert vertex_constraint(0, (1, 1), 3).kind is ConstraintKind.VERTEX
        assert edge_constraint(0, (0, 0), (0, 1), 1).kind is ConstraintKind.EDGE
        assert length_leq(1, 4).kind is ConstraintKind.LENGTH_LEQ
        assert length_gt(1, 4).kind is ConstraintKind.LENGTH_GT

    def test_negative_timestep_rejected(self):
        with pytest.raises(ValueError):
            vertex_constraint(0, (0, 0), -1)


class TestConstraintTable:
    """The table files constraints under the kernel's keys: on a 3x3 grid,
    N = 9 and cell (r, c) has id 3 * r + c."""

    GRID = open_grid(3, 3)

    def table(self, constraints, targets=None):
        return ConstraintTable(self.GRID, 0, constraints, targets or {})

    def test_vertex_blocks_exact_timestep(self):
        table = self.table([vertex_constraint(0, (1, 1), 3)])
        assert table.vertex == {3 * 9 + 4}
        assert table.guarded == {4}
        assert table.edge == set() and table.blocked_from == {}

    def test_other_agents_vertex_constraints_ignored(self):
        table = self.table([vertex_constraint(1, (1, 1), 3)])
        assert table.vertex == set() and table.guarded == set()
        assert table.latest_constraint_t == 0

    def test_edge_blocks_directed_move(self):
        table = self.table([edge_constraint(0, (0, 0), (0, 1), 2)])
        assert table.edge == {(2 * 9 + 0) * 9 + 1}
        assert table.guarded == {1}
        assert table.vertex == set()

    def test_length_bounds(self):
        table = self.table([length_gt(0, 5)])
        assert table.earliest_goal == 6
        table = self.table([length_leq(0, 4)])
        assert table.latest_goal == 4

    def test_contradictory_length_bounds_infeasible(self):
        # no finishing time is left: the holding time of any goal, at least
        # earliest_goal, passes latest_goal
        table = self.table([length_gt(0, 5), length_leq(0, 4)])
        assert table.hold_time(8) > table.latest_goal
        table = self.table([length_gt(0, 3), length_leq(0, 4)])
        assert table.hold_time(8) <= table.latest_goal

    def test_other_agents_length_leq_blocks_their_target(self):
        targets = {0: (0, 0), 1: (2, 2)}
        table = self.table([length_leq(1, 4), length_leq(1, 6)], targets)
        assert table.blocked_from == {8: 4}
        assert table.guarded == {8}

    def test_goal_arrival_requires_no_future_block(self):
        table = self.table([vertex_constraint(0, (0, 2), 5),
                            vertex_constraint(0, (0, 2), 1)])
        assert table.hold_time(2) == 6

    def test_goal_arrival_window(self):
        table = self.table([length_gt(0, 2), length_leq(0, 6)])
        assert table.hold_time(0) == 3
        assert table.latest_goal == 6

    def test_blocked_forever_goal_never_ok(self):
        targets = {1: (2, 2)}
        table = self.table([length_leq(1, 4)], targets)
        assert table.hold_time(8) == math.inf

    def test_cells_off_the_grid_are_dropped(self):
        """A constraint off the grid bars nothing, but still sets the
        horizon through latest_constraint_t."""
        targets = {1: (3, 0)}
        table = self.table([vertex_constraint(0, (0, 3), 7),
                            edge_constraint(0, (-1, 0), (0, 0), 8),
                            length_leq(1, 9)], targets)
        assert table.vertex == set() and table.edge == set()
        assert table.blocked_from == {} and table.guarded == set()
        assert table.latest_constraint_t == 9


@st.composite
def keyed_tables(draw):
    """A small grid with agent 0's constraints and other agents' vertex and
    LENGTH_LEQ constraints; cells and targets sometimes lie off the grid."""
    grid = draw(small_grids(4, 5))
    cells = grid.passable_cells()
    assume(cells)
    off = st.tuples(st.integers(-1, grid.height), st.integers(-1, grid.width))
    cell = st.one_of(st.sampled_from(cells), off)
    step = st.integers(0, 6)
    move = st.sampled_from(cells).flatmap(
        lambda v: st.tuples(st.sampled_from(brute_steps(grid, v)), st.just(v)))
    constraint = st.one_of(
        st.builds(vertex_constraint, st.just(0), cell, step),
        st.builds(lambda uv, t: edge_constraint(0, *uv, t),
                  st.one_of(move, st.tuples(cell, cell)), st.integers(1, 6)),
        st.builds(length_gt, st.just(0), step),
        st.builds(length_leq, st.just(0), step),
        st.builds(vertex_constraint, st.integers(1, 2), cell, step),
        st.builds(length_leq, st.integers(1, 3), step))
    cs = draw(st.lists(constraint, max_size=8))
    targets = draw(st.dictionaries(st.integers(1, 3), cell))
    return grid, cs, targets


def reference_rules(cs, targets):
    """The table's rules over cell tuples: blocked(v, t), edge_blocked(u, v,
    t), hold_time(goal) and the latest constraint timestep."""
    vertex, edge, blocked_from = set(), set(), {}
    earliest, latest_t = 0, 0
    for c in cs:
        if c.kind is ConstraintKind.LENGTH_LEQ:
            latest_t = max(latest_t, c.t)
            if c.agent != 0 and c.agent in targets:
                tgt = targets[c.agent]
                blocked_from[tgt] = min(blocked_from.get(tgt, math.inf), c.t)
        elif c.agent == 0 and c.kind is ConstraintKind.LENGTH_GT:
            earliest = max(earliest, c.t + 1)
            latest_t = max(latest_t, c.t + 1)
        elif c.agent == 0:
            if c.kind is ConstraintKind.VERTEX:
                vertex.add((c.v, c.t))
            else:
                edge.add((c.u, c.v, c.t))
            latest_t = max(latest_t, c.t)

    def blocked(v, t):
        return (v, t) in vertex or t >= blocked_from.get(v, math.inf)

    def edge_blocked(u, v, t):
        return (u, v, t) in edge

    def hold_time(goal):
        if goal in blocked_from:
            return math.inf
        last = max((t for v, t in vertex if v == goal), default=-1)
        return max(earliest, last + 1)

    return blocked, edge_blocked, hold_time, latest_t


class TestKeyedTableMatchesCellRules:
    @settings(max_examples=300, deadline=None)
    @given(problem=keyed_tables())
    def test_keys_answer_as_the_cell_rules(self, problem):
        """For every passable cell, move and timestep up to two past the
        latest constraint, the keyed sets answer as the rules over cell
        tuples, and only guarded cells are ever barred."""
        grid, cs, targets = problem
        table = ConstraintTable(grid, 0, cs, targets)
        blocked, edge_blocked, hold_time, latest_t = reference_rules(
            cs, targets)
        assert table.latest_constraint_t == latest_t
        n = len(grid.moves)
        for u_cell in grid.passable_cells():
            u = grid.id_of(u_cell)
            assert table.hold_time(u) == hold_time(u_cell)
            for v_cell in brute_steps(grid, u_cell):
                v = grid.id_of(v_cell)
                for t in range(latest_t + 3):
                    barred = (t * n + v in table.vertex
                              or t >= table.blocked_from.get(v, math.inf))
                    assert barred == blocked(v_cell, t)
                    barred_move = (t * n + u) * n + v in table.edge
                    assert barred_move == edge_blocked(u_cell, v_cell, t)
                    if barred or barred_move:
                        assert v in table.guarded


class TestBlockedCellConstraints:
    @settings(max_examples=200, deadline=None)
    @given(problem=keyed_tables(), data=st.data())
    def test_bar_nothing_as_off_the_grid(self, problem, data):
        """VERTEX and EDGE constraints on blocked cells inside the grid are
        dropped, as the same constraints off the grid are: the kernel never
        enters such a cell. They change no table, hold time or search, but
        still raise latest_constraint_t."""
        grid, cs, targets = problem
        every = [(r, c) for r in range(grid.height) for c in range(grid.width)]
        blocked = [cell for cell in every if not grid.is_passable(cell)]
        assume(blocked)
        cells = grid.passable_cells()
        wall, open_cell = st.sampled_from(blocked), st.sampled_from(cells)
        extra = data.draw(st.lists(st.one_of(
            st.builds(vertex_constraint, st.just(0), wall, st.integers(0, 9)),
            st.builds(edge_constraint, st.just(0), wall, open_cell,
                      st.integers(1, 9)),
            st.builds(edge_constraint, st.just(0), open_cell, wall,
                      st.integers(1, 9)),
            st.builds(edge_constraint, st.just(0), wall, wall,
                      st.integers(1, 9))), min_size=1, max_size=4))
        outside = (grid.height, 0)
        off_grid = [replace(c, v=outside if c.v in blocked else c.v,
                            u=outside if c.u in blocked else c.u)
                    for c in extra]
        base = ConstraintTable(grid, 0, cs, targets)
        walled = ConstraintTable(grid, 0, cs + extra, targets)
        off = ConstraintTable(grid, 0, cs + off_grid, targets)
        for table in (walled, off):
            assert table.vertex == base.vertex
            assert table.edge == base.edge
            assert table.guarded == base.guarded
            assert table.blocked_from == base.blocked_from
            assert all(table.hold_time(v) == base.hold_time(v)
                       for v in range(grid.num_passable()))
            assert table.latest_constraint_t == max(
                base.latest_constraint_t, *(c.t for c in extra))
        # the search horizon grows with latest_constraint_t, so the searches
        # compare against the base constraints plus a LENGTH_LEQ of agent 4,
        # which has no target: it bars nothing and sets the same horizon
        level = ConstraintTable(
            grid, 0, cs + [length_leq(4, walled.latest_constraint_t)],
            targets)
        start, goal = data.draw(open_cell), data.draw(open_cell)
        tables = Distances(grid)
        for search in (focal_search, fastar_search):
            want, *got = (search(LowLevelRequest(
                start=start, goal=goal, ctable=table,
                occupancy=Occupancy(grid), tables=tables, w=1.5))
                for table in (level, walled, off))
            assert got == [want, want]


class TestEstimateDelays:
    def test_vertex_and_edge_delays_are_one_each(self):
        cs = [vertex_constraint(0, (0, 0), 1), vertex_constraint(0, (1, 0), 2),
              edge_constraint(0, (0, 0), (0, 1), 1)]
        assert [estimate_delays([c], 0, 0) for c in cs] == [1, 1, 1]
        assert estimate_delays(cs, 0, 0) == 3

    def test_length_gt_delay(self):
        total = estimate_delays([length_gt(0, 10)], 0, 7)
        assert total == 3

    def test_length_gt_already_satisfied(self):
        total = estimate_delays([length_gt(0, 5)], 0, 7)
        assert total == 0

    def test_length_leq_is_free(self):
        total = estimate_delays([length_leq(0, 4), length_leq(1, 4)], 0, 3)
        assert total == 0

    def test_other_agents_motion_constraints_skipped(self):
        total = estimate_delays([vertex_constraint(1, (0, 0), 1)], 0, 0)
        assert total == 0

    def test_delays_never_negative(self):
        # unclamped, the LENGTH_GT term would contribute 1 - 5 = -4
        assert estimate_delays([length_gt(0, 1)], 0, 5) == 0
