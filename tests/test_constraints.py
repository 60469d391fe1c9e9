import math

import pytest

from flexcbs.constraints import (Constraint, ConstraintKind, ConstraintTable,
                                 Path, edge_constraint, estimate_delays,
                                 length_gt, length_leq, vertex_constraint)


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
    def test_vertex_blocks_exact_timestep(self):
        table = ConstraintTable(0, [vertex_constraint(0, (1, 1), 3)])
        assert table.is_blocked((1, 1), 3)
        assert not table.is_blocked((1, 1), 2)
        assert not table.is_blocked((1, 1), 4)

    def test_other_agents_vertex_constraints_ignored(self):
        table = ConstraintTable(0, [vertex_constraint(1, (1, 1), 3)])
        assert not table.is_blocked((1, 1), 3)

    def test_edge_blocks_directed_move(self):
        table = ConstraintTable(0, [edge_constraint(0, (0, 0), (0, 1), 2)])
        assert table.is_edge_blocked((0, 0), (0, 1), 2)
        assert not table.is_edge_blocked((0, 1), (0, 0), 2)
        assert not table.is_edge_blocked((0, 0), (0, 1), 1)

    def test_length_bounds(self):
        table = ConstraintTable(0, [length_gt(0, 5)])
        assert table.earliest_goal == 6
        table = ConstraintTable(0, [length_leq(0, 4)])
        assert table.latest_goal == 4

    def test_contradictory_length_bounds_infeasible(self):
        table = ConstraintTable(0, [length_gt(0, 5), length_leq(0, 4)])
        assert table.infeasible
        table = ConstraintTable(0, [length_gt(0, 3), length_leq(0, 4)])
        assert not table.infeasible

    def test_other_agents_length_leq_blocks_their_target(self):
        targets = {0: (0, 0), 1: (2, 2)}
        table = ConstraintTable(0, [length_leq(1, 4)], targets=targets)
        assert not table.is_blocked((2, 2), 3)
        assert table.is_blocked((2, 2), 4)
        assert table.is_blocked((2, 2), 50)

    def test_goal_arrival_requires_no_future_block(self):
        table = ConstraintTable(0, [vertex_constraint(0, (0, 2), 5)])
        assert table.hold_time((0, 2)) == 6

    def test_goal_arrival_window(self):
        table = ConstraintTable(0, [length_gt(0, 2), length_leq(0, 6)])
        assert table.hold_time((0, 0)) == 3
        assert table.latest_goal == 6

    def test_blocked_forever_goal_never_ok(self):
        targets = {1: (2, 2)}
        table = ConstraintTable(0, [length_leq(1, 4)], targets=targets)
        assert table.last_block_on((2, 2)) == math.inf
        assert table.hold_time((2, 2)) == math.inf


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
