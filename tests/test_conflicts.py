import random

from flexcbs.conflicts import (Classifier, Conflict, ConflictClass,
                               detect_conflicts, find_corridor, pick_conflict,
                               split_conflict, split_constraint_for)
from flexcbs.constraints import (ConstraintKind, ConstraintTable, Path,
                                 vertex_constraint)
from flexcbs.lowlevel import earliest_arrival
from helpers import (brute_constrained_opt, grid_from_rows, open_grid,
                     random_grid, random_walk_path)


class TestDetectConflicts:
    def test_both_arrive_same_cell(self):
        p1 = Path(0, ((0, 0), (0, 1)))
        p2 = Path(1, ((0, 2), (0, 1)))
        conflicts, counts, total = detect_conflicts([p1, p2])
        assert total == 1
        c = conflicts[0]
        assert (c.a_i, c.a_j, c.v, c.t) == (0, 1, (0, 1), 1)
        assert not c.is_edge
        assert counts == [1, 1]

    def test_head_on_swap_is_edge_conflict(self):
        p1 = Path(0, ((0, 0), (0, 1)))
        p2 = Path(1, ((0, 1), (0, 0)))
        conflicts, _, total = detect_conflicts([p1, p2])
        assert total == 1
        assert conflicts[0].is_edge
        assert conflicts[0].t == 1

    def test_target_permanence(self):
        parked = Path(0, ((0, 1), (0, 2)))  # finishes at t=1, parks at (0,2)
        passer = Path(1, ((0, 5), (0, 4), (0, 3), (0, 2), (0, 1)))
        conflicts, _, total = detect_conflicts([parked, passer])
        assert any(c.v == (0, 2) and c.t == 3 for c in conflicts)
        assert total == 1

    def test_start_overlap_detected_at_t0(self):
        p1 = Path(0, ((0, 0), (0, 1)))
        p2 = Path(1, ((0, 0), (1, 0)))
        conflicts, _, total = detect_conflicts([p1, p2])
        assert conflicts[0].t == 0

    def test_clean_paths_no_conflicts(self):
        p1 = Path(0, ((0, 0), (0, 1)))
        p2 = Path(1, ((1, 0), (1, 1)))
        assert detect_conflicts([p1, p2]) == ([], [0, 0], 0)

    def test_total_is_half_of_count_sum(self):
        rng = random.Random(2)
        for _ in range(30):
            grid = random_grid(rng, 4, 4, 0.2)
            cells = grid.passable_cells()
            if len(cells) < 3:
                continue
            paths = [random_walk_path(rng, grid, rng.choice(cells), 5, agent=i)
                     for i in range(3)]
            _, counts, total = detect_conflicts(paths)
            assert sum(counts) == 2 * total


class TestFindCorridor:
    def test_line_interior(self):
        grid = open_grid(1, 5)
        corridor = find_corridor(grid, (0, 2))
        assert set(corridor.interior) == {(0, 1), (0, 2), (0, 3)}
        assert set(corridor.endpoints) == {(0, 0), (0, 4)}

    def test_same_corridor_from_every_interior_cell(self):
        grid = open_grid(1, 5)
        base = find_corridor(grid, (0, 2))
        for cell in base.interior:
            other = find_corridor(grid, cell)
            assert set(other.interior) == set(base.interior)
            assert set(other.endpoints) == set(base.endpoints)

    def test_high_degree_cell_rejected(self):
        grid = open_grid(3, 3)
        assert find_corridor(grid, (1, 1)) is None

    def test_dead_end_rejected(self):
        grid = grid_from_rows(["..@"])
        # (0,0) has exactly one neighbor
        assert find_corridor(grid, (0, 0)) is None


DUMBBELL = [".@@@.",
            ".....",
            ".@@@."]


def dumbbell_paths():
    p0 = Path(0, ((0, 0), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (0, 4)))
    p1 = Path(1, ((2, 4), (1, 4), (1, 3), (1, 2), (1, 1), (1, 0), (2, 0)))
    return p0, p1


class TestClassifier:
    def make(self, grid):
        return Classifier(grid, symmetry=True, prioritize=True)

    def test_target_conflict(self):
        grid = open_grid(1, 6)
        parked = Path(0, ((0, 1), (0, 2)))
        passer = Path(1, ((0, 5), (0, 4), (0, 3), (0, 2), (0, 1)))
        conflicts, _, _ = detect_conflicts([parked, passer])
        c = self.make(grid).classify(conflicts[0], [parked, passer],
                                     [[], []], {0: (0, 2), 1: (0, 1)})
        assert c.cls is ConflictClass.TARGET
        assert c.target_agent == 0

    def test_corridor_conflict(self):
        grid = grid_from_rows(DUMBBELL)
        p0, p1 = dumbbell_paths()
        conflicts, _, _ = detect_conflicts([p0, p1])
        c = self.make(grid).classify(pick_conflict(conflicts), [p0, p1],
                                     [[], []], {0: (0, 4), 1: (2, 0)})
        assert c.cls is ConflictClass.CORRIDOR
        assert c.exit_i == (1, 4)
        assert c.exit_j == (1, 0)
        assert c.t_min_i == 5
        assert c.t_min_j == 5

    def test_corridor_skipped_when_detour_exists(self):
        # same conflict pattern, but an open top row offers a detour
        grid = grid_from_rows([".....", ".....", ".@@@."])
        p0, p1 = dumbbell_paths()
        conflicts, _, _ = detect_conflicts([p0, p1])
        c = self.make(grid).classify(pick_conflict(conflicts), [p0, p1],
                                     [[], []], {0: (0, 4), 1: (2, 0)})
        assert c.cls is not ConflictClass.CORRIDOR

    def test_corridor_requires_mandatory_passage(self):
        # degree-2 chain along the top row, but row 2 offers a way around
        grid = grid_from_rows([".....", ".@@@.", "....."])
        p0 = Path(0, tuple((0, c) for c in range(5)))
        p1 = Path(1, tuple((0, 4 - c) for c in range(5)))
        conflicts, _, _ = detect_conflicts([p0, p1])
        c = self.make(grid).classify(pick_conflict(conflicts), [p0, p1],
                                     [[], []], {0: (0, 4), 1: (0, 0)})
        assert c.cls is not ConflictClass.CORRIDOR

    def test_cardinal_conflict(self):
        grid = grid_from_rows(["@.@", "...", "@.@"])
        p0 = Path(0, ((1, 0), (1, 1), (1, 2)))
        p1 = Path(1, ((0, 1), (1, 1), (2, 1)))
        conflicts, _, _ = detect_conflicts([p0, p1])
        c = self.make(grid).classify(conflicts[0], [p0, p1], [[], []],
                                     {0: (1, 2), 1: (2, 1)})
        assert c.cls is ConflictClass.CARDINAL

    def test_semi_cardinal_conflict(self):
        grid = open_grid(2, 3)
        p0 = Path(0, ((0, 2), (0, 1), (0, 0)))  # forced through (0,1) at t=1
        p1 = Path(1, ((0, 0), (0, 1), (1, 1), (1, 2)))  # can reroute via row 1
        conflicts, _, _ = detect_conflicts([p0, p1])
        c = self.make(grid).classify(conflicts[0], [p0, p1], [[], []],
                                     {0: (0, 0), 1: (1, 2)})
        assert c.cls is ConflictClass.SEMI_CARDINAL

    def test_non_cardinal_conflict(self):
        grid = open_grid(2, 3)
        p0 = Path(0, ((0, 0), (1, 0), (1, 1), (1, 2)))
        p1 = Path(1, ((0, 2), (0, 1), (1, 1), (1, 0)))
        conflicts, _, _ = detect_conflicts([p0, p1])
        target = next(c for c in conflicts if c.v == (1, 1))
        c = self.make(grid).classify(target, [p0, p1], [[], []],
                                     {0: (1, 2), 1: (1, 0)})
        assert c.cls is ConflictClass.NON_CARDINAL

    def test_toggles_disable_classification(self):
        grid = open_grid(1, 6)
        parked = Path(0, ((0, 1), (0, 2)))
        passer = Path(1, ((0, 5), (0, 4), (0, 3), (0, 2), (0, 1)))
        conflicts, _, _ = detect_conflicts([parked, passer])
        plain = Classifier(grid, symmetry=False, prioritize=False)
        c = plain.classify(conflicts[0], [parked, passer], [[], []],
                           {0: (0, 2), 1: (0, 1)})
        assert c.cls is ConflictClass.UNCLASSIFIED


class TestSplitConflict:
    def test_vertex_split_symmetric(self):
        c = Conflict(1, 2, (2, 2), 4)
        (a1, c1), (a2, c2) = split_conflict(c)
        assert (a1, a2) == (1, 2)
        assert c1.kind is ConstraintKind.VERTEX and c1.v == (2, 2) and c1.t == 4
        assert c2.kind is ConstraintKind.VERTEX and c2.agent == 2

    def test_edge_split_reverses_direction(self):
        c = Conflict(0, 1, (0, 1), 3, u=(0, 0))
        (_, c1), (_, c2) = split_conflict(c)
        assert (c1.u, c1.v) == ((0, 0), (0, 1))
        assert (c2.u, c2.v) == ((0, 1), (0, 0))

    def test_target_split_is_length_pair(self):
        c = Conflict(0, 1, (5, 5), 10, cls=ConflictClass.TARGET, target_agent=1)
        (a1, c1), (a2, c2) = split_conflict(c)
        assert a1 == a2 == 1
        assert c1.kind is ConstraintKind.LENGTH_GT and c1.t == 10
        assert c2.kind is ConstraintKind.LENGTH_LEQ and c2.t == 10

    def test_corridor_split_is_range_pair(self):
        c = Conflict(0, 1, (1, 2), 3, cls=ConflictClass.CORRIDOR,
                     exit_i=(1, 4), exit_j=(1, 0), t_min_i=5, t_min_j=8)
        (a1, c1), (a2, c2) = split_conflict(c)
        assert c1.kind is ConstraintKind.RANGE
        assert (a1, c1.v, c1.t) == (0, (1, 4), 8)
        assert (a2, c2.v, c2.t) == (1, (1, 0), 5)

    def test_parent_paths_violate_their_constraint(self):
        p0 = Path(0, ((0, 0), (0, 1)))
        p1 = Path(1, ((0, 2), (0, 1)))
        conflicts, _, _ = detect_conflicts([p0, p1])
        for agent, cons in split_conflict(conflicts[0]):
            path = (p0, p1)[agent]
            assert path.at(cons.t) == cons.v

    def test_split_constraint_for_edge_agents(self):
        c = Conflict(0, 1, (0, 1), 3, u=(0, 0))
        c0 = split_constraint_for(0, c)
        c1 = split_constraint_for(1, c)
        assert (c0.u, c0.v) == ((0, 0), (0, 1))
        assert (c1.u, c1.v) == ((0, 1), (0, 0))


class TestPickConflict:
    def test_priority_order(self):
        base = Conflict(0, 1, (0, 0), 5)
        target = Conflict(0, 1, (0, 0), 9, cls=ConflictClass.TARGET)
        cardinal = Conflict(0, 1, (0, 0), 2, cls=ConflictClass.CARDINAL)
        assert pick_conflict([base, cardinal, target]) is target

    def test_tie_breaks_on_time_then_agents(self):
        early = Conflict(2, 3, (0, 0), 1, cls=ConflictClass.CARDINAL)
        late = Conflict(0, 1, (0, 0), 4, cls=ConflictClass.CARDINAL)
        assert pick_conflict([late, early]) is early
        low_pair = Conflict(0, 5, (0, 0), 1, cls=ConflictClass.CARDINAL)
        assert pick_conflict([early, low_pair]) is low_pair


class TestMinCostWithin:
    """Cardinality probes: earliest goal arrival within the current cost."""

    def test_matches_independent_oracle(self):
        rng = random.Random(9)
        for _ in range(60):
            grid = random_grid(rng, 4, 4, 0.25)
            cells = grid.passable_cells()
            if len(cells) < 3:
                continue
            start, goal = rng.sample(cells, 2)
            cs = [vertex_constraint(0, rng.choice(cells), rng.randint(0, 4))
                  for _ in range(rng.randint(0, 3))]
            cap = rng.randint(1, 8)
            table = ConstraintTable(0, cs)
            got = earliest_arrival(grid, table, start, goal, cap,
                                   arrive_ok=table.goal_arrival_ok)
            want = brute_constrained_opt(grid, cs, 0, start, goal, {}, cap)
            assert got == want
