import hashlib
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexcbs.conflicts import (Classifier, Conflict, ConflictClass,
                               detect_conflicts, find_corridor, pick_conflict,
                               split_conflict, split_constraint_for)
from flexcbs.constraints import (ConstraintKind, ConstraintTable, Path,
                                 edge_constraint, length_gt, length_leq,
                                 vertex_constraint)
from flexcbs.flex import FlexMode
from flexcbs.highlevel import Solver, SolverConfig
from flexcbs.lowlevel import Distances, Occupancy, earliest_arrival
from flexcbs.map_io import GridMap
from helpers import (brute_constrained_opt, brute_pair_conflicts,
                     grid_from_rows, open_grid, random_grid, random_instance,
                     random_walk_path, small_grids)


class TestDetectConflicts:
    def test_both_arrive_same_cell(self):
        grid = open_grid(1, 3)
        p1 = Path(0, ((0, 0), (0, 1)))
        p2 = Path(1, ((0, 2), (0, 1)))
        conflicts, counts, total = detect_conflicts(grid, [p1, p2])
        assert total == 1
        c = conflicts[0]
        assert (c.a_i, c.a_j, c.v, c.t) == (0, 1, (0, 1), 1)
        assert not c.is_edge
        assert counts == [1, 1]

    def test_head_on_swap_is_edge_conflict(self):
        grid = open_grid(1, 2)
        p1 = Path(0, ((0, 0), (0, 1)))
        p2 = Path(1, ((0, 1), (0, 0)))
        conflicts, _, total = detect_conflicts(grid, [p1, p2])
        assert total == 1
        assert conflicts[0].is_edge
        assert conflicts[0].t == 1

    def test_target_permanence(self):
        grid = open_grid(1, 6)
        parked = Path(0, ((0, 1), (0, 2)))  # finishes at t=1, parks at (0,2)
        passer = Path(1, ((0, 5), (0, 4), (0, 3), (0, 2), (0, 1)))
        conflicts, _, total = detect_conflicts(grid, [parked, passer])
        assert any(c.v == (0, 2) and c.t == 3 for c in conflicts)
        assert total == 1

    def test_start_overlap_detected_at_t0(self):
        grid = open_grid(2, 2)
        p1 = Path(0, ((0, 0), (0, 1)))
        p2 = Path(1, ((0, 0), (1, 0)))
        conflicts, _, total = detect_conflicts(grid, [p1, p2])
        assert conflicts[0].t == 0

    def test_clean_paths_no_conflicts(self):
        grid = open_grid(2, 2)
        p1 = Path(0, ((0, 0), (0, 1)))
        p2 = Path(1, ((1, 0), (1, 1)))
        assert detect_conflicts(grid, [p1, p2]) == ([], [0, 0], 0)

    def test_total_is_half_of_count_sum(self):
        rng = random.Random(2)
        for _ in range(30):
            grid = random_grid(rng, 4, 4, 0.2)
            cells = grid.passable_cells()
            if len(cells) < 3:
                continue
            paths = [random_walk_path(rng, grid, rng.choice(cells), 5, agent=i)
                     for i in range(3)]
            _, counts, total = detect_conflicts(grid, paths)
            assert sum(counts) == 2 * total


@st.composite
def path_sets(draw):
    """Random walks of unequal lengths on a tiny random grid: starts clash,
    agents swap, and finished agents park where others pass later."""
    height, width = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    passable = draw(st.lists(st.integers(0, 3).map(bool),
                             min_size=height * width, max_size=height * width))
    grid = GridMap(height, width, tuple(passable))
    cells = grid.passable_cells()
    assume(cells)
    paths = []
    for agent in range(draw(st.integers(1, 5))):
        cur = [draw(st.sampled_from(cells))]
        for i in draw(st.lists(st.integers(0, 4), max_size=7)):
            moves = [cur[-1], *grid.neighbors(cur[-1])]
            cur.append(moves[i % len(moves)])
        paths.append(Path(agent, tuple(cur)))
    return grid, paths


def brute_against(a, paths):
    """brute_pair_conflicts of agent a against every other agent."""
    return [c for b in range(len(paths)) if b != a
            for c in brute_pair_conflicts(min(a, b), max(a, b),
                                          paths[min(a, b)], paths[max(a, b)])]


class TestIndexMatchesPairScan:
    """The space-time index lists exactly the conflicts of a pairwise scan."""

    @settings(max_examples=200, deadline=None)
    @given(sample=path_sets(), data=st.data())
    def test_detect_and_conflicts_with(self, sample, data):
        grid, paths = sample
        k = len(paths)
        brute = [c for i in range(k) for j in range(i + 1, k)
                 for c in brute_pair_conflicts(i, j, paths[i], paths[j])]
        conflicts, counts, total = detect_conflicts(grid, paths)
        # equal lists: same conflicts with the same v and u, in
        # (a_i, a_j, t) order
        assert conflicts == brute
        assert total == len(brute)
        assert sum(counts) == 2 * total
        a = data.draw(st.integers(0, k - 1))
        others = [p for p in paths if p.agent != a]
        assert Occupancy(grid, others).conflicts_with(paths[a]) == \
            brute_against(a, paths)


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


class TestClassifier:
    def make(self, grid, targets):
        return Classifier(grid, targets, symmetry=True, prioritize=True)

    def test_target_conflict(self):
        grid = open_grid(1, 6)
        parked = Path(0, ((0, 1), (0, 2)))
        passer = Path(1, ((0, 5), (0, 4), (0, 3), (0, 2), (0, 1)))
        conflicts, _, _ = detect_conflicts(grid, [parked, passer])
        c = self.make(grid, {0: (0, 2), 1: (0, 1)}).classify(
            conflicts[0], [parked, passer], [(), ()], ())
        assert c.cls is ConflictClass.TARGET
        assert c.target_agent == 0

    def test_cardinal_conflict(self):
        grid = grid_from_rows(["@.@", "...", "@.@"])
        p0 = Path(0, ((1, 0), (1, 1), (1, 2)))
        p1 = Path(1, ((0, 1), (1, 1), (2, 1)))
        conflicts, _, _ = detect_conflicts(grid, [p0, p1])
        c = self.make(grid, {0: (1, 2), 1: (2, 1)}).classify(
            conflicts[0], [p0, p1], [(), ()], ())
        assert c.cls is ConflictClass.CARDINAL

    def test_semi_cardinal_conflict(self):
        grid = open_grid(2, 3)
        p0 = Path(0, ((0, 2), (0, 1), (0, 0)))  # forced through (0,1) at t=1
        p1 = Path(1, ((0, 0), (0, 1), (1, 1), (1, 2)))  # can reroute via row 1
        conflicts, _, _ = detect_conflicts(grid, [p0, p1])
        c = self.make(grid, {0: (0, 0), 1: (1, 2)}).classify(
            conflicts[0], [p0, p1], [(), ()], ())
        assert c.cls is ConflictClass.SEMI_CARDINAL

    def test_non_cardinal_conflict(self):
        grid = open_grid(2, 3)
        p0 = Path(0, ((0, 0), (1, 0), (1, 1), (1, 2)))
        p1 = Path(1, ((0, 2), (0, 1), (1, 1), (1, 0)))
        conflicts, _, _ = detect_conflicts(grid, [p0, p1])
        target = next(c for c in conflicts if c.v == (1, 1))
        c = self.make(grid, {0: (1, 2), 1: (1, 0)}).classify(
            target, [p0, p1], [(), ()], ())
        assert c.cls is ConflictClass.NON_CARDINAL

    def test_toggles_disable_classification(self):
        grid = open_grid(1, 6)
        parked = Path(0, ((0, 1), (0, 2)))
        passer = Path(1, ((0, 5), (0, 4), (0, 3), (0, 2), (0, 1)))
        conflicts, _, _ = detect_conflicts(grid, [parked, passer])
        plain = Classifier(grid, {0: (0, 2), 1: (0, 1)}, symmetry=False,
                           prioritize=False)
        c = plain.classify(conflicts[0], [parked, passer], [(), ()], ())
        assert c.cls is ConflictClass.UNCLASSIFIED

    def test_forced_sees_other_agents_target_blocks(self):
        # agent 0 must reach (1,1) by t = 2 without (0,1) at t = 1; the
        # only other way runs through (1,0), agent 2's target, which
        # length_leq(2, 0) blocks for good
        grid = open_grid(2, 3)
        p0 = Path(0, ((0, 0), (0, 1), (1, 1)))
        p1 = Path(1, ((0, 2), (0, 1), (0, 0)))
        targets = {0: (1, 1), 1: (0, 0), 2: (1, 0)}
        blocks = (length_leq(2, 0),)
        constraints = [(), (), blocks]
        c = Conflict(0, 1, (0, 1), 1)
        replan = ConstraintTable(0, [split_constraint_for(0, c),
                                     length_leq(0, 2), *blocks],
                                 targets=targets)
        assert earliest_arrival(grid, replan, (0, 0), (1, 1),
                                Distances(grid)) is None
        classifier = Classifier(grid, targets)
        assert classifier._forced(0, c, [p0, p1, Path(2, ((1, 0),))],
                                  constraints, blocks)


def classifier_digest(solves: int = 10, seed: int = 5) -> str:
    """A hash of every `Classifier.classify` result (the conflict and its
    class) over seeded small solves with symmetry and prioritize on. Every
    solve must finish, so the set of classified conflicts does not depend
    on the clock."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(solves):
        inst = random_instance(rng, 6, 7, rng.randint(3, 5), density=0.25)
        solver = Solver(inst, SolverConfig(
            w=rng.choice([1.0, 1.05, 1.2]), flex_mode=FlexMode.MFD,
            low_level=rng.choice(["focal", "fastar"]), time_limit=60.0))
        classify = solver.classifier.classify

        def recording(*args, classify=classify):
            c = classify(*args)
            digest.update(repr((c.a_i, c.a_j, c.v, c.t, c.u,
                                c.cls.name)).encode())
            return c

        solver.classifier.classify = recording
        assert solver.solve().outcome == "solved"
    return digest.hexdigest()[:16]


class TestClassifierDigest:
    def test_classes_match_the_reference_probe(self):
        """The classes the probes give under the agent's own constraints
        plus the node's binding blocks, the table its replan reads; about
        2000 classifications, all four classes among them."""
        assert classifier_digest() == "4021a024e2e9d845"


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

    def test_parent_paths_violate_their_constraint(self):
        grid = open_grid(1, 3)
        p0 = Path(0, ((0, 0), (0, 1)))
        p1 = Path(1, ((0, 2), (0, 1)))
        conflicts, _, _ = detect_conflicts(grid, [p0, p1])
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


@st.composite
def probe_cases(draw):
    """A cardinality probe of agent 0 on a small random map: its start, goal
    and cost, a conflict on its side, 0-3 own vertex/edge/LENGTH_GT
    constraints and LENGTH_LEQ blocks of 0-2 of agents 1 and 2, whose
    targets differ from agent 0's goal."""
    grid = draw(small_grids(4, 4))
    cells = grid.passable_cells()
    assume(len(cells) >= 3)
    goal, target1, target2 = draw(st.permutations(cells))[:3]
    targets = {0: goal, 1: target1, 2: target2}
    start = draw(st.sampled_from(cells))
    cell, time = st.sampled_from(cells), st.integers(0, 5)
    own = []
    for kind in draw(st.lists(st.sampled_from("veg"), max_size=3)):
        if kind == "v":
            own.append(vertex_constraint(0, draw(cell), draw(time)))
        elif kind == "e":
            u = draw(cell)
            if grid.neighbors(u):
                v = draw(st.sampled_from(grid.neighbors(u)))
                own.append(edge_constraint(0, u, v, draw(time)))
        else:
            own.append(length_gt(0, draw(time)))
    blocks = tuple(length_leq(j, draw(time)) for j in draw(
        st.lists(st.sampled_from([1, 2]), max_size=2, unique=True)))
    v = draw(cell)
    u = (draw(st.sampled_from(grid.neighbors(v)))
         if grid.neighbors(v) and draw(st.booleans()) else None)
    conflict = Conflict(0, 1, v, draw(st.integers(1, 5)), u=u)
    cost = draw(st.integers(0, 6))
    return grid, targets, start, tuple(own), blocks, conflict, cost


class TestForcedMatchesOracle:
    """The cardinality probe against the independent oracle, under the
    constraints the agent's replan reads: its own plus the node's blocks."""

    @settings(max_examples=300, deadline=None)
    @given(case=probe_cases())
    def test_forced_iff_no_arrival_by_the_cost(self, case):
        grid, targets, start, own, blocks, c, cost = case
        # the probe reads only the path's start and cost
        paths = [Path(0, (start,) * (cost + 1))]
        constraints = [own, (), ()]
        split = split_constraint_for(0, c)
        want = brute_constrained_opt(
            grid, [*own, *blocks, split, length_leq(0, cost)], 0, start,
            targets[0], targets, cost) is None
        classifier = Classifier(grid, targets)
        forced = classifier._forced(0, c, paths, constraints, blocks)
        assert forced == want
        # blocks only take paths away: forced without them stays forced
        if classifier._forced(0, c, paths, constraints, ()):
            assert forced


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
            table = ConstraintTable(0, [*cs, length_leq(0, cap)])
            got = earliest_arrival(grid, table, start, goal, Distances(grid))
            want = brute_constrained_opt(grid, cs, 0, start, goal, {}, cap)
            assert got == want
