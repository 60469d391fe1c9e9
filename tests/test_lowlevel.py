import hashlib
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexcbs import lowlevel
from flexcbs.constraints import (BY_PAIR, ConstraintKind, Path,
                                 edge_constraint, length_gt, length_leq,
                                 vertex_constraint)
from flexcbs.highlevel import Solver, SolverConfig
from flexcbs.lowlevel import (INF, ConstraintTable, Distances, DistanceTable,
                              LowLevelRequest, Occupancy, compute_h,
                              earliest_arrival, fastar_search, focal_search)
from flexcbs.map_io import GridMap
from helpers import (brute_constrained_opt, brute_distances,
                     grid_from_rows, occupancy_state, open_grid, random_grid,
                     random_instance, random_walk_path, small_grids)


def make_request(grid, start, goal, constraints=(), others=(), w=1.0,
                 delta=0.0, lb_parent=0.0, agent=0, targets=None, tables=None):
    ctable = ConstraintTable(grid, agent, list(constraints), targets or {})
    return LowLevelRequest(
        start=start, goal=goal, ctable=ctable,
        occupancy=Occupancy(grid, others),
        tables=tables if tables is not None else Distances(grid),
        w=w, delta=delta, lb_parent=lb_parent)


class TestComputeH:
    def test_line_distances(self):
        grid = open_grid(1, 4)
        h = compute_h(grid, (0, 3))
        assert [h[grid.id_of((0, c))] for c in range(4)] == [3, 2, 1, 0]

    def test_unreachable_cell_absent(self):
        grid = grid_from_rows([".@."])
        h = compute_h(grid, (0, 2))
        assert h[grid.id_of((0, 0))] == INF

    def test_blocked_target_rejected(self):
        with pytest.raises(ValueError):
            compute_h(grid_from_rows([".@"]), (0, 1))

    @settings(max_examples=200, deadline=None)
    @given(grid=small_grids(), data=st.data())
    def test_matches_brute_bfs(self, grid, data):
        cells = grid.passable_cells()
        assume(cells)
        target = data.draw(st.sampled_from(cells))
        h = compute_h(grid, target)
        brute = brute_distances(grid, target)
        assert len(h.dist) == len(grid.moves) == grid.num_passable()
        for i, cell in enumerate(grid.cell_of):
            assert h[i] == brute.get(cell, INF)

    @settings(max_examples=200, deadline=None)
    @given(grid=small_grids(), data=st.data(),
           radius=st.one_of(st.integers(0, 12), st.just(INF)))
    def test_lazy_reads_match_brute_bfs(self, grid, data, radius):
        """Settled eagerly to any radius, then read in any order, every entry
        is exact, unreachable cells read INF, and no entry is wrong before it
        is read."""
        cells = grid.passable_cells()
        assume(cells)
        target = data.draw(st.sampled_from(cells))
        brute = brute_distances(grid, target)
        h = compute_h(grid, target)
        h.settle_within(radius)
        for i, cell in enumerate(grid.cell_of):
            want = brute.get(cell, INF)
            if want <= radius:
                assert h.dist[i] == want
            assert h.dist[i] in (None, want)
        order = data.draw(st.permutations(range(len(grid.cell_of))))
        for i in order:
            assert h.settle(i) == brute.get(grid.cell_of[i], INF)
        assert h.dist == [brute.get(c, INF) for c in grid.cell_of]

    @settings(max_examples=200, deadline=None)
    @given(grid=small_grids(), data=st.data())
    def test_focused_reads_match_brute_bfs(self, grid, data):
        """A table focused on any cell, with any cells banned, then read in
        any order: every entry is exact, unreachable and banned cells read
        INF, and no entry is wrong before it is read."""
        cells = grid.passable_cells()
        assume(cells)
        target = data.draw(st.sampled_from(cells))
        focus = data.draw(st.sampled_from(cells))
        banned = data.draw(st.frozensets(st.sampled_from(cells),
                                         max_size=3)) - {target}
        brute = brute_distances(grid, target, banned)
        h = DistanceTable(grid, target, frozenset(map(grid.id_of, banned)),
                          focus=focus)
        want = [INF if c in banned else brute.get(c, INF)
                for c in grid.cell_of]
        order = data.draw(st.permutations(range(len(grid.cell_of))))
        for i in order:
            assert h.settle(i) == want[i]
            assert all(x in (None, y) for x, y in zip(h.dist, want))
        assert h.dist == want

    @settings(max_examples=200, deadline=None)
    @given(grid=small_grids(), data=st.data(),
           w=st.sampled_from([1.0, 1.05, 1.5, 2.0]))
    def test_start_settles_the_root_search_reach(self, grid, data, w):
        """A start focuses the table on it and settles every cell with
        h + md(cell, start) <= floor(w * h0 + EPS) + 2, all of them exact."""
        cells = grid.passable_cells()
        assume(cells)
        target = data.draw(st.sampled_from(cells))
        start = data.draw(st.sampled_from(cells))
        brute = brute_distances(grid, target)
        h = compute_h(grid, target, start, w)
        h0 = brute.get(start, INF)
        reach = math.floor(w * h0 + lowlevel.EPS) + 2 if h0 < INF else INF
        for i, (r, c) in enumerate(grid.cell_of):
            want = brute.get((r, c), INF)
            if want + abs(r - start[0]) + abs(c - start[1]) <= reach:
                assert h.dist[i] == want
            assert h.dist[i] in (None, want)

    @pytest.mark.parametrize("w", [1.14, 1.16])
    def test_reach_counts_the_kernels_eps(self, w):
        """w * 100 is 113.99999999999999 or 115.99999999999999 in floats,
        while FOCAL admits f <= bound + EPS: with h0 = 100 on a corridor the
        root search may expand (0, 100 + k) at t = k for k = 7 or 8 and read
        the next cell out, whose h + md is w * 100 rounded up, plus 2. A reach
        of floor(w * h0) + 2 leaves it unsettled. (At w = 1.15, w * 100 =
        114.99999999999999 needs no EPS here: every f of a table focused at
        h0 = 100 is even.)"""
        grid = open_grid(1, 130)
        h = compute_h(grid, (0, 0), (0, 100), w)
        bound = round(w * 100)
        k = (bound - 100) // 2
        assert k + (100 + k) <= w * 100 + lowlevel.EPS  # admitted by FOCAL
        assert math.floor(w * 100) == bound - 1
        assert h.dist[grid.id_of((0, 101 + k))] == 101 + k

    def test_banned_cells_are_walls(self):
        grid = open_grid(2, 5)
        h = compute_h(grid, (0, 4), banned=frozenset({grid.id_of((0, 2))}))
        assert h[grid.id_of((0, 2))] == INF
        assert h[grid.id_of((0, 0))] == 6


def brute_step_conflicts(others, u, v, t):
    """Conflicts of the move u -> v arriving at t with paths that end at
    distinct cells, from their cells alone: a path at v at t, parked there
    included, or one swapping v -> u."""
    return sum(p.at(t) == v or (u != v and p.at(t - 1) == v and p.at(t) == u)
               for p in others)


class TestOccupancy:
    def test_incremental_build_matches_batch(self):
        rng = random.Random(4)
        grid = open_grid(4, 5)
        cells = grid.passable_cells()
        paths = [random_walk_path(rng, grid, rng.choice(cells),
                                  rng.randint(0, 8), agent=a)
                 for a in range(6)]
        # parks where agent 0 parks, but later: the earlier time must stay
        paths.append(Path(6, paths[0].cells + paths[0].cells[-1:] * 3))
        occ = Occupancy(grid)
        for p in paths:
            occ.add(p)
        batch = Occupancy(grid, paths)
        assert occ.vertex == batch.vertex
        assert occ.edge == batch.edge
        assert occ.parked == batch.parked
        cell = paths[0].cells[-1]
        assert occ.parked[grid.id_of(cell)] == min(p.cost for p in paths
                                                   if p.cells[-1] == cell)

    def test_removing_every_path_empties_the_index(self):
        rng = random.Random(5)
        grid = open_grid(4, 4)
        cells = grid.passable_cells()
        paths = [random_walk_path(rng, grid, rng.choice(cells),
                                  rng.randint(0, 8), agent=a)
                 for a in range(6)]
        occ = Occupancy(grid, paths)
        assert occ.vertex and occ.parked
        for p in reversed(paths[::2]):
            occ.remove(p)
        for p in paths[1::2]:
            occ.remove(p)
        assert occ.vertex == {} and occ.edge == {} and occ.parked == {}
        assert occ.ends == {} and occ.held == {}

    def test_interleaved_add_and_remove_match_batch(self):
        rng = random.Random(6)
        grid = open_grid(3, 4)
        cells = grid.passable_cells()
        current = {}
        occ = Occupancy(grid)
        shared_ends = lowered = 0
        for _ in range(200):
            a = rng.randrange(6)
            if a in current:
                occ.remove(current.pop(a))
            if rng.random() < 0.3:
                continue
            if current and rng.random() < 0.4:
                # end where another indexed path ends, later or earlier
                other = rng.choice(list(current.values())).cells
                p = Path(a, rng.choice([other + other[-1:] * rng.randint(0, 3),
                                        other[-1:] * rng.randint(1, 3)]))
            else:
                p = random_walk_path(rng, grid, rng.choice(cells),
                                     rng.randint(0, 6), agent=a)
            occ.add(p)
            current[a] = p
            ends = [q.cells[-1] for q in current.values()]
            shared_ends += len(ends) > len(set(ends))
            self.check_against_batch(grid, occ, current)
            if rng.random() < 0.2:
                # the longest path goes: the horizon of conflicts_with drops
                # to the next longest
                longest = max(current.values(), key=lambda q: q.cost)
                occ.remove(current.pop(longest.agent))
                lowered += max(occ.costs, default=-1) < longest.cost
                self.check_against_batch(grid, occ, current, longest)
        assert shared_ends > 20
        assert lowered > 10

    @staticmethod
    def check_against_batch(grid, occ, current, *outside):
        """occ holds what a batch-built index of current would, and lists
        the same conflicts for every indexed path and for `outside` ones."""
        batch = Occupancy(grid, current.values())
        assert occupancy_state(occ) == occupancy_state(batch)
        assert occ.held == current
        for q in (*current.values(), *outside):
            got = occ.conflicts_with(q)
            assert Counter(got) == Counter(batch.conflicts_with(q))
            assert got == sorted(got, key=BY_PAIR)

    # The searches count a path's conflicts with the indexed paths step by
    # step; LowLevelResult.conflicts is the count of the returned path.

    def test_vertex_conflict_counted(self):
        grid = open_grid(2, 3)
        other = Path(1, ((1, 1), (0, 1), (1, 1)))
        # at w = 1 the only path of cost 2 meets the other agent at (0, 1)
        res = focal_search(make_request(grid, (0, 0), (0, 2), others=[other]))
        assert res.path.cells == ((0, 0), (0, 1), (0, 2))
        assert res.conflicts == 1
        # with room for one wait it passes (0, 1) at t = 2, after the other
        res = focal_search(make_request(grid, (0, 0), (0, 2), others=[other],
                                        w=1.5))
        assert res.cost == 3
        assert res.conflicts == 0

    def test_edge_swap_counted(self):
        grid = open_grid(1, 2)
        other = Path(1, ((0, 1), (0, 0)))
        # moving (0,0) -> (0,1) at t=1 crosses the other agent head-on
        res = focal_search(make_request(grid, (0, 0), (0, 1), others=[other]))
        assert res.conflicts == 1
        # arriving where the other agent arrives adds a vertex conflict too
        other2 = Path(2, ((0, 0), (0, 1)))
        res = focal_search(make_request(grid, (0, 0), (0, 1),
                                        others=[other, other2]))
        assert res.cost == 1
        assert res.conflicts == 2

    def test_parked_agent_occupies_forever(self):
        grid = open_grid(1, 3)
        other = Path(1, ((0, 0), (0, 1)))
        # barred from (0, 1) until t = 6, the agent passes it long after the
        # other agent parked there at t = 1
        cs = [vertex_constraint(0, (0, 1), t) for t in range(1, 6)]
        res = focal_search(make_request(grid, (0, 2), (0, 0), cs,
                                        others=[other]))
        assert res.path.at(6) == (0, 1)
        assert res.conflicts == 1

    @settings(max_examples=300, deadline=None)
    @given(grid=small_grids(), data=st.data(),
           w=st.sampled_from([1.0, 1.5, 3.0]))
    def test_step_conflicts_match_brute_count(self, grid, data, w):
        """Both searches report the conflicts of their path's steps with
        the other paths, counted from cells alone."""
        cells = grid.passable_cells()
        assume(cells)
        others = {}  # end cell -> path: agents' targets are distinct
        for p in data.draw(st.lists(walks(grid, cells), max_size=4)):
            others.setdefault(p.cells[-1], p)
        others = list(others.values())
        start, goal = data.draw(st.sampled_from(cells)), \
            data.draw(st.sampled_from(cells))
        for search in (focal_search, fastar_search):
            res = search(make_request(grid, start, goal, others=others, w=w))
            if res is None:
                continue
            path = res.path
            assert res.conflicts == sum(
                brute_step_conflicts(others, path.at(t - 1), path.at(t), t)
                for t in range(1, res.cost + 1))


class TestFocalSearch:
    def test_unconstrained_line(self):
        grid = open_grid(1, 4)
        res = focal_search(make_request(grid, (0, 0), (0, 3), w=1.2))
        assert res.cost == 3
        assert res.lb == 3
        assert res.path.cells == ((0, 0), (0, 1), (0, 2), (0, 3))

    def test_forced_wait_raises_cost_and_lb(self):
        grid = open_grid(1, 4)
        cs = [vertex_constraint(0, (0, 1), 1)]
        res = focal_search(make_request(grid, (0, 0), (0, 3), cs, w=1.2))
        assert res.cost == 4
        assert res.lb == 4

    def test_conflict_avoiding_detour_within_threshold(self):
        grid = open_grid(3, 3)
        other = Path(1, ((0, 1), (1, 1), (2, 1)))  # crosses (1,1) at t=1
        res = focal_search(make_request(grid, (0, 0), (2, 2), others=[other],
                                        w=1.5))
        # a zero-conflict path exists within tau = 6 and must be preferred
        # over the cost-4 paths through the other agent's parking cell
        assert res.cost <= res.tau
        conflicts = 0
        for t in range(1, res.cost + 1):
            if res.path.at(t) == other.at(t):
                conflicts += 1
        assert conflicts == 0

    def test_w1_returns_optimal(self):
        rng = random.Random(5)
        for _ in range(60):
            grid = random_grid(rng, 4, 4, 0.25)
            cells = grid.passable_cells()
            if len(cells) < 2:
                continue
            start, goal = rng.sample(cells, 2)
            req = make_request(grid, start, goal, w=1.0)
            res = focal_search(req)
            brute = brute_constrained_opt(grid, [], 0, start, goal, {},
                                          req.effective_horizon())
            assert (res.cost if res else None) == brute

    def test_infeasible_constraint_table(self):
        grid = open_grid(1, 4)
        cs = [length_gt(0, 5), length_leq(0, 4)]
        assert focal_search(make_request(grid, (0, 0), (0, 3), cs)) is None

    def test_unreachable_goal(self):
        grid = grid_from_rows([".@."])
        req = LowLevelRequest(start=(0, 0), goal=(0, 2),
                              ctable=ConstraintTable(grid, 0, [], {}),
                              occupancy=Occupancy(grid),
                              tables=Distances(grid))
        assert focal_search(req) is None

    def test_goal_blocked_forever_infeasible(self):
        grid = open_grid(1, 4)
        cs = [length_leq(1, 2)]
        res = focal_search(make_request(grid, (0, 0), (0, 3), cs,
                                        targets={1: (0, 3)}))
        assert res is None

    def test_length_gt_delays_goal(self):
        grid = open_grid(1, 4)
        res = focal_search(make_request(grid, (0, 0), (0, 3),
                                        [length_gt(0, 5)]))
        assert res.cost == 6

    def test_cost_within_reported_tau(self):
        rng = random.Random(6)
        for _ in range(40):
            grid = random_grid(rng, 4, 4, 0.2)
            cells = grid.passable_cells()
            if len(cells) < 3:
                continue
            start, goal = rng.sample(cells, 2)
            others = [random_walk_path(rng, grid, rng.choice(cells), 6)]
            w = rng.choice([1.0, 1.3, 2.0])
            delta = rng.choice([0.0, 1.0, 3.0])
            res = focal_search(make_request(grid, start, goal, others=others,
                                            w=w, delta=delta))
            if res is not None:
                assert res.cost <= res.tau + 1e-9
                assert res.lb <= res.cost


class TestFastarSearch:
    def test_unconstrained_matches_focal(self):
        grid = open_grid(1, 4)
        res = fastar_search(make_request(grid, (0, 0), (0, 3), w=1.2))
        assert res.cost == 3
        assert res.lb == 3

    def test_lb_equals_optimal_constrained_cost(self):
        rng = random.Random(7)
        checked = 0
        while checked < 120:
            grid = random_grid(rng, 4, 4, 0.2)
            cells = grid.passable_cells()
            if len(cells) < 4:
                continue
            start, goal = rng.sample(cells, 2)
            cs = _random_constraints(rng, grid, goal)
            others = [random_walk_path(rng, grid, rng.choice(cells), 5)
                      for _ in range(rng.randint(0, 2))]
            targets = {1: rng.choice(cells)}
            req = make_request(grid, start, goal, cs, others=others,
                               w=rng.choice([1.0, 1.2, 2.0]),
                               delta=rng.choice([0.0, 2.0]), targets=targets)
            fres = fastar_search(req)
            brute = brute_constrained_opt(grid, cs, 0, start, goal, targets,
                                          req.effective_horizon())
            if fres is None:
                assert brute is None
            else:
                assert fres.lb == brute
            checked += 1

    def test_lb_dominates_focal(self):
        rng = random.Random(8)
        for _ in range(80):
            grid = random_grid(rng, 4, 4, 0.2)
            cells = grid.passable_cells()
            if len(cells) < 4:
                continue
            start, goal = rng.sample(cells, 2)
            cs = _random_constraints(rng, grid, goal)
            others = [random_walk_path(rng, grid, rng.choice(cells), 5)]
            kwargs = dict(others=others, w=1.6, delta=1.0,
                          targets={1: rng.choice(cells)})
            fres = fastar_search(make_request(grid, start, goal, cs, **kwargs))
            sres = focal_search(make_request(grid, start, goal, cs, **kwargs))
            assert (fres is None) == (sres is None)
            if fres is not None:
                assert fres.lb >= sres.lb - 1e-9
                assert fres.cost == sres.cost  # identical phase-one selection

    def test_lb_parent_floor(self):
        grid = open_grid(1, 4)
        res = fastar_search(make_request(grid, (0, 0), (0, 3), lb_parent=5.0,
                                         w=1.0))
        assert res.lb == 5.0


def _random_constraints(rng, grid, goal):
    cells = grid.passable_cells()
    cs = []
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        v = rng.choice(cells)
        if roll < 0.45:
            cs.append(vertex_constraint(0, v, rng.randint(0, 7)))
        elif roll < 0.65:
            nbs = grid.neighbors(v)
            if nbs:
                cs.append(edge_constraint(0, rng.choice(nbs), v,
                                          rng.randint(1, 7)))
        elif roll < 0.8:  # v blocked over a prefix of timesteps
            if v != goal or rng.random() < 0.25:
                cs.extend(vertex_constraint(0, v, t)
                          for t in range(rng.randint(0, 4) + 1))
        elif roll < 0.9:
            cs.append(length_gt(0, rng.randint(0, 5)))
        else:
            cs.append(length_leq(0, rng.randint(3, 12)))
    if rng.random() < 0.25:
        cs.append(length_leq(1, rng.randint(2, 8)))
    if rng.random() < 0.2:
        cs.append(vertex_constraint(3, rng.choice(cells), rng.randint(0, 5)))
    return cs


def kernel_digest(requests: int = 200, seed: int = 12) -> str:
    """A hash of (path cells, cost, lb, tau, expansions) of both searches
    over seeded constrained requests with other agents' paths, flex and a
    parent lower bound drawn; None results count too."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    done = 0
    while done < requests:
        grid = random_grid(rng, rng.randint(2, 9), rng.randint(2, 9), 0.2)
        cells = grid.passable_cells()
        if len(cells) < 4:
            continue
        start, goal = rng.sample(cells, 2)
        cs = _random_constraints(rng, grid, goal)
        near = brute_distances(grid, start)
        if near.get(goal, 0) >= 2 and rng.random() < 0.5:
            # bar every cell d steps out at t = d: f_min must rise, so the
            # focal bound moves and OPEN states migrate into FOCAL
            d = rng.randint(1, near[goal] - 1)
            cs += [vertex_constraint(0, v, d) for v in sorted(near)
                   if near[v] == d]
        others = [random_walk_path(rng, grid, rng.choice(cells),
                                   rng.randint(0, 14), agent=a)
                  for a in range(1, rng.randint(1, 6))]
        kwargs = dict(others=others, targets={1: rng.choice(cells)},
                      w=rng.choice([1.0, 1.0, 1.05, 1.2, 2.0]),
                      delta=rng.choice([-1.0, 0.0, 0.0, 0.5, 3.0]),
                      lb_parent=rng.choice([0.0, float(rng.randint(0, 12))]))
        for search in (focal_search, fastar_search):
            res = search(make_request(grid, start, goal, cs, **kwargs))
            digest.update(repr(None if res is None else (
                res.path.cells, res.cost, res.lb, res.tau,
                res.expansions)).encode())
        done += 1
    return digest.hexdigest()[:16]


class TestKernelDigest:
    def test_searches_match_the_reference_kernel(self):
        """Both searches return exactly the paths, bounds and expansion
        counts they did before one state dict replaced the kernel's closed
        and in-FOCAL sets: the expected digest was taken from that kernel,
        so a pure speed-up of the search must keep it."""
        assert kernel_digest() == "34852928bc77c166"


def probe(grid, constraints, start, goal, horizon, targets=None,
          tables=None):
    """earliest_arrival with the window capped by length_leq(0, horizon)."""
    table = ConstraintTable(grid, 0, [*constraints, length_leq(0, horizon)],
                            targets or {})
    return earliest_arrival(table, start, goal,
                            tables if tables is not None else Distances(grid))


class TestEarliestArrival:
    def test_straight_line(self):
        assert probe(open_grid(1, 5), [], (0, 0), (0, 4), 20) == 4

    def test_constraints_delay_arrival(self):
        cs = [vertex_constraint(0, (0, 1), t) for t in range(4)]
        assert probe(open_grid(1, 5), cs, (0, 0), (0, 4), 20) == 7

    def test_start_equals_dest(self):
        assert probe(open_grid(1, 5), [], (0, 1), (0, 1), 5) == 0

    def test_horizon_exhausted(self):
        assert probe(open_grid(1, 5), [], (0, 0), (0, 4), 3) is None

    @pytest.mark.parametrize("constraints,settled", [
        ([length_gt(0, 5), length_leq(0, 4)], 0),  # contradictory lengths
        ([vertex_constraint(0, (0, 4), 20)], 0),   # parks no earlier than 21
        ([length_leq(1, 0)], 0),                   # goal blocked for good
        ([length_leq(0, 3)], 4),                   # ends before h(start) = 4
    ])
    def test_hopeless_window_generates_no_state(self, constraints, settled):
        """A window hold_time(goal) .. latest_goal that is empty, or that
        ends before h(start), is answered before the search: the goal's
        table is settled no further than h(start)."""
        grid = open_grid(1, 12)
        h = compute_h(grid, (0, 4))
        assert probe(grid, constraints, (0, 0), (0, 4), 20, {1: (0, 4)},
                     Distances(grid, {(0, 4): h})) is None
        assert max(d for d in h.dist if d is not None) == settled


class TestFailFast:
    # Each infeasible search below must answer within this many seconds
    # (with the distance prune they take under 1 ms); sweeping the whole
    # time-expanded 32x32 graph instead takes 25-35 s.
    SLACK_S = 1.0

    def timed(self, search, req):
        t0 = time.perf_counter()
        res = search(req)
        return res, time.perf_counter() - t0

    @pytest.mark.parametrize("search", [focal_search, fastar_search])
    def test_length_leq_below_distance(self, search):
        req = make_request(open_grid(32, 32), (0, 0), (31, 31),
                           [length_leq(0, 10)])
        res, elapsed = self.timed(search, req)
        assert res is None
        assert elapsed < self.SLACK_S

    @pytest.mark.parametrize("search", [focal_search, fastar_search])
    def test_goal_blocked_forever_by_other_agent(self, search):
        req = make_request(open_grid(32, 32), (0, 0), (31, 31),
                           [length_leq(1, 5)], targets={1: (31, 31)})
        res, elapsed = self.timed(search, req)
        assert res is None
        assert elapsed < self.SLACK_S

    @pytest.mark.parametrize("search", [focal_search, fastar_search])
    def test_goal_in_another_component(self, search):
        # a wall column splits a 32x65 grid into two 32x32 halves; the
        # unchecked sweep covers one half up to the horizon of ~2k steps
        passable = tuple(c != 32 for r in range(32) for c in range(65))
        req = make_request(GridMap(32, 65, passable), (0, 0), (31, 64))
        res, elapsed = self.timed(search, req)
        assert res is None
        assert elapsed < self.SLACK_S

    @pytest.mark.parametrize("search", [focal_search, fastar_search])
    def test_goal_walled_in_by_other_targets(self, search):
        # agents 1 and 2 finish on the two cells next to the corner goal by
        # t = 5 and 6: the goal stays reachable, but only within 6 steps,
        # and it lies 62 steps away
        req = make_request(open_grid(32, 32), (0, 0), (31, 31),
                           [length_leq(1, 5), length_leq(2, 6)],
                           targets={1: (30, 31), 2: (31, 30)})
        res, elapsed = self.timed(search, req)
        assert res is None
        assert elapsed < self.SLACK_S

    @pytest.mark.parametrize("search", [focal_search, fastar_search])
    def test_feasible_length_leq_keeps_optimum(self, search):
        # the wait the vertex constraint forces is avoided by going down
        # first, so the optimum stays the distance of 62
        cs = [length_leq(0, 70), vertex_constraint(0, (0, 1), 1)]
        req = make_request(open_grid(32, 32), (0, 0), (31, 31), cs)
        res, elapsed = self.timed(search, req)
        assert res.cost == 62
        assert res.lb == 62
        assert elapsed < self.SLACK_S


@st.composite
def constrained_problems(draw):
    """A small grid, start and goal, and constraints on agent 0 and on
    others (agent 1's LENGTH_LEQ blocks its target for agent 0)."""
    height, width = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    passable = draw(st.lists(st.integers(0, 3).map(bool),
                             min_size=height * width, max_size=height * width))
    grid = GridMap(height, width, tuple(passable))
    cells = grid.passable_cells()
    assume(len(cells) >= 2)
    cell = st.sampled_from(cells)
    start, goal = draw(cell), draw(cell)
    step = st.integers(0, 8)
    edge = cell.flatmap(lambda v: st.builds(
        edge_constraint, st.just(0), st.sampled_from([v, *grid.neighbors(v)]),
        st.just(v), st.integers(1, 8)))
    constraint = st.one_of(
        st.builds(vertex_constraint, st.sampled_from([0, 2]), cell, step),
        edge,
        st.builds(length_gt, st.just(0), st.integers(0, 6)),
        st.builds(length_leq, st.just(0), st.integers(0, 12)),
        st.builds(length_leq, st.just(1), st.integers(0, 8)))
    cs = draw(st.lists(constraint, max_size=5))
    targets = {1: draw(cell)}
    return grid, cells, start, goal, cs, targets


@st.composite
def walks(draw, grid, cells):
    cur = [draw(st.sampled_from(cells))]
    for i in draw(st.lists(st.integers(0, 4), max_size=6)):
        moves = [cur[-1], *grid.neighbors(cur[-1])]
        cur.append(moves[i % len(moves)])
    return Path(9, tuple(cur))


def check_searches_against_brute(grid, start, goal, cs, others, targets,
                                 w=1.0, delta=0.0):
    """Both searches fail exactly when brute force finds no path; otherwise
    FA*'s lb is the constrained optimum, focal's lb <= it <= focal's cost,
    and neither lb lies below the goal's holding time."""
    req = make_request(grid, start, goal, cs, others=others, w=w,
                       delta=delta, targets=targets)
    brute = brute_constrained_opt(grid, cs, 0, start, goal, targets,
                                  req.effective_horizon())
    fres = fastar_search(req)
    sres = focal_search(req)
    assert (fres is None) == (brute is None)
    assert (sres is None) == (brute is None)
    if brute is not None:
        hold = req.ctable.hold_time(grid.id_of(goal))
        assert fres.lb == brute
        assert sres.lb <= brute <= sres.cost
        assert fres.lb >= hold and sres.lb >= hold


class TestPrunedSweepsMatchBrute:
    """The distance prunes are exact: results equal brute-force reachability."""

    @settings(max_examples=150, deadline=None)
    @given(problem=constrained_problems(), horizon=st.integers(0, 14))
    def test_earliest_arrival(self, problem, horizon):
        grid, cells, start, goal, cs, targets = problem
        got = probe(grid, cs, start, goal, horizon, targets)
        brute = brute_constrained_opt(grid, cs, 0, start, goal, targets,
                                      horizon)
        assert got == brute

    @settings(max_examples=150, deadline=None)
    @given(problem=constrained_problems(), data=st.data(),
           w=st.sampled_from([1.0, 1.2, 2.0]),
           delta=st.sampled_from([0.0, 2.0]))
    def test_search_lb_is_constrained_optimum(self, problem, data, w, delta):
        grid, cells, start, goal, cs, targets = problem
        others = data.draw(st.lists(walks(grid, cells), max_size=2))
        check_searches_against_brute(grid, start, goal, cs, others, targets,
                                     w, delta)

    @settings(max_examples=150, deadline=None)
    @given(problem=constrained_problems(), data=st.data(),
           w=st.sampled_from([1.0, 1.5]))
    def test_search_around_other_targets_is_exact(self, problem, data, w):
        """Other agents' LENGTH_LEQ constraints block their targets forever,
        often walling in cells: the searches still find exactly the
        constrained optimum, or fail when it does not exist."""
        grid, cells, start, goal, cs, targets = problem
        blocks = data.draw(st.lists(st.tuples(st.sampled_from(cells),
                                              st.integers(0, 8)),
                                    min_size=1, max_size=4))
        cs = list(cs)
        for agent, (target, t) in enumerate(blocks, start=3):
            targets[agent] = target
            cs.append(length_leq(agent, t))
        others = data.draw(st.lists(walks(grid, cells), max_size=2))
        check_searches_against_brute(grid, start, goal, cs, others, targets,
                                     w)


class TestLazyTables:
    """A table settled only to h(start), or focused on start over the root
    search's reach, gives the searches exactly the results of a fully
    settled one."""

    @staticmethod
    def tables(grid, start, goal, w):
        lazy, full = compute_h(grid, goal), compute_h(grid, goal)
        lazy.settle(grid.id_of(start))
        full.settle_within(INF)
        return lazy, compute_h(grid, goal, start, w), full

    @settings(max_examples=150, deadline=None)
    @given(problem=constrained_problems(), data=st.data(),
           w=st.sampled_from([1.0, 1.2, 2.0]),
           delta=st.sampled_from([0.0, 2.0]))
    def test_searches(self, problem, data, w, delta):
        grid, cells, start, goal, cs, targets = problem
        others = data.draw(st.lists(walks(grid, cells), max_size=2))
        for search in (focal_search, fastar_search):
            results = []
            for h in self.tables(grid, start, goal, w):
                req = make_request(grid, start, goal, cs, others=others, w=w,
                                   delta=delta, targets=targets,
                                   tables=Distances(grid, {goal: h}))
                results.append(search(req))
            assert results[0] == results[1] == results[2]

    @settings(max_examples=150, deadline=None)
    @given(problem=constrained_problems(), horizon=st.integers(0, 14),
           w=st.sampled_from([1.0, 1.2, 2.0]))
    def test_earliest_arrival(self, problem, horizon, w):
        grid, cells, start, goal, cs, targets = problem
        got = [probe(grid, cs, start, goal, horizon, targets,
                     Distances(grid, {goal: h}))
               for h in self.tables(grid, start, goal, w)]
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("low_level", ["focal", "fastar"])
    @pytest.mark.parametrize("w", [1.0, 1.05, 1.5, 2.0])
    def test_root_build_resumes_no_table(self, monkeypatch, w, low_level):
        """Each agent's table, focused on its start, already holds every
        entry its root search reads: building the root settles no level."""
        steps = []
        real = DistanceTable._step

        def spy(table):
            steps.append(table)
            real(table)

        for seed in range(6):
            rng = random.Random(seed)
            instance = random_instance(rng, 12, 12, 8, density=0.25)
            solver = Solver(instance, SolverConfig(w=w, low_level=low_level,
                                                   time_limit=10.0))
            monkeypatch.setattr(DistanceTable, "_step", spy)
            assert solver.make_root() is not None
            monkeypatch.setattr(DistanceTable, "_step", real)
        assert steps == []

    # each seed's solve builds tables around other agents' targets, so every
    # banned key is a walls table
    @pytest.mark.parametrize("seed", [0, 1, 2, 10])
    def test_solver_tables_stay_exact(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng, 6, 7, 4, density=0.3)
        solver = Solver(instance, SolverConfig(w=1.2, time_limit=10.0))
        solver.solve()
        assert solver.classifier.tables is solver.tables
        grid = instance.map
        banned_keys = 0
        for (target, banned), h in solver.tables.items():
            brute = brute_distances(grid, target,
                                    {grid.cell_of[v] for v in banned})
            for i, cell in enumerate(grid.cell_of):
                assert h.dist[i] in (None, brute.get(cell, INF))
            banned_keys += bool(banned)
        assert banned_keys >= 1

    def test_searches_share_the_table_around_walls(self, monkeypatch):
        """Two searches sharing one cache, with the same cell blocked for
        good by another agent's target, build the goal's table around that
        cell once: one Solver's searches repeat such keys thousands of
        times."""
        built = []
        real = lowlevel.compute_h

        def counting(grid, target, *args, **kwargs):
            built.append((target, kwargs.get("banned", frozenset())))
            return real(grid, target, *args, **kwargs)

        monkeypatch.setattr(lowlevel, "compute_h", counting)
        grid = open_grid(4, 4)
        tables = Distances(grid)
        for start in ((0, 0), (3, 0)):
            req = make_request(grid, start, (3, 3), [length_leq(1, 2)],
                               targets={1: (1, 2)}, tables=tables)
            assert focal_search(req) is not None
        walls = frozenset({grid.id_of((1, 2))})
        assert built == [((3, 3), frozenset()), ((3, 3), walls)]
        assert None not in tables.get((3, 3), walls).dist


class TestHoldingTime:
    """The goal's holding time floors f, so a replan whose goal is barred
    late searches no further than its path."""

    @pytest.mark.parametrize("search", [focal_search, fastar_search])
    @pytest.mark.parametrize("w,delta", [(1.0, 0.0), (1.05, 8.0)])
    def test_late_goal_block_is_the_bound(self, search, w, delta):
        # the goal is 10 steps away but barred at t = 60, so every path
        # parks from t = 61; agent 1 walks row 1 for the conflict counts.
        # Without the floor both searches flood space-time for 12.9k-13.5k
        # expansions, and focal reports lb 52 at delta = 8.
        grid = open_grid(32, 32)
        other = Path(1, tuple((1, c) for c in range(32)))
        req = make_request(grid, (0, 0), (0, 10),
                           [vertex_constraint(0, (0, 10), 60)],
                           others=[other], w=w, delta=delta)
        res = search(req)
        assert res.cost == 61
        assert res.lb == 61
        assert res.expansions <= 200

    @settings(max_examples=150, deadline=None)
    @given(problem=constrained_problems(), data=st.data(),
           w=st.sampled_from([1.0, 1.2, 2.0]),
           delta=st.sampled_from([0.0, 2.0]))
    def test_goal_blocks_against_brute(self, problem, data, w, delta):
        grid, cells, start, goal, cs, targets = problem
        on_goal = st.one_of(
            st.builds(vertex_constraint, st.just(0), st.just(goal),
                      st.integers(0, 12)),
            st.builds(edge_constraint, st.just(0),
                      st.sampled_from([goal, *grid.neighbors(goal)]),
                      st.just(goal), st.integers(1, 12)))
        cs = cs + data.draw(st.lists(on_goal, min_size=1, max_size=2))
        others = data.draw(st.lists(walks(grid, cells), max_size=2))
        check_searches_against_brute(grid, start, goal, cs, others, targets,
                                     w, delta)

    @settings(max_examples=200, deadline=None)
    @given(problem=constrained_problems(), t=st.integers(0, 16))
    def test_arrival_window_matches_three_clause_test(self, problem, t):
        grid, _cells, _start, goal, cs, targets = problem
        table = ConstraintTable(grid, 0, cs, targets)
        # the last timestep the goal is blocked, read off the constraints
        if any(c.kind is ConstraintKind.LENGTH_LEQ and c.agent != 0
               and targets.get(c.agent) == goal for c in cs):
            last_block = INF
        else:
            last_block = max((c.t for c in cs
                              if c.kind is ConstraintKind.VERTEX
                              and c.agent == 0 and c.v == goal), default=-1)
        old = (table.earliest_goal <= t <= table.latest_goal
               and t > last_block)
        hold = table.hold_time(grid.id_of(goal))
        assert (hold <= t <= table.latest_goal) == old
