"""Single-agent space-time search: focal search and the two-phase FA* variant.

Both searches share one search tree. Focal search expands nodes with f <= tau
ordered by conflict count and returns the first goal path; FA* then keeps
expanding by f-order from OPEN to tighten the returned lower bound up to the
optimal constrained path cost.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

from .constraints import BY_PAIR, Conflict, ConstraintTable, Path
from .flex import threshold
from .map_io import Cell, GridMap

INF = math.inf
EPS = 1e-9


def compute_h(grid: GridMap, target: Cell) -> list[float]:
    """Exact static shortest-path distance to target via backward BFS, as a
    list indexed by cell id; INF for blocked cells and cells that cannot
    reach the target."""
    if not grid.is_passable(target):
        raise ValueError(f"target {target} is not passable")
    moves = grid.moves
    dist = [INF] * len(moves)
    src = grid.id_of(target)
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for cur in frontier:
            for nb in moves[cur]:
                if dist[nb] is INF:  # every unreached entry is this object
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return dist


class Occupancy:
    """Paths indexed by (cell, timestep): counts the conflicts of one step for
    the low level and lists the conflicts of a whole path for the high level.

    `add` and `remove` are exact inverses, so one index can follow a set of
    paths that changes a path at a time. Several indexed paths may carry one
    agent id (callers that only count conflicts pass such lists); `held` then
    records the one added last.
    """

    def __init__(self, paths: list[Path]):
        # the agents at a cell at t, and moving u -> v arriving at t
        self.vertex: dict[tuple[Cell, int], list[int]] = {}
        self.edge: dict[tuple[Cell, Cell, int], list[int]] = {}
        self.ends: dict[Cell, list[Path]] = {}  # cell -> indexed paths ending there
        # cell -> earliest timestep parked from, the minimum over ends[cell]
        self.parked: dict[Cell, int] = {}
        self.held: dict[int, Path] = {}  # agent -> its indexed path
        for p in paths:
            self.add(p)

    def add(self, path: Path):
        agent, cells = path.agent, path.cells
        vertex, edge = self.vertex, self.edge
        for t, cell in enumerate(cells):
            vertex.setdefault((cell, t), []).append(agent)
        for t in range(1, len(cells)):
            if cells[t - 1] != cells[t]:
                edge.setdefault((cells[t - 1], cells[t], t), []).append(agent)
        goal, cost = cells[-1], path.cost
        self.ends.setdefault(goal, []).append(path)
        park = self.parked.get(goal)
        self.parked[goal] = min(park, cost) if park is not None else cost
        self.held[agent] = path

    def remove(self, path: Path):
        """Undo `add(path)`; the path must be indexed."""
        agent, cells = path.agent, path.cells
        for t, cell in enumerate(cells):
            _drop(self.vertex, (cell, t), agent)
        for t in range(1, len(cells)):
            if cells[t - 1] != cells[t]:
                _drop(self.edge, (cells[t - 1], cells[t], t), agent)
        goal = cells[-1]
        ends = self.ends[goal]
        ends.remove(path)
        if ends:
            self.parked[goal] = min(p.cost for p in ends)
        else:
            del self.ends[goal], self.parked[goal]
        if self.held.get(agent) is path:
            del self.held[agent]

    def step_conflicts(self, prev: Cell, cur: Cell, t: int) -> int:
        """Conflicts incurred by moving prev -> cur arriving at timestep t."""
        n = len(self.vertex.get((cur, t), ()))
        park = self.parked.get(cur)
        if park is not None and t > park:
            # t == park is already in the vertex table
            n += 1
        if prev != cur:
            n += len(self.edge.get((cur, prev, t), ()))
        return n

    def conflicts_with(self, path: Path) -> list[Conflict]:
        """The conflicts between `path` and every indexed path of another
        agent, sorted by (a_i, a_j, t).

        A pair conflicts at most once per timestep t <= the larger of the two
        costs, a finished agent staying at its last cell: at a shared cell
        (t = 0 included) or, failing that, on a swapped edge. An edge
        conflict names the lower agent's destination as `v` and its origin as
        `u`. Costs one lookup per timestep and hit.
        """
        a, cells = path.agent, path.cells
        vertex, edge, ends = self.vertex, self.edge, self.ends
        out = []
        prev = cells[0]
        for t, cell in enumerate(cells):
            for b in vertex.get((cell, t), ()):
                if b != a:
                    out.append(Conflict(min(a, b), max(a, b), cell, t))
            for other in ends.get(cell, ()):
                b = other.agent
                if other.cost < t and b != a:
                    out.append(Conflict(min(a, b), max(a, b), cell, t))
            if prev != cell:
                for b in edge.get((cell, prev, t), ()):
                    if b > a:
                        out.append(Conflict(a, b, cell, t, u=prev))
                    elif b < a:
                        out.append(Conflict(b, a, prev, t, u=cell))
            prev = cell
        # after its last step the agent stays at its goal, where only paths
        # still moving can meet it
        horizon = max((p.cost for paths in ends.values() for p in paths),
                      default=0)
        for t in range(len(cells), horizon + 1):
            for b in vertex.get((prev, t), ()):
                if b != a:
                    out.append(Conflict(min(a, b), max(a, b), prev, t))
        out.sort(key=BY_PAIR)
        return out


def _drop(index: dict, key, agent: int):
    agents = index[key]
    agents.remove(agent)
    if not agents:
        del index[key]


@dataclass
class LowLevelRequest:
    grid: GridMap
    agent: int
    start: Cell
    goal: Cell
    h: list[float]  # compute_h(grid, goal)
    ctable: ConstraintTable
    occupancy: Occupancy
    w: float = 1.0
    delta: float = 0.0
    lb_parent: float = 0.0

    def effective_horizon(self) -> int:
        return self.ctable.latest_constraint_t + self.grid.num_passable() + 1


@dataclass
class LowLevelResult:
    path: Path
    cost: int
    lb: float
    tau: float
    expansions: int = 0


def _reconstruct(parent: dict, cell_of: tuple[Cell, ...], agent: int,
                 key: tuple[int, int]) -> Path:
    cells = []
    while key is not None:
        cells.append(cell_of[key[0]])
        key = parent[key]
    cells.reverse()
    return Path(agent, tuple(cells))


def _guarded_ids(grid: GridMap, ctable: ConstraintTable) -> set[int]:
    """Ids of the cells some constraint bars; no other id is ever blocked."""
    id_of = grid.id_of
    return {id_of(c) for c in ctable.guarded if grid.in_bounds(c)}


def _search(req: LowLevelRequest, two_phase: bool) -> LowLevelResult | None:
    ctable, grid, h = req.ctable, req.grid, req.h
    if ctable.infeasible:
        return None
    start, goal = grid.id_of(req.start), grid.id_of(req.goal)
    horizon = req.effective_horizon()
    earliest, latest = ctable.earliest_goal, ctable.latest_goal
    # h is consistent, so a state with t + h > latest and all its descendants
    # reach the goal too late: fail now, or prune such states in expand().
    # An unreachable goal (h = INF) with no latest goal fails at the first
    # OPEN check instead, where f_min = INF.
    if h[start] > latest or ctable.last_block_on(req.goal) >= latest:
        return None
    if ctable.is_blocked(req.start, 0):
        return None
    # States are (cell id, t); cells go back to tuples only for the
    # cell-keyed constraint and occupancy probes, and for the path.
    moves, cell_of = grid.moves, grid.cell_of
    guarded = _guarded_ids(grid, ctable)
    is_blocked, is_edge_blocked = ctable.is_blocked, ctable.is_edge_blocked
    goal_ok, goal_cell = ctable.goal_arrival_ok, req.goal
    step_conflicts = req.occupancy.step_conflicts
    push, pop = heapq.heappush, heapq.heappop

    # The search tree, shared by both phases.
    best_x: dict = {}      # (v,t) -> smallest conflict count
    parent: dict = {}      # (v,t) -> (v',t-1)
    closed: set = set()
    in_focal: set = set()
    open_heap: list = []   # (f, -t, ctr, v, t)
    focal_heap: list = []  # (x, -t, f, ctr, v, t)
    next_ctr = itertools.count().__next__

    start_key = (start, 0)
    f0 = max(h[start], earliest)
    # The focal bound tracks the rising f_min and never shrinks, so the final
    # path cost is within w * max{f_min at termination, parent lb} + delta.
    bound = threshold(req.w, f0, req.lb_parent, req.delta)
    best_x[start_key] = 0
    parent[start_key] = None
    ctr = next_ctr()
    push(open_heap, (f0, 0, ctr, start, 0))
    if f0 <= bound + EPS:
        push(focal_heap, (0, 0, f0, ctr, start, 0))
        in_focal.add(start_key)
    expansions = 0

    def expand(v: int, t: int, x: int, into_focal: bool):
        nonlocal expansions
        expansions += 1
        t2 = t + 1
        if t2 > horizon:
            return
        here, u = (v, t), cell_of[v]
        for v2 in moves[v]:
            # cells cut off from the goal are never generated: moves are
            # symmetric, so they lie in another component than the start
            hv = h[v2]
            if t2 + hv > latest:
                continue
            key = (v2, t2)
            if key in closed:
                continue
            if v2 in guarded and (is_blocked(cell_of[v2], t2)
                                  or is_edge_blocked(u, cell_of[v2], t2)):
                continue
            x2 = x + step_conflicts(u, cell_of[v2], t2)
            known = best_x.get(key)
            if known is not None and known <= x2:
                continue
            best_x[key] = x2
            parent[key] = here
            f2 = t2 + hv  # f = max(t + h, earliest goal time)
            if f2 < earliest:
                f2 = earliest
            ctr = next_ctr()
            if known is None:
                push(open_heap, (f2, -t2, ctr, v2, t2))
            if into_focal and (key in in_focal or f2 <= bound + EPS):
                push(focal_heap, (x2, -t2, f2, ctr, v2, t2))
                in_focal.add(key)

    def open_min_f() -> float:
        while open_heap:
            f, _negt, _c, v, t = open_heap[0]
            if (v, t) in closed:
                pop(open_heap)
            else:
                return f
        return INF

    def migrate(new_bound: float):
        # pull newly qualifying OPEN nodes into FOCAL
        for f, _negt, _c, v, t in open_heap:
            key = (v, t)
            if key in closed or key in in_focal or f > new_bound + EPS:
                continue
            push(focal_heap, (best_x[key], -t, f, next_ctr(), v, t))
            in_focal.add(key)

    # Phase (i): focal-ordered expansion until a goal path is found.
    found_key = None
    f_min_seen = None
    while True:
        f_min_now = open_min_f()
        if f_min_now == INF:
            return None
        if f_min_now != f_min_seen:  # the bound moves only with f_min
            f_min_seen = f_min_now
            new_bound = threshold(req.w, f_min_now, req.lb_parent, req.delta)
            if new_bound > bound + EPS:
                bound = new_bound
                migrate(bound)
        while focal_heap:
            x, _negt, _f, _c, v, t = pop(focal_heap)
            key = (v, t)
            if key not in closed and best_x[key] == x:
                break
        else:
            return None  # every open node lies above the bound
        if v == goal and goal_ok(goal_cell, t):
            found_key = key
            break
        closed.add(key)
        expand(v, t, x, into_focal=True)

    path = _reconstruct(parent, cell_of, req.agent, found_key)
    cost = path.cost
    closed.add(found_key)
    f_min = min(float(cost), open_min_f())
    lb = max(f_min, req.lb_parent)
    tau = threshold(req.w, f_min, req.lb_parent, req.delta)

    if two_phase:
        # Phase (ii): f-ordered expansion to pin down the optimal constrained
        # cost, which becomes the returned lower bound.
        optimal = None
        while open_heap:
            f, _negt, _c, v, t = pop(open_heap)
            key = (v, t)
            if key in closed:
                continue
            if f > cost + EPS:
                break
            if v == goal and goal_ok(goal_cell, t):
                optimal = t
                break
            closed.add(key)
            expand(v, t, best_x[key], into_focal=False)
        if optimal is None:
            optimal = cost  # phase (i) path already optimal
        lb = max(min(float(optimal), float(cost)), req.lb_parent)

    return LowLevelResult(path=path, cost=cost, lb=lb, tau=tau,
                          expansions=expansions)


def focal_search(req: LowLevelRequest) -> LowLevelResult | None:
    return _search(req, two_phase=False)


def fastar_search(req: LowLevelRequest) -> LowLevelResult | None:
    return _search(req, two_phase=True)


def _any_arrival(_v: Cell, _t: int) -> bool:
    return True


def earliest_arrival(grid: GridMap, ctable: ConstraintTable, start: Cell,
                     dest: Cell, horizon: int,
                     banned: frozenset[Cell] = frozenset(),
                     arrive_ok: Callable[[Cell, int], bool] = _any_arrival,
                     h: list[float] | None = None) -> int | None:
    """Earliest timestep t <= horizon at which the agent can occupy dest with
    arrive_ok(dest, t) true, or None.

    Time-expanded BFS under the constraint table; used for corridor timing
    bounds and, with the goal-parking test as arrive_ok, for cardinality
    probes. `banned` cells are excluded entirely. `h` is the static distance
    to dest, `compute_h(grid, dest)` (computed when None): a state with
    t + h > horizon cannot arrive in time, even around banned cells, so it is
    never generated.
    """
    if h is None:
        h = compute_h(grid, dest)
    id_of = grid.id_of
    src = id_of(start)
    if (h[src] > horizon or start in banned
            or ctable.is_blocked(start, 0)):
        return None
    if start == dest and arrive_ok(dest, 0):
        return 0
    moves, cell_of = grid.moves, grid.cell_of
    dst = id_of(dest)
    banned_ids = {id_of(c) for c in banned}
    guarded = _guarded_ids(grid, ctable)
    frontier = {src}
    for t in range(1, horizon + 1):
        nxt = set()
        slack = horizon - t
        for v in frontier:
            for v2 in moves[v]:
                if v2 in banned_ids or v2 in nxt or h[v2] > slack:
                    continue
                if v2 in guarded and (
                        ctable.is_blocked(cell_of[v2], t)
                        or ctable.is_edge_blocked(cell_of[v], cell_of[v2], t)):
                    continue
                if v2 == dst and arrive_ok(dest, t):
                    return t
                nxt.add(v2)
        if not nxt:
            return None
        frontier = nxt
    return None
