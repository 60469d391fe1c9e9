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
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from .constraints import BY_PAIR, Conflict, ConstraintTable, Path
from .flex import threshold
from .map_io import Cell, GridMap

INF = math.inf
EPS = 1e-9


def compute_h(grid: GridMap, target: Cell) -> dict[Cell, int]:
    """Exact static shortest-path distance to target via backward BFS."""
    if not grid.is_passable(target):
        raise ValueError(f"target {target} is not passable")
    moves = grid.moves
    dist = {target: 0}
    queue = deque([target])
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        for nb in moves[cur]:
            if nb not in dist:
                dist[nb] = d
                queue.append(nb)
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
    h: dict[Cell, int]
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


def _reconstruct(parent: dict, agent: int, key: tuple[Cell, int]) -> Path:
    cells = []
    while key is not None:
        cells.append(key[0])
        key = parent[key]
    cells.reverse()
    return Path(agent, tuple(cells))


def _search(req: LowLevelRequest, two_phase: bool) -> LowLevelResult | None:
    ctable, goal, h = req.ctable, req.goal, req.h
    if ctable.infeasible or req.start not in h:
        return None
    horizon = req.effective_horizon()
    earliest, latest = ctable.earliest_goal, ctable.latest_goal
    # h is consistent, so a state with t + h > latest and all its descendants
    # reach the goal too late: fail now, or prune such states in expand()
    if h[req.start] > latest or ctable.last_block_on(goal) >= latest:
        return None
    if ctable.is_blocked(req.start, 0):
        return None
    moves = req.grid.moves
    # only cells in `guarded` can be blocked, so the constraint probes run
    # for those alone
    guarded = ctable.guarded
    is_blocked, is_edge_blocked = ctable.is_blocked, ctable.is_edge_blocked
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

    start_key = (req.start, 0)
    f0 = max(h[req.start], earliest)
    # The focal bound tracks the rising f_min and never shrinks, so the final
    # path cost is within w * max{f_min at termination, parent lb} + delta.
    bound = threshold(req.w, f0, req.lb_parent, req.delta)
    best_x[start_key] = 0
    parent[start_key] = None
    ctr = next_ctr()
    push(open_heap, (f0, 0, ctr, req.start, 0))
    if f0 <= bound + EPS:
        push(focal_heap, (0, 0, f0, ctr, req.start, 0))
        in_focal.add(start_key)
    expansions = 0

    def expand(v: Cell, t: int, x: int, into_focal: bool):
        nonlocal expansions
        expansions += 1
        t2 = t + 1
        if t2 > horizon:
            return
        for v2 in moves[v]:
            hv = h.get(v2)
            if hv is None or t2 + hv > latest:
                continue
            key = (v2, t2)
            if key in closed:
                continue
            if v2 in guarded and (is_blocked(v2, t2)
                                  or is_edge_blocked(v, v2, t2)):
                continue
            x2 = x + step_conflicts(v, v2, t2)
            known = best_x.get(key)
            if known is not None and known <= x2:
                continue
            best_x[key] = x2
            parent[key] = (v, t)
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
        if v == goal and ctable.goal_arrival_ok(goal, t):
            found_key = key
            break
        closed.add(key)
        expand(v, t, x, into_focal=True)

    path = _reconstruct(parent, req.agent, found_key)
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
            if v == goal and ctable.goal_arrival_ok(goal, t):
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
                     h: dict[Cell, int] | None = None) -> int | None:
    """Earliest timestep t <= horizon at which the agent can occupy dest with
    arrive_ok(dest, t) true, or None.

    Time-expanded BFS under the constraint table; used for corridor timing
    bounds and, with the goal-parking test as arrive_ok, for cardinality
    probes. `banned` cells are excluded entirely. `h` is the static distance
    to dest (computed when None): a state with t + h > horizon cannot arrive
    in time, even around banned cells, so it is never generated.
    """
    if h is None:
        h = compute_h(grid, dest)
    h_start = h.get(start)
    if (h_start is None or h_start > horizon or start in banned
            or ctable.is_blocked(start, 0)):
        return None
    if start == dest and arrive_ok(dest, 0):
        return 0
    moves = grid.moves
    guarded = ctable.guarded
    frontier = {start}
    for t in range(1, horizon + 1):
        nxt = set()
        slack = horizon - t
        for v in frontier:
            for v2 in moves[v]:
                if v2 in banned or v2 in nxt:
                    continue
                hv = h.get(v2)
                if hv is None or hv > slack:
                    continue
                if v2 in guarded and (ctable.is_blocked(v2, t)
                                      or ctable.is_edge_blocked(v, v2, t)):
                    continue
                if v2 == dest and arrive_ok(dest, t):
                    return t
                nxt.add(v2)
        if not nxt:
            return None
        frontier = nxt
    return None
