"""Single-agent space-time search: focal search and the two-phase FA* variant.

Both searches share one search tree. Focal search expands nodes with f <= tau
ordered by conflict count and returns the first goal path; FA* then keeps
expanding by f-order from OPEN to tighten the returned lower bound up to the
optimal constrained path cost.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from .constraints import ConstraintTable, Path
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
    """Other agents' paths indexed for O(1) conflict counting per step."""

    def __init__(self, paths: list[Path]):
        self.vertex: dict[tuple[Cell, int], int] = {}
        self.edge: dict[tuple[Cell, Cell, int], int] = {}
        self.parked: dict[Cell, int] = {}  # cell -> timestep parked from
        for p in paths:
            self.add(p)

    def add(self, path: Path):
        cells = path.cells
        vertex, edge = self.vertex, self.edge
        for t, cell in enumerate(cells):
            key = (cell, t)
            vertex[key] = vertex.get(key, 0) + 1
        for t in range(1, len(cells)):
            if cells[t - 1] != cells[t]:
                key = (cells[t - 1], cells[t], t)
                edge[key] = edge.get(key, 0) + 1
        park = self.parked.get(cells[-1])
        self.parked[cells[-1]] = min(park, path.cost) if park is not None else path.cost

    def step_conflicts(self, prev: Cell, cur: Cell, t: int) -> int:
        """Conflicts incurred by moving prev -> cur arriving at timestep t."""
        n = self.vertex.get((cur, t), 0)
        park = self.parked.get(cur)
        if park is not None and t > park:
            # t == park is already in the vertex table
            n += 1
        if prev != cur:
            n += self.edge.get((cur, prev, t), 0)
        return n


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


@dataclass
class _Tree:
    """Shared search-tree state for both phases."""
    best_x: dict = field(default_factory=dict)     # (v,t) -> smallest conflict count
    parent: dict = field(default_factory=dict)     # (v,t) -> (v',t-1)
    closed: set = field(default_factory=set)
    open_heap: list = field(default_factory=list)  # (f, -t, ctr, v, t)
    focal_heap: list = field(default_factory=list)  # (x, -t, f, ctr, v, t)
    ctr: int = 0


def _reconstruct(tree: _Tree, agent: int, key: tuple[Cell, int]) -> Path:
    cells = []
    while key is not None:
        cells.append(key[0])
        key = tree.parent[key]
    cells.reverse()
    return Path(agent, tuple(cells))


def _search(req: LowLevelRequest, two_phase: bool) -> LowLevelResult | None:
    grid, ctable, occ = req.grid, req.ctable, req.occupancy
    goal, h = req.goal, req.h
    if ctable.infeasible or req.start not in h:
        return None
    horizon = req.effective_horizon()
    earliest, latest = ctable.earliest_goal, ctable.latest_goal
    # h is consistent, so a state with t + h > latest and all its descendants
    # reach the goal too late: fail now, or prune such states in expand()
    if h[req.start] > latest or ctable.last_block_on(goal) >= latest:
        return None
    moves = grid.moves

    def f_of(v: Cell, t: int) -> float:
        return max(t + h[v], earliest)

    tree = _Tree()
    start_key = (req.start, 0)
    if ctable.is_blocked(req.start, 0):
        return None
    f0 = f_of(req.start, 0)
    # The focal bound tracks the rising f_min and never shrinks, so the final
    # path cost is within w * max{f_min at termination, parent lb} + delta.
    bound = threshold(req.w, f0, req.lb_parent, req.delta)
    in_focal: set = set()
    tree.best_x[start_key] = 0
    tree.parent[start_key] = None
    heapq.heappush(tree.open_heap, (f0, 0, tree.ctr, req.start, 0))
    if f0 <= bound + EPS:
        heapq.heappush(tree.focal_heap, (0, 0, f0, tree.ctr, req.start, 0))
        in_focal.add(start_key)
    tree.ctr += 1
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
            if ctable.is_blocked(v2, t2) or ctable.is_edge_blocked(v, v2, t2):
                continue
            x2 = x + occ.step_conflicts(v, v2, t2)
            key = (v2, t2)
            if key in tree.closed:
                continue
            known = tree.best_x.get(key)
            if known is not None and known <= x2:
                continue
            fresh = known is None
            tree.best_x[key] = x2
            tree.parent[key] = (v, t)
            f2 = f_of(v2, t2)
            if fresh:
                heapq.heappush(tree.open_heap, (f2, -t2, tree.ctr, v2, t2))
            if into_focal and (key in in_focal or f2 <= bound + EPS):
                heapq.heappush(tree.focal_heap, (x2, -t2, f2, tree.ctr, v2, t2))
                in_focal.add(key)
            tree.ctr += 1

    def open_min_f() -> float:
        while tree.open_heap:
            f, _negt, _c, v, t = tree.open_heap[0]
            if (v, t) in tree.closed:
                heapq.heappop(tree.open_heap)
            else:
                return f
        return INF

    def migrate(new_bound: float):
        # pull newly qualifying OPEN nodes into FOCAL
        for f, _negt, _c, v, t in tree.open_heap:
            key = (v, t)
            if key in tree.closed or key in in_focal or f > new_bound + EPS:
                continue
            heapq.heappush(tree.focal_heap,
                           (tree.best_x[key], -t, f, tree.ctr, v, t))
            in_focal.add(key)
            tree.ctr += 1

    # Phase (i): focal-ordered expansion until a goal path is found.
    found_key = None
    while True:
        f_min_now = open_min_f()
        if f_min_now == INF:
            return None
        new_bound = threshold(req.w, f_min_now, req.lb_parent, req.delta)
        if new_bound > bound + EPS:
            bound = new_bound
            migrate(bound)
        popped = None
        while tree.focal_heap:
            x, _negt, f, _c, v, t = heapq.heappop(tree.focal_heap)
            key = (v, t)
            if key in tree.closed or tree.best_x.get(key) != x:
                continue
            popped = (v, t, x)
            break
        if popped is None:
            return None  # every open node lies above the bound
        v, t, x = popped
        key = (v, t)
        if v == goal and ctable.goal_arrival_ok(goal, t):
            found_key = key
            break
        tree.closed.add(key)
        expand(v, t, x, into_focal=True)

    path = _reconstruct(tree, req.agent, found_key)
    cost = path.cost
    tree.closed.add(found_key)
    f_min = min(float(cost), open_min_f())
    lb = max(f_min, req.lb_parent)
    tau = threshold(req.w, f_min, req.lb_parent, req.delta)

    if two_phase:
        # Phase (ii): f-ordered expansion to pin down the optimal constrained
        # cost, which becomes the returned lower bound.
        optimal = None
        while tree.open_heap:
            f, _negt, _c, v, t = heapq.heappop(tree.open_heap)
            key = (v, t)
            if key in tree.closed:
                continue
            if f > cost + EPS:
                break
            if v == goal and ctable.goal_arrival_ok(goal, t):
                optimal = t
                break
            tree.closed.add(key)
            expand(v, t, tree.best_x[key], into_focal=False)
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
                if ctable.is_blocked(v2, t) or ctable.is_edge_blocked(v, v2, t):
                    continue
                if v2 == dest and arrive_ok(dest, t):
                    return t
                nxt.add(v2)
        if not nxt:
            return None
        frontier = nxt
    return None
