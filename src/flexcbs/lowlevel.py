"""Single-agent space-time search: focal search and the two-phase FA* variant.

Both searches share one search tree. A state (v, t) has
f = max(t + h(v), hold), where hold is the goal's holding time
(`ConstraintTable.hold_time`): no valid path parks at its goal earlier, so
f stays admissible and consistent. A state is a goal when v is the goal and
t >= hold. Focal search expands nodes with f <= tau ordered by conflict count
(each step's conflicts with the other agents' paths, read from an
`Occupancy`) and returns the first goal path; FA* then keeps expanding by
f-order from OPEN to tighten the returned lower bound up to the optimal
constrained path cost, and stops once f reaches the cost of the path it
holds. `_search` is the package's one time-expanded search: the
cardinality probe, `earliest_arrival`, is its focal phase at w = 1.

This is the one module that knows the space-time key (see `map_io`): the
kernel's states, the `Occupancy` index of the other agents' paths and the
`ConstraintTable` of the agent's constraints all use it, so the kernel
tests a step against both without translating a cell.

h is the exact static distance to the goal. Every static table comes from
one per-grid cache, `Distances`: a `DistanceTable` per (target, banned
cell ids), a backward BFS settled only as far as it is read. A Solver
settles each agent's over the reach of its root search. The goal's table
around cells blocked forever says which cells still reach the goal.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .constraints import BY_PAIR, Conflict, Constraint, ConstraintKind, Path
from .flex import threshold
from .map_io import Cell, GridMap

INF = math.inf
EPS = 1e-9
CLOSED = -1  # the conflict count `_search` files an expanded state under


class DistanceTable:
    """Exact static distances to one target, settled lazily by a backward BFS
    that is resumed one level at a time (Silver's Reverse Resumable A*, in its
    plain BFS form).

    `dist` is a list indexed by cell id, one entry per passable cell: an entry
    is exact once settled and None before. After level d every cell within d
    steps is settled. When the BFS runs out, every entry still None becomes
    INF: the cells that cannot reach the target. Hot loops bind `dist` and
    `settle` to locals and call `settle(v)` on a None read; `table[v]` does
    both.
    """

    __slots__ = ("dist", "_level", "_moves", "_frontier")

    def __init__(self, grid: GridMap, target: Cell,
                 banned: frozenset[int] = frozenset()):
        moves = grid.moves
        dist: list[float | None] = [None] * len(moves)
        for v in banned:  # never entered: the BFS treats them as settled
            dist[v] = INF
        src = grid.id_of(target)
        dist[src] = 0
        self.dist = dist
        self._level = 0
        self._moves = moves
        self._frontier = [src]

    def _step(self):
        """Settle the next level of the BFS."""
        dist, moves = self.dist, self._moves
        d = self._level = self._level + 1
        nxt = []
        for cur in self._frontier:
            for nb in moves[cur]:
                if dist[nb] is None:
                    dist[nb] = d
                    nxt.append(nb)
        self._frontier = nxt
        if not nxt:  # in place: readers hold this list
            dist[:] = [INF if x is None else x for x in dist]

    def settle(self, v: int) -> float:
        """The exact distance of cell id v, resuming the BFS until v is
        settled."""
        dist = self.dist
        while dist[v] is None:
            self._step()
        return dist[v]

    __getitem__ = settle

    def settle_within(self, radius: float):
        """Settle every cell within radius steps (all of them for INF)."""
        while self._frontier and self._level < radius:
            self._step()


def compute_h(grid: GridMap, target: Cell, start: Cell | None = None,
              w: float = 1.0,
              banned: frozenset[int] = frozenset()) -> DistanceTable:
    """Exact static shortest-path distance to target, as a `DistanceTable`;
    the cells whose ids are `banned` are never entered and read INF.

    With a start, the table is settled over the reach of a focal search from
    start with weight w and no constraints: its bound is w * h(start), every
    state it expands has h <= that bound and every successor one step more,
    so every cell within floor(w * h(start)) + 1 steps. Other entries settle
    when read.
    """
    if not grid.is_passable(target):
        raise ValueError(f"target {target} is not passable")
    table = DistanceTable(grid, target, banned)
    if start is not None:
        h0 = table.settle(grid.id_of(start))
        if h0 < INF:
            table.settle_within(math.floor(w * h0) + 1)
    return table


class Distances:
    """The static distance tables of one grid, one per (target cell, banned
    cell ids), each built once through `compute_h` and settled as it is read.
    `seeds` maps targets to tables the owner built itself, banning nothing.
    A Solver owns one and shares it with its `Classifier` and searches.
    """

    def __init__(self, grid: GridMap,
                 seeds: Mapping[Cell, DistanceTable] | None = None):
        self.grid = grid
        self._tables = {(target, frozenset()): table
                        for target, table in (seeds or {}).items()}

    def get(self, target: Cell,
            banned: frozenset[int] = frozenset()) -> DistanceTable:
        key = (target, banned)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = compute_h(self.grid, target,
                                                  banned=banned)
        return table

    def items(self):
        """((target, banned cell ids), table) for every table built so far."""
        return self._tables.items()


class Occupancy:
    """Paths indexed by space-time key. The search kernel reads the
    `vertex`, `edge` and `parked` tables directly to count each step's
    conflicts; `conflicts_with` lists the conflicts of a whole path for the
    high level.

    With N = grid.num_passable() cell ids, cell id v at timestep t has the
    space-time key t * N + v, the number the search kernel uses for its
    states; an indexed path's cells must be passable, since only they have
    ids. The tables:
    - `vertex`: t * N + v -> the agents at v at t;
    - `edge`: (t * N + u) * N + v -> the agents moving u -> v arriving at t
      (a wait is no edge); a step u -> v with key s = t * N + v finds the
      agents swapping with it, moving v -> u, under s * N + u;
    - `ends`: cell id -> the indexed paths ending there;
    - `parked`: cell id -> the earliest timestep one of them parks from;
    - `costs`: path cost -> how many indexed paths have it, so the longest
      is max(costs).

    `add` and `remove` are exact inverses, so one index can follow a set of
    paths that changes a path at a time. Several indexed paths may carry one
    agent id (callers that only count conflicts pass such lists); `held` then
    records the one added last.
    """

    def __init__(self, grid: GridMap, paths: Iterable[Path] = ()):
        self.n = len(grid.moves)
        self._id_of = grid.index.__getitem__
        self.vertex: dict[int, list[int]] = {}
        self.edge: dict[int, list[int]] = {}
        self.ends: dict[int, list[Path]] = {}
        self.parked: dict[int, int] = {}
        self.costs: dict[int, int] = {}  # path cost -> indexed paths of it
        self.held: dict[int, Path] = {}  # agent -> its indexed path
        for p in paths:
            self.add(p)

    def _ids(self, cells: tuple[Cell, ...]) -> list[int]:
        return list(map(self._id_of, cells))

    def _keys(self, ids: list[int]) -> tuple[list[int], list[int]]:
        """The vertex keys, then the edge keys, of a path's cell ids."""
        n = self.n
        vertex = [t * n + v for t, v in enumerate(ids)]
        edge = [((t * n + ids[t - 1]) * n + ids[t])
                for t in range(1, len(ids)) if ids[t - 1] != ids[t]]
        return vertex, edge

    def add(self, path: Path):
        agent = path.agent
        ids = self._ids(path.cells)
        vertex_keys, edge_keys = self._keys(ids)
        vertex, edge = self.vertex, self.edge
        for s in vertex_keys:
            agents = vertex.get(s)
            if agents is None:
                vertex[s] = [agent]
            else:
                agents.append(agent)
        for e in edge_keys:
            agents = edge.get(e)
            if agents is None:
                edge[e] = [agent]
            else:
                agents.append(agent)
        goal, cost = ids[-1], path.cost
        ends = self.ends.get(goal)
        if ends is None:
            self.ends[goal] = [path]
            self.parked[goal] = cost
        else:
            ends.append(path)
            self.parked[goal] = min(self.parked[goal], cost)
        self.costs[cost] = self.costs.get(cost, 0) + 1
        self.held[agent] = path

    def remove(self, path: Path):
        """Undo `add(path)`; the path must be indexed."""
        agent = path.agent
        ids = self._ids(path.cells)
        vertex_keys, edge_keys = self._keys(ids)
        for s in vertex_keys:
            _drop(self.vertex, s, agent)
        for e in edge_keys:
            _drop(self.edge, e, agent)
        goal = ids[-1]
        ends = self.ends[goal]
        ends.remove(path)
        if ends:
            self.parked[goal] = min(p.cost for p in ends)
        else:
            del self.ends[goal], self.parked[goal]
        cost = path.cost
        if self.costs[cost] == 1:
            del self.costs[cost]
        else:
            self.costs[cost] -= 1
        if self.held.get(agent) is path:
            del self.held[agent]

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
        ids = self._ids(cells)
        n = self.n
        vertex, edge, ends = self.vertex, self.edge, self.ends
        out = []
        prev, u = cells[0], ids[0]
        for t, cell in enumerate(cells):
            v = ids[t]
            s = t * n + v
            for b in vertex.get(s, ()):
                if b != a:
                    out.append(Conflict(min(a, b), max(a, b), cell, t))
            for other in ends.get(v, ()):
                b = other.agent
                if other.cost < t and b != a:
                    out.append(Conflict(min(a, b), max(a, b), cell, t))
            if u != v:
                for b in edge.get(s * n + u, ()):
                    if b > a:
                        out.append(Conflict(a, b, cell, t, u=prev))
                    elif b < a:
                        out.append(Conflict(b, a, prev, t, u=cell))
            prev, u = cell, v
        # after its last step the agent stays at its goal, where only paths
        # still moving can meet it
        horizon = max(self.costs, default=0)
        for t in range(len(cells), horizon + 1):
            for b in vertex.get(t * n + u, ()):
                if b != a:
                    out.append(Conflict(min(a, b), max(a, b), prev, t))
        out.sort(key=BY_PAIR)
        return out


def _drop(index: dict, key, agent: int):
    agents = index[key]
    agents.remove(agent)
    if not agents:
        del index[key]


class ConstraintTable:
    """The constraints one search of `agent` obeys, under the kernel's keys.

    Built per low-level search from the agent's own constraints plus the
    target blocks induced by other agents' LENGTH_LEQ constraints (`targets`
    maps an agent to its target); other agents' other constraints are
    ignored. With N = grid.num_passable() cell ids:
    - `vertex`: t * N + v for each VERTEX(v, t), the key of the state the
      kernel would enter;
    - `edge`: (t * N + u) * N + v for each EDGE(u, v, t), the key
      `Occupancy.edge` files the same move under;
    - `blocked_from`: cell id -> the timestep from which another agent's
      LENGTH_LEQ bars its target for good;
    - `guarded`: the ids of every cell some constraint bars; no other cell is
      ever blocked, so the kernel skips the probes for the rest.
    A constraint on a cell off the grid or blocked bars nothing, since the
    kernel never enters such a cell, and is dropped; like every constraint it
    still raises `latest_constraint_t`, which sets the search horizon.

    The holding time of a goal, `hold_time(goal)`, is the earliest timestep
    from which the agent may park there for good: max(earliest_goal, the
    goal's latest vertex block + 1), INF if the goal is blocked forever.
    Every valid path finishes at a time t with
    hold_time(goal) <= t <= latest_goal.
    """

    def __init__(self, grid: GridMap, agent: int,
                 constraints: Iterable[Constraint],
                 targets: Mapping[int, Cell]):
        n = len(grid.moves)
        cell_id = grid.index.get  # None off the grid or on a blocked cell
        self.agent = agent
        self.vertex: set[int] = set()
        self.edge: set[int] = set()
        self.blocked_from: dict[int, int] = {}  # blocked for all t >= value
        self.guarded: set[int] = set()
        self._last_vertex: dict[int, int] = {}  # cell id -> latest VERTEX t
        self.earliest_goal = 0
        self.latest_goal = INF
        self.latest_constraint_t = 0
        for c in constraints:
            kind, t = c.kind, c.t
            if kind is ConstraintKind.LENGTH_LEQ:
                if c.agent == agent:
                    self.latest_goal = min(self.latest_goal, t)
                else:
                    tgt = targets.get(c.agent)
                    v = None if tgt is None else cell_id(tgt)
                    if v is not None:
                        self.blocked_from[v] = min(
                            self.blocked_from.get(v, INF), t)
                        self.guarded.add(v)
                self.latest_constraint_t = max(self.latest_constraint_t, t)
                continue
            if c.agent != agent:
                continue
            if kind is ConstraintKind.LENGTH_GT:
                self.earliest_goal = max(self.earliest_goal, t + 1)
                self.latest_constraint_t = max(self.latest_constraint_t, t + 1)
                continue
            self.latest_constraint_t = max(self.latest_constraint_t, t)
            v = cell_id(c.v)
            if v is None:
                continue
            if kind is ConstraintKind.VERTEX:
                self.vertex.add(t * n + v)
                self._last_vertex[v] = max(self._last_vertex.get(v, -1), t)
                self.guarded.add(v)
                continue
            u = cell_id(c.u)
            if u is not None:
                self.edge.add((t * n + u) * n + v)
                self.guarded.add(v)

    def hold_time(self, goal: int) -> float:
        """Earliest timestep from which the agent may park at cell id goal
        for good; INF if goal is blocked forever."""
        if goal in self.blocked_from:
            return INF
        return max(self.earliest_goal, self._last_vertex.get(goal, -1) + 1)


@dataclass
class LowLevelRequest:
    """One search for `ctable.agent` on `tables.grid`."""
    start: Cell
    goal: Cell
    ctable: ConstraintTable
    occupancy: Occupancy
    # h = tables.get(goal), and the table around cells blocked forever;
    # shared by one Solver's searches
    tables: Distances
    w: float = 1.0
    delta: float = 0.0
    lb_parent: float = 0.0

    def effective_horizon(self) -> int:
        return (self.ctable.latest_constraint_t
                + self.tables.grid.num_passable() + 1)


@dataclass
class LowLevelResult:
    path: Path
    cost: int
    lb: float
    tau: float
    expansions: int = 0
    conflicts: int = 0  # the path's conflicts with the indexed paths


def _reconstruct(parent: dict, cell_of: tuple[Cell, ...], agent: int,
                 s: int) -> Path:
    n = len(cell_of)
    cells = []
    while s is not None:
        cells.append(cell_of[s % n])
        s = parent[s]
    cells.reverse()
    return Path(agent, tuple(cells))


def _search(req: LowLevelRequest, two_phase: bool) -> LowLevelResult | None:
    """Focal search over space-time states, then, if two_phase, FA*'s
    f-ordered phase on the same tree.

    f = max(t + h, hold) with hold = ctable.hold_time(goal), and a state is
    a goal when its cell is the goal and t >= hold: a state with
    t + h > latest_goal is never generated, so that goal at t also satisfies
    t <= latest_goal. Phase (ii) stops at the first OPEN entry with
    f >= cost: a goal popped there has t == f == cost and would return the
    lower bound the path already gives.

    A state is the single int s = t * N + v for cell id v at timestep t, with
    N = grid.num_passable(): the key `Occupancy` files cell v at t under, so
    the conflict count of a step probes the index's tables with the
    successor's own key, inline, and so does the `ConstraintTable` test of a
    step into a guarded cell. The cell id is s % N; heap entries carry -t
    as their tie-break, so a popped entry yields v = s - t * N without a
    division. Cells go back to tuples only for the returned path.

    One dict maps each generated state to its smallest conflict count, or
    to CLOSED once expanded. In phase (i) a state is in FOCAL iff
    f <= bound + EPS: f depends on the state alone and the bound never
    shrinks, so a rising bound moves exactly the OPEN states with
    old bound + EPS < f <= new bound + EPS into FOCAL, and no set tracks
    FOCAL membership. The result's `conflicts` is the FOCAL count of the
    returned path.
    """
    ctable, tables = req.ctable, req.tables
    grid = tables.grid
    start, goal = grid.id_of(req.start), grid.id_of(req.goal)
    latest = ctable.latest_goal
    hold = ctable.hold_time(goal)
    # An empty window (hold > latest) or a goal blocked forever
    # (hold = INF) fails before the goal's table is read.
    if hold > latest or hold == INF:
        return None
    horizon = req.effective_horizon()
    # h is consistent, so a state with t + h > latest and all its descendants
    # reach the goal too late: fail now, or prune such states in expand().
    # An unreachable goal (h = INF) with no latest goal fails at the first
    # OPEN check instead, where f_min = INF.
    h = tables.get(req.goal)
    dist, settle = h.dist, h.settle
    h_start = settle(start)
    if h_start > latest:
        return None
    # the constraint tables, keyed as the states and moves they bar
    barred, barred_edge = ctable.vertex, ctable.edge
    guarded, walls = ctable.guarded, ctable.blocked_from
    if start in barred or walls.get(start) == 0:  # the state t = 0
        return None
    moves = grid.moves
    n = len(moves)
    # From t_cut on, every cell some other agent's LENGTH_LEQ blocks stays
    # blocked, so a state at t >= t_cut whose cell cannot reach the goal
    # around those cells (INF in its table, settled in full so the test is
    # one read) has no goal descendant: it is never generated.
    if walls:
        t_cut = max(walls.values())
        around = tables.get(req.goal, frozenset(walls))
        around.settle_within(INF)
        adist = around.dist
    else:
        t_cut, adist = horizon + 1, None
    inf = INF
    walls_get = walls.get
    occ = req.occupancy
    vertex_get, parked_get = occ.vertex.get, occ.parked.get
    edge_get = occ.edge.get
    push, pop = heapq.heappush, heapq.heappop

    # The search tree, shared by both phases, keyed by state: x_of holds the
    # smallest conflict count found, or CLOSED once the state is expanded.
    x_of: dict[int, int] = {}
    parent: dict[int, int | None] = {}  # the state one step earlier
    open_heap: list = []   # (f, -t, ctr, s)
    focal_heap: list = []  # (x, -t, f, ctr, s)
    ctr = 0

    f0 = max(h_start, hold)
    # The focal bound tracks the rising f_min and never shrinks, so the final
    # path cost is within w * max{f_min at termination, parent lb} + delta.
    # f depends on the state alone, so in phase (i) a state is in FOCAL iff
    # f <= bound + EPS.
    bound = threshold(req.w, f0, req.lb_parent, req.delta)
    x_of[start] = 0
    parent[start] = None
    push(open_heap, (f0, 0, ctr, start))
    if f0 <= bound + EPS:
        push(focal_heap, (0, 0, f0, ctr, start))
    expansions = 0

    def expand(s: int, v: int, t: int, x: int, focal_limit: float):
        """Generate the successors of s; a successor whose f is at most
        focal_limit also enters FOCAL (-INF for none)."""
        nonlocal expansions, ctr
        expansions += 1
        t2 = t + 1
        if t2 > horizon:
            return
        late = t2 >= t_cut
        base = t2 * n
        for v2 in moves[v]:
            # cells cut off from the goal are never generated: moves are
            # symmetric, so they lie in another component than the start
            hv = dist[v2]
            if hv is None:
                hv = settle(v2)
            if t2 + hv > latest or (late and adist[v2] == inf):
                continue
            s2 = base + v2
            # a successor costs at least x: a count of x or less, CLOSED
            # included, is never improved
            known = x_of.get(s2)
            if known is not None and known <= x:
                continue
            if v2 in guarded and (s2 in barred or t2 >= walls_get(v2, inf)
                                  or (base + v) * n + v2 in barred_edge):
                continue
            # the step's conflicts: agents at v2 at t2, one parked at v2
            # since before t2 (t2 == park is already a vertex entry), and
            # agents swapping with it along v2 -> v
            x2 = x
            hits = vertex_get(s2)
            if hits:
                x2 += len(hits)
            park = parked_get(v2)
            if park is not None and t2 > park:
                x2 += 1
            if v2 != v:
                hits = edge_get(s2 * n + v)
                if hits:
                    x2 += len(hits)
            if known is not None and known <= x2:
                continue
            x_of[s2] = x2
            parent[s2] = s
            f2 = t2 + hv  # f = max(t + h, hold)
            if f2 < hold:
                f2 = hold
            ctr += 1
            if known is None:
                push(open_heap, (f2, -t2, ctr, s2))
            if f2 <= focal_limit:
                push(focal_heap, (x2, -t2, f2, ctr, s2))

    def open_min_f() -> float:
        while open_heap:
            top = open_heap[0]
            if x_of[top[3]] == CLOSED:
                pop(open_heap)
            else:
                return top[0]
        return INF

    def migrate(old_bound: float, new_bound: float):
        # pull the OPEN states that qualify under the new bound only into
        # FOCAL, in heap-array order
        nonlocal ctr
        lo, hi = old_bound + EPS, new_bound + EPS
        for f, negt, _c, s in open_heap:
            if lo < f <= hi:
                x = x_of[s]
                if x != CLOSED:
                    ctr += 1
                    push(focal_heap, (x, negt, f, ctr, s))

    # Phase (i): focal-ordered expansion until a goal path is found.
    f_min_seen = None
    while True:
        f_min_now = open_min_f()
        if f_min_now == INF:
            return None
        if f_min_now != f_min_seen:  # the bound moves only with f_min
            f_min_seen = f_min_now
            new_bound = threshold(req.w, f_min_now, req.lb_parent, req.delta)
            if new_bound > bound + EPS:
                migrate(bound, new_bound)
                bound = new_bound
        while focal_heap:
            x, negt, _f, _c, s = pop(focal_heap)
            if x_of[s] == x:  # neither closed nor improved since the push
                break
        else:
            return None  # every open node lies above the bound
        t = -negt
        v = s + negt * n
        if v == goal and t >= hold:
            break
        x_of[s] = CLOSED
        expand(s, v, t, x, bound + EPS)

    path = _reconstruct(parent, grid.cell_of, ctable.agent, s)
    cost = path.cost
    conflicts = x
    x_of[s] = CLOSED
    f_min = min(float(cost), open_min_f())
    lb = max(f_min, req.lb_parent)
    tau = threshold(req.w, f_min, req.lb_parent, req.delta)

    if two_phase:
        # Phase (ii): f-ordered expansion to pin down the optimal constrained
        # cost, which becomes the returned lower bound.
        optimal = None
        while open_heap:
            f, negt, _c, s = pop(open_heap)
            x = x_of[s]
            if x == CLOSED:
                continue
            if f >= cost:
                break
            t = -negt
            v = s + negt * n
            if v == goal and t >= hold:
                optimal = t
                break
            x_of[s] = CLOSED
            expand(s, v, t, x, -INF)
        if optimal is None:
            optimal = cost  # phase (i) path already optimal
        lb = max(float(optimal), req.lb_parent)

    return LowLevelResult(path=path, cost=cost, lb=lb, tau=tau,
                          expansions=expansions, conflicts=conflicts)


def focal_search(req: LowLevelRequest) -> LowLevelResult | None:
    return _search(req, two_phase=False)


def fastar_search(req: LowLevelRequest) -> LowLevelResult | None:
    return _search(req, two_phase=True)


def earliest_arrival(ctable: ConstraintTable, start: Cell, goal: Cell,
                     tables: Distances) -> int | None:
    """Earliest timestep t at which the agent can reach goal and park there
    for good, with ctable.hold_time(id of goal) <= t <= ctable.latest_goal;
    None if there is none. The cardinality probe caps the window with a
    LENGTH_LEQ at the agent's current cost.

    The focal kernel at w = 1 with no flex and no other paths: FOCAL then
    holds only states with f = f_min, so the first goal it pops is the
    earliest arrival, and the (zero) conflict counts only order the search.
    """
    req = LowLevelRequest(start=start, goal=goal, ctable=ctable,
                          occupancy=Occupancy(tables.grid), tables=tables)
    result = _search(req, two_phase=False)
    return None if result is None else result.cost
