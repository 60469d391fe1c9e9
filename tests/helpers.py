"""Shared test utilities: instance generators and an independent
constrained-shortest-path oracle used to cross-check the search code."""

from __future__ import annotations

import random
from collections import deque

from hypothesis import strategies as st

from flexcbs.constraints import Conflict, Constraint, ConstraintKind, Path
from flexcbs.highlevel import CTNode, Solver
from flexcbs.map_io import AgentSpec, Cell, GridMap, Instance


def grid_from_rows(rows: list[str]) -> GridMap:
    passable = tuple(ch == "." for row in rows for ch in row)
    return GridMap(len(rows), len(rows[0]), passable)


def open_grid(height: int, width: int) -> GridMap:
    return GridMap(height, width, tuple([True] * (height * width)))


def random_grid(rng: random.Random, height: int, width: int,
                density: float) -> GridMap:
    cells = tuple(rng.random() >= density for _ in range(height * width))
    return GridMap(height, width, cells)


@st.composite
def small_grids(draw, max_height: int = 6, max_width: int = 7) -> GridMap:
    """Grids with about half their cells blocked, so most split into
    several components."""
    height = draw(st.integers(1, max_height))
    width = draw(st.integers(1, max_width))
    passable = draw(st.lists(st.booleans(), min_size=height * width,
                             max_size=height * width))
    return GridMap(height, width, tuple(passable))


def brute_steps(grid: GridMap, cell: Cell) -> list[Cell]:
    """The cell, then its passable up/down/left/right neighbors: the moves of
    one timestep, from the grid's bounds and passability alone."""
    r, c = cell
    return [cell] + [(r2, c2) for r2, c2 in ((r - 1, c), (r + 1, c),
                                             (r, c - 1), (r, c + 1))
                     if 0 <= r2 < grid.height and 0 <= c2 < grid.width
                     and grid.passable[r2 * grid.width + c2]]


def brute_distances(grid: GridMap, target: Cell,
                    banned: frozenset[Cell] = frozenset()) -> dict[Cell, int]:
    """Static distance to target from every cell that can reach it without
    entering a banned cell, by a BFS over cell tuples; the reference for
    `compute_h`."""
    dist = {target: 0}
    queue = deque([target])
    while queue:
        cur = queue.popleft()
        for nb in brute_steps(grid, cur):
            if nb not in dist and nb not in banned:
                dist[nb] = dist[cur] + 1
                queue.append(nb)
    return dist


def largest_component(grid: GridMap) -> list[Cell]:
    seen: set[Cell] = set()
    best: list[Cell] = []
    for c in grid.passable_cells():
        if c in seen:
            continue
        comp = [c]
        seen.add(c)
        stack = [c]
        while stack:
            v = stack.pop()
            for nb in grid.neighbors(v):
                if nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
                    stack.append(nb)
        if len(comp) > len(best):
            best = comp
    return sorted(best)


def random_instance(rng: random.Random, hmax: int, wmax: int, k: int,
                    density: float = 0.2) -> Instance:
    """A random connected instance with k agents; retries until valid."""
    while True:
        h = rng.randint(2, hmax)
        w = rng.randint(2, wmax)
        grid = random_grid(rng, h, w, density)
        comp = largest_component(grid)
        if len(comp) < 2 * k + 1:
            continue
        starts = rng.sample(comp, k)
        targets = rng.sample(comp, k)
        agents = tuple(AgentSpec(i, starts[i], targets[i]) for i in range(k))
        try:
            return Instance(grid, agents)
        except Exception:
            continue


def swap_instance() -> Instance:
    """Two agents exchanging ends of the top row of an open 3x3 grid."""
    grid = open_grid(3, 3)
    return Instance(grid, (AgentSpec(0, (0, 0), (0, 2)),
                           AgentSpec(1, (0, 2), (0, 0))))


def random_walk_path(rng: random.Random, grid: GridMap, start: Cell,
                     length: int, agent: int = 99) -> Path:
    cells = [start]
    for _ in range(length):
        options = [cells[-1]] + grid.neighbors(cells[-1])
        cells.append(rng.choice(options))
    return Path(agent, tuple(cells))


def brute_pair_conflicts(i: int, j: int, pi: Path, pj: Path) -> list[Conflict]:
    """Vertex/edge conflicts between agents i < j, with target permanence,
    by a direct timestep-by-timestep scan of the two paths."""
    out = []
    prev_i, prev_j = pi.at(0), pj.at(0)
    if prev_i == prev_j:
        out.append(Conflict(i, j, prev_i, 0))
    for t in range(1, max(pi.cost, pj.cost) + 1):
        ci, cj = pi.at(t), pj.at(t)
        if ci == cj:
            out.append(Conflict(i, j, ci, t))
        elif ci == prev_j and cj == prev_i and ci != prev_i:
            out.append(Conflict(i, j, ci, t, u=prev_i))
        prev_i, prev_j = ci, cj
    return out


def pair_scan_conflict_lines(paths: list[Path]) -> list[str]:
    """The vertex and edge conflict lines `oracle.validate` reports, by a
    scan of every pair of paths over every timestep, agents parking at their
    last cell; the reference for validate's one pass per timestep."""
    lines = []
    k = len(paths)
    horizon = max((p.cost for p in paths), default=0)
    for i in range(k):
        for j in range(i + 1, k):
            pi, pj = paths[i], paths[j]
            prev_i, prev_j = pi.at(0), pj.at(0)
            if prev_i == prev_j:
                lines.append(f"vertex conflict: agents {i},{j} at "
                             f"{prev_i} t=0")
            for t in range(1, horizon + 1):
                ci, cj = pi.at(t), pj.at(t)
                if ci == cj:
                    lines.append(f"vertex conflict: agents {i},{j} at "
                                 f"{ci} t={t}")
                elif ci == prev_j and cj == prev_i and ci != prev_i:
                    lines.append(f"edge conflict: agents {i},{j} swap "
                                 f"{prev_i}<->{prev_j} at t={t}")
                prev_i, prev_j = ci, cj
    return lines


def occupancy_state(occ) -> tuple:
    """An Occupancy's vertex, edge, parked and cost tables, with the agents
    under each key sorted, so indexes built in different orders compare
    equal."""
    return ({k: sorted(v) for k, v in occ.vertex.items()},
            {k: sorted(v) for k, v in occ.edge.items()}, occ.parked,
            occ.costs)


def brute_constrained_opt(grid: GridMap, constraints, agent: int, start: Cell,
                          goal: Cell, targets: dict[int, Cell],
                          horizon: int) -> int | None:
    """Minimum feasible arrival time under the constraint semantics, found by
    direct timestep-by-timestep reachability, independent of the search code.

    An arrival must occupy the goal and be allowed to finish there and stay
    forever. Returns None when no arrival at or before the horizon is
    feasible.
    """
    vertex: set[tuple[Cell, int]] = set()
    edges: set[tuple[Cell, Cell, int]] = set()
    blocked_from: dict[Cell, int] = {}
    earliest, latest = 0, horizon
    for c in constraints:
        if c.kind is ConstraintKind.VERTEX and c.agent == agent:
            vertex.add((c.v, c.t))
        elif c.kind is ConstraintKind.EDGE and c.agent == agent:
            edges.add((c.u, c.v, c.t))
        elif c.kind is ConstraintKind.LENGTH_GT and c.agent == agent:
            earliest = max(earliest, c.t + 1)
        elif c.kind is ConstraintKind.LENGTH_LEQ:
            if c.agent == agent:
                latest = min(latest, c.t)
            else:
                tgt = targets.get(c.agent)
                if tgt is not None:
                    prev = blocked_from.get(tgt, horizon + 1)
                    blocked_from[tgt] = min(prev, c.t)

    never = horizon + 1

    def blocked(v: Cell, t: int) -> bool:
        if (v, t) in vertex:
            return True
        return t >= blocked_from.get(v, never)

    if blocked(start, 0):
        return None
    if goal in blocked_from:
        return None
    last_goal_block = -1
    for (v, t) in vertex:
        if v == goal:
            last_goal_block = max(last_goal_block, t)

    def arrival_ok(t: int) -> bool:
        return earliest <= t <= latest and t > last_goal_block

    if start == goal and arrival_ok(0):
        return 0
    reach = {start}
    for t in range(1, horizon + 1):
        nxt = set()
        for v in reach:
            for v2 in [v] + grid.neighbors(v):
                if blocked(v2, t) or (v, v2, t) in edges:
                    continue
                nxt.add(v2)
        if goal in nxt and arrival_ok(t):
            return t
        if not nxt:
            return None
        reach = nxt
    return None


class TreeSolver(Solver):
    """A Solver whose make_root and make_child keep every node they return
    in `tree_nodes`, in generation order, and map each child's seq to the
    parent make_child was given in `parent_of` and to the constraint its
    split added in `split_of`. Bypass-adopted nodes are not among the kept
    nodes, but may be a kept node's parent; `adopted` lists each as (the
    node it replaces, the adopted node)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tree_nodes: list[CTNode] = []
        self.parent_of: dict[int, CTNode] = {}
        self.split_of: dict[int, Constraint] = {}
        self.adopted: list[tuple[CTNode, CTNode]] = []

    def make_root(self) -> CTNode | None:
        return self._keep(super().make_root())

    def make_child(self, parent: CTNode, agent: int, constraint: Constraint,
                   *args) -> CTNode | None:
        child = self._keep(super().make_child(parent, agent, constraint,
                                              *args))
        if child is not None:
            self.parent_of[child.seq] = parent
            self.split_of[child.seq] = constraint
        return child

    def _try_bypass(self, node: CTNode, *args) -> CTNode | None:
        adopted = super()._try_bypass(node, *args)
        if adopted is not None:
            self.adopted.append((node, adopted))
        return adopted

    def _keep(self, node: CTNode | None) -> CTNode | None:
        if node is not None:
            self.tree_nodes.append(node)
        return node
