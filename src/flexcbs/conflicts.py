"""Conflict detection, priority classification, and symmetry reasoning.

Corridor and target conflicts get dedicated range/length constraints; other
vertex/edge conflicts split into the usual symmetric pair. Cardinality is
checked with bounded single-agent searches rather than MDDs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .constraints import (BY_PAIR, Conflict, ConflictClass, Constraint,
                          ConstraintTable, Path, edge_constraint, length_gt,
                          length_leq, range_constraint, vertex_constraint)
from .lowlevel import (INF, Distances, DistanceTable, Occupancy,
                       earliest_arrival)
from .map_io import Cell, GridMap


@dataclass(frozen=True)
class Corridor:
    interior: tuple[Cell, ...]
    endpoints: tuple[Cell, Cell]

    @property
    def cells(self) -> frozenset[Cell]:
        return frozenset(self.interior) | frozenset(self.endpoints)


def conflict_counts(conflicts: list[Conflict], k: int) -> list[int]:
    """Number of conflicts each of the k agents takes part in."""
    counts = [0] * k
    for c in conflicts:
        counts[c.a_i] += 1
        counts[c.a_j] += 1
    return counts


def detect_conflicts(grid: GridMap, paths: list[Path]
                     ) -> tuple[list[Conflict], list[int], int]:
    """All vertex/edge conflicts between every pair, with target permanence.

    Agents are the list positions and the paths lie on `grid`. Each path is
    checked against the ones before it through one `Occupancy`, so the cost
    is one index lookup per timestep and hit instead of one scan per pair.
    The list is sorted by (a_i, a_j, t). Returns (conflicts, per-agent
    counts, total count); the total equals half the sum of the per-agent
    counts.
    """
    occ = Occupancy(grid)
    conflicts = []
    for i, path in enumerate(paths):
        if path.agent != i:
            path = Path(i, path.cells)
        conflicts.extend(occ.conflicts_with(path))
        occ.add(path)
    conflicts.sort(key=BY_PAIR)
    return conflicts, conflict_counts(conflicts, len(paths)), len(conflicts)


def find_corridor(grid: GridMap, v: Cell) -> Corridor | None:
    """Maximal degree-2 chain containing v, with its two endpoints."""
    if not grid.is_passable(v) or grid.degree(v) != 2:
        return None
    chain = [v]
    ends = []
    for direction in grid.neighbors(v):
        prev, cur = v, direction
        while grid.degree(cur) == 2 and cur not in chain:
            chain.append(cur)
            nxt = [n for n in grid.neighbors(cur) if n != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        ends.append(cur)
    return Corridor(interior=tuple(chain), endpoints=(ends[0], ends[1]))


def _traversal(path: Path, corridor: Corridor) -> tuple[Cell, Cell, int] | None:
    """(entry, exit, exit time) if the path fully crosses the corridor."""
    e0, e1 = corridor.endpoints
    t0 = next((t for t, c in enumerate(path.cells) if c == e0), None)
    t1 = next((t for t, c in enumerate(path.cells) if c == e1), None)
    if t0 is None or t1 is None or t0 == t1:
        return None
    if t0 < t1:
        return e0, e1, t1
    return e1, e0, t0


def detour_exists(grid: GridMap, ctable: ConstraintTable, start: Cell,
                  dest: Cell, horizon: int, banned: frozenset[Cell],
                  around: DistanceTable) -> bool:
    """Whether `earliest_arrival(grid, ctable, start, dest, horizon,
    banned=banned)` finds an arrival; `around` is
    `compute_h(grid, dest, banned=banned)`.

    Most probes are decided from the static table alone. It reads INF at the
    start when no path avoids the banned cells. A descent along it that
    enters no guarded cell is a path no constraint bars, arriving at
    h(start) <= horizon. Only a descent through a guarded cell needs the
    time-expanded sweep.
    """
    if start in banned or dest in banned:
        return False
    src = grid.id_of(start)
    d0 = around[src]
    if d0 == INF:
        return False
    if d0 <= horizon and not ctable.is_blocked(start, 0):
        moves, dist, cell_of = grid.moves, around.dist, grid.cell_of
        v = src
        for d in range(d0, 0, -1):
            v = next(nb for nb in moves[v] if dist[nb] == d - 1)
            if cell_of[v] in ctable.guarded:
                break
        else:
            return True
    return earliest_arrival(grid, ctable, start, dest, horizon, banned=banned,
                            h=around) is not None


class Classifier:
    """Assigns priority classes; needs node context (paths, constraints).

    Its probes read static distances from `tables`, the grid's `Distances`
    cache, shared with the owner (a fresh one if None): the table to an
    agent's target for cardinality probes, and for a corridor the tables to
    its exit, plain and around the interior, the second answering detour
    probes.
    """

    def __init__(self, grid: GridMap, symmetry: bool = True,
                 prioritize: bool = True, tables: Distances | None = None):
        self.grid = grid
        self.symmetry = symmetry
        self.prioritize = prioritize
        self.tables = tables if tables is not None else Distances(grid)

    def classify(self, conflict: Conflict, paths: list[Path],
                 constraints: list[tuple[Constraint, ...]],
                 targets: dict[int, Cell]) -> Conflict:
        if self.symmetry:
            tc = self._as_target(conflict, paths, targets)
            if tc is not None:
                return tc
            cc = self._as_corridor(conflict, paths, constraints, targets)
            if cc is not None:
                return cc
        if self.prioritize:
            return self._cardinality(conflict, paths, constraints, targets)
        return conflict

    def _as_target(self, c: Conflict, paths: list[Path],
                   targets: dict[int, Cell]) -> Conflict | None:
        if c.is_edge:
            return None
        for holder in (c.a_i, c.a_j):
            if targets[holder] == c.v and paths[holder].cost <= c.t:
                return replace(c, cls=ConflictClass.TARGET, target_agent=holder)
        return None

    def _as_corridor(self, c: Conflict, paths: list[Path],
                     constraints: list[tuple[Constraint, ...]],
                     targets: dict[int, Cell]) -> Conflict | None:
        probe = c.v if self.grid.degree(c.v) == 2 else (c.u if c.is_edge else None)
        if probe is None or self.grid.degree(probe) != 2:
            return None
        corridor = find_corridor(self.grid, probe)
        if corridor is None or len(corridor.interior) < 1:
            return None
        trav_i = _traversal(paths[c.a_i], corridor)
        trav_j = _traversal(paths[c.a_j], corridor)
        if trav_i is None or trav_j is None:
            return None
        if trav_i[1] == trav_j[1]:  # same direction: not a corridor symmetry
            return None
        exit_time_i, exit_time_j = trav_i[2], trav_j[2]
        # Only treat as a corridor conflict when the corridor is a mandatory
        # passage for both agents; otherwise range constraints could prune
        # valid solutions reachable through a detour.
        horizon = self.grid.num_passable() * 2
        banned = frozenset(corridor.interior)
        tmins = []
        for agent, (_entry, exit_, _t) in ((c.a_i, trav_i), (c.a_j, trav_j)):
            ctable = ConstraintTable(agent, constraints[agent], targets=targets)
            start = paths[agent].cells[0]
            if detour_exists(self.grid, ctable, start, exit_, horizon, banned,
                             self.tables.get(exit_, banned)):
                return None
            tmin = earliest_arrival(self.grid, ctable, start, exit_, horizon,
                                    h=self.tables.get(exit_))
            if tmin is None:
                return None
            tmins.append(tmin)
        # The range constraints must forbid both current paths, otherwise a
        # child would inherit its parent's paths unchanged and the tree would
        # revisit this conflict forever.
        if exit_time_i > tmins[1] or exit_time_j > tmins[0]:
            return None
        return replace(c, cls=ConflictClass.CORRIDOR,
                       exit_i=trav_i[1], exit_j=trav_j[1],
                       t_min_i=tmins[0], t_min_j=tmins[1])

    def _cardinality(self, c: Conflict, paths: list[Path],
                     constraints: list[tuple[Constraint, ...]],
                     targets: dict[int, Cell]) -> Conflict:
        blocked = 0
        for agent in (c.a_i, c.a_j):
            if self._forced(agent, c, paths, constraints, targets):
                blocked += 1
        cls = (ConflictClass.CARDINAL if blocked == 2 else
               ConflictClass.SEMI_CARDINAL if blocked == 1 else
               ConflictClass.NON_CARDINAL)
        return replace(c, cls=cls)

    def _forced(self, agent: int, c: Conflict, paths: list[Path],
                constraints: list[tuple[Constraint, ...]],
                targets: dict[int, Cell]) -> bool:
        """True if no path of the current cost avoids the conflict point."""
        extra = split_constraint_for(agent, c)
        ctable = ConstraintTable(agent, [*constraints[agent], extra],
                                 targets=targets)
        if ctable.infeasible:
            return True
        path = paths[agent]
        return earliest_arrival(self.grid, ctable, path.cells[0],
                                targets[agent], path.cost,
                                arrive_ok=ctable.goal_arrival_ok,
                                h=self.tables.get(targets[agent])) is None


def split_constraint_for(agent: int, c: Conflict) -> Constraint:
    """The vertex/edge constraint a plain split assigns to one of the agents."""
    if not c.is_edge:
        return vertex_constraint(agent, c.v, c.t)
    if agent == c.a_i:
        return edge_constraint(agent, c.u, c.v, c.t)
    return edge_constraint(agent, c.v, c.u, c.t)


def split_conflict(c: Conflict) -> tuple[tuple[int, Constraint], tuple[int, Constraint]]:
    """The constraint added to each child node, keyed by constrained agent."""
    if c.cls is ConflictClass.TARGET:
        j = c.target_agent
        return (j, length_gt(j, c.t)), (j, length_leq(j, c.t))
    if c.cls is ConflictClass.CORRIDOR:
        return ((c.a_i, range_constraint(c.a_i, c.exit_i, c.t_min_j)),
                (c.a_j, range_constraint(c.a_j, c.exit_j, c.t_min_i)))
    return ((c.a_i, split_constraint_for(c.a_i, c)),
            (c.a_j, split_constraint_for(c.a_j, c)))


def pick_conflict(conflicts: list[Conflict]) -> Conflict:
    """Deterministic selection: best class, then earliest, then lowest pair."""
    return min(conflicts, key=Conflict.sort_key)
