"""Conflict detection, priority classification, and symmetry reasoning.

Corridor and target conflicts get dedicated range/length constraints; other
vertex/edge conflicts split into the usual symmetric pair. Cardinality is
checked with bounded single-agent searches rather than MDDs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

from .constraints import (Constraint, ConstraintTable, Path, edge_constraint,
                          length_gt, length_leq, range_constraint,
                          vertex_constraint)
from .lowlevel import earliest_arrival
from .map_io import Cell, GridMap


class ConflictClass(IntEnum):
    """Priority classes; lower value = resolved first."""
    TARGET = 0
    CORRIDOR = 1
    CARDINAL = 2
    SEMI_CARDINAL = 3
    NON_CARDINAL = 4
    UNCLASSIFIED = 5


@dataclass(frozen=True)
class Conflict:
    a_i: int
    a_j: int
    v: Cell            # conflict vertex (destination of a_i for edge conflicts)
    t: int
    u: Cell | None = None  # origin of a_i's move for edge conflicts
    cls: ConflictClass = ConflictClass.UNCLASSIFIED
    # target-conflict data: the agent whose target is contested
    target_agent: int | None = None
    # corridor-conflict data
    exit_i: Cell | None = None
    exit_j: Cell | None = None
    t_min_i: int | None = None
    t_min_j: int | None = None

    @property
    def is_edge(self) -> bool:
        return self.u is not None

    def sort_key(self):
        return (int(self.cls), self.t, min(self.a_i, self.a_j),
                max(self.a_i, self.a_j))


@dataclass(frozen=True)
class Corridor:
    interior: tuple[Cell, ...]
    endpoints: tuple[Cell, Cell]

    @property
    def cells(self) -> frozenset[Cell]:
        return frozenset(self.interior) | frozenset(self.endpoints)


def pair_conflicts(i: int, j: int, pi: Path, pj: Path) -> list[Conflict]:
    """Vertex/edge conflicts between agents i < j, with target permanence."""
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


def conflict_counts(conflicts: list[Conflict], k: int) -> list[int]:
    """Number of conflicts each of the k agents takes part in."""
    counts = [0] * k
    for c in conflicts:
        counts[c.a_i] += 1
        counts[c.a_j] += 1
    return counts


def detect_conflicts(paths: list[Path]) -> tuple[list[Conflict], list[int], int]:
    """All vertex/edge conflicts between every pair, with target permanence.

    Returns (conflicts, per-agent counts, total count); the total equals half
    the sum of the per-agent counts.
    """
    k = len(paths)
    conflicts = []
    for i in range(k):
        for j in range(i + 1, k):
            conflicts.extend(pair_conflicts(i, j, paths[i], paths[j]))
    return conflicts, conflict_counts(conflicts, k), len(conflicts)


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


class Classifier:
    """Assigns priority classes; needs node context (paths, constraints)."""

    def __init__(self, grid: GridMap, symmetry: bool = True,
                 prioritize: bool = True):
        self.grid = grid
        self.symmetry = symmetry
        self.prioritize = prioritize

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
        for agent, trav in ((c.a_i, trav_i), (c.a_j, trav_j)):
            ctable = ConstraintTable(agent, constraints[agent], targets=targets)
            detour = earliest_arrival(self.grid, ctable, paths[agent].cells[0],
                                      trav[1], horizon, banned=banned)
            if detour is not None:
                return None
            tmin = earliest_arrival(self.grid, ctable, paths[agent].cells[0],
                                    trav[1], horizon)
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
                                arrive_ok=ctable.goal_arrival_ok) is None


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
