"""Conflict detection, the choice of the conflict to split, priority
classification, and target reasoning.

Target conflicts split into a LENGTH_GT/LENGTH_LEQ pair on the agent whose
target is contested; other vertex/edge conflicts split into the usual
symmetric pair. Cardinality is checked with single-agent probes that run
the low level's focal kernel (`earliest_arrival`) rather than MDDs, under
the agent's own constraints and the CT node's LENGTH_LEQ target blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .constraints import (BY_PAIR, Conflict, ConflictClass, Constraint, Path,
                          edge_constraint, length_gt, length_leq,
                          vertex_constraint)
from .lowlevel import ConstraintTable, Distances, Occupancy, earliest_arrival
from .map_io import Cell, GridMap

MAX_CLASSIFIED_CONFLICTS = 8  # bounded classification effort per node


# Nothing in this package builds one; kept until the benchmark drops its hook.
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


# Nothing in this package calls it; kept until the benchmark drops its hook.
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


class Classifier:
    """Chooses a CT node's conflict and assigns priority classes; needs the
    agents' `targets` and node context (paths, constraints, blocks).

    With `symmetry` a conflict at a finished agent's target is a TARGET
    conflict; otherwise, with `prioritize`, cardinality probes rank it. The
    probes read the grid and the table to the agent's target from `tables`,
    the grid's `Distances` cache, shared with the owner. One Classifier
    serves one Solver: its probe verdicts are kept for its life.
    """

    def __init__(self, targets: dict[int, Cell], tables: Distances,
                 symmetry: bool = True, prioritize: bool = True):
        self.targets = targets
        self.symmetry = symmetry
        self.prioritize = prioritize
        self.tables = tables
        # (agent, id of its constraint tuple, binding blocks, split, cost)
        # -> (that tuple, verdict); holding the tuple keeps its id from reuse
        self._verdicts: dict[tuple, tuple[tuple[Constraint, ...], bool]] = {}

    def choose(self, conflicts: list[Conflict], paths: list[Path],
               constraints: list[tuple[Constraint, ...]],
               blocks: tuple[Constraint, ...]) -> Conflict:
        """The conflict to split: the best of the first few by `sort_key`,
        which is unique in a node's list, so the list's order is moot."""
        ordered = sorted(conflicts, key=Conflict.sort_key)
        if not (self.prioritize or self.symmetry):
            return ordered[0]
        return pick_conflict([self.classify(c, paths, constraints, blocks)
                              for c in ordered[:MAX_CLASSIFIED_CONFLICTS]])

    def classify(self, conflict: Conflict, paths: list[Path],
                 constraints: list[tuple[Constraint, ...]],
                 blocks: tuple[Constraint, ...]) -> Conflict:
        if self.symmetry:
            tc = self._as_target(conflict, paths)
            if tc is not None:
                return tc
        if self.prioritize:
            return self._cardinality(conflict, paths, constraints, blocks)
        return conflict

    def _as_target(self, c: Conflict, paths: list[Path]) -> Conflict | None:
        if c.is_edge:
            return None
        for holder in (c.a_i, c.a_j):
            if self.targets[holder] == c.v and paths[holder].cost <= c.t:
                return replace(c, cls=ConflictClass.TARGET, target_agent=holder)
        return None

    def _cardinality(self, c: Conflict, paths: list[Path],
                     constraints: list[tuple[Constraint, ...]],
                     blocks: tuple[Constraint, ...]) -> Conflict:
        blocked = sum(self._forced(agent, c, paths, constraints, blocks)
                      for agent in (c.a_i, c.a_j))
        cls = (ConflictClass.CARDINAL if blocked == 2 else
               ConflictClass.SEMI_CARDINAL if blocked == 1 else
               ConflictClass.NON_CARDINAL)
        return replace(c, cls=cls)

    def _forced(self, agent: int, c: Conflict, paths: list[Path],
                constraints: list[tuple[Constraint, ...]],
                blocks: tuple[Constraint, ...]) -> bool:
        """True if no path of the current cost avoids the conflict point:
        with its side of the split added to the constraints its replan
        reads, the agent cannot reach its target and park there by then.

        Of the node's blocks only other agents' blocks with t <= cost bind
        by then (targets are distinct), so the probe reads just those and
        its verdict is a function of the memo key. Children share unchanged
        constraint tuples by reference, so the key holds the own tuple's id
        rather than its hash, which would cost about as much as a probe."""
        own = constraints[agent]
        extra = split_constraint_for(agent, c)
        start, cost = paths[agent].cells[0], paths[agent].cost
        binding = tuple(b for b in blocks if b.agent != agent and b.t <= cost)
        key = (agent, id(own), binding, extra, cost)
        known = self._verdicts.get(key)
        if known is not None:
            return known[1]
        ctable = ConstraintTable(
            self.tables.grid, agent,
            [*own, *binding, extra, length_leq(agent, cost)], self.targets)
        forced = earliest_arrival(ctable, start, self.targets[agent],
                                  self.tables) is None
        self._verdicts[key] = (own, forced)
        return forced


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
    return ((c.a_i, split_constraint_for(c.a_i, c)),
            (c.a_j, split_constraint_for(c.a_j, c)))


def pick_conflict(conflicts: list[Conflict]) -> Conflict:
    """Deterministic selection: best class, then earliest, then lowest pair."""
    return min(conflicts, key=Conflict.sort_key)
