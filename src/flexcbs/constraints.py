"""Paths, conflicts, constraints, the per-search constraint table, and delay
estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from operator import attrgetter

from .map_io import Cell

INF = math.inf


@dataclass(frozen=True)
class Path:
    agent: int
    cells: tuple[Cell, ...]

    @property
    def cost(self) -> int:
        return len(self.cells) - 1

    def at(self, t: int) -> Cell:
        """Position at timestep t; a finished agent parks at its last cell."""
        return self.cells[t] if t < len(self.cells) else self.cells[-1]


class ConflictClass(IntEnum):
    """Priority classes; lower value = resolved first."""
    TARGET = 0
    CORRIDOR = 1  # never assigned; kept until the benchmark drops its hook
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

    @property
    def is_edge(self) -> bool:
        return self.u is not None

    def sort_key(self):
        return (int(self.cls), self.t, min(self.a_i, self.a_j),
                max(self.a_i, self.a_j))


BY_PAIR = attrgetter("a_i", "a_j", "t")  # the order conflict lists are kept in


class ConstraintKind(Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    LENGTH_LEQ = "length_leq"
    LENGTH_GT = "length_gt"


@dataclass(frozen=True)
class Constraint:
    """A single motion constraint on one agent.

    - VERTEX(agent, v, t): may not occupy v at t.
    - EDGE(agent, u, v, t): may not move u -> v arriving at t.
    - LENGTH_LEQ(agent, t): must finish with cost <= t; every other agent may
      not occupy this agent's target at any timestep >= t.
    - LENGTH_GT(agent, t): must finish with cost > t.
    """
    kind: ConstraintKind
    agent: int
    t: int
    v: Cell | None = None
    u: Cell | None = None  # edge origin

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("constraint timestep must be >= 0")


def vertex_constraint(agent: int, v: Cell, t: int) -> Constraint:
    return Constraint(ConstraintKind.VERTEX, agent, t, v=v)


def edge_constraint(agent: int, u: Cell, v: Cell, t: int) -> Constraint:
    return Constraint(ConstraintKind.EDGE, agent, t, v=v, u=u)


def length_leq(agent: int, t: int) -> Constraint:
    return Constraint(ConstraintKind.LENGTH_LEQ, agent, t)


def length_gt(agent: int, t: int) -> Constraint:
    return Constraint(ConstraintKind.LENGTH_GT, agent, t)


class ConstraintTable:
    """O(1)-queryable view of all constraints relevant to one agent.

    Built per low-level search invocation from the agent's own constraints plus
    the target blocks induced by other agents' LENGTH_LEQ constraints.

    The holding time of a goal, `hold_time(goal)`, is the earliest timestep
    from which the agent may park there for good:
    max(earliest_goal, last_block_on(goal) + 1), INF if the goal is blocked
    forever. Every valid path finishes at a time t with
    hold_time(goal) <= t <= latest_goal.
    """

    def __init__(self, agent: int, constraints: list[Constraint],
                 targets: dict[int, Cell] | None = None):
        self.agent = agent
        self._vertex: set[tuple[Cell, int]] = set()
        self._edge: set[tuple[Cell, Cell, int]] = set()
        self.blocked_from: dict[Cell, int] = {}     # blocked for all t >= value
        self.earliest_goal = 0
        self.latest_goal = INF
        self.latest_constraint_t = 0
        # every cell some constraint bars the agent from entering: no other
        # cell is ever blocked, so callers may skip the probes for the rest
        self.guarded: set[Cell] = set()
        targets = targets or {}
        for c in constraints:
            if c.kind in (ConstraintKind.VERTEX, ConstraintKind.EDGE,
                          ConstraintKind.LENGTH_GT):
                if c.agent != agent:
                    continue
            if c.kind is ConstraintKind.VERTEX:
                self._vertex.add((c.v, c.t))
                self.guarded.add(c.v)
                self.latest_constraint_t = max(self.latest_constraint_t, c.t)
            elif c.kind is ConstraintKind.EDGE:
                self._edge.add((c.u, c.v, c.t))
                self.guarded.add(c.v)
                self.latest_constraint_t = max(self.latest_constraint_t, c.t)
            elif c.kind is ConstraintKind.LENGTH_GT:
                self.earliest_goal = max(self.earliest_goal, c.t + 1)
                self.latest_constraint_t = max(self.latest_constraint_t, c.t + 1)
            elif c.kind is ConstraintKind.LENGTH_LEQ:
                if c.agent == agent:
                    self.latest_goal = min(self.latest_goal, c.t)
                else:
                    tgt = targets.get(c.agent)
                    if tgt is not None:
                        prev = self.blocked_from.get(tgt, INF)
                        self.blocked_from[tgt] = min(prev, c.t)
                        self.guarded.add(tgt)
                self.latest_constraint_t = max(self.latest_constraint_t, c.t)

    @property
    def infeasible(self) -> bool:
        return self.earliest_goal > self.latest_goal

    def is_blocked(self, v: Cell, t: int) -> bool:
        if (v, t) in self._vertex:
            return True
        frm = self.blocked_from.get(v)
        return frm is not None and t >= frm

    def is_edge_blocked(self, u: Cell, v: Cell, t: int) -> bool:
        return (u, v, t) in self._edge

    def last_block_on(self, v: Cell) -> float:
        """Latest timestep at which v is blocked; INF if blocked forever."""
        if v in self.blocked_from:
            return INF
        last = -1
        for (cell, t) in self._vertex:
            if cell == v and t > last:
                last = t
        return last

    def hold_time(self, goal: Cell) -> float:
        """Earliest timestep from which the agent may park at goal for good;
        INF if goal is blocked forever."""
        return max(self.earliest_goal, self.last_block_on(goal) + 1)


def estimate_delays(constraints: list[Constraint], agent: int,
                    parent_cost: int) -> int:
    """Total rule-based delay estimate over the agent's constraints.

    Vertex/edge constraints are assumed satisfiable with one wait (delay 1);
    a LENGTH_GT forces a later arrival, clamped at 0; a LENGTH_LEQ is free.
    Other agents' constraints, such as their target blocks, add nothing.
    """
    total = 0
    for c in constraints:
        if c.agent != agent:
            continue
        if c.kind in (ConstraintKind.VERTEX, ConstraintKind.EDGE):
            total += 1
        elif c.kind is ConstraintKind.LENGTH_GT:
            total += max(0, c.t - parent_cost)
    return total
