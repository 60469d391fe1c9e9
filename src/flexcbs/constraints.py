"""Paths, constraints, the per-search constraint table, and delay estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


class ConstraintKind(Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    RANGE = "range"
    LENGTH_LEQ = "length_leq"
    LENGTH_GT = "length_gt"


@dataclass(frozen=True)
class Constraint:
    """A single motion constraint on one agent.

    - VERTEX(agent, v, t): may not occupy v at t.
    - EDGE(agent, u, v, t): may not move u -> v arriving at t.
    - RANGE(agent, v, t): may not occupy v at any timestep in [0, t].
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


def range_constraint(agent: int, v: Cell, t_ub: int) -> Constraint:
    return Constraint(ConstraintKind.RANGE, agent, t_ub, v=v)


def length_leq(agent: int, t: int) -> Constraint:
    return Constraint(ConstraintKind.LENGTH_LEQ, agent, t)


def length_gt(agent: int, t: int) -> Constraint:
    return Constraint(ConstraintKind.LENGTH_GT, agent, t)


class ConstraintTable:
    """O(1)-queryable view of all constraints relevant to one agent.

    Built per low-level search invocation from the agent's own constraints plus
    the target blocks induced by other agents' LENGTH_LEQ constraints.
    """

    def __init__(self, agent: int, constraints: list[Constraint],
                 targets: dict[int, Cell] | None = None):
        self.agent = agent
        self._vertex: set[tuple[Cell, int]] = set()
        self._edge: set[tuple[Cell, Cell, int]] = set()
        self._range_ub: dict[Cell, int] = {}        # blocked for all t <= ub
        self._blocked_from: dict[Cell, int] = {}    # blocked for all t >= value
        self.earliest_goal = 0
        self.latest_goal = INF
        self.latest_constraint_t = 0
        targets = targets or {}
        for c in constraints:
            if c.kind in (ConstraintKind.VERTEX, ConstraintKind.EDGE,
                          ConstraintKind.RANGE, ConstraintKind.LENGTH_GT):
                if c.agent != agent:
                    continue
            if c.kind is ConstraintKind.VERTEX:
                self._vertex.add((c.v, c.t))
                self.latest_constraint_t = max(self.latest_constraint_t, c.t)
            elif c.kind is ConstraintKind.EDGE:
                self._edge.add((c.u, c.v, c.t))
                self.latest_constraint_t = max(self.latest_constraint_t, c.t)
            elif c.kind is ConstraintKind.RANGE:
                self._range_ub[c.v] = max(self._range_ub.get(c.v, -1), c.t)
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
                        prev = self._blocked_from.get(tgt, INF)
                        self._blocked_from[tgt] = min(prev, c.t)
                self.latest_constraint_t = max(self.latest_constraint_t, c.t)

    @property
    def infeasible(self) -> bool:
        return self.earliest_goal > self.latest_goal

    def is_blocked(self, v: Cell, t: int) -> bool:
        if (v, t) in self._vertex:
            return True
        ub = self._range_ub.get(v)
        if ub is not None and t <= ub:
            return True
        frm = self._blocked_from.get(v)
        return frm is not None and t >= frm

    def is_edge_blocked(self, u: Cell, v: Cell, t: int) -> bool:
        return (u, v, t) in self._edge

    def last_block_on(self, v: Cell) -> float:
        """Latest timestep at which v is blocked; INF if blocked forever."""
        if v in self._blocked_from:
            return INF
        last = -1
        ub = self._range_ub.get(v)
        if ub is not None:
            last = ub
        for (cell, t) in self._vertex:
            if cell == v and t > last:
                last = t
        return last

    def goal_arrival_ok(self, goal: Cell, t: int) -> bool:
        """Can the agent arrive at goal at t and park there forever?"""
        if t < self.earliest_goal or t > self.latest_goal:
            return False
        return t > self.last_block_on(goal)


def estimate_delays(constraints: list[Constraint], agent: int,
                    parent_path: Path | None, parent_cost: int) -> int:
    """Total rule-based delay estimate over the agent's constraints.

    Vertex/edge constraints are assumed satisfiable with one wait (delay 1).
    A range constraint on the exit vertex delays until the block lifts.
    Blocks induced on other agents by a LENGTH_LEQ are free; a LENGTH_GT on the
    replanned agent forces a later arrival. Each delay is clamped at 0.
    """
    total = 0
    for c in constraints:
        if c.agent != agent and c.kind is not ConstraintKind.LENGTH_LEQ:
            continue
        if c.kind in (ConstraintKind.VERTEX, ConstraintKind.EDGE):
            d = 1
        elif c.kind is ConstraintKind.RANGE:
            t_e = None
            if parent_path is not None:
                for t, cell in enumerate(parent_path.cells):
                    if cell == c.v:
                        t_e = t
                        break
            d = max(0, c.t + 1 - t_e) if t_e is not None else 0
        elif c.kind is ConstraintKind.LENGTH_GT and c.agent == agent:
            d = max(0, c.t - parent_cost)
        else:  # LENGTH_LEQ (own or induced block): assumed free
            d = 0
        total += d
    return total
