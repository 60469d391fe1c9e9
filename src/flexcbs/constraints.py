"""Paths, conflicts, constraints and delay estimation. The per-search view
of an agent's constraints, `lowlevel.ConstraintTable`, lives with the
search kernel, the one module that knows the space-time key."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from operator import attrgetter

from .map_io import Cell


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


BY_PAIR = attrgetter("a_i", "a_j", "t")  # the order conflict scans return


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


def estimate_delays(constraints: tuple[Constraint, ...],
                    parent_cost: int) -> int:
    """Total rule-based delay estimate over one agent's constraint tuple.

    Vertex/edge constraints are assumed satisfiable with one wait (delay 1);
    a LENGTH_GT forces a later arrival, clamped at 0; a LENGTH_LEQ, which a
    CT node keeps in its blocks rather than in the tuple, is free.
    """
    total = 0
    for c in constraints:
        if c.kind in (ConstraintKind.VERTEX, ConstraintKind.EDGE):
            total += 1
        elif c.kind is ConstraintKind.LENGTH_GT:
            total += max(0, c.t - parent_cost)
    return total
