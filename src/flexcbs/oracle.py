"""Ground truth at desk scale: a strict solution validator and an exhaustive
joint-state optimal solver for tiny instances."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .constraints import Path
from .lowlevel import compute_h
from .map_io import Cell, Instance

MAX_ORACLE_AGENTS = 3
MAX_ORACLE_CELLS = 36


@dataclass(frozen=True)
class OracleResult:
    solvable: bool
    soc: int | None = None
    witness: tuple[tuple, ...] | None = None


def validate(paths: list[Path], instance: Instance) -> list[str]:
    """Every rule violation in the proposed solution, as human-readable lines.

    Checks path count, endpoints, passability, step continuity, and pairwise
    vertex/edge conflicts with agents parking at their targets forever. An
    empty path is reported and left out of every other check.
    """
    violations = []
    grid = instance.map
    k = instance.num_agents
    if len(paths) != k:
        violations.append(f"expected {k} paths, got {len(paths)}")
        return violations
    for agent in instance.agents:
        p = paths[agent.id]
        if not p.cells:
            violations.append(f"agent {agent.id}: empty path")
            continue
        if p.cells[0] != agent.start:
            violations.append(f"agent {agent.id}: path starts at {p.cells[0]}, "
                              f"expected {agent.start}")
        if p.cells[-1] != agent.target:
            violations.append(f"agent {agent.id}: path ends at {p.cells[-1]}, "
                              f"expected {agent.target}")
        for t, cell in enumerate(p.cells):
            if not grid.is_passable(cell):
                violations.append(f"agent {agent.id}: cell {cell} at t={t} "
                                  "is blocked or out of bounds")
        for t in range(1, len(p.cells)):
            a, b = p.cells[t - 1], p.cells[t]
            if a != b and abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                violations.append(f"agent {agent.id}: illegal step {a}->{b} "
                                  f"at t={t}")
    violations.extend(line for *_ijt, line in sorted(_collisions(paths)))
    return violations


def _collisions(paths: list[Path]) -> list[tuple[int, int, int, str]]:
    """(i, j, t, line) for each vertex or edge conflict between agents i < j
    at timestep t, agents parking at their last cell; empty paths take no
    part.

    One pass per timestep over a map from cell to the agents there: a pair
    shares a cell, or failing that, agent i moves into agent j's old cell
    while j moves into i's old cell.
    """
    tracks = {i: p.cells for i, p in enumerate(paths) if p.cells}
    horizon = max((len(cells) - 1 for cells in tracks.values()), default=0)
    out = []
    before = was = None  # the previous timestep's cells and cell map
    for t in range(horizon + 1):
        now = {i: cells[t] if t < len(cells) else cells[-1]
               for i, cells in tracks.items()}
        at: dict[Cell, list[int]] = {}
        for i, cell in now.items():
            at.setdefault(cell, []).append(i)
        for cell, agents in at.items():
            for x, i in enumerate(agents):
                for j in agents[x + 1:]:
                    out.append((i, j, t, f"vertex conflict: agents {i},{j} "
                                         f"at {cell} t={t}"))
        if before is not None:
            for i, cell in now.items():
                if cell == before[i]:
                    continue
                for j in was.get(cell, ()):
                    if j > i and now[j] == before[i]:
                        out.append((i, j, t, f"edge conflict: agents {i},{j} "
                                             f"swap {before[i]}<->{before[j]} "
                                             f"at t={t}"))
        before, was = now, at
    return out


def optimal_soc(instance: Instance) -> OracleResult:
    """Exact minimum SOC by best-first search over the joint configuration
    space.

    An agent parked at its target accrues no cost while it stays; if it moves
    off later, the deferred waits are charged retroactively, so the SOC
    matches the arrival-time cost definition exactly.
    """
    k = instance.num_agents
    grid = instance.map
    n_cells = grid.num_passable()
    if k > MAX_ORACLE_AGENTS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_AGENTS} agents, got {k}")
    if n_cells > MAX_ORACLE_CELLS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_CELLS} passable cells, "
                         f"got {n_cells}")
    if k == 0:
        return OracleResult(True, 0, ())

    targets = tuple(a.target for a in instance.agents)
    starts = tuple(a.start for a in instance.agents)
    h_tables = [compute_h(grid, t) for t in targets]
    horizon = k * n_cells
    id_of = grid.id_of

    def h(positions) -> int:
        return sum(h_tables[i][id_of(positions[i])] for i in range(k))

    # state: (positions, free) where free[i] counts uncharged waits at target
    start_state = (starts, (0,) * k)
    best: dict[tuple, list[tuple[int, tuple]]] = {starts: [(0, (0,) * k)]}
    heap = [(h(starts), 0, 0, start_state)]
    parents = {start_state: None}
    ctr = 0

    def dominated(positions, g, free) -> bool:
        for g2, free2 in best.get(positions, []):
            if g2 <= g and all(f2 <= f for f2, f in zip(free2, free)):
                return True
        return False

    def record(positions, g, free):
        entries = best.setdefault(positions, [])
        entries[:] = [(g2, f2) for g2, f2 in entries
                      if not (g <= g2 and all(a <= b for a, b in zip(free, f2)))]
        entries.append((g, free))

    expanded = 0
    while heap:
        _fval, g, _, state = heapq.heappop(heap)
        positions, free = state
        if positions == targets:
            return OracleResult(True, g, _reconstruct(parents, state))
        expanded += 1
        if expanded > 4 * horizon * (n_cells ** k):
            break  # safety valve; treated as unsolvable at oracle scale
        moves_per_agent = []
        for i, pos in enumerate(positions):
            moves_per_agent.append([pos] + grid.neighbors(pos))
        for joint in itertools.product(*moves_per_agent):
            if len(set(joint)) != k:
                continue
            if any(joint[i] == positions[j] and joint[j] == positions[i]
                   and positions[i] != positions[j]
                   for i in range(k) for j in range(i + 1, k)):
                continue
            step_cost = 0
            new_free = list(free)
            for i in range(k):
                at_target = positions[i] == targets[i]
                if at_target and joint[i] == targets[i]:
                    new_free[i] += 1
                elif at_target:
                    step_cost += 1 + free[i]
                    new_free[i] = 0
                else:
                    step_cost += 1
                    new_free[i] = 0
            g2 = g + step_cost
            if g2 > 2 * horizon:
                continue
            nf = tuple(new_free)
            if dominated(joint, g2, nf):
                continue
            record(joint, g2, nf)
            new_state = (joint, nf)
            parents[new_state] = state
            ctr += 1
            heapq.heappush(heap, (g2 + h(joint), g2, ctr, new_state))
    return OracleResult(False)


def _reconstruct(parents, state) -> tuple[tuple, ...]:
    configs = []
    while state is not None:
        configs.append(state[0])
        state = parents[state]
    configs.reverse()
    return tuple(configs)
