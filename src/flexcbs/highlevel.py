"""High-level constraint-tree search with EES node selection and flex-aware
replanning.

The frontier keeps three orderings: CLEANUP by sum of lower bounds, OPEN by an
inadmissible cost estimate, and FOCAL (the OPEN prefix) by conflict count.
A node is only expanded while its SOC stays within w times the global lower
bound; the CLEANUP top always qualifies.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

from . import flex as flexmod
from .conflicts import Classifier, Conflict, ConflictClass, split_conflict
# No solve calls it; kept because the benchmark's tracer wraps this name.
from .conflicts import detect_conflicts  # noqa: F401
from .constraints import Constraint, ConstraintKind, Path, estimate_delays
from .flex import FlexMode
from .lowlevel import (ConstraintTable, Distances, LowLevelRequest, Occupancy,
                       compute_h, fastar_search, focal_search)
from .map_io import Instance

INF = math.inf
EPS = 1e-6


@dataclass
class SolverConfig:
    w: float = 1.05
    flex_mode: FlexMode = FlexMode.NONE
    low_level: str = "focal"  # "focal" or "fastar"
    prioritize: bool = True
    symmetry: bool = True
    time_limit: float = 60.0

    def __post_init__(self):
        if not 1.0 <= self.w < INF:  # also rejects NaN
            raise ValueError("suboptimality factor must be finite and >= 1")
        if self.low_level not in ("focal", "fastar"):
            raise ValueError(f"unknown low-level variant {self.low_level!r}")
        if not self.time_limit > 0:  # also rejects NaN
            raise ValueError("time limit must be positive")
        if isinstance(self.flex_mode, str):
            self.flex_mode = FlexMode(self.flex_mode)


@dataclass
class CTNode:
    # one immutable tuple per agent; children share every slot they keep
    constraints: list[tuple[Constraint, ...]]
    # every LENGTH_LEQ among them, which bars the other agents from its
    # agent's target; shared with the parent unless the split adds one
    blocks: tuple[Constraint, ...]
    paths: list[Path]
    lbs: list[float]
    conflicts: list[Conflict]
    depth: int
    seq: int
    fhat: float = 0.0
    # set once from paths, lbs and conflicts, which no one changes after
    # construction, so a node may share them with its parent or a child
    soc: int = field(init=False)
    solb: float = field(init=False)
    x_total: int = field(init=False)

    def __post_init__(self):
        self.soc = sum(p.cost for p in self.paths)
        self.solb = sum(self.lbs)
        self.x_total = len(self.conflicts)


@dataclass
class RunMetrics:
    outcome: str = "unsolved"
    generated: int = 0
    expanded: int = 0
    depth: int = 0
    gb_generated: int = 0
    lb0: float = 0.0
    lb_final: float = 0.0
    soc: int | None = None
    wall_time: float = 0.0
    # LowLevelResult.expansions summed over the root's and children's
    # successful replans
    low_level_expansions: int = 0
    flex_records: list[tuple[float, float, bool]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def gb_ratio(self) -> float:
        return self.gb_generated / self.generated if self.generated else 1.0

    @property
    def depth_expansion_ratio(self) -> float:
        return self.depth / self.expanded if self.expanded else 0.0

    @property
    def lbi(self) -> float:
        return (self.lb_final - self.lb0) / self.lb0 if self.lb0 else 0.0

    @property
    def subopt(self) -> float | None:
        """SOC / final LB of a solved run; None for any other outcome."""
        if self.outcome == "solved" and self.lb_final > 0:
            return self.soc / self.lb_final
        return None

    def flex_usage_values(self) -> list[float]:
        """Positive flex usages from replans where the max flex was usable."""
        return [usage for _d, usage, nonneg in self.flex_records
                if nonneg and usage > 0]


@dataclass
class SolveResult:
    paths: list[Path] | None
    metrics: RunMetrics

    @property
    def outcome(self) -> str:  # "solved" | "timeout" | "infeasible"
        return self.metrics.outcome


class Frontier:
    """CLEANUP/OPEN/FOCAL orderings over open CT nodes with lazy deletion."""

    def __init__(self, w: float):
        self.w = w
        self.alive: dict[int, CTNode] = {}
        self._cleanup: list = []  # (LB, C, seq)
        self._open: list = []     # (fhat, seq)
        self._focal: list = []    # (X, seq)
        self._focal_bound = -INF

    def __len__(self) -> int:
        return len(self.alive)

    def push(self, node: CTNode):
        self.alive[node.seq] = node
        heapq.heappush(self._cleanup, (node.solb, node.soc, node.seq))
        heapq.heappush(self._open, (node.fhat, node.seq))
        if node.fhat <= self._focal_bound + EPS:
            heapq.heappush(self._focal, (node.x_total, node.seq))

    def _top(self, heap: list) -> CTNode | None:
        while heap:
            seq = heap[0][-1]
            if seq in self.alive:
                return self.alive[seq]
            heapq.heappop(heap)
        return None

    def min_solb_node(self) -> CTNode | None:
        return self._top(self._cleanup)

    def _sync_focal(self):
        top = self._top(self._open)
        if top is None:
            return
        bound = self.w * top.fhat
        if abs(bound - self._focal_bound) > EPS:
            self._focal_bound = bound
            self._focal = [(n.x_total, n.seq) for n in self.alive.values()
                           if n.fhat <= bound + EPS]
            heapq.heapify(self._focal)

    def pop_best(self, lb_global: float) -> CTNode | None:
        """EES selection: FOCAL top, else OPEN top, else CLEANUP top, with the
        first two gated on global bounded-suboptimality."""
        if not self.alive:
            return None
        self._sync_focal()
        chosen = None
        focal_top = self._top(self._focal)
        if (focal_top is not None and focal_top.fhat <= self._focal_bound + EPS
                and focal_top.soc <= self.w * lb_global + EPS):
            chosen = focal_top
        else:
            open_top = self._top(self._open)
            if open_top is not None and open_top.soc <= self.w * lb_global + EPS:
                chosen = open_top
            else:
                chosen = self._top(self._cleanup)
        del self.alive[chosen.seq]
        return chosen


class Solver:
    def __init__(self, instance: Instance, config: SolverConfig):
        self.config = config
        self.grid = instance.map
        self.k = instance.num_agents
        self.targets = {a.id: a.target for a in instance.agents}
        self.starts = {a.id: a.start for a in instance.agents}
        # every static distance table the searches and probes read; the
        # agents' target tables now, each settled over the reach of its root
        # search, the others when first read
        self.tables = Distances(self.grid, {
            a.target: compute_h(self.grid, a.target, a.start, config.w)
            for a in instance.agents})
        self.classifier = Classifier(self.targets, self.tables,
                                     symmetry=config.symmetry,
                                     prioritize=config.prioritize)
        # the paths of the CT node being worked on, but for the agent being
        # replanned; built by make_root, moved between nodes by _sync
        self.occ: Occupancy | None = None
        self._seq = 0
        self._ehat_sum = 0.0
        self._ehat_n = 0
        self.lb_global = 0.0
        self.metrics = RunMetrics()  # filled by solve()

    # ---------------- low-level plumbing ----------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _sync(self, paths: list[Path], skip: int):
        """Make self.occ index paths[m] for every agent m but skip.

        CT nodes share unchanged paths by reference, so only the paths that
        differ from the indexed ones are removed and added.
        """
        occ = self.occ
        for m, path in enumerate(paths):
            held = occ.held.get(m)
            want = path if m != skip else None
            if held is not want:
                if held is not None:
                    occ.remove(held)
                if want is not None:
                    occ.add(want)

    def _plan(self, agent: int, ctable: ConstraintTable, occupancy: Occupancy,
              delta: float, lb_parent: float):
        req = LowLevelRequest(
            start=self.starts[agent], goal=self.targets[agent], ctable=ctable,
            occupancy=occupancy, w=self.config.w, delta=delta,
            lb_parent=lb_parent, tables=self.tables)
        search = fastar_search if self.config.low_level == "fastar" else focal_search
        result = search(req)
        if result is not None:
            self.metrics.low_level_expansions += result.expansions
        return result

    def _ehat(self) -> float:
        return self._ehat_sum / self._ehat_n if self._ehat_n else 0.0

    def _set_fhat(self, node: CTNode):
        node.fhat = node.soc + self._ehat() * node.x_total

    # ---------------- root ----------------

    def make_root(self) -> CTNode | None:
        constraints: list[tuple[Constraint, ...]] = [()] * self.k
        paths: list[Path] = []
        lbs: list[float] = []
        conflicts: list[Conflict] = []
        occ = self.occ = Occupancy(self.grid)  # the paths planned so far
        for agent in range(self.k):
            ctable = ConstraintTable(self.grid, agent, [], self.targets)
            result = self._plan(agent, ctable, occ, delta=0.0, lb_parent=0.0)
            if result is None:
                return None
            # each pair's conflicts are found once, by its later agent
            conflicts.extend(occ.conflicts_with(result.path))
            occ.add(result.path)
            paths.append(result.path)
            lbs.append(result.lb)
        root = CTNode(constraints=constraints, blocks=(), paths=paths, lbs=lbs,
                      conflicts=conflicts, depth=0, seq=self._next_seq())
        self._set_fhat(root)
        return root

    # ---------------- expansion ----------------

    def _replan_set(self, node_paths: list[Path], agent: int,
                    constraint: Constraint) -> list[int]:
        if constraint.kind is not ConstraintKind.LENGTH_LEQ:
            return [agent]
        # targets are distinct, so a path parked past its end never sits on
        # another agent's target: only its own cells from t on can
        tgt = self.targets[constraint.agent]
        return [m for m in range(self.k) if m != constraint.agent
                and tgt in node_paths[m].cells[constraint.t:]]

    def _compute_flex(self, lbs: list[float], paths: list[Path], agent: int,
                      parent: CTNode, delay_sum: int,
                      frontier: Frontier) -> flexmod.FlexComputation | None:
        mode = self.config.flex_mode
        if mode is FlexMode.NONE:
            return None
        w = self.config.w
        costs = [p.cost for p in paths]
        delta_max = flexmod.max_allowed_flex(w, lbs, costs, agent)
        if mode is FlexMode.GFD:
            return flexmod.gfd_flex(delta_max)
        # x_i of X: how many of the parent's conflicts involve the agent
        x_i = sum(agent in (c.a_i, c.a_j) for c in parent.conflicts)
        x_total = parent.x_total
        if mode is FlexMode.CFD:
            return flexmod.cfd_flex(delta_max, x_i, x_total)
        if mode is FlexMode.DFD:
            return flexmod.dfd_flex(delta_max, x_i, x_total, delay_sum)
        # MFD: sample the frontier minimum-SOLB node at child-generation time
        nf = frontier.min_solb_node()
        sum_lb_other_nf = (nf.solb - nf.lbs[agent]) if nf is not None else 0.0
        return flexmod.mfd_flex(
            w, lbs[agent], delta_max, x_i, x_total, delay_sum,
            sum_cost_other=sum(costs) - costs[agent],
            sum_lb_other=sum(lbs) - lbs[agent], lb=self.lb_global,
            sum_lb_other_frontier=sum_lb_other_nf)

    def make_child(self, parent: CTNode, agent: int, constraint: Constraint,
                   frontier: Frontier) -> CTNode | None:
        metrics = self.metrics
        constraints = list(parent.constraints)
        constraints[agent] = (*constraints[agent], constraint)
        leq = constraint.kind is ConstraintKind.LENGTH_LEQ
        blocks = (*parent.blocks, constraint) if leq else parent.blocks
        paths = list(parent.paths)
        lbs = list(parent.lbs)
        conflicts = parent.conflicts  # replaced, never changed, on a replan
        replans = self._replan_set(parent.paths, agent, constraint)
        for r in replans:
            ctable = ConstraintTable(self.grid, r, [*constraints[r], *blocks],
                                     self.targets)
            self._sync(paths, skip=r)
            delay_sum = estimate_delays(constraints[r], parent.paths[r].cost)
            fc = self._compute_flex(lbs, paths, r, parent, delay_sum, frontier)
            delta = fc.delta if fc is not None else 0.0
            result = self._plan(r, ctable, self.occ, delta=delta,
                                lb_parent=lbs[r])
            if result is None:
                return None
            paths[r] = result.path
            lbs[r] = result.lb
            usage = result.cost - self.config.w * lbs[r]
            metrics.flex_records.append(
                (delta, usage, fc is None or fc.delta_max >= 0))
            # incremental conflict update for the replanned agent
            conflicts = [c for c in conflicts if r not in (c.a_i, c.a_j)]
            conflicts.extend(self.occ.conflicts_with(result.path))
        child = CTNode(constraints=constraints, blocks=blocks, paths=paths,
                       lbs=lbs, conflicts=conflicts, depth=parent.depth + 1,
                       seq=self._next_seq())
        # the child's SOC gain feeds e-hat, which orders OPEN
        self._ehat_sum += max(0.0, child.soc - parent.soc)
        self._ehat_n += 1
        self._set_fhat(child)
        # instrumentation
        metrics.generated += 1
        if child.soc <= self.config.w * self.lb_global + EPS:
            metrics.gb_generated += 1
        if child.soc > self.config.w * child.solb + EPS:
            metrics.violations.append(
                f"node {child.seq}: SOC {child.soc} > w*SOLB {self.config.w * child.solb:.3f}")
        return child

    def _try_bypass(self, node: CTNode, conflict: Conflict,
                    children: list[CTNode]) -> CTNode | None:
        if conflict.cls is ConflictClass.TARGET:
            return None
        for child in children:
            if child is None or child.x_total >= node.x_total:
                continue
            # adopting keeps the parent's lower bounds, so the cheaper child
            # paths must still be locally bounded against them
            if child.soc > self.config.w * node.solb + EPS:
                continue
            # adopt the child's paths but keep the parent's constraints,
            # blocks and lower bounds; all are shared, as nothing changes them
            adopted = CTNode(
                constraints=node.constraints, blocks=node.blocks,
                paths=child.paths, lbs=node.lbs, conflicts=child.conflicts,
                depth=node.depth, seq=self._next_seq())
            self._set_fhat(adopted)
            return adopted
        return None

    # ---------------- main loop ----------------

    def solve(self) -> SolveResult:
        t_start = time.monotonic()
        metrics = self.metrics
        deadline = t_start + self.config.time_limit

        root = self.make_root()
        if root is None:
            metrics.outcome = "infeasible"
            metrics.wall_time = time.monotonic() - t_start
            return SolveResult(None, metrics)
        metrics.generated += 1
        metrics.lb0 = root.solb
        self.lb_global = root.solb
        metrics.gb_generated += 1

        frontier = Frontier(self.config.w)
        frontier.push(root)
        deepest = root
        goal = None

        while len(frontier):
            if time.monotonic() > deadline:
                metrics.outcome = "timeout"
                break
            self.lb_global = max(self.lb_global, frontier.min_solb_node().solb)
            node = frontier.pop_best(self.lb_global)
            if node.soc > self.config.w * self.lb_global + EPS:
                metrics.violations.append(
                    f"expanded node {node.seq}: SOC {node.soc} > w*LB "
                    f"{self.config.w * self.lb_global:.3f}")
            if not node.conflicts:
                metrics.outcome = "solved"
                metrics.soc = node.soc
                goal = deepest = node  # a solved run's depth is the goal's
                break
            metrics.expanded += 1
            if node.depth > deepest.depth:
                deepest = node
            conflict = self.classifier.choose(node.conflicts, node.paths,
                                              node.constraints, node.blocks)
            splits = split_conflict(conflict)
            children = [self.make_child(node, agent, cons, frontier)
                        for agent, cons in splits]
            adopted = self._try_bypass(node, conflict, children)
            for child in children if adopted is None else [adopted]:
                if child is not None:
                    frontier.push(child)
        else:
            metrics.outcome = "infeasible"

        metrics.lb_final = self.lb_global
        metrics.depth = deepest.depth + 1
        metrics.wall_time = time.monotonic() - t_start
        paths = list(goal.paths) if goal is not None else None
        return SolveResult(paths, metrics)


def solve(instance: Instance, config: SolverConfig | None = None) -> SolveResult:
    return Solver(instance, config or SolverConfig()).solve()
