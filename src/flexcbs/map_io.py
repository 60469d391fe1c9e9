"""MovingAI map/scenario parsing and the 4-connected grid graph.

Cells are (row, col) tuples. Scenario files store (x, y) = (col, row) and are
converted on ingestion so the rest of the code only ever sees (row, col).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

Cell = tuple[int, int]

PASSABLE_SYMBOLS = frozenset(".G")
BLOCKED_SYMBOLS = frozenset("@TOSW")


class MapFormatError(ValueError):
    """Raised when a .map or .scen file does not match the expected format."""


class InstanceError(ValueError):
    """Raised when an instance violates start/target validity rules."""


@dataclass(frozen=True)
class GridMap:
    height: int
    width: int
    passable: tuple[bool, ...]  # row-major, len == height * width

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("map dimensions must be positive")
        if len(self.passable) != self.height * self.width:
            raise ValueError("passable length does not match dimensions")

    def in_bounds(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.height and 0 <= c < self.width

    def is_passable(self, cell: Cell) -> bool:
        r, c = cell
        return self.in_bounds(cell) and self.passable[r * self.width + c]

    def neighbors(self, cell: Cell) -> list[Cell]:
        """Passable 4-neighbors of a passable cell, in up/down/left/right order."""
        if not self.is_passable(cell):
            raise ValueError(f"neighbors() called on blocked or out-of-bounds cell {cell}")
        r, c = cell
        out = []
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if self.is_passable(nb):
                out.append(nb)
        return out

    def passable_cells(self) -> list[Cell]:
        return [(r, c) for r in range(self.height) for c in range(self.width)
                if self.passable[r * self.width + c]]

    def num_passable(self) -> int:
        return sum(self.passable)

    def degree(self, cell: Cell) -> int:
        return len(self.neighbors(cell))

    def to_text(self) -> str:
        """Serialize back to MovingAI map format (round-trips with parse_map)."""
        rows = []
        for r in range(self.height):
            base = r * self.width
            rows.append("".join("." if self.passable[base + c] else "@"
                                for c in range(self.width)))
        return "type octile\nheight {}\nwidth {}\nmap\n{}\n".format(
            self.height, self.width, "\n".join(rows))


@dataclass(frozen=True)
class AgentSpec:
    id: int
    start: Cell
    target: Cell


@dataclass(frozen=True)
class Instance:
    map: GridMap
    agents: tuple[AgentSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        starts, targets = set(), set()
        for idx, agent in enumerate(self.agents):
            if agent.id != idx:
                raise InstanceError(f"agent ids must be 0..k-1 in order, got {agent.id} at {idx}")
            if not self.map.is_passable(agent.start):
                raise InstanceError(f"agent {idx}: start {agent.start} is not passable")
            if not self.map.is_passable(agent.target):
                raise InstanceError(f"agent {idx}: target {agent.target} is not passable")
            if agent.start in starts:
                raise InstanceError(f"agent {idx}: duplicate start {agent.start}")
            if agent.target in targets:
                raise InstanceError(f"agent {idx}: duplicate target {agent.target}")
            starts.add(agent.start)
            targets.add(agent.target)
        for agent in self.agents:
            if not self._reachable(agent.start, agent.target):
                raise InstanceError(
                    f"agent {agent.id}: target {agent.target} unreachable from {agent.start}")

    def _reachable(self, src: Cell, dst: Cell) -> bool:
        if src == dst:
            return True
        seen = {src}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nb in self.map.neighbors(cur):
                if nb == dst:
                    return True
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        return False

    @property
    def num_agents(self) -> int:
        return len(self.agents)


def parse_map(text: str) -> GridMap:
    """Parse a MovingAI .map file. '.' and 'G' are passable; '@TOSW' blocked."""
    lines = text.splitlines()
    header = {}
    map_start = None
    for lineno, raw in enumerate(lines):
        line = raw.strip()
        if line == "map":
            map_start = lineno + 1
            break
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("height", "width"):
            try:
                header[parts[0]] = int(parts[1])
            except ValueError:
                raise MapFormatError(f"line {lineno + 1}: bad {parts[0]} value {parts[1]!r}")
        elif len(parts) == 2 and parts[0] == "type":
            header["type"] = parts[1]
        elif line:
            raise MapFormatError(f"line {lineno + 1}: unexpected header line {line!r}")
    if map_start is None:
        raise MapFormatError("missing 'map' section")
    if "height" not in header or "width" not in header:
        raise MapFormatError("missing height/width header")
    h, w = header["height"], header["width"]
    rows = [row for row in lines[map_start:] if row.strip()]
    if len(rows) != h:
        raise MapFormatError(f"expected {h} map rows, found {len(rows)}")
    passable = []
    for i, row in enumerate(rows):
        row = row.rstrip()
        if len(row) != w:
            raise MapFormatError(
                f"line {map_start + i + 1}: row length {len(row)} != width {w}")
        for ch in row:
            if ch in PASSABLE_SYMBOLS:
                passable.append(True)
            elif ch in BLOCKED_SYMBOLS:
                passable.append(False)
            else:
                raise MapFormatError(f"line {map_start + i + 1}: unknown symbol {ch!r}")
    return GridMap(h, w, tuple(passable))


def parse_scenario(text: str, grid: GridMap, k: int) -> list[AgentSpec]:
    """Parse the first k entries of a MovingAI .scen (version 1) file.

    Scen columns: bucket, map, width, height, start-x, start-y, goal-x, goal-y,
    optimal-distance. x is the column and y the row.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MapFormatError("empty scenario file")
    start_idx = 1 if lines[0].lower().startswith("version") else 0
    entries = lines[start_idx:]
    if k < 0:
        raise MapFormatError(f"requested a negative number of agents ({k})")
    if k > len(entries):
        raise MapFormatError(f"requested {k} agents but scenario has {len(entries)} entries")
    agents = []
    for i in range(k):
        fields = entries[i].split()
        if len(fields) < 9:
            raise MapFormatError(f"scenario entry {i}: expected 9 fields, got {len(fields)}")
        try:
            sw, sh = int(fields[2]), int(fields[3])
            sx, sy, gx, gy = (int(v) for v in fields[4:8])
        except ValueError:
            raise MapFormatError(f"scenario entry {i}: non-integer coordinate")
        if (sw, sh) != (grid.width, grid.height):
            raise MapFormatError(
                f"scenario entry {i}: dimensions {sw}x{sh} do not match map "
                f"{grid.width}x{grid.height}")
        start, target = (sy, sx), (gy, gx)
        if not grid.is_passable(start):
            raise MapFormatError(f"scenario entry {i}: start {start} is blocked")
        if not grid.is_passable(target):
            raise MapFormatError(f"scenario entry {i}: goal {target} is blocked")
        agents.append(AgentSpec(id=i, start=start, target=target))
    return agents


def load_instance(map_path: str, scen_path: str, k: int) -> Instance:
    with open(map_path) as f:
        grid = parse_map(f.read())
    with open(scen_path) as f:
        agents = parse_scenario(f.read(), grid, k)
    return Instance(grid, tuple(agents))
