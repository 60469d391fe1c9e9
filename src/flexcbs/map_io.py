"""MovingAI map/scenario parsing and the 4-connected grid graph.

Cells are (row, col) tuples at every public boundary: instances, paths,
constraints, conflicts and CLI output. Scenario files store (x, y) =
(col, row) and are converted on ingestion. Inside the search kernel a cell is
an id: a passable cell's rank among the passable cells in row-major order,
so ids run 0..N-1 with N = `GridMap.num_passable()` and a blocked cell has
none. `GridMap.moves` is a list indexed by id, and so is the `dist` list of
every distance table in a `lowlevel.Distances` cache, whose entries are
settled lazily (None until the backward search settles them; see
`lowlevel.DistanceTable`). `GridMap.sides` lists each id's north, south,
west and east neighbor ids, -1 for none. `GridMap.index`
(or `id_of`) maps a passable cell to its id and `GridMap.cell_of` maps an id
back to the grid's own cell tuple.
A cell id v at timestep t is the space-time key `t * N + v` (N, not width,
which would alias a timestep's cells with the next's): the low-level search
keys its states by it, and `lowlevel.Occupancy` and
`lowlevel.ConstraintTable` their vertex and edge tables, which file a move
u -> v arriving at t under `(t * N + u) * N + v`.
"""

from __future__ import annotations

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
    # passable cell -> its id; blocked and outside cells have none
    index: dict[Cell, int] = field(init=False, compare=False, repr=False)
    # id -> the cell tuple with that id; kernel paths are rebuilt from these
    cell_of: tuple[Cell, ...] = field(init=False, compare=False, repr=False)
    # id -> (id, *neighbor ids): the moves of one timestep, waiting first,
    # then up/down/left/right, the order that fixes search tie-breaking
    moves: list[tuple[int, ...]] = field(init=False, compare=False,
                                         repr=False)
    # id -> the (north, south, west, east) neighbor ids, -1 where that side
    # is blocked or off the grid: which neighbors step toward a cell
    sides: list[tuple[int, int, int, int]] = field(init=False, compare=False,
                                                   repr=False)

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("map dimensions must be positive")
        if len(self.passable) != self.height * self.width:
            raise ValueError("passable length does not match dimensions")
        height, width, passable = self.height, self.width, self.passable
        # rank: padded flat index -> id, -1 if blocked; the grid sits in a
        # border of -1 cells, so no neighbor lookup tests the bounds
        span = width + 2
        rank = [-1] * ((height + 2) * span)
        cell_of, at = [], []
        for i, ok in enumerate(passable):
            if ok:
                r, c = divmod(i, width)
                j = (r + 1) * span + c + 1
                rank[j] = len(at)
                at.append(j)
                cell_of.append((r, c))
        moves, sides = [], []
        for v, j in enumerate(at):
            up, down = rank[j - span], rank[j + span]
            left, right = rank[j - 1], rank[j + 1]
            sides.append((up, down, left, right))
            step = [v]
            if up >= 0:
                step.append(up)
            if down >= 0:
                step.append(down)
            if left >= 0:
                step.append(left)
            if right >= 0:
                step.append(right)
            moves.append(tuple(step))
        cell_of = tuple(cell_of)
        object.__setattr__(self, "index",
                           dict(zip(cell_of, range(len(cell_of)))))
        object.__setattr__(self, "cell_of", cell_of)
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "sides", sides)

    def is_passable(self, cell: Cell) -> bool:
        return cell in self.index

    def id_of(self, cell: Cell) -> int:
        """Id of a passable cell; a blocked or outside cell raises KeyError."""
        return self.index[cell]

    def neighbors(self, cell: Cell) -> list[Cell]:
        """Passable 4-neighbors of a passable cell, in up/down/left/right order."""
        v = self.index.get(cell)
        if v is None:
            raise ValueError(f"neighbors() called on blocked or out-of-bounds cell {cell}")
        cell_of = self.cell_of
        return [cell_of[i] for i in self.moves[v][1:]]

    def passable_cells(self) -> list[Cell]:
        """Every passable cell, in id (row-major) order."""
        return list(self.cell_of)

    def num_passable(self) -> int:
        return len(self.cell_of)

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
        if self.agents:
            component = self._components()
            id_of = self.map.id_of
            for agent in self.agents:
                if component[id_of(agent.start)] != component[id_of(agent.target)]:
                    raise InstanceError(
                        f"agent {agent.id}: target {agent.target} unreachable from {agent.start}")

    def _components(self) -> list[int]:
        """Id -> label of its connected component."""
        moves = self.map.moves
        label = [-1] * len(moves)
        for root in range(len(moves)):
            if label[root] >= 0:
                continue
            label[root] = root  # a fresh label: the component's first id
            stack = [root]
            while stack:
                for nb in moves[stack.pop()]:
                    if label[nb] < 0:
                        label[nb] = root
                        stack.append(nb)
        return label

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
