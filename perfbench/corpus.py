"""Seeded instance corpora for the benchmark workloads, written as MovingAI
.map/.scen files.

Two seeds shape a corpus. The corpus seed draws the instances: maps, agent
counts, starts and targets. The placement seed shifts each instance, map,
starts and targets together, to its own offset inside a frame of blocked
cells that adds 2 * FRAME rows and columns. The solver never reads absolute
coordinates, so a placement changes the files but not the search: every
placement of a corpus does the same work. Everything here is a
pure function of the two seeds: the same seeds give byte-identical files.
The solver sees only the files.
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass

Cell = tuple[int, int]


@dataclass(frozen=True)
class InstanceFiles:
    """One generated instance: its map and scenario files and agent count."""
    name: str
    map_path: str
    scen_path: str
    k: int


def _random_map(rng: random.Random, size: int, density: float) -> list[str]:
    """A size x size grid with exactly round(density * size^2) obstacles."""
    cells = size * size
    blocked = set(rng.sample(range(cells), round(density * cells)))
    return ["".join("@" if r * size + c in blocked else "."
                    for c in range(size)) for r in range(size)]


def shelf_map(height: int = 13, width: int = 29, shelf_len: int = 6) -> list[str]:
    """Warehouse floor: one-cell-thick shelf rows alternating with one-cell
    aisles, cut by cross aisles every shelf_len + 1 columns.

    Aisle cells between two shelf segments have degree 2, so each aisle
    segment is a corridor of length shelf_len.
    """
    rows = []
    for r in range(height):
        shelf_row = r % 2 == 0 and 0 < r < height - 1
        rows.append("".join(
            "@" if shelf_row and c % (shelf_len + 1) != 0 else "."
            for c in range(width)))
    return rows


def bfs_distances(rows: list[str], source: Cell,
                  target: Cell | None = None) -> dict[Cell, int]:
    """Static 4-connected shortest-path distance from source to every cell
    it reaches; with a target, the search stops once the target is reached."""
    height, width = len(rows), len(rows[0])
    free = [ch == "." for row in rows for ch in row]
    dist = [-1] * (height * width)
    first = source[0] * width + source[1]
    goal = -1 if target is None else target[0] * width + target[1]
    dist[first] = 0
    queue = deque([first])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            break
        d = dist[cur] + 1
        col = cur % width
        for nb, inside in ((cur - width, cur >= width),
                           (cur + width, cur < (height - 1) * width),
                           (cur - 1, col > 0), (cur + 1, col < width - 1)):
            if inside and free[nb] and dist[nb] < 0:
                dist[nb] = d
                queue.append(nb)
    return {divmod(i, width): d for i, d in enumerate(dist) if d >= 0}


def _largest_component(rows: list[str]) -> list[Cell]:
    seen: set[Cell] = set()
    best: list[Cell] = []
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch != "." or (r, c) in seen:
                continue
            comp = list(bfs_distances(rows, (r, c)))
            seen.update(comp)
            if len(comp) > len(best):
                best = comp
    return sorted(best)


def _agents(rng: random.Random, rows: list[str], k: int) -> list[tuple[Cell, Cell]]:
    """k (start, target) pairs with distinct starts and distinct targets, all
    in the largest connected component."""
    comp = _largest_component(rows)
    return list(zip(rng.sample(comp, k), rng.sample(comp, k)))


FRAME = 8


def _place(rows: list[str], agents: list[tuple[Cell, Cell]], dr: int,
           dc: int) -> tuple[list[str], list[tuple[Cell, Cell]]]:
    """Shift the instance by (dr, dc) inside a blocked frame that adds
    2 * FRAME rows and columns; 0 <= dr, dc <= 2 * FRAME."""
    width = len(rows[0]) + 2 * FRAME
    out = ["@" * width] * dr
    out += ["@" * dc + row + "@" * (2 * FRAME - dc) for row in rows]
    out += ["@" * width] * (2 * FRAME - dr)
    return out, [((sr + dr, sc + dc), (gr + dr, gc + dc))
                 for (sr, sc), (gr, gc) in agents]


def _map_text(rows: list[str]) -> str:
    return "type octile\nheight {}\nwidth {}\nmap\n{}\n".format(
        len(rows), len(rows[0]), "\n".join(rows))


def _scen_text(map_name: str, rows: list[str],
               agents: list[tuple[Cell, Cell]]) -> str:
    """MovingAI scenario v1; columns hold x = col and y = row."""
    height, width = len(rows), len(rows[0])
    lines = ["version 1"]
    for (sr, sc), (gr, gc) in agents:
        dist = bfs_distances(rows, (gr, gc), (sr, sc))[(sr, sc)]
        lines.append(f"0\t{map_name}\t{width}\t{height}\t{sc}\t{sr}\t{gc}\t{gr}\t{dist}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CorpusSpec:
    """How to draw one workload's instances.

    size > 0 draws a fresh size x size random map per instance; size == 0
    uses the fixed shelf map. Agent counts are stratified: instance i of n
    gets k_min + round(i * (k_max - k_min) / (n - 1)), in shuffled order, so
    every corpus covers the whole range evenly.
    """
    size: int
    density: float
    k_min: int
    k_max: int


def _agent_counts(rng: random.Random, spec: CorpusSpec, n: int) -> list[int]:
    span = spec.k_max - spec.k_min
    ks = [spec.k_min + (round(i * span / (n - 1)) if n > 1 else 0)
          for i in range(n)]
    rng.shuffle(ks)
    return ks


def write_corpus(spec: CorpusSpec, corpus_seed: int, place_seed: int, n: int,
                 out_dir: str, prefix: str) -> list[InstanceFiles]:
    """Generate n instances into out_dir and return their files."""
    rng = random.Random(corpus_seed)
    offsets = random.Random(place_seed)
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for i, k in enumerate(_agent_counts(rng, spec, n)):
        rows = _random_map(rng, spec.size, spec.density) if spec.size else shelf_map()
        rows, agents = _place(rows, _agents(rng, rows, k),
                              offsets.randint(0, 2 * FRAME),
                              offsets.randint(0, 2 * FRAME))
        name = f"{prefix}-{i:03d}"
        map_name = name + ".map"
        map_path = os.path.join(out_dir, map_name)
        scen_path = os.path.join(out_dir, name + ".scen")
        with open(map_path, "w") as f:
            f.write(_map_text(rows))
        with open(scen_path, "w") as f:
            f.write(_scen_text(map_name, rows, agents))
        files.append(InstanceFiles(name, map_path, scen_path, k))
    return files
