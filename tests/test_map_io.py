import random

import pytest

from flexcbs.map_io import (AgentSpec, GridMap, Instance, InstanceError,
                            MapFormatError, parse_map, parse_scenario,
                            load_instance)
from helpers import grid_from_rows, open_grid, random_grid

MAP_2X2 = "type octile\nheight 2\nwidth 2\nmap\n.@\n..\n"


def scen_text(entries, width, height):
    lines = ["version 1"]
    for (sx, sy, gx, gy) in entries:
        lines.append(f"0\tsome.map\t{width}\t{height}\t{sx}\t{sy}\t{gx}\t{gy}\t1.0")
    return "\n".join(lines) + "\n"


class TestParseMap:
    def test_small_map(self):
        grid = parse_map(MAP_2X2)
        assert (grid.height, grid.width) == (2, 2)
        assert grid.passable == (True, False, True, True)

    def test_one_cell_map(self):
        grid = parse_map("type octile\nheight 1\nwidth 1\nmap\n.\n")
        assert grid == GridMap(1, 1, (True,))

    def test_symbol_classes(self):
        grid = parse_map("type octile\nheight 1\nwidth 7\nmap\n.G@TOSW\n")
        assert grid.passable == (True, True, False, False, False, False, False)

    def test_missing_header(self):
        with pytest.raises(MapFormatError):
            parse_map("type octile\nheight 2\nmap\n..\n..\n")

    def test_missing_map_section(self):
        with pytest.raises(MapFormatError):
            parse_map("type octile\nheight 1\nwidth 1\n.\n")

    def test_bad_row_length_names_line(self):
        with pytest.raises(MapFormatError, match="line 5"):
            parse_map("type octile\nheight 2\nwidth 2\nmap\n...\n..\n")

    def test_unknown_symbol_names_line(self):
        with pytest.raises(MapFormatError, match="line 6"):
            parse_map("type octile\nheight 2\nwidth 2\nmap\n..\n.x\n")

    def test_wrong_row_count(self):
        with pytest.raises(MapFormatError):
            parse_map("type octile\nheight 3\nwidth 2\nmap\n..\n..\n")

    def test_round_trip_random_maps(self):
        rng = random.Random(0)
        for _ in range(25):
            grid = random_grid(rng, rng.randint(1, 8), rng.randint(1, 8), 0.3)
            assert parse_map(grid.to_text()) == grid


class TestGrid:
    def test_neighbor_order_up_down_left_right(self):
        grid = open_grid(3, 3)
        assert grid.neighbors((1, 1)) == [(0, 1), (2, 1), (1, 0), (1, 2)]

    def test_corner_has_two_neighbors(self):
        assert len(open_grid(3, 3).neighbors((0, 0))) == 2

    def test_blocked_neighbor_excluded(self):
        grid = grid_from_rows(["..@", "..."])
        assert grid.neighbors((0, 1)) == [(1, 1), (0, 0)]

    def test_neighbors_of_blocked_cell_rejected(self):
        grid = grid_from_rows([".@", ".."])
        with pytest.raises(ValueError):
            grid.neighbors((0, 1))

    def test_neighbor_symmetry(self):
        rng = random.Random(1)
        for _ in range(20):
            grid = random_grid(rng, 5, 5, 0.35)
            for v in grid.passable_cells():
                for u in grid.neighbors(v):
                    assert v in grid.neighbors(u)

    def test_degree_and_counts(self):
        grid = grid_from_rows([".@.", "..."])
        assert grid.num_passable() == 5
        assert grid.degree((1, 1)) == 2
        assert grid.degree((1, 0)) == 2

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            GridMap(0, 3, ())
        with pytest.raises(ValueError):
            GridMap(2, 2, (True,) * 3)


class TestParseScenario:
    def test_prefix_selection_and_xy_swap(self):
        grid = open_grid(3, 4)
        text = scen_text([(0, 1, 3, 2), (1, 0, 2, 2), (3, 0, 0, 0)], 4, 3)
        agents = parse_scenario(text, grid, 2)
        assert len(agents) == 2
        # x is the column, y the row
        assert agents[0] == AgentSpec(0, (1, 0), (2, 3))
        assert agents[1] == AgentSpec(1, (0, 1), (2, 2))

    def test_k_zero(self):
        grid = open_grid(2, 2)
        assert parse_scenario(scen_text([(0, 0, 1, 1)], 2, 2), grid, 0) == []

    def test_negative_k(self):
        grid = open_grid(2, 2)
        with pytest.raises(MapFormatError, match="negative"):
            parse_scenario(scen_text([(0, 0, 1, 1)], 2, 2), grid, -1)

    def test_too_few_entries(self):
        grid = open_grid(2, 2)
        with pytest.raises(MapFormatError):
            parse_scenario(scen_text([(0, 0, 1, 1)], 2, 2), grid, 2)

    def test_goal_on_blocked_cell(self):
        grid = grid_from_rows([".@", ".."])
        with pytest.raises(MapFormatError, match="entry 0"):
            parse_scenario(scen_text([(0, 0, 1, 0)], 2, 2), grid, 1)

    def test_dimension_mismatch(self):
        grid = open_grid(3, 3)
        with pytest.raises(MapFormatError):
            parse_scenario(scen_text([(0, 0, 1, 1)], 2, 2), grid, 1)

    def test_empty_file(self):
        with pytest.raises(MapFormatError):
            parse_scenario("", open_grid(2, 2), 1)


class TestInstance:
    def test_duplicate_start_rejected(self):
        grid = open_grid(2, 2)
        with pytest.raises(InstanceError):
            Instance(grid, (AgentSpec(0, (0, 0), (0, 1)),
                            AgentSpec(1, (0, 0), (1, 1))))

    def test_duplicate_target_rejected(self):
        grid = open_grid(2, 2)
        with pytest.raises(InstanceError):
            Instance(grid, (AgentSpec(0, (0, 0), (1, 1)),
                            AgentSpec(1, (0, 1), (1, 1))))

    def test_ids_must_be_sequential(self):
        grid = open_grid(2, 2)
        with pytest.raises(InstanceError):
            Instance(grid, (AgentSpec(1, (0, 0), (0, 1)),))

    def test_unreachable_target_rejected(self):
        grid = grid_from_rows([".@.", "@@@", "..."])
        with pytest.raises(InstanceError):
            Instance(grid, (AgentSpec(0, (0, 0), (2, 2)),))

    def test_blocked_endpoint_rejected(self):
        grid = grid_from_rows([".@", ".."])
        with pytest.raises(InstanceError):
            Instance(grid, (AgentSpec(0, (0, 0), (0, 1)),))

    def test_load_instance(self, tmp_path):
        map_path = tmp_path / "m.map"
        scen_path = tmp_path / "m.scen"
        map_path.write_text("type octile\nheight 2\nwidth 3\nmap\n...\n...\n")
        scen_path.write_text(scen_text([(0, 0, 2, 1), (2, 0, 0, 1)], 3, 2))
        inst = load_instance(str(map_path), str(scen_path), 2)
        assert inst.num_agents == 2
        assert inst.agents[0].start == (0, 0)
        assert inst.agents[0].target == (1, 2)
