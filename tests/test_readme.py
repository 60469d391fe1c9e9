"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    # 20 agents, each moving one step down its own column of a 2x20 map
    (tmp_path / "maze.map").write_text(
        "type octile\nheight 2\nwidth 20\nmap\n" + ("." * 20 + "\n") * 2)
    (tmp_path / "maze.scen").write_text("version 1\n" + "".join(
        f"0\tmaze.map\t20\t2\t{c}\t0\t{c}\t1\t1\n" for c in range(20)))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].outcome == "solved"
    assert capsys.readouterr().out.startswith("20 [")
