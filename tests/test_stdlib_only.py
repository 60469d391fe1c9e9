"""The package imports nothing beyond the standard library and itself."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flexcbs"
MODULES = sorted(SRC.glob("*.py"))


def absolute_imports(tree: ast.AST) -> list[str]:
    """Top-level names of every absolute import in a module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_package_modules_found():
    assert SRC / "__init__.py" in MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_only_stdlib_imports(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    foreign = [name for name in absolute_imports(tree)
               if name != "flexcbs" and name not in sys.stdlib_module_names]
    assert foreign == []
