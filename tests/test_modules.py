"""Each frogsim module reads the others through their public names only."""

import ast
from pathlib import Path

import frogsim

SRC = Path(frogsim.__file__).parent


def private_imports(path: Path) -> list[str]:
    """The underscore names, dunders aside, that ``path`` imports from a frogsim module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{'.' * node.level}{node.module or ''}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "frogsim")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_no_module_imports_a_private_name():
    # a private name shared between modules is a format or a rule that two modules know
    found = {path.name: names for path in sorted(SRC.glob("*.py")) if (names := private_imports(path))}
    assert not found, found
