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


def private_defs_unused() -> list[str]:
    """The module-level underscore functions and classes that no code in frogsim reads, bar their own bodies."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_") and not own.endswith("__"):
                defined.append(f"{path.name}: {own}")
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:
                    used.add(name)
    return [entry for entry in defined if entry.split(": ")[1] not in used]


def test_every_private_def_has_a_caller():
    # a private helper that only its tests read is code the program no longer runs
    unused = private_defs_unused()
    assert not unused, unused
