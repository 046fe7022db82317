import ast
from pathlib import Path

import qmet

SRC = Path(qmet.__file__).parent


def test_all_names_resolve():
    missing = [name for name in qmet.__all__ if not hasattr(qmet, name)]
    assert missing == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    # __init__.py is skipped: its imports are the package's re-exports
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert unused == []


def test_no_dead_private_helpers():
    # a module-level _name function or class that nothing in the package
    # uses is left over from a removed code path
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    private = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert private == []
