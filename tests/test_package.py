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
