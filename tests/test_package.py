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


def test_public_names_are_used():
    # a public module-level function or class that nothing in the package uses
    # and that qmet.__all__ does not export is left over from a removed code path
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    used = set(qmet.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphans = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert orphans == []


def _assigned_names(node):
    """Names an assignment statement binds or mutates through a subscript or attribute."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    for target in targets:
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
        if isinstance(target, ast.Name):
            yield target.id


def test_no_dead_constants():
    # a module-level UPPER_CASE or _UPPER_CASE constant that nothing in the
    # package reads is left over from a removed code path; the statements that
    # build a constant do not count as reading it
    constants, loaded = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = set(_assigned_names(stmt))
            for name in own:
                if name.lstrip("_").isupper():
                    constants.setdefault(name, path.name)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    loaded.add(name)
    dead = [f"{path}: {name}" for name, path in sorted(constants.items()) if name not in loaded]
    assert dead == []


def _raised_names(tree):
    """Names raised as ``raise Name`` or ``raise Name(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_is_raised():
    # an error class of errors.py that no raise statement of the package names
    # is left over from a removed code path; QmetError is only the base class
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        raised.update(_raised_names(ast.parse(path.read_text(), filename=str(path))))
    assert sorted(classes - raised - {"QmetError"}) == []
