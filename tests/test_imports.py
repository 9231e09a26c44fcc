"""Every name a package module imports is used in that module; names
used only in annotations, TYPE_CHECKING imports included, count as used.
Every private name a package module defines at its top level is read
somewhere in the package."""

import ast
from pathlib import Path

import disclosure_lab

PACKAGE = Path(disclosure_lab.__file__).parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.AST) -> set[str]:
    """Names the module reads, including those in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def test_every_import_is_used():
    seen = 0
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = _imported(tree)
        seen += len(imported)
        used = _used(tree)
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []
    # the scan finds imports, so it cannot pass by seeing none
    assert seen > 0


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private function, class or constant a module defines at its
    top level, dunders aside, with the line of its definition."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _read(tree: ast.AST) -> set[str]:
    """Names the module reads, bare or as an attribute of another."""
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return _used(tree) | attrs


def test_every_private_name_is_read():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    read = set().union(*(_read(tree) for tree in trees.values()))
    seen = 0
    unread = []
    for name, tree in trees.items():
        private = _private_definitions(tree)
        seen += len(private)
        unread += [f"{name}:{line}: {p}" for p, line in private.items() if p not in read]
    assert unread == []
    # the scan finds private definitions, so it cannot pass by seeing none
    assert seen > 0
