"""Dead-definition guard: every definition in the package has a use in it.

A module-level function, class or assigned name, or a method that is not a
dunder, must be referenced as a name, an attribute or an import somewhere in
``src/cacore`` outside its own definition. Re-exports in ``__init__.py`` do
not count, and neither do strings or comments, which ``ast`` never shows as
references. A method that overrides one of a base class (``_Parser.error``)
is called through the base class, so it counts as referenced.
"""

import ast
import importlib

from conftest import SRC_DIR

PACKAGE = SRC_DIR / "cacore"
# Read by packaging tools, never by the package itself.
ALLOWED = {"__version__"}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node) for each module-level def, class and
    assigned name, and each method that is not a dunder or an override; a
    definition's node spans its whole body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            bases = getattr(importlib.import_module(f"cacore.{module}"), node.name).__mro__[1:]
            for item in node.body:
                name = item.name if isinstance(item, ast.FunctionDef) else ""
                if name and not (name.startswith("__") and name.endswith("__")) and not any(
                    name in vars(base) for base in bases
                ):
                    yield f"{node.name}.{name}", name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node


def _references(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.extend(alias.name for alias in node.names)
    return names


def unreferenced(package=PACKAGE) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    counts: dict[str, int] = {}
    for module, tree in trees.items():
        if module != "__init__":
            for name in _references(tree):
                counts[name] = counts.get(name, 0) + 1
    dead = []
    for module, tree in sorted(trees.items()):
        for qualified, name, node in _definitions(module, tree):
            inside = _references(node).count(name) if module != "__init__" else 0
            if name not in ALLOWED and counts.get(name, 0) <= inside:
                dead.append(f"{module}.{qualified}")
    return dead


def test_every_definition_is_referenced():
    assert unreferenced() == []
