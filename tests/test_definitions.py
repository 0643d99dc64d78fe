"""Dead-definition guard: every definition in the package has a use in it.

Each definition must be used somewhere in ``src/cacore`` outside its own
definition, in the way its kind is used:

- a module-level function, class or assigned name is referenced as a name,
  an attribute or an import;
- a method that is not a dunder is referenced as an attribute (``x.name``),
  so a local variable or parameter of the same name does not keep it alive;
- an annotated field in a class body is read as an attribute. A keyword
  argument to a constructor or an assignment to ``x.name`` only writes it.

Re-exports in ``__init__.py`` do not count, and neither do strings or
comments, which ``ast`` never shows as references. A method that overrides
one of a base class (``_Parser.error``) is called through the base class, so
it counts as referenced.
"""

import ast
import importlib
from collections import Counter

from conftest import SRC_DIR

PACKAGE = SRC_DIR / "cacore"
# Read by packaging tools, never by the package itself.
ALLOWED = {"__version__"}
# The references that keep each kind of definition alive.
USES = {"definition": ("name", "attribute"), "method": ("attribute",), "field": ("read",)}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, kind, node) for each module-level def, class and
    assigned name, each method that is not a dunder or an override, and each
    annotated class field; a definition's node spans its whole body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, "definition", node
        if isinstance(node, ast.ClassDef):
            bases = getattr(importlib.import_module(f"cacore.{module}"), node.name).__mro__[1:]
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id, "field", item
                name = item.name if isinstance(item, ast.FunctionDef) else ""
                if name and not (name.startswith("__") and name.endswith("__")) and not any(
                    name in vars(base) for base in bases
                ):
                    yield f"{node.name}.{name}", name, "method", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, "definition", node


def _references(tree: ast.AST) -> Counter:
    """Count each reference as (how, name): ``name`` for a name read or
    imported, ``attribute`` for any ``x.name``, and also ``read`` for an
    ``x.name`` that is read."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs["attribute", node.attr] += 1
            if isinstance(node.ctx, ast.Load):
                refs["read", node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(("name", alias.name) for alias in node.names)
    return refs


def unreferenced(package=PACKAGE) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    counts = Counter()
    for module, tree in trees.items():
        if module != "__init__":
            counts += _references(tree)
    dead = []
    for module, tree in sorted(trees.items()):
        for qualified, name, kind, node in _definitions(module, tree):
            inside = _references(node) if module != "__init__" else Counter()
            uses = sum(counts[how, name] - inside[how, name] for how in USES[kind])
            if name not in ALLOWED and uses <= 0:
                dead.append(f"{module}.{qualified}")
    return dead


def test_every_definition_is_referenced():
    assert unreferenced() == []
