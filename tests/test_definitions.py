"""Dead-definition guard: every definition in the package has a use in it.

Each definition must be used somewhere in ``src/cacore`` outside its own
definition, in the way its kind is used:

- a module-level function, class or assigned name is referenced as a name,
  an attribute or an import;
- a method that is not a dunder is referenced as an attribute (``x.name``),
  so a local variable or parameter of the same name does not keep it alive;
- an annotated field in a class body is read as an attribute. A keyword
  argument to a constructor or an assignment to ``x.name`` only writes it.

A keyword-only parameter with a default must be passed by name, by its
function's name or attribute, in some call in the package; one that no call
sets is an option no caller uses.

Every name an import binds is read in its module, so a removal cannot leave
its import behind.

Re-exports in ``__init__.py`` do not count: its table names them in
strings, and ``ast`` never shows strings or comments as references. A method
that overrides one of a base class (``_Parser.error``) is called through the
base class, so it counts as referenced.
"""

import ast
import importlib
from collections import Counter

from conftest import SRC_DIR

PACKAGE = SRC_DIR / "cacore"
# Read by packaging tools or by the import system, never by the package itself.
ALLOWED = {"__version__", "__all__", "__getattr__"}
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


def _trees(package) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}


def unreferenced(package=PACKAGE) -> list[str]:
    trees = _trees(package)
    counts = Counter()
    for tree in trees.values():
        counts += _references(tree)
    dead = []
    for module, tree in sorted(trees.items()):
        for qualified, name, kind, node in _definitions(module, tree):
            inside = _references(node)
            uses = sum(counts[how, name] - inside[how, name] for how in USES[kind])
            if name not in ALLOWED and uses <= 0:
                dead.append(f"{module}.{qualified}")
    return dead


def unread_imports(package=PACKAGE) -> list[str]:
    """``module.name`` of each name an import binds that its module never reads.
    A ``__future__`` import is a compiler directive, and binds nothing to read."""
    unread = []
    for module, tree in sorted(_trees(package).items()):
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                names = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                unread += [f"{module}.{name}" for name in names if name not in read]
    return unread


def test_every_import_is_read():
    # a stray import would outlive the code that read it, and could load a
    # module that a one-shot synth or route otherwise never imports
    assert unread_imports() == []


def test_unread_import_is_named(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js, re\n"
        "from collections import deque, namedtuple\n"
        "from .ir import Gate\n"
        "def f(g: Gate) -> None:\n"
        "    from .bench import run_comparison\n"
        "    return namedtuple('T', 'a'), re.compile(''), os.sep\n",
        encoding="utf-8",
    )
    assert unread_imports(tmp_path) == ["mod.js", "mod.deque", "mod.run_comparison"]


def _keyword_options(prefix: str, body: list[ast.stmt]):
    """(qualified parameter, function name, parameter) for each keyword-only
    parameter with a default, in the functions and methods of ``body``."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _keyword_options(f"{prefix}{node.name}.", node.body)
        elif isinstance(node, ast.FunctionDef):
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield f"{prefix}{node.name}.{arg.arg}", node.name, arg.arg


def _keywords_passed(tree: ast.AST) -> set[tuple[str, str]]:
    """(function name, keyword) for each keyword argument of a call."""
    passed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return passed


def unpassed_keywords(package=PACKAGE) -> list[str]:
    trees = _trees(package)
    passed = set().union(*map(_keywords_passed, trees.values()))
    return [
        f"{module}.{qualified}"
        for module, tree in sorted(trees.items())
        for qualified, name, arg in _keyword_options("", tree.body)
        if (name, arg) not in passed
    ]


def test_every_definition_is_referenced():
    assert unreferenced() == []


def test_every_keyword_option_is_passed():
    assert unpassed_keywords() == []


def test_unpassed_keyword_is_named(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, *, used=1, unused=2, required):\n"
        "    return g(used=a) + f(a, used=a, required=a)\n"
        "class C:\n"
        "    def m(self, *, flag=False):\n"
        "        return f(1, flag=True)\n",
        encoding="utf-8",
    )
    assert unpassed_keywords(tmp_path) == ["mod.f.unused", "mod.C.m.flag"]


def _outside(home: str, package, found) -> list[str]:
    """``module:line`` of each node outside ``home.py`` for which ``found(node)`` holds."""
    return [
        f"{module}:{node.lineno}"
        for module, tree in sorted(_trees(package).items())
        if module != home
        for node in ast.walk(tree)
        if found(node)
    ]


def _named(node, name: str) -> bool:
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def gate_calls(package=PACKAGE) -> list[str]:
    """``module:line`` of each call to ``Gate`` outside ``ir.py``, by name or attribute.
    Annotations such as ``list[Gate]`` are not calls."""
    return _outside("ir", package, lambda node: isinstance(node, ast.Call) and _named(node.func, "Gate"))


def test_only_ir_builds_gates():
    # ir.shared_gate alone decides which gates the process-wide tables hold.
    assert gate_calls() == []


def test_gate_call_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .ir import Gate, ir\n"
        "gates: list[Gate] = [Gate(k, (0,)), ir.Gate(k, (1,))]\n"
        "def f(g: Gate) -> Gate:\n"
        "    return shared_gate(g.kind, (0,))\n",
        encoding="utf-8",
    )
    (tmp_path / "ir.py").write_text("g = Gate(k, (0,))\n", encoding="utf-8")
    assert gate_calls(tmp_path) == ["mod:2", "mod:2"]


def gate_table_names(package=PACKAGE) -> list[str]:
    """``module:line`` of each name, attribute or import ``_SHARED`` outside ``ir.py``."""
    def found(node) -> bool:
        imported = isinstance(node, ast.ImportFrom) and any(a.name == "_SHARED" for a in node.names)
        return imported or _named(node, "_SHARED")

    return _outside("ir", package, found)


def test_only_ir_reads_the_gate_table():
    # a module that read ir._SHARED itself would bypass shared_gate's limit
    assert gate_table_names() == []


def test_gate_table_name_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .ir import _SHARED, shared_gate\n"
        "from . import ir\n"
        "def f(kind, qubits):\n"
        "    return ir._SHARED[kind].get(qubits) or shared_gate(kind, qubits)\n",
        encoding="utf-8",
    )
    (tmp_path / "ir.py").write_text("_SHARED = {}\n", encoding="utf-8")
    assert gate_table_names(tmp_path) == ["mod:1", "mod:4"]


def unchecked_circuit_callers(package=PACKAGE) -> list[str]:
    """Each top-level statement outside ``ir.py`` that names ``_unchecked_circuit``, or
    imports it under another name: ``module.function`` for a function, else ``module:line``."""
    def found(node) -> bool:
        renamed = isinstance(node, ast.alias) and node.name == "_unchecked_circuit" and node.asname
        return renamed or _named(node, "_unchecked_circuit")

    return [
        f"{module}.{node.name}" if isinstance(node, ast.FunctionDef) else f"{module}:{node.lineno}"
        for module, tree in sorted(_trees(package).items())
        if module != "ir"
        for node in tree.body
        if any(map(found, ast.walk(node)))
    ]


def test_only_the_parser_and_the_router_build_circuits_unscanned():
    # each builds only gates whose qubits are in range; any other producer scans
    assert unchecked_circuit_callers() == ["qasm.parse_qasm", "routing.route_circuit"]


def test_unchecked_circuit_call_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .ir import _unchecked_circuit\n"
        "from . import ir\n"
        "def f(n):\n"
        "    return _unchecked_circuit(n, (), 'f')\n"
        "def g(n):\n"
        "    return ir._unchecked_circuit(n, (), 'g')\n"
        "def h(n):\n"
        "    return Circuit(n, (), 'h')\n"
        "class C:\n"
        "    def m(self, n):\n"
        "        return _unchecked_circuit(n, (), 'm')\n"
        "build = _unchecked_circuit\n"
        "from .ir import _unchecked_circuit as unscanned\n",
        encoding="utf-8",
    )
    (tmp_path / "ir.py").write_text("def f(n):\n    return _unchecked_circuit(n, (), 'f')\n", encoding="utf-8")
    assert unchecked_circuit_callers(tmp_path) == ["mod.f", "mod.g", "mod:9", "mod:12", "mod:13"]


def file_reads(package=PACKAGE) -> list[str]:
    """``module:line`` of each name or attribute ``read_text`` or ``read_bytes`` outside
    ``errors.py``, whose ``read_utf8`` reads every input file."""
    def found(node) -> bool:
        return _named(node, "read_text") or _named(node, "read_bytes")

    return _outside("errors", package, found)


def test_only_errors_reads_files():
    # a second reader could drift from read_text's newlines or the bad-byte line count
    assert file_reads() == []


def test_file_read_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from pathlib import Path\n"
        "def load(path):\n"
        "    return Path(path).read_text(encoding='utf-8') + read_utf8(path, error)\n"
        "raw = Path.read_bytes\n",
        encoding="utf-8",
    )
    (tmp_path / "errors.py").write_text("def read_utf8(path, error):\n    return path.read_bytes()\n")
    assert sorted(file_reads(tmp_path)) == ["mod:3", "mod:4"]


# What built the routed gates: a verifier that read any of it would check the
# router against itself.
ROUTER = {"route_circuit", "_toward", "shared_gate"}


def verifier_reads_of_router(package=PACKAGE) -> list[str]:
    """``name:line`` of each thing ``verify_routing``, or a function of its
    module that it calls, reads of the router: any ``_routing`` but
    ``_routing[0]``, the adjacency, and any reference to a name in ROUTER."""
    tree = _trees(package)["routing"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, seen, todo = [], set(), ["verify_routing"]
    while todo:
        function = functions.get(todo.pop())
        if function is None or function.name in seen:
            continue
        seen.add(function.name)
        adjacency_reads = {
            id(node.value)
            for node in ast.walk(function)
            if isinstance(node, ast.Subscript) and getattr(node.slice, "value", None) == 0
        }
        for node in ast.walk(function):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name == "_routing" and id(node) not in adjacency_reads or name in ROUTER:
                found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                todo.append(name)
    return sorted(found)


def test_verifier_reads_only_the_adjacency_of_the_router():
    assert verifier_reads_of_router() == []


def test_verifier_reading_router_tables_is_found(tmp_path):
    (tmp_path / "routing.py").write_text(
        "def verify_routing(circuit, result, topology):\n"
        "    adjacency = topology._routing[0]\n"
        "    relabeled = topology._routing[2]\n"
        "    return _check(adjacency, relabeled)\n"
        "def _check(adjacency, relabeled):\n"
        "    return _toward(adjacency, 0)\n"
        "def route_circuit(circuit, topology):\n"
        "    return shared_gate(topology._routing)\n",
        encoding="utf-8",
    )
    assert verifier_reads_of_router(tmp_path) == ["_routing:3", "_toward:6"]
