"""No dead imports and no orphaned private helpers in the library.

Two static checks over the source of ``lieyamaguti``, standard library only:

- no module imports a name it never uses (the package ``__init__`` is
  exempt: it re-exports what it imports);
- every module-level private function or class (``_name``) is referenced
  somewhere in the library outside its own definition;
- ``LYAlgebra(...)`` is called only inside ``algebra._from_entries``, the one
  way to build an algebra.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lieyamaguti"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _referenced(node):
    """Names used anywhere under ``node``, as names or attributes (an import is not a use)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_no_module_imports_an_unused_name():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        used = set(_referenced(tree))
        unused += [f"{name}:{line} {imported}" for line, imported in _imported(tree) if imported not in used]
    assert not unused, unused


def test_every_private_definition_has_a_caller():
    everywhere = Counter(name for tree in MODULES.values() for name in _referenced(tree))
    orphans = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            # references inside the definition itself (recursion) do not count
            if everywhere[node.name] == sum(name == node.name for name in _referenced(node)):
                orphans.append(f"{module}: {node.name}")
    assert not orphans, orphans


def test_algebras_are_built_only_by_from_entries():
    outside = []
    for module, tree in MODULES.items():
        allowed = [
            node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_from_entries"
        ]
        inside = {id(n) for definition in allowed for n in ast.walk(definition)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and id(n) not in inside:
                func = n.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "LYAlgebra":
                    outside.append(f"{module}:{n.lineno}")
    assert not outside, outside
