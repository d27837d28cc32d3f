"""Reach guard: every function, class and method defined in `src/lapoly`
is used, and so is every name a module of it imports.

A name counts as reached when it is read or taken as an attribute in
`src/lapoly` outside its own definition and outside `__init__.py`; a
public (non-underscore) name may instead be used in the acceptance suite.
Importing a name is not a use, so a stale import does not keep it alive.
Dunder methods are exempt.  The scan is by name, so a dead name spelled
like a live one would pass: a public `join` would be hidden by every
`str.join` call.  An imported name counts as used when the importing
module reads it; `__init__.py` is exempt, since its imports are the
package's exports.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lapoly"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

def names_used(tree):
    """How often each identifier is read or taken as an attribute in
    `tree`."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def definitions(tree):
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def modules():
    """(file name, syntax tree) of every module but `__init__.py`."""
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]


def imported_names(tree):
    """The names that the imports in `tree` bind, `__future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unreached_names():
    trees = [tree for _, tree in modules()]
    used = sum((names_used(tree) for tree in trees), Counter())
    acceptance = names_used(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    return sorted(
        node.name
        for tree in trees
        for node in definitions(tree)
        if not node.name.startswith("__")
        and used[node.name] == names_used(node)[node.name]
        and (node.name.startswith("_") or not acceptance[node.name])
    )


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_every_imported_name_is_used():
    unused = []
    for name, tree in modules():
        used = names_used(tree)
        unused += [f"{name}: {i}" for i in imported_names(tree) if not used[i]]
    assert unused == []
