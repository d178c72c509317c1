"""Every public package name is reached from outside the unit tests.

Public means listed in a module's ``__all__`` or defined at its top
level without a leading underscore. A name is reached when a command, a
benchmark file, the acceptance tests or the test oracles use it,
directly or through other reached package code. Helpers that only the
unit tests call do not belong in ``src/``. The walk is syntactic and
matches names by spelling across modules, so two names that share a
spelling count as one, which can only make the check more lenient.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "patternwalks").glob("*.py"))
USERS = [
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "oracles.py",
    *sorted((ROOT / "bench").glob("*.py")),
]


def _used(node, strings: bool = False) -> set:
    """Identifiers a piece of code uses; with ``strings``, also identifier-like
    string constants, which is how the benchmark tracer names its wrap sites."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(part for part in sub.value.split(".") if part.isidentifier())
    return found


def _parse(path):
    """(exports, definitions -> names each uses, names module-level code uses)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exports, defs, roots = [], {}, set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = _used(node)
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            if node.targets[0].id == "__all__":
                exports = ast.literal_eval(node.value)
            else:
                defs[node.targets[0].id] = _used(node.value)
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            roots |= _used(node)
    return exports, defs, roots


def _reached() -> set:
    edges, reached = {}, set()
    for path in MODULES:
        _, defs, roots = _parse(path)
        for name, uses in defs.items():
            edges.setdefault(name, set()).update(uses)
        reached |= roots
    for path in USERS:
        reached |= _used(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    frontier = list(reached)
    while frontier:
        for name in edges.get(frontier.pop(), ()):
            if name not in reached:
                reached.add(name)
                frontier.append(name)
    return reached


REACHED = _reached()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_is_reached_outside_the_unit_tests(path):
    exports, defs, _ = _parse(path)
    public = set(exports) | {name for name in defs if not name.startswith("_")}
    assert sorted(public - REACHED) == []
