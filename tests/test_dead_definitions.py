"""Structural checks on the package source, by parsing it with ast.

No linter ships with the project.  Every module-level function and class
must have a user: a definition whose name is referenced nowhere in src/,
tests/ or perfbench/ apart from the definition itself fails.  A reference
is a name that is read, an attribute, an imported name, or a string
constant equal to the name (the __all__ entries and the benchmark's tracing
hooks).  Every import in src/ must be used by its own module: read as a
name or listed in __all__, unless its line says "# noqa: F401" (the names
kept only for the benchmark's tracing hooks).  And no module reads the
environment, so that behaviour is set by arguments alone.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2lpoly"


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_dead_module_level_definitions():
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in ("src", "tests", "perfbench")
        for path in (ROOT / top).rglob("*.py")
    }
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = Counter(_references(node))  # recursion is not a use
                if refs[node.name] == own[node.name]:
                    dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, "unreferenced definitions: " + ", ".join(dead)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from (elt.value for elt in node.value.elts)


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_exported(tree))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                waived = any("# noqa: F401" in lines[i - 1] for i in (node.lineno, alias.lineno))
                if bound not in used and not waived:
                    unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert not unused, "unused imports: " + ", ".join(unused)


def test_no_environment_reads():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.alias) and node.name in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno} import {node.name}")
    assert not reads, "environment reads: " + ", ".join(reads)
