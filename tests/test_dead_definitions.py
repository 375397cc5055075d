"""Structural checks on the package source, by parsing it with ast.

No linter ships with the project.  Every module-level function and class
must have a user, and so must every method and class attribute of the field
and ring classes and of genus1's _Curve (dunder names aside): a definition
whose name is referenced nowhere in src/, tests/ or perfbench/ apart from
the definition itself fails.  A reference is a name that is read, an
attribute, an imported name, or a string constant equal to the name (the
__all__ entries and the benchmark's tracing hooks).  Every import in src/
must be used by its own module: read as a name or listed in __all__, unless
its line says "# noqa: F401" (the names kept only for the benchmark's
tracing hooks).  And no module reads the environment, so that behaviour is
set by arguments alone.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2lpoly"
# classes whose methods and class attributes are checked too, by module
MEMBERS_CHECKED = {
    "modarith.py": ("Fp", "Fp2", "Integers", "QuadOrder"),
    "genus1.py": ("_Curve",),
}


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


def _definitions(path, tree):
    """(label, name, node) for each checked definition of a module."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield f"{path.name}:{node.lineno} {node.name}", node.name, node
        if node.name not in MEMBERS_CHECKED.get(path.name, ()):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__"):
                    yield f"{path.name}:{item.lineno} {node.name}.{name}", name, item


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
        for label, name, node in _definitions(path, trees[path]):
            own = Counter(_references(node))  # recursion is not a use
            if refs[name] == own[name]:
                dead.append(label)
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
