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

A name shared by two classes passes the ast check if either uses it, so
test_field_and_curve_members_are_called counts the calls to each public
method of Fp, Fp2 and _Curve at run time, over factors and counts that
reach every counting path over both fields.
"""

import ast
import random
from collections import Counter
from pathlib import Path

from g2lpoly import genus1, oracle
from g2lpoly.clusterclassify import ClusterType
from g2lpoly.eulercore import EulerInput, euler_factor
from g2lpoly.modarith import Fp, Fp2

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


# public members that euler_factor and lpoly1 never call, which only the
# oracle or the tests use: none at present
CALLED_ELSEWHERE = frozenset()


def test_field_and_curve_members_are_called(monkeypatch):
    # every cluster type at small primes (exhaustive counts over F_p and
    # F_{p^2}), type 2b at p = 131, past the exhaustive band of F_{p^2},
    # and BSGS with both class reads over F_p near 2^30 and F_{p^2} near 2^32
    rng = random.Random(5)
    factors = [(oracle.random_instance(p, typ, rng, max_depth=3, compute_expected=False).f, p)
               for p in (5, 13, 61) for typ in ClusterType]
    factors.append((oracle.gen_type2b(131, 2, rng, compute_expected=False).f, 131))
    cubics = [genus1.Genus1Model(F, (F.random(rng), F.random(rng), F.random(rng), F.one))
              for F in (Fp(1073741827), Fp2(65537, 65534, 0)) for _ in range(2)]
    members = [(f"{cls.__name__}.{name}", cls, name, member)
               for cls in (Fp, Fp2, genus1._Curve) for name, member in vars(cls).items()
               if callable(member) and not name.startswith("_")]
    calls = Counter()
    for key, cls, name, member in members:
        def wrapper(*args, _real=member, _key=key, **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
    for f, p in factors:
        euler_factor(EulerInput(f, p), rng)
    for model in cubics:
        genus1.lpoly1(model, rng)
    never = [key for key, *_ in members if not calls[key] and key not in CALLED_ELSEWHERE]
    assert never == [], "members never called: " + ", ".join(never)
