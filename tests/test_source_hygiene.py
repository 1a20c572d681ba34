"""Every module-level import in the package and the scripts is used.

No linter ships with the project, so this walks the syntax tree with the
standard library: a name bound by a top-level import must be read somewhere
in its module.  A name that `citegauge/__init__.py` imports from a module is
re-exported, so it counts as used there, and `__init__`'s own imports are
the package's public names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "citegauge"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def imported_names(tree):
    """(bound name, line) for each top-level import, __future__ excluded."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree):
    """Every name the module loads, including names inside string
    annotations such as -> "FetchCheckpoint"."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(expr)
                             if isinstance(n, ast.Name))
    return names


def reexported():
    """module stem -> names __init__ imports from it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    if path == PACKAGE / "__init__.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = read_names(tree)
    if path.parent == PACKAGE:
        used |= reexported().get(path.stem, set())
    unused = [f"{path.name}:{line}: {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import json\nimport sys\nfrom typing import Callable\n"
                     "def f() -> 'Callable':\n    return sys.argv, 'json'\n")
    used = read_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["json"]
