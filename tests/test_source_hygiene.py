"""Every module-level import in the package and the scripts is used, every
function, method, property and class of the package is used by the
program, the package's third-party imports are its declared dependencies,
cli.py imports none, every JSON decode in the package catches every way
text can fail to decode, only corpus.py decodes input JSON or opens a file
to read, importing the CLI loads none of the modules only ingest uses, and
README.md shows every subcommand.

No linter ships with the project, so this walks the syntax tree with the
standard library: a name bound by a top-level import must be read somewhere
in its module.  A name that `citegauge/__init__.py` imports from a module is
re-exported, so it counts as used there, and `__init__`'s own imports are
the package's public names.  A definition counts as used when src/,
scripts/ or perfbench/ reads it as a name or an attribute, imports it, or
holds it as an identifier string (the benchmark wraps functions by name);
a caller in the tests alone does not count.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from citegauge.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "citegauge"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
PROGRAM = [path for top in ("src", "scripts", "perfbench")
           for path in sorted((ROOT / top).rglob("*.py"))]


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


def definitions(tree):
    """(name, line) of every function, method, property and class, at any
    depth; dunder methods are left out, as Python calls them."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) \
                and not (node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno


def references(tree):
    """Every name and attribute the tree reads, every name it imports and
    every string constant that is an identifier."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_definition_is_used_by_the_program():
    used = set()
    for path in PROGRAM:
        used.update(references(ast.parse(path.read_text(encoding="utf-8"))))
    unused = [f"{path.name}:{line}: {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, line in definitions(ast.parse(
                  path.read_text(encoding="utf-8")))
              if name not in used]
    assert not unused, "defined but used by no program path: " + ", ".join(unused)


def test_the_scan_sees_an_unused_definition():
    tree = ast.parse(
        "class A:\n"
        "    def __len__(self): return 0\n"
        "    def read(self): pass\n"
        "    def unread(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "def wrapped(): pass\n"
        "def stored(): pass\n"
        "a = A()\n"
        "a.stored = a.read(), a.size, getattr(a, 'wrapped'), 'not an id'\n")
    used = set(references(tree))
    assert sorted(n for n, _ in definitions(tree) if n not in used) == [
        "stored", "unread"]


#: The calls that decode JSON, and what each can raise on text it cannot
#: decode: ValueError for bad syntax or UTF-8 or an integer past the digit
#: limit, RecursionError for nesting past the recursion limit.
JSON_DECODERS = {"json.load", "json.loads", "orjson.loads"}
JSON_DECODE_ERRORS = {"ValueError", "RecursionError"}


def uncaught_decode_errors(tree):
    """(line, errors missed) of each try whose body calls a JSON decoder,
    or names one to be called, as in map(orjson.loads, texts), and whose
    handlers do not name every JSON decode error."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Try) and any(
                isinstance(name, (ast.Attribute, ast.Name))
                and ast.unparse(name) in JSON_DECODERS
                for statement in node.body for name in ast.walk(statement))):
            continue
        caught = set()
        for handler in node.handlers:
            kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) \
                else [handler.type]
            caught.update(ast.unparse(kind) for kind in kinds if kind)
        missed = JSON_DECODE_ERRORS - caught
        if missed:
            yield node.lineno, sorted(missed)


def test_every_json_decode_catches_every_decode_error():
    """A decode that catches only json.JSONDecodeError lets a long integer
    or a deep nesting escape as a traceback or an unnamed error."""
    missed = [f"{path.name}:{line}: {names}"
              for path in sorted(PACKAGE.glob("*.py"))
              for line, names in uncaught_decode_errors(ast.parse(
                  path.read_text(encoding="utf-8")))]
    assert not missed, "JSON decode errors not caught: " + ", ".join(missed)


def test_the_scan_sees_an_uncaught_decode_error():
    tree = ast.parse(
        "try:\n    json.loads(a)\nexcept json.JSONDecodeError:\n    pass\n"
        "try:\n    x = orjson.loads(b)[0]\nexcept ValueError:\n    pass\n"
        "try:\n    f(json.load(h))\nexcept KeyError:\n    pass\n"
        "except (ValueError, RecursionError):\n    pass\n"
        "try:\n    json.dumps(c)\nexcept TypeError:\n    pass\n"
        "try:\n    raws = list(map(orjson.loads, texts))\n"
        "except ValueError:\n    pass\n")
    assert list(uncaught_decode_errors(tree)) == [
        (1, ["RecursionError", "ValueError"]), (5, ["RecursionError"]),
        (19, ["RecursionError"])]


def decoder_names(tree, scope=""):
    """(scope, line) of each place the tree names a JSON decoder, in a call
    or an import, where scope is the dotted name of the classes and
    functions around it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            yield from decoder_names(node, f"{scope}.{node.name}".lstrip("."))
        elif isinstance(node, ast.ImportFrom):
            if any(f"{node.module}.{alias.name}" in JSON_DECODERS
                   for alias in node.names):
                yield scope, node.lineno
        elif isinstance(node, (ast.Attribute, ast.Name)) \
                and ast.unparse(node) in JSON_DECODERS:
            yield scope, node.lineno
        else:
            yield from decoder_names(node, scope)


#: The one decode outside corpus.py: an API response body, which is not an
#: input file, and whose ValueError is a failed fetch of that id.
DECODES_OUTSIDE_CORPUS = {("ingest.py", "HttpTransport._get")}


def test_only_corpus_decodes_json():
    """corpus.utf8_text and corpus.json_value are the one UTF-8 rule and the
    one JSON rule for every file the program reads."""
    named = [f"{path.name}:{line}: {scope}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "corpus.py"
             for scope, line in decoder_names(ast.parse(
                 path.read_text(encoding="utf-8")))
             if (path.name, scope) not in DECODES_OUTSIDE_CORPUS]
    assert not named, "JSON decoded outside corpus.py: " + ", ".join(named)


def test_the_scan_sees_a_json_decoder():
    tree = ast.parse(
        "import json\nfrom orjson import dumps, loads\n"
        "class T:\n    def _get(self, body):\n        return json.loads(body)\n"
        "def read(h):\n    return json.load(h), json.dumps(1), dumps(2)\n")
    assert list(decoder_names(tree)) == [("", 2), ("T._get", 5), ("read", 7)]


def reading_opens(tree):
    """Line of each call of the builtin open whose mode, a string constant
    given by position or keyword, holds none of "w", "a" and "x": it opens
    for reading, as a missing or computed mode may."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        modes = [*node.args[1:2], *(keyword.value for keyword in node.keywords
                                    if keyword.arg == "mode")]
        mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) \
            else "r"
        if not {"w", "a", "x"} & set(mode):
            yield node.lineno


def test_only_corpus_opens_files_to_read():
    """corpus.py reads every input, so each goes through the one UTF-8
    rule and the one byte-order-mark rule; the other modules and the
    scripts open files only to write or append."""
    opened = [f"{path.name}:{line}" for path in MODULES
              if path != PACKAGE / "corpus.py"
              for line in reading_opens(ast.parse(
                  path.read_text(encoding="utf-8")))]
    assert not opened, "files opened to read outside corpus.py: " + ", ".join(
        opened)


def test_the_scan_sees_a_file_opened_to_read():
    tree = ast.parse(
        "open(p)\nopen(p, 'rb')\nopen(p, mode='r', encoding='utf-8')\n"
        "open(p, 'w')\nopen(p, 'ab')\nopen(p, mode='x')\nopen(p, 'r+')\n"
        "open(p, m)\nos.open(p, flags)\n")
    assert list(reading_opens(tree)) == [1, 2, 3, 7, 8]


def third_party_imports(paths):
    """Top-level modules the files import, anywhere in a file, that are
    neither the standard library nor the package itself."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"citegauge"}


def test_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    assert third_party_imports(PACKAGE.glob("*.py")) == declared


def test_cli_imports_no_third_party_module():
    """cli.py is wiring: the computing, and the libraries it takes, stay in
    the modules it calls."""
    assert third_party_imports([PACKAGE / "cli.py"]) == set()


def test_readme_shows_every_subcommand(capsys):
    assert main(["--help"]) == 0
    listed = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [name for name in listed.split(",")
               if f"citegauge {name} " not in readme]
    assert not missing, f"README.md shows no example of: {missing}"


#: Modules that only ingest uses: the network and TLS stack, the hashing
#: behind the checkpoint's ids digest and the fetchers' thread pool.
INGEST_ONLY_MODULES = ("urllib.request", "http.client", "ssl", "email",
                       "hashlib", "concurrent.futures")


def test_importing_the_cli_loads_no_ingest_only_module():
    """A report process imports the CLI and runs no ingest, so it loads
    none of the modules that only ingest uses: ingest imports them in the
    functions that use them."""
    probe = ("import sys, citegauge.cli; print(' '.join(sorted(name for name "
             f"in {INGEST_ONLY_MODULES!r} if name in sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            check=True, capture_output=True, text=True).stdout
    assert loaded.split() == []
