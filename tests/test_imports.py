"""Every top-level import in src/ and tests/ is used by its module, and every
definition in src/ is read somewhere.

AST scans stand in for a linter. A module's top-level import binds a name,
and some ``Name`` node in the same module must read it; package
``__init__.py`` files are skipped, since their imports are re-exports. Each
top-level function or class and each non-dunder method in src/ must be read
in src/, tests/ or perfbench/: by a ``Name``, an ``Attribute``, an import
alias or a string constant, since the benchmark's tracer patches by name.
Each defaulted parameter of such a function or method must be passed, by
keyword or at its position, by some call in src/, tests/ or perfbench/ of a
callee with its name; a class's ``__init__`` is called by the class's name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import_and_accepts_a_used_one():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]
    assert unused_imports("from a import b as c\nc.d()\n") == []


def definitions(source):
    """(line, name) of each top-level function or class and each non-dunder method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (*funcs, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(n.lineno, n.name) for n in node.body
                    if isinstance(n, funcs) and not (n.name.startswith("__") and n.name.endswith("__"))]
    return out


def reads(source):
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def dead_definitions(source, read):
    return [(line, name) for line, name in definitions(source) if name not in read]


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(reads(p.read_text(encoding="utf-8")) for p in SOURCES))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.is_relative_to(ROOT / "src")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_src_definition_is_read_somewhere(path, read_anywhere):
    assert dead_definitions(path.read_text(encoding="utf-8"), read_anywhere) == []


def test_scan_flags_a_dead_definition_and_accepts_a_read_one():
    source = ("def f():\n    pass\n\n\nclass C:\n    def __init__(self):\n        pass\n\n"
              "    def m(self):\n        pass\n")
    assert dead_definitions(source, reads(source)) == [(1, "f"), (5, "C"), (9, "m")]
    assert dead_definitions(source, reads("from a import f\nC().m()\n")) == []
    assert dead_definitions(source, reads("f()\nsetattr(obj, 'm', None)\n")) == [(5, "C")]


def defaulted_parameters(source):
    """(line, callee, parameter, position) of each defaulted parameter of a top-level
    function or a method other than ``__call__``; position is None for keyword-only."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []

    def add(node, callee, bound):
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out.extend((arg.lineno, callee, arg.arg, i - bound)
                   for i, arg in enumerate(positional[first:], start=first))
        out.extend((arg.lineno, callee, arg.arg, None)
                   for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None)

    for node in ast.parse(source).body:
        if isinstance(node, funcs):
            add(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for n in node.body:
                if isinstance(n, funcs) and n.name != "__call__":
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in n.decorator_list)
                    add(n, node.name if n.name == "__init__" else n.name, 0 if static else 1)
    return out


def calls(source):
    """callee name -> [(positional count, keyword names, passes everything)] for each call."""
    out = {}
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
            star = any(isinstance(a, ast.Starred) for a in n.args) or any(k.arg is None for k in n.keywords)
            out.setdefault(getattr(n.func, "id", None) or n.func.attr, []).append(
                (len(n.args), {k.arg for k in n.keywords}, star))
    return out


def unpassed_defaults(source, called):
    return [(line, f"{callee}({name})") for line, callee, name, position in defaulted_parameters(source)
            if not any(star or name in keywords or (position is not None and count > position)
                       for count, keywords, star in called.get(callee, []))]


@pytest.fixture(scope="module")
def called_anywhere():
    out = {}
    for p in SOURCES:
        for callee, sites in calls(p.read_text(encoding="utf-8")).items():
            out.setdefault(callee, []).extend(sites)
    return out


@pytest.mark.parametrize("path", [p for p in SOURCES if p.is_relative_to(ROOT / "src")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_src_keyword_default_is_passed_somewhere(path, called_anywhere):
    assert unpassed_defaults(path.read_text(encoding="utf-8"), called_anywhere) == []


def test_scan_flags_an_unpassed_default_and_accepts_a_passed_one():
    source = ("def f(a, b=1, *, c=2):\n    pass\n\n\nclass C:\n    def __init__(self, d=3):\n"
              "        pass\n\n    def m(self, e=4):\n        pass\n\n    def __call__(self, g=5):\n"
              "        pass\n")
    assert unpassed_defaults(source, calls("f(0)\nC()\nC().m()\n")) == [
        (1, "f(b)"), (1, "f(c)"), (6, "C(d)"), (9, "m(e)")]
    passed = "f(0, 1, c=2)\nC(3)\nobj.m(e=4)\n"
    assert unpassed_defaults(source, calls(passed)) == []
    assert unpassed_defaults(source, calls("f(*args, **kw)\nC(**kw)\nC().m(*a)\n")) == []
