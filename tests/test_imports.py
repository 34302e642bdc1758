"""Every module-level import in src/nptcert is used (no linter is a dependency),
every third-party module it imports is a declared dependency and the other
way round, and every library option that no caller sets, every unbounded
cache, every dataclass field that nothing reads, every public function
that only tests call and every read of the process environment is on a
reviewed list."""

import ast
import re
import sys
from pathlib import Path

import pytest

import nptcert

PACKAGE = Path(nptcert.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that nothing reads.
    A name listed in __all__ counts as read; __future__ imports are skipped."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import json\nimport math\nfrom .x import a, b as c\n\nprint(math.pi, c)\n"
    assert unused_imports(source) == ["a (line 3)", "json (line 1)"]


def third_party_imports(source: str) -> set:
    """Top-level names of the absolute imports anywhere in source that are
    not in the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", req)[0].lower().replace("-", "_")
                for req in pyproject["project"]["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert imported == declared


def test_detects_a_third_party_import():
    source = "import os.path\nimport numpy as np\nfrom yaml import load\nfrom . import cv\n"
    assert third_party_imports(source) == {"numpy", "yaml"}


# The defaulted parameters of public functions that no call in src/nptcert or
# perfbench/ sets, each with the reason it stays settable.  An option only
# tests set is a configuration nothing else runs: make it a constant, or add
# it here with its reason.
UNSET_DEFAULTS = {
    "certificates.orthogonal_pair_construct(alpha1)": "paper API: the pair for any coefficients",
    "certificates.orthogonal_pair_construct(alpha2)": "paper API: the pair for any coefficients",
    "certificates.orthogonal_pair_construct(tol)": "paper API: the SR verdict's tolerance",
    "certificates.sr_pt_test(tol)": "paper API: the SR verdict's tolerance",
    "certificates.variance_positivity(tol)": "paper API: the negative-eigenvalue bound",
    "hermitian.validate_hermitian(tol)": "tests tighten their fixtures to 1e-12 with it",
}


def unset_defaults(definitions: dict, callers: list) -> list:
    """"module.function(parameter)" for each defaulted parameter of a public
    module-level function in definitions ({module: source}) that no call in
    callers (a list of sources) passes, by keyword or by position.  A call is
    matched by the function's name alone.  Pass-through calls are not
    followed: a parameter that a function only passes on from its own
    defaulted parameter counts as set."""
    defaulted = {}
    for module, source in definitions.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                names = positional[len(positional) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                for name in names:
                    defaulted[node.name, name] = (module, positional)
    passed = set()
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = {k.arg for k in call.keywords}  # None for **kwargs
            for (function, param), (_, positional) in defaulted.items():
                if function == name and (param in keywords or None in keywords
                                         or param in positional[:len(call.args)]):
                    passed.add((function, param))
    return sorted(f"{module}.{function}({param})"
                  for (function, param), (module, _) in defaulted.items()
                  if (function, param) not in passed)


def test_every_unset_option_is_listed():
    callers = [p.read_text() for p in PACKAGE.glob("*.py")]
    callers += [p.read_text() for p in (PACKAGE.parents[1] / "perfbench").rglob("*.py")]
    definitions = {p.stem: p.read_text() for p in MODULES}
    assert unset_defaults(definitions, callers) == sorted(UNSET_DEFAULTS)


def test_detects_an_unset_default():
    source = "def f(a, b=1, c=2, *, d=3):\n    pass\n\n\ndef _g(x=1):\n    pass\n"
    callers = ["f(0, 5)", "m.f(0, d=4)", "_g()"]
    assert unset_defaults({"m": source}, callers) == ["m.f(c)"]
    assert unset_defaults({"m": source}, callers + ["f(0, **options)"]) == []


# Caches without an integer maxsize, each with the reason it may grow.
UNBOUNDED_CACHES = {
    "cli._parser": "one entry per prog name, and a process has one",
}


def unbounded_caches(modules: dict) -> list:
    """"module.function" for each function in modules ({module: source})
    decorated with functools.cache, or lru_cache without an integer maxsize
    (bare, maxsize=None or a non-literal)."""
    found = []
    for module, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                target = call.func if call else dec
                name = getattr(target, "id", getattr(target, "attr", None))
                if name == "cache":
                    found.append(f"{module}.{node.name}")
                elif name == "lru_cache":
                    args = ([*call.args[:1], *(k.value for k in call.keywords
                                                if k.arg == "maxsize")] if call else [])
                    if not (args and isinstance(args[0], ast.Constant)
                            and type(args[0].value) is int):
                        found.append(f"{module}.{node.name}")
    return sorted(found)


def test_every_cache_is_bounded_or_listed():
    assert unbounded_caches({p.stem: p.read_text() for p in MODULES}) == sorted(UNBOUNDED_CACHES)


def test_detects_an_unbounded_cache():
    source = "\n".join([
        "import functools", "from functools import cache, lru_cache",
        "@functools.cache", "def a(): pass", "@cache", "def b(): pass",
        "@lru_cache", "def c(): pass", "@lru_cache(maxsize=None)", "def d(): pass",
        "@functools.lru_cache(SIZE)", "def e(): pass",
        "@lru_cache(maxsize=8)", "def f(): pass", "@functools.lru_cache(4)", "def g(): pass",
        "class K:", "    @lru_cache(2)", "    def h(self): pass", "    @cache", "    def i(self): pass",
    ])
    assert unbounded_caches({"m": source}) == ["m.a", "m.b", "m.c", "m.d", "m.e", "m.i"]


# Dataclass fields that nothing reads, each with the reason it stays.
UNREAD_FIELDS = {}


def unread_fields(definitions: dict, readers: list) -> list:
    """"module.Class.field" for each field of a @dataclass class in
    definitions ({module: source}) that no source in readers reads: neither an
    attribute load `.field` nor a string constant equal to `field` appears.
    Fields are matched by name, not by type, so a field that shares its name
    with one read elsewhere (HurWeakReport.lhs and SRReport.lhs) or with a
    JSON key ("bipartition") counts as read; only uniquely named fields are
    caught."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    found = []
    for module, source in definitions.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            targets = (getattr(dec, "func", dec) for dec in node.decorator_list)  # @x(...) or @x
            if "dataclass" in {getattr(t, "id", getattr(t, "attr", None)) for t in targets}:
                found += [f"{module}.{node.name}.{s.target.id}" for s in node.body
                          if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                          and s.target.id not in read]
    return sorted(found)


def test_every_dataclass_field_is_read_or_listed():
    root = PACKAGE.parents[1]
    readers = [p.read_text() for p in PACKAGE.glob("*.py")]
    readers += [p.read_text() for d in ("perfbench", "tests") for p in (root / d).rglob("*.py")]
    definitions = {p.stem: p.read_text() for p in MODULES}
    assert unread_fields(definitions, readers) == sorted(UNREAD_FIELDS)


def test_detects_an_unread_field():
    source = "\n".join([
        "import dataclasses", "from dataclasses import dataclass",
        "@dataclass(frozen=True)", "class A:",
        "    by_attr: int", "    by_key: str", "    unread: float",
        "@dataclasses.dataclass", "class B:", "    stored: int", "    LIMIT = 3",
        "class C:", "    plain: int",
    ])
    readers = [source, "print(a.by_attr)", 'row = {"by_key": 1}', "b.stored = 2"]
    assert unread_fields({"m": source}, readers) == ["m.A.unread", "m.B.stored"]


# Public functions and classes that nothing but tests calls, each with the
# paper claim or user purpose it carries.
TEST_ONLY_API = {
    "certificates.ghz_pair": "paper claim: the explicit three-qubit pair behind GHZ_MARGIN_SCALE",
    "certificates.orthogonal_pair_construct": "paper API: the certificate on orthogonal vectors "
                                              "that need not be eigenvectors",
    "certificates.sr_pt_test": "paper API: the certification workflow, criteria 1, 4, 5 and 10",
    "certificates.two_qubit_equivalence": "paper claim: SR margin = det / 4 on a qubit, "
                                          "criterion 2",
    "certificates.variance_positivity": "paper claim: two negative PT eigenvalues give "
                                        "a negative variance",
    "cv.amplitude_squeezing": "paper API: m-th order amplitude squeezing at one phase",
    "cv.amplitude_squeezing_scan": "paper API: its minimum over phases, criterion 9",
    "cv.photon_stat_nonclassicality": "paper API: m-th order sub-Poissonian test, criterion 9",
    "hermitian.save_operator": "user purpose: writes the matrix file that `check` reads "
                               "(README quick start)",
}


def uncalled_definitions(definitions: dict, callers: list) -> list:
    """"module.name" for each public module-level def or class in definitions
    ({module: source}) whose name no ast.Name or ast.Attribute load reads,
    neither in definitions outside the name's own definition nor anywhere in
    callers (a list of sources).  Names are matched, not bindings, as in
    unread_fields: a load of a same-named attribute or local elsewhere counts
    as a call, and an import is not a load."""
    def loads(tree):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}

    called = set().union(*(loads(ast.parse(source)) for source in callers))
    public = []
    for module, source in definitions.items():
        for node in ast.parse(source).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            called |= loads(node) - {own}
            if own and not own.startswith("_"):
                public.append((module, own))
    return sorted(f"{module}.{name}" for module, name in public if name not in called)


def test_every_public_function_has_a_caller_or_is_listed():
    callers = [p.read_text() for p in (PACKAGE.parents[1] / "perfbench").rglob("*.py")]
    definitions = {p.stem: p.read_text() for p in MODULES}
    assert uncalled_definitions(definitions, callers) == sorted(TEST_ONLY_API)


def test_detects_a_test_only_function():
    source = "\n".join([
        "class Report:", "    pass",
        "def build() -> Report:", "    return _helper()",
        "def _helper():", "    return Report()",
        "def recursive(n):", "    return recursive(n - 1)",
        "def traced():", "    pass",
        "def test_only():", "    pass",
    ])
    callers = ["import m\nm.traced()", "from m import test_only, build\nx = build\ntest_only = 1"]
    assert uncalled_definitions({"m": source}, callers) == ["m.recursive", "m.test_only"]


# Reads of the process environment, each with the reason it is read.  An
# environment variable is a second, invisible way to set what an option or a
# spec sets, and no report records it.
ENVIRONMENT_READS = {}

ENVIRONMENT = ("environ", "getenv", "putenv")


def environment_reads(modules: dict) -> list:
    """"where: os.name" for each load of os.environ, os.getenv or os.putenv
    in modules ({module: source}), through `os`, an alias of it or a name
    imported from it; `where` is the module and its enclosing classes and
    functions, e.g. "cli._tol"."""
    found = []
    for module, source in modules.items():
        tree = ast.parse(source)
        aliases, names = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "os"}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names |= {a.asname or a.name: a.name for a in node.names if a.name in ENVIRONMENT}

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, f"{where}.{child.name}")
                    continue
                if (isinstance(child, ast.Attribute) and child.attr in ENVIRONMENT
                        and isinstance(child.value, ast.Name) and child.value.id in aliases):
                    found.append(f"{where}: os.{child.attr}")
                elif isinstance(child, ast.Name) and child.id in names:
                    found.append(f"{where}: os.{names[child.id]}")
                visit(child, where)
        visit(tree, module)
    return sorted(found)


def test_no_environment_reads():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert environment_reads(modules) == sorted(ENVIRONMENT_READS)


def test_detects_an_environment_read():
    source = "\n".join([
        "import os", "import os as system", "from os import getenv, environ as env",
        "from os import path",
        "HOME = os.environ['HOME']",
        "def f():", "    return getenv('X')",
        "class K:", "    def g(self):", "        system.putenv('A', 'b')", "        return env",
        "def h():", "    return os.path.exists('x'), os.getcwd(), path.sep",
    ])
    assert environment_reads({"m": source}) == [
        "m.K.g: os.environ", "m.K.g: os.putenv", "m.f: os.getenv", "m: os.environ"]
