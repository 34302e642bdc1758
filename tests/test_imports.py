"""Every module-level import in src/nptcert is used (no linter is a dependency),
and every third-party module it imports is a declared dependency and the other
way round."""

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
