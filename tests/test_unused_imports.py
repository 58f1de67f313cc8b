"""No library or test module imports a name it never uses.

The project installs no linter, so this standard-library check stands in
for one.  Each src/blockposets/*.py except __init__.py (which imports in
order to re-export), and each tests/*.py, is parsed with ast.  Every name
bound by an import statement, at any depth, must be read somewhere in the
module as a plain name, which covers the root of an attribute chain.
`from __future__` imports bind no name and are exempt.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "blockposets"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source, filename="<source>"):
    """[(line, name)] of the imported names that the source never reads."""
    tree = ast.parse(source, filename=filename)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_sources_are_found():
    assert {p.name for p in MODULES} >= {"perms.py", "brauer.py", "cli.py"}
    assert {p.name for p in TEST_MODULES} >= {"oracles.py",
                                               "test_unused_imports.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(), str(path)) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_every_test_import_is_used(path):
    assert unused_imports(path.read_text(), str(path)) == []


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from .perms import PermGroup, centralizer, normalizer\n"
              "def f(G):\n"
              "    return centralizer(G, os.path.sep), PermGroup\n")
    assert unused_imports(source) == [(3, "js"), (4, "normalizer")]
