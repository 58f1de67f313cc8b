"""The library imports nothing outside the standard library.

Every absolute import in src/blockposets/*.py must name a top-level module
listed in sys.stdlib_module_names (Python 3.10 and later).
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "blockposets"
MODULES = sorted(SRC.glob("*.py"))


def absolute_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_sources_are_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "perms.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_stdlib_imports(path):
    outside = [f"{path.name}:{line}: {name}"
               for line, name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_guard_flags_a_third_party_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\nfrom numpy import array\nfrom . import gf\n")
    names = [name for _line, name in absolute_imports(bad)]
    assert names == ["os", "numpy"]
    assert "numpy" not in sys.stdlib_module_names
