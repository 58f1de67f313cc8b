"""No library function, class or method is defined without a reader in src/.

A standard-library stand-in for a dead-code linter, like
test_unused_imports.py.  Each src/blockposets/*.py except __init__.py is
parsed with ast.  Every function, class and method defined in one of them,
at any depth, must be read somewhere in those modules: as a plain name, or
as the attribute of an attribute access, which covers methods called on an
instance.  Names re-exported by __init__.py are not reads, and dunder
methods are exempt, as Python calls them.  What only the tests read belongs
in tests/oracles.py; what a reader outside src/ needs is on ALLOWED, with
the reason.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "blockposets"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

ALLOWED = {
    "cache.class_algebra_and_blocks":
        "perfbench/child.py times the set-up through it",
    "topology.SimplicialComplex.num_simplices":
        "perfbench/spans.py sizes the order_complex spans by it",
}


def definitions(tree, prefix):
    """[qualified name] of the functions, classes and methods in tree."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((prefix + node.name, node.name))
            out += definitions(node, f"{prefix}{node.name}.")
        else:
            out += definitions(node, prefix)
    return out


def unused_definitions(sources):
    """Sorted qualified names, as module.name, of the definitions in
    sources, a {module: source text} dict, that no source reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source, filename=module)
        defined += definitions(tree, module + ".")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(qual for qual, name in defined
                  if name not in read
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_read():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unused_definitions(sources) == sorted(ALLOWED)


def test_allowed_names_still_exist():
    sources = {p.stem: p.read_text() for p in MODULES}
    defined = {qual for module, source in sources.items()
               for qual, _name in definitions(ast.parse(source), module + ".")}
    assert set(ALLOWED) <= defined


def test_guard_flags_an_unread_definition():
    sources = {
        "a": ("class Box:\n"
              "    def __init__(self):\n"
              "        self.v = helper()\n"
              "    def size(self):\n"
              "        return 1\n"
              "    def unread(self):\n"
              "        def inner():\n"
              "            return 0\n"
              "        return inner()\n"
              "def helper():\n"
              "    return Box\n"),
        "b": "def orphan():\n    return 2\n\nx = Box().size()\n",
    }
    assert unused_definitions(sources) == ["a.Box.unread", "b.orphan"]
