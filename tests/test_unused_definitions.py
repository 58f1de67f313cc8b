"""No library function, class, method or attribute is defined without a
reader in src/.

A standard-library stand-in for a dead-code linter, like
test_unused_imports.py.  Each src/blockposets/*.py except __init__.py is
parsed with ast.  Every function, class and method defined in one of them,
at any depth, must be read somewhere in those modules: as a plain name, or
as the attribute of an attribute access, which covers methods called on an
instance.  Every attribute stored on self must be loaded somewhere in them,
from any object; storing it again is not a read.  Names re-exported by
__init__.py are not reads, and dunder methods are exempt, as Python calls
them.  What only the tests read belongs in tests/oracles.py; what a reader
outside src/ needs, or what only the tests read of a result the library
builds anyway, is on ALLOWED, with the reason.
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
    "brauer.DefectData.num_conjugates":
        "tests read the defect group's class size, against the "
        "p-subgroup classes",
    "brauer.BrauerPairPoset.normal_edges":
        "tests compare the normal-containment edges with their oracles",
    "commuting.Obstruction.minimal_indices":
        "tests check that the obstruction's elements have pairwise common "
        "upper bounds",
    "commuting.Obstruction.subgroups":
        "tests conjugate the obstruction's subgroups onto a known pattern",
    "fusion.FusionSystem.top":
        "tests walk the subpair chains down from the maximal pair",
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


def stored_attributes(tree, prefix):
    """[(qualified name, name)] of the attributes stored on self in tree,
    each under the class whose methods store it."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            out += stored_attributes(node, f"{prefix}{node.name}.")
            continue
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            out.append((prefix + node.attr, node.attr))
        out += stored_attributes(node, prefix)
    return out


def unused_definitions(sources):
    """Sorted qualified names, as module.name, of the definitions in
    sources, a {module: source text} dict, that no source reads, and of
    the attributes stored on self that no source loads."""
    defined, stored, read, loaded = [], [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source, filename=module)
        defined += definitions(tree, module + ".")
        stored += stored_attributes(tree, module + ".")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    unused = {qual for qual, name in defined
              if name not in read
              and not (name.startswith("__") and name.endswith("__"))}
    unused.update(qual for qual, name in stored if name not in loaded)
    return sorted(unused)


def test_every_definition_is_read():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unused_definitions(sources) == sorted(ALLOWED)


def test_allowed_names_still_exist():
    sources = {p.stem: p.read_text() for p in MODULES}
    defined = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for qual, _name in (definitions(tree, module + ".")
                            + stored_attributes(tree, module + ".")):
            defined.add(qual)
    assert set(ALLOWED) <= defined


def test_guard_flags_an_unread_definition():
    sources = {
        "a": ("class Box:\n"
              "    def __init__(self):\n"
              "        self.v = helper()\n"
              "        self.w = self.v = 1\n"
              "        self.n = 0\n"
              "    def size(self):\n"
              "        return self.n\n"
              "    def unread(self):\n"
              "        def inner():\n"
              "            return 0\n"
              "        return inner()\n"
              "def helper():\n"
              "    return Box\n"),
        "b": "def orphan():\n    return 2\n\nx = Box().size()\n",
    }
    assert unused_definitions(sources) == ["a.Box.unread", "a.Box.v",
                                           "a.Box.w", "b.orphan"]
