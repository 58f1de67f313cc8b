"""No library function, class, method or attribute is defined without a
reader in src/.

A standard-library stand-in for a dead-code linter, like
test_unused_imports.py.  Each src/blockposets/*.py except __init__.py is
parsed with ast.  Every function, class and method defined in one of them,
at any depth, must be read somewhere in those modules: as a plain name, or
as the attribute of an attribute access, which covers methods called on an
instance.  A function defined directly in a class body is reached only
through an attribute, so only an attribute access reads it: a local
variable or parameter of the same name does not.  Every attribute stored on self must be loaded somewhere in them,
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


def definitions(tree, prefix, in_class=False):
    """[(qualified name, name, is_method)] of the functions, classes and
    methods in tree; is_method marks a function defined directly in a class
    body."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            is_class = isinstance(node, ast.ClassDef)
            out.append((prefix + node.name, node.name,
                        in_class and not is_class))
            out += definitions(node, f"{prefix}{node.name}.", is_class)
        else:
            out += definitions(node, prefix, in_class)
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
    defined, stored, names, attributes, loaded = [], [], set(), set(), set()
    for module, source in sources.items():
        tree = ast.parse(source, filename=module)
        defined += definitions(tree, module + ".")
        stored += stored_attributes(tree, module + ".")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    unused = {qual for qual, name, is_method in defined
              if name not in attributes
              and (is_method or name not in names)
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
        for qual, *_ in (definitions(tree, module + ".")
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
              "    def shadowed(self):\n"
              "        return 1\n"
              "    def unread(self):\n"
              "        def inner():\n"
              "            return 0\n"
              "        return inner()\n"
              "def helper():\n"
              "    return Box\n"),
        "b": ("def orphan(shadowed=1):\n"
              "    size = shadowed\n"
              "    return size\n"
              "\n"
              "x = Box().size()\n"),
    }
    # Box.shadowed is named only by a parameter and a Name load, neither
    # of which reaches a method; Box.size is also read through Box().size
    assert unused_definitions(sources) == ["a.Box.shadowed", "a.Box.unread",
                                           "a.Box.v", "a.Box.w", "b.orphan"]
