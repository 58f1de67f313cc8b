"""Finite permutation groups by full element enumeration.

Conventions, fixed once and used everywhere:

* Points are 0-based internally; cycle notation in input/output is 1-based.
* Products compose left-to-right: ``(a * b)(x) = b(a(x))``, i.e. apply ``a``
  first.
* Conjugation is ``x ** g = g^-1 * x * g``, so a cycle ``(i j)`` conjugated
  by ``g`` is the cycle ``(g(i) g(j))``.
* Element enumeration is closed under products and inverses and is sorted
  lexicographically by image tuple, which makes every downstream ordering
  (classes, subgroup lists, reports) reproducible.
* A Permutation is its image tuple: a tuple subclass with no fields of its
  own, so hashing, equality and ordering run in C.  Its hash is the hash of
  the plain image tuple, so sets and dicts of permutations iterate in the
  same order as sets and dicts of image tuples would, and that is what
  keeps set-derived orders and the reports stable.  A product or a
  conjugate is built in one pass over the images.

Target scale is groups of order up to a few thousand (the largest shipped
corpus group has order 5040), so questions about every g in G are answered
by scanning G, not through stabilizer chains.  The scans run on integers:
each group numbers its elements once (its ElementIndex, built on the first
scan), with the conjugation and right-multiplication tables of its
generators and a spanning tree of G along right multiplication.  Walking
the tree fills a column of |G| positions (x^g, or w g, for every g) by list
lookups instead of products (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005, section 4.1).  Permutation stays the
public and printed type.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import SizeLimitExceeded

MAX_GROUP_ORDER = 100_000


class Permutation(tuple):
    """A bijection of {0..degree-1}: the tuple of its images.

    Hashing, equality and ordering are the tuple's own, so they run in C and
    a Permutation hashes and compares equal to its plain image tuple.
    """

    __slots__ = ()

    @property
    def degree(self):
        return len(self)

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build from 1-based cycles, applied left to right.

        The cycles need not be disjoint, but no point may repeat inside one
        cycle (that would not be a bijection).
        """
        result = cls.identity(degree)
        for cycle in cycles:
            images = list(range(degree))
            m = len(cycle)
            for k, point in enumerate(cycle):
                if not 1 <= point <= degree:
                    raise ValueError(f"cycle point {point} outside 1..{degree}")
                images[point - 1] = cycle[(k + 1) % m] - 1
            if len(set(cycle)) != m:
                raise ValueError(f"cycle {list(cycle)} repeats a point")
            result = result * cls(images)
        return result

    def __mul__(self, other):
        if len(self) != len(other):
            raise ValueError("degree mismatch")
        return tuple.__new__(Permutation, [other[i] for i in self])

    def inverse(self):
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return tuple.__new__(Permutation, inv)

    def conjugate(self, g, ginv=None):
        """self ** g = g^-1 * self * g, in one pass over g^-1.

        Pass ginv = g.inverse() when conjugating many elements by one g.
        """
        if len(g) != len(self):
            raise ValueError("degree mismatch")
        if ginv is None:
            ginv = g.inverse()
        return tuple.__new__(Permutation, [g[self[i]] for i in ginv])

    def __call__(self, point):
        return self[point]

    def is_identity(self):
        return self == tuple(range(len(self)))

    def order(self):
        n = 1
        power = self
        while not power.is_identity():
            power = power * self
            n += 1
        return n

    def cycles(self):
        """Nontrivial cycles as 0-based tuples, each starting at its least point."""
        seen = [False] * len(self)
        out = []
        for start in range(len(self)):
            if seen[start] or self[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            point = self[start]
            while point != start:
                cyc.append(point)
                seen[point] = True
                point = self[point]
            out.append(tuple(cyc))
        return out

    def cycle_string(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __repr__(self):
        return f"Permutation[{self.cycle_string()}]"


def _closure(degree, gens, max_elements):
    identity = Permutation.identity(degree)
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elements:
                    elements.add(y)
                    new.append(y)
                    if len(elements) > max_elements:
                        raise SizeLimitExceeded(
                            f"group enumeration exceeded {max_elements} elements"
                        )
        frontier = new
    return elements


class ElementIndex:
    """One numbering of a group's elements, with int tables for its generators.

    * pos maps an element (or its plain image tuple, which hashes and
      compares equal) to its position in the sorted G.elements; root is
      the identity's position.
    * conj[t][i] is the position of t^-1 x_i t and right[t][i] that of x_i t,
      for the t-th generator.
    * tree lists (child, parent, t) with x_child = x_parent t, in BFS order
      from the identity: a spanning tree of G along right multiplication.

    A column walk down the tree sets col[child] from col[parent] by one
    table lookup, so a question about every g in G costs |G| lookups.
    """

    __slots__ = ("elements", "pos", "root", "conj", "right", "tree")

    def __init__(self, G):
        elements = G.elements
        pos = {x: i for i, x in enumerate(elements)}
        self.elements = elements
        self.pos = pos
        self.root = pos[tuple(range(G.degree))]
        self.conj, self.right = [], []
        # subscripts run on plain tuples, which CPython specialises (a
        # tuple subclass it does not); the image tuples index pos too
        plain = [tuple(x) for x in elements]
        for t in G.generators:
            t, tinv = tuple(t), tuple(t.inverse())
            self.right.append([pos[tuple([t[k] for k in x])]
                               for x in plain])
            self.conj.append([pos[tuple([t[x[k]] for k in tinv])]
                              for x in plain])
        seen = bytearray(len(elements))
        seen[self.root] = 1
        self.tree = []
        frontier = [self.root]
        while frontier:
            new = []
            for parent in frontier:
                for t, table in enumerate(self.right):
                    child = table[parent]
                    if not seen[child]:
                        seen[child] = 1
                        self.tree.append((child, parent, t))
                        new.append(child)
            frontier = new
        if len(self.tree) != len(elements) - 1:
            raise ValueError("the generators do not generate the element list")

    def id(self, perm):
        """Position of perm; ValueError when it is not an element."""
        hit = self.pos.get(perm)
        if hit is None:
            raise ValueError(f"{perm!r} is not an element of the group")
        return hit

    def _walk(self, tables, start):
        col = [0] * len(self.elements)
        col[self.root] = start
        for child, parent, t in self.tree:
            col[child] = tables[t][col[parent]]
        return col

    def conj_column(self, i):
        """col[g] = position of x_i^g, for every position g."""
        return self._walk(self.conj, i)

    def left_column(self, i):
        """col[g] = position of x_i x_g, for every position g."""
        return self._walk(self.right, i)

    def conj_image(self, t, xs):
        """[x^t for x in xs], t the t-th generator, by table lookups."""
        pos, elements, table = self.pos, self.elements, self.conj[t]
        return [elements[table[pos[x]]] for x in xs]

    def _narrow(self, xs, target):
        """(positions g with x^g in target for every x in xs, in G's order;
        the conjugation column of each x)."""
        inside = {self.pos[y] for y in target}
        keep = range(len(self.elements))
        cols = []
        for x in xs:
            col = self.conj_column(self.id(x))
            keep = [g for g in keep if col[g] in inside]
            cols.append(col)
        return keep, cols

    def conjugators(self, xs, target):
        """The g in G with x^g in target for every x in xs, in G's order."""
        keep, _cols = self._narrow(xs, target)
        return [self.elements[g] for g in keep]

    def coset_conjugators(self, xs, target):
        """The first g, in G's order, of each right coset C_G(xs) g whose
        members send every x in xs into target.

        g and g' lie in one coset iff x^g = x^g' for every x in xs, so the
        cosets are read off the columns of the xs: one g per distinct tuple
        of images.
        """
        keep, cols = self._narrow(xs, target)
        first = {}
        for g in keep:
            first.setdefault(tuple([col[g] for col in cols]), g)
        return [self.elements[g] for g in first.values()]


class PermGroup:
    """A finite permutation group with its full, sorted element list."""

    __slots__ = ("degree", "generators", "elements", "label", "element_set",
                 "_element_index", "_key")

    def __init__(self, degree, generators, elements, label=""):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.label = label
        self.element_set = frozenset(self.elements)
        self._element_index = None
        self._key = None

    @classmethod
    def from_generators(cls, degree, gens, label="", max_elements=MAX_GROUP_ORDER):
        gens = tuple(gens)
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        elements = _closure(degree, gens, max_elements)
        return cls(degree, gens, elements, label)

    @classmethod
    def from_elements(cls, degree, elements, label=""):
        """Wrap an already-closed element set, with a reduced generating set."""
        elements = set(elements)
        gens = []
        closed = {Permutation.identity(degree)}
        for x in sorted(elements):
            if x not in closed:
                gens.append(x)
                closed = _closure(degree, gens, len(elements))
                if len(closed) == len(elements):
                    break
        return cls(degree, gens, elements, label)

    @classmethod
    def trivial(cls, degree, label="1"):
        e = Permutation.identity(degree)
        return cls(degree, (), {e}, label)

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, perm):
        return perm in self.element_set

    def __le__(self, other):
        return self.element_set <= other.element_set

    def __eq__(self, other):
        return isinstance(other, PermGroup) and self.element_set == other.element_set

    def __hash__(self):
        return hash(self.element_set)

    def __repr__(self):
        return f"PermGroup({self.label or '?'}, degree={self.degree}, order={self.order})"

    def key(self):
        """Canonical sort key: (order, sorted element image tuples)."""
        if self._key is None:
            self._key = (self.order, self.elements)
        return self._key

    def element_index(self):
        """The group's ElementIndex, built on first request."""
        if self._element_index is None:
            self._element_index = ElementIndex(self)
        return self._element_index

    def identity(self):
        return Permutation.identity(self.degree)

    def is_abelian(self):
        gens = self.generators
        return all(a * b == b * a for a in gens for b in gens)

    def exponent(self):
        exp = 1
        for x in self.elements:
            exp = _lcm(exp, x.order())
        return exp

    def is_cyclic(self):
        return any(x.order() == self.order for x in self.elements)

    def is_elementary_abelian(self, p):
        """(flag, rank): abelian of exponent dividing p; trivial group has rank 0."""
        if self.order == 1:
            return True, 0
        if not self.is_abelian():
            return False, None
        if any(x.order() not in (1, p) for x in self.elements):
            return False, None
        rank = 0
        n = self.order
        while n > 1:
            if n % p:
                return False, None
            n //= p
            rank += 1
        return True, rank

    def fingerprint(self):
        """Conjugation-invariant summary (order, exponent, abelian, cyclic)."""
        return {
            "order": self.order,
            "exponent": self.exponent(),
            "abelian": self.is_abelian(),
            "cyclic": self.is_cyclic(),
        }


def _lcm(a, b):
    return a * b // math.gcd(a, b)


class ConjugacyClass(namedtuple("ConjugacyClass", "representative members")):
    """A conjugacy class: its minimal member and all members, sorted."""

    __slots__ = ()


def conjugacy_classes(G):
    """Classes ordered by their minimal member under the fixed element order."""
    index = G.element_index()
    elements = G.elements
    seen = bytearray(G.order)
    classes = []
    for x in range(G.order):  # elements are sorted, so representatives are minimal
        if seen[x]:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            new = []
            for y in frontier:
                for table in index.conj:
                    z = table[y]
                    if z not in orbit:
                        orbit.add(z)
                        new.append(z)
            frontier = new
        for y in orbit:
            seen[y] = 1
        classes.append(ConjugacyClass(elements[x],
                                      tuple(elements[i] for i in sorted(orbit))))
    return classes


def centralizer(G, S, label=""):
    """Elements of G commuting with every member of S.

    S may be a PermGroup (its generators suffice) or an iterable of
    permutations.
    """
    if isinstance(S, PermGroup):
        pins = S.generators if S.generators else (S.identity(),)
    else:
        pins = tuple(S)
    if all(s.is_identity() for s in pins):
        return G
    index = G.element_index()
    keep = range(G.order)
    for s in pins:
        i = index.id(s)
        col = index.conj_column(i)
        keep = [g for g in keep if col[g] == i]
    elems = [G.elements[g] for g in keep]
    return PermGroup.from_elements(G.degree, elems, label or f"C({G.label})")


def normalizer(G, H, label=""):
    elems = G.element_index().conjugators(H.generators, H.elements)
    return PermGroup.from_elements(G.degree, elems, label or f"N({G.label})")


def sylow_p(G, p):
    """A Sylow p-subgroup, grown by extension inside successive normalizers."""
    target = 1
    n = G.order
    while n % p == 0:
        target *= p
        n //= p
    index = G.element_index()
    H = PermGroup.trivial(G.degree)
    while H.order < target:
        ext = None
        # any x in N_G(H)\H whose coset has order p extends H to a p-group
        for x in index.conjugators(H.generators, H.elements):
            if x not in H.element_set and _power(x, p) in H.element_set:
                ext = x
                break
        if ext is None:
            raise RuntimeError("Sylow extension step found no element; |G| not divisible as expected")
        H = PermGroup.from_generators(G.degree, tuple(H.generators) + (ext,),
                                      max_elements=target)
    return PermGroup(H.degree, H.generators, H.elements, label=f"Sylow_{p}({G.label})")


def _power(x, n):
    y = Permutation.identity(x.degree)
    for _ in range(n):
        y = y * x
    return y


def order_p_subgroups(G, p):
    """All subgroups of order p, sorted canonically."""
    found = {}
    for x in G.elements:
        if x.order() == p:
            members = frozenset(_power(x, k) for k in range(p))
            if members not in found:
                found[members] = PermGroup.from_elements(G.degree, members,
                                                         label=f"<{x.cycle_string()}>")
    return sorted(found.values(), key=PermGroup.key)


def all_subgroups(P, max_count=10_000):
    """Every subgroup of a small group P, by iterative one-element extensions."""
    trivial = PermGroup.trivial(P.degree)
    found = {trivial.element_set: trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            tried = set(H.element_set)   # <H, hx> = <H, x>: one x per Hx
            for x in P.elements:
                if x in tried:
                    continue
                tried.update(h * x for h in H.elements)
                K = PermGroup.from_generators(P.degree, tuple(H.generators) + (x,),
                                              max_elements=P.order)
                if K.element_set not in found:
                    found[K.element_set] = K
                    new.append(K)
                    if len(found) > max_count:
                        raise SizeLimitExceeded("subgroup enumeration bound hit")
        frontier = new
    return sorted(found.values(), key=PermGroup.key)


class SubgroupOrbit(dict):
    """The G-conjugates of a subgroup H, each (an element frozenset) mapped
    to one g with H^g = it, in BFS order from H.

    links maps every conjugate but H to (parent, t): it is the parent
    conjugated by the t-th generator of G, and its g is the parent's g times
    that generator.  Following the links from H conjugates by g one
    generator table at a time.
    """

    __slots__ = ("links",)


def subgroup_orbit_transversal(G, H):
    """The SubgroupOrbit of H: each G-conjugate of H with one g, H^g = it.

    The BFS runs on position sets: the conjugate of a set by the t-th
    generator is read off its conjugation table, and g t off its
    right-multiplication table.
    """
    index = G.element_index()
    start = frozenset([index.pos[x] for x in H.elements])
    orbit = {start: index.root}
    links = {}
    frontier = [start]
    while frontier:
        new = []
        for ids in frontier:
            g = orbit[ids]
            for t, (conj, right) in enumerate(zip(index.conj, index.right)):
                image = frozenset([conj[i] for i in ids])
                if image not in orbit:
                    orbit[image] = right[g]
                    links[image] = (ids, t)
                    new.append(image)
        frontier = new
    elements = G.elements
    named = {ids: frozenset([elements[i] for i in ids]) for ids in orbit}
    out = SubgroupOrbit((named[ids], elements[g]) for ids, g in orbit.items())
    out.links = {named[ids]: (named[parent], t)
                 for ids, (parent, t) in links.items()}
    return out


def p_subgroups_up_to_conjugacy(G, p):
    """The G-classes of p-subgroups, as (R, orbit) with R the representative
    and orbit = subgroup_orbit_transversal(G, R); the trivial class first.

    Every p-subgroup is conjugate into a fixed Sylow p-subgroup, so the class
    list is the subgroup list of one Sylow, deduplicated by G-conjugacy via
    orbit scans.
    """
    P = sylow_p(G, p)
    classes = []
    seen = set()
    for H in all_subgroups(P):
        if H.element_set in seen:
            continue
        orbit = subgroup_orbit_transversal(G, H)
        classes.append((H, orbit))
        seen.update(orbit)
    return classes


def symmetric_group(n, label=None):
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return PermGroup.trivial(1, label or "S1")
    gens = [Permutation.from_cycles(n, [[1, 2]])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [list(range(1, n + 1))]))
    return PermGroup.from_generators(n, gens, label or f"S{n}")


def dihedral_group(order, label=None):
    """Dihedral group of the given (even, >= 4) order, on order/2 points."""
    if order < 4 or order % 2:
        raise ValueError("dihedral order must be an even integer >= 4")
    n = order // 2
    if n == 2:
        # degenerate: Klein four group on 4 points
        gens = [Permutation.from_cycles(4, [[1, 2]]), Permutation.from_cycles(4, [[3, 4]])]
        return PermGroup.from_generators(4, gens, label or "D4")
    rot = Permutation.from_cycles(n, [list(range(1, n + 1))])
    refl = Permutation(tuple(n - 1 - i for i in range(n)))
    return PermGroup.from_generators(n, [rot, refl], label or f"D{order}")


def cyclic_group(n, label=None):
    if n == 1:
        return PermGroup.trivial(1, label or "C1")
    g = Permutation.from_cycles(n, [list(range(1, n + 1))])
    return PermGroup.from_generators(n, [g], label or f"C{n}")


def exponent_p_part_complement(G, p):
    """p'-part of the exponent of G (lcm of element orders with p stripped)."""
    e = G.exponent()
    while e % p == 0:
        e //= p
    return e
