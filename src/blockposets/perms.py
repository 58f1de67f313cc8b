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
generators and a spanning tree of G along right multiplication.  These come
from the breadth-first closure that enumerates G: it finds x t for every
element x and generator t, so it records the right tables and the tree as
it goes, and the index only ranks them into sorted order.  Walking the tree
fills a column of |G| positions (x^g, or w g, for every g) by list lookups
instead of products (Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 2005, section 4.1).  The subgroups of a Sylow or defect group
P are enumerated on P's own index, as bitsets over its positions, so their
cost scales with |P| rather than |G|.  The G-conjugates of a subgroup are
found and keyed on positions too: each is the increasing tuple of its
elements' positions in G, and no conjugate is named by its permutations.
Every orbit is recorded as a Schreier vector, each point with its parent
and the generator that reached it (ibid.): orbit_walk does so on integer
points, for the conjugacy classes and for a poset's orbits, and
subgroup_orbit_transversal on position keys.  Permutation stays the public
and printed type.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, islice
from operator import itemgetter

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
    """Breadth-first search from the identity along right multiplication by
    gens.  Products are plain image tuples; each new element is wrapped as
    a Permutation once.

    Returns (number, right, parents, via): number maps each element reached
    to its discovery number d, in discovery order; right[t][d] is the
    number of x_d gens[t]; and x_d = x_parents[d - 1] gens[via[d - 1]].
    These are G's right-multiplication tables and a spanning tree.
    """
    gens = [tuple(g) for g in gens]
    identity = Permutation.identity(degree)
    number = {identity: 0}
    found = [identity]
    ids = [0]             # ids[d] is d, the int object that number holds
    right = [[] for _ in gens]
    steps = list(zip(gens, right, range(len(gens))))
    parents, via = [], []
    for x, d in zip(found, ids):            # both grow while walked
        # x * g is g read at x's images; degree 1 has only the identity
        take = itemgetter(*x) if degree > 1 else tuple
        for g, row, t in steps:
            y = take(g)
            n = number.get(y)
            if n is None:
                n = len(found)
                if n >= max_elements:
                    raise SizeLimitExceeded(
                        f"group enumeration exceeded {max_elements} elements")
                y = tuple.__new__(Permutation, y)
                number[y] = n
                found.append(y)
                ids.append(n)
                parents.append(d)
                via.append(t)
            row.append(n)
    return number, right, parents, via


def _positions_of(col, value):
    """The positions g with col[g] == value, in increasing order."""
    found, g = [], -1
    try:
        while True:
            g = col.index(value, g + 1)
            found.append(g)
    except ValueError:
        return found


class ElementIndex:
    """One numbering of a group's elements, with int tables for its generators.

    * pos maps an element (or its plain image tuple, which hashes and
      compares equal) to its position in the sorted G.elements; root is
      the identity's position.
    * conj[t][i] is the position of t^-1 x_i t and right[t][i] that of x_i t,
      for the t-th generator.
    * tree is three flat lists (children, parents, via), in BFS order from
      the identity, with x_child = x_parent t for the via-th generator t at
      each step: a spanning tree of G along right multiplication.

    The right tables and the tree are the closure's own, ranked into sorted
    order: a group from from_generators or from_elements hands over the BFS
    that enumerated it, and any other group runs that BFS over its
    generators once.  The t-th conjugation table is then right[t] read at
    the left column of t^-1.  A column walk down the tree sets col[child]
    from col[parent] by one table lookup, so a question about every g in G
    costs |G| lookups.
    """

    __slots__ = ("elements", "pos", "root", "conj", "right", "tree",
                 "_fixers")

    def __init__(self, G):
        elements = G.elements
        n = len(elements)
        pos = dict(zip(elements, range(n)))
        if G._bfs is None:
            try:
                number, right, parents, via = _closure(G.degree, G.generators,
                                                       n)
            except SizeLimitExceeded:
                number = ()
            rank = [pos.get(x) for x in number]
            if len(rank) != n or None in rank:
                raise ValueError(
                    "the generators do not generate the element list")
            order = sorted(number.values(), key=rank.__getitem__)
        else:
            order, right, parents, via = G._bfs
            G._bfs = None
            rank = sorted(pos.values(), key=order.__getitem__)
        self.elements = elements
        self.pos = pos
        self.root = rank[0]
        self.right = [[rank[row[d]] for d in order] for row in right]
        self.tree = (rank[1:], [rank[d] for d in parents], via)
        self.conj = [[table[i] for i in self.left_column(pos[t.inverse()])]
                     for t, table in zip(G.generators, self.right)]
        self._fixers = {}

    def id(self, perm):
        """Position of perm; ValueError when it is not an element."""
        hit = self.pos.get(perm)
        if hit is None:
            raise ValueError(f"{perm!r} is not an element of the group")
        return hit

    def _walk(self, tables, start):
        col = [0] * len(self.elements)
        col[self.root] = start
        for child, parent, t in zip(*self.tree):
            col[child] = tables[t][col[parent]]
        return col

    def conj_column(self, i):
        """col[g] = position of x_i^g, for every position g."""
        return self._walk(self.conj, i)

    def left_column(self, i):
        """col[g] = position of x_i x_g, for every position g."""
        return self._walk(self.right, i)

    def fixers(self, i):
        """The positions g with x_i^g = x_i, in G's order: C_G(x_i), from
        one conjugation column, kept for the next centralizer of x_i."""
        found = self._fixers.get(i)
        if found is None:
            found = self._fixers[i] = _positions_of(self.conj_column(i), i)
        return found

    def key(self, H):
        """The increasing tuple of the positions of H's elements.

        H's elements are sorted in G's order, so their positions come out
        increasing.  KeyError when some element of H is not in G.
        """
        pos = self.pos
        return tuple([pos[x] for x in H.elements])

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
    """A finite permutation group with its full, sorted element list.

    element_set, the frozenset of the elements, is built on its first read
    and kept: membership, subset tests, equality and hashing use it, while
    a scan over the group (a truncation to a centralizer, say) walks the
    sorted elements tuple and builds no set.  _bfs holds the closure's
    tables from from_generators or from_elements, (order, right, parents,
    via) with order[k] the discovery number of the k-th element, until the
    ElementIndex takes them over.
    """

    __slots__ = ("degree", "generators", "elements", "label", "_element_set",
                 "_element_index", "_key", "_bfs")

    def __init__(self, degree, generators, elements, label=""):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.label = label
        self._element_set = None
        self._element_index = None
        self._key = None
        self._bfs = None

    @property
    def element_set(self):
        """The frozenset of the elements, built on first read."""
        if self._element_set is None:
            self._element_set = frozenset(self.elements)
        return self._element_set

    @classmethod
    def from_generators(cls, degree, gens, label="", max_elements=MAX_GROUP_ORDER):
        gens = tuple(gens)
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        bfs = _closure(degree, gens, max_elements)
        return cls._from_closure(degree, gens, bfs, label)

    @classmethod
    def _from_closure(cls, degree, gens, bfs, label):
        """The group that the closure bfs of gens enumerated, keeping its
        tables for the ElementIndex."""
        number, right, parents, via = bfs
        found = list(number)
        order = sorted(number.values(), key=found.__getitem__)
        group = cls(degree, gens, [found[d] for d in order], label)
        group._bfs = (order, right, parents, via)
        return group

    @classmethod
    def from_elements(cls, degree, elements, label=""):
        """Wrap an already-closed element set, with a reduced generating set;
        the last closure, over that set, is kept for the ElementIndex."""
        elements = set(elements)
        gens = []
        bfs = ({Permutation.identity(degree): 0}, [], [], [])
        for x in sorted(elements):
            if x not in bfs[0]:
                gens.append(x)
                bfs = _closure(degree, gens, len(elements))
                if len(bfs[0]) == len(elements):
                    break
        return cls._from_closure(degree, gens, bfs, label)

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

    def generators_string(self):
        """The subgroup's name in reports: its generators' cycles, as
        <(1 2 3),(4 5)>, and <1> for the trivial group."""
        return "<" + (",".join(x.cycle_string() for x in self.generators)
                      or "1") + ">"

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


class OrbitWalk(namedtuple("OrbitWalk", "order parent via orbit_of")):
    """The orbits of a group on 0..n-1 as Schreier vectors: order lists the
    points as visited, each orbit breadth first from its first point along
    the generators in turn; order[k] is the via[k]-th generator applied to
    order[parent[k]], both -1 at an orbit's first point; orbit_of[x]
    numbers x's orbit, in the order of the orbits' first points."""

    __slots__ = ()

    def orbits(self):
        """Each orbit's points as an increasing list, in orbit order."""
        out = [[] for _ in range(self.parent.count(-1))]
        for x, k in enumerate(self.orbit_of):
            out[k].append(x)
        return out


def orbit_walk(action, n, first=()):
    """The OrbitWalk of the group generated by action, a list of the
    generators' image lists on 0..n-1, its four fields plain lists; an
    orbit starts at its first point in first, else at its least."""
    order, parent, via = [], [], []
    orbit_of = [-1] * n
    steps = list(enumerate(action))
    orbits = 0
    for start in chain(first, range(n)):
        if orbit_of[start] < 0:
            orbit_of[start] = orbits
            k = len(order)
            order.append(start)
            parent.append(-1)
            via.append(-1)
            for x in islice(order, k, None):    # order grows while walked
                for t, a in steps:
                    y = a[x]
                    if orbit_of[y] < 0:
                        orbit_of[y] = orbits
                        order.append(y)
                        parent.append(k)
                        via.append(t)
                k += 1
            orbits += 1
    return OrbitWalk(order, parent, via, orbit_of)


class ConjugacyClass(namedtuple("ConjugacyClass", "representative members")):
    """A conjugacy class: its minimal member and all members, sorted."""

    __slots__ = ()


def conjugacy_classes(G):
    """Classes ordered by their minimal member under the fixed element order:
    the orbits of G's conjugation tables on positions, each read in
    position order."""
    elements = G.elements
    walk = orbit_walk(G.element_index().conj, G.order)
    return [ConjugacyClass(elements[members[0]],
                           tuple([elements[i] for i in members]))
            for members in walk.orbits()]


def centralizer(G, S, label=""):
    """Elements of G commuting with every member of S.

    S may be a PermGroup (its generators suffice) or an iterable of
    permutations.  C_G(s) for the first non-identity s is read off the
    index (one G-wide conjugation column per element s, kept), and every
    other s is tested on the members of C_G(s) alone.
    """
    pins = S.generators if isinstance(S, PermGroup) else S
    pins = [s for s in pins if not s.is_identity()]
    if not pins:
        return G
    index = G.element_index()
    i = [index.id(s) for s in pins][0]     # refuses a pin outside G
    elems = [G.elements[g] for g in index.fixers(i)]
    for s in pins[1:]:
        s_then = itemgetter(*s)            # s_then(x) = s * x
        elems = [x for x in elems if s_then(x) == itemgetter(*x)(s)]
    return PermGroup.from_elements(G.degree, elems, label or f"C({G.label})")


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
    H.label = f"Sylow_{p}({G.label})"
    return H


def _power(x, n):
    y = Permutation.identity(x.degree)
    for _ in range(n):
        y = y * x
    return y


_MAX_TABLE_ORDER = 2048


def all_subgroups(P, max_count=10_000):
    """Every subgroup of a small group P, by iterative one-element extensions.

    Runs on P's own ElementIndex, with P's multiplication table as its left
    columns.  A subgroup is the int bitset of its elements' positions.  Only
    the first x of each right coset Hx is tried, as <H, hx> = <H, x>, and
    <H, x> is closed one right coset of H at a time (Dimino's method, as in
    Butler, Fundamental Algorithms for Permutation Groups, 1991): from Hx
    on, each new representative w and generator g bring in the coset H wg
    unless wg is already there.  A subgroup keeps the generators it was
    first found with, H's followed by x.
    """
    n = P.order
    if n > _MAX_TABLE_ORDER:
        raise SizeLimitExceeded(f"subgroup enumeration needs the "
                                f"multiplication table of order {n}")
    index = P.element_index()
    rows = [index.left_column(i) for i in range(n)]    # rows[a][b]: x_a x_b
    bit = [1 << i for i in range(n)]
    root = index.root
    found = {bit[root]: ((), [root])}
    frontier = [(bit[root], (), [root])]
    while frontier:
        new = []
        for hmask, gens, hs in frontier:
            tried = hmask
            for x in range(n):
                if tried & bit[x]:
                    continue
                coset = [rows[h][x] for h in hs]
                cmask = sum([bit[y] for y in coset])
                tried |= cmask
                kmask, kgens, ks = hmask | cmask, gens + (x,), hs + coset
                reps = [x]
                for w in reps:                  # reps grows while walked
                    row = rows[w]
                    for g in kgens:
                        y = row[g]
                        if not kmask & bit[y]:
                            coset = [rows[h][y] for h in hs]
                            kmask |= sum([bit[c] for c in coset])
                            ks += coset
                            reps.append(y)
                if kmask not in found:
                    found[kmask] = (kgens, ks)
                    new.append((kmask, kgens, ks))
                    if len(found) > max_count:
                        raise SizeLimitExceeded("subgroup enumeration bound hit")
        frontier = new
    elements = P.elements
    out = []
    for gens, ks in found.values():
        out.append(PermGroup(P.degree, [elements[g] for g in gens],
                             [elements[i] for i in ks], "" if gens else "1"))
    return sorted(out, key=PermGroup.key)


class SubgroupOrbit(dict):
    """The G-conjugates of a subgroup H, in BFS order from H, as a Schreier
    vector.

    Each conjugate is keyed by the increasing tuple of its elements'
    positions in G (ElementIndex.key) and mapped to the index t of the
    generator of G that reached it, H's own key to -1.  links maps every
    key but H's to its parent's key, the orbit's own key object: the
    conjugate is its parent conjugated by the t-th generator.  Following
    the links from H conjugates one generator table at a time, and the
    generators met on the way compose to a g with H^g = the conjugate.
    """

    __slots__ = ("links",)


def subgroup_orbit_transversal(G, H):
    """The SubgroupOrbit of H: each G-conjugate of H with the generator
    that reached it.

    The BFS runs on the position keys: the conjugate of a key by the t-th
    generator is its conjugation table read at the key's positions, sorted.
    """
    index = G.element_index()
    start = index.key(H)
    orbit = SubgroupOrbit({start: -1})
    orbit.links = links = {}
    tables = list(enumerate(index.conj))
    frontier = [start]
    while frontier:
        new = []
        for ids in frontier:
            for t, conj in tables:
                image = [conj[i] for i in ids]
                image.sort()
                image = tuple(image)
                if image not in orbit:
                    orbit[image] = t
                    links[image] = ids
                    new.append(image)
        frontier = new
    return orbit


def p_subgroups_up_to_conjugacy(G, p):
    """The G-classes of p-subgroups, as (R, orbit) with R the representative
    and orbit = subgroup_orbit_transversal(G, R); the trivial class first.

    Every p-subgroup is conjugate into a fixed Sylow p-subgroup, so the class
    list is the subgroup list of one Sylow, deduplicated by G-conjugacy via
    the orbits' position keys.
    """
    P = sylow_p(G, p)
    key = G.element_index().key
    classes = []
    seen = set()
    for H in all_subgroups(P):
        if key(H) in seen:
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


def exponent_p_part_complement(G, p):
    """p'-part of the exponent of G (lcm of element orders with p stripped)."""
    e = G.exponent()
    while e % p == 0:
        e //= p
    return e
