"""Group algebras, their centers, and block idempotents.

The center of kG is computed in the class-sum basis: structure constants
``a[i][j][k]`` count pairs (x, y) in C_i x C_j with x*y equal to a fixed
representative of C_k, reduced into the field.  Only the nonzero ones are
kept, as (k, c) pairs per (i, j), and products of coordinate vectors run
over those alone.  Blocks (primitive central idempotents) span the fixed
space of the q-power map, q = |field|, which is split recursively by
Lagrange idempotents at the roots of minimal polynomials.

The tests hold an independent brute-force oracle that enumerates every
central element, filters idempotents, and picks out the primitive ones; the
two routes are required to agree on everything the oracle can reach.

Sparse group-algebra elements are keyed directly by Permutation objects, so
an element computed inside a centralizer algebra can be conjugated or
truncated in the ambient group without any re-indexing.
"""

from __future__ import annotations

import itertools

from . import gf
from .errors import TheoryViolation
from .perms import conjugacy_classes


class GroupAlgebraElement:
    """A sparse field-linear combination of group elements."""

    __slots__ = ("group", "field", "support", "_key")

    def __init__(self, group, field, support):
        self.group = group
        self.field = field
        # never store zero coefficients
        self.support = {x: c for x, c in support.items() if c != field.zero}
        self._key = None

    @classmethod
    def zero(cls, group, field):
        return cls(group, field, {})

    def key(self):
        if self._key is None:
            self._key = tuple(sorted((x, self.field.encode(c))
                                     for x, c in self.support.items()))
        return self._key

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement)
                and self.support == other.support)

    def __hash__(self):
        return hash(self.key())

    def __bool__(self):
        return bool(self.support)

    def __add__(self, other):
        F = self.field
        out = dict(self.support)
        for x, c in other.support.items():
            out[x] = F.add(out.get(x, F.zero), c)
        return GroupAlgebraElement(self.group, F, out)

    def conjugates_to(self, g, ginv, other):
        """self ** g == other, decided term by term without building self ** g;
        ginv is g's inverse, which the caller holds.

        The supports must have one size; then each conjugated term is looked
        up in other, stopping at the first mismatch.
        """
        target = other.support
        if len(self.support) != len(target):
            return False
        get = target.get
        return all(get(x.conjugate(g, ginv)) == c
                   for x, c in self.support.items())

    def truncate(self, members):
        """Keep only the support at members, an iterable of distinct
        permutations such as a group's sorted elements tuple."""
        support = self.support
        return GroupAlgebraElement(self.group, self.field,
                                   {x: support[x] for x in members
                                    if x in support})

    def augmentation(self):
        F = self.field
        s = F.zero
        for c in self.support.values():
            s = F.add(s, c)
        return s

    def __repr__(self):
        n = len(self.support)
        return f"GroupAlgebraElement(<{self.group.label}>, {n} terms)"


class CentralAlgebra:
    """Z(kG) in the class-sum basis, with sparse structure constants.

    const[i][j] is the tuple of the nonzero (k, c), k increasing, with
    z_i z_j = sum of c z_k over those pairs (z_k the k-th class sum); in
    characteristic p most of the dim^3 dense constants are zero.  The
    identity's class is the one whose representative is the identity.
    Commutativity and the identity class acting as the identity are
    asserted on construction (else TheoryViolation).
    """

    def __init__(self, group, field, classes, const):
        self.group = group
        self.field = field
        self.classes = classes          # list of ConjugacyClass
        self.const = const              # const[i][j]: ((k, c), ...), c != 0
        self.dim = len(classes)
        identity = group.identity()
        self.identity_class = next(
            i for i, cls in enumerate(classes) if cls.representative == identity)
        self._check_axioms()

    def _check_axioms(self):
        const = self.const
        for i in range(self.dim):
            for j in range(i):
                if const[i][j] != const[j][i]:
                    raise TheoryViolation("class multiplication not commutative",
                                          witness=(i, j))
        one = self.field.one
        for j, col in enumerate(const[self.identity_class]):
            if col != ((j, one),):
                raise TheoryViolation("identity class does not act as identity",
                                      witness=j)

    def identity_coords(self):
        F = self.field
        return [F.one if k == self.identity_class else F.zero
                for k in range(self.dim)]

    def mult(self, u, v):
        F = self.field
        zero, add, mul = F.zero, F.add, F.mul
        out = [zero] * self.dim
        vs = [(j, cj) for j, cj in enumerate(v) if cj != zero]
        for i, ci in enumerate(u):
            if ci == zero:
                continue
            row = self.const[i]
            for j, cj in vs:
                coeff = mul(ci, cj)
                for k, c in row[j]:
                    out[k] = add(out[k], mul(coeff, c))
        return out

    def power(self, u, n):
        result = self.identity_coords()
        base = list(u)
        while n:
            if n & 1:
                result = self.mult(result, base)
            base = self.mult(base, base)
            n >>= 1
        return result

    def scale(self, c, u):
        F = self.field
        return [F.mul(c, x) for x in u]

    def add(self, u, v):
        F = self.field
        return [F.add(a, b) for a, b in zip(u, v)]

    def q_power_matrix(self):
        """Matrix (columns = images of basis vectors) of u -> u^q, q = |field|.

        The q-power map is field-linear on a commutative algebra in
        characteristic p: (u + v)^q = u^q + v^q, and c^q = c for c in the
        field, for d > 1 as well.  Its fixed space is what the block splitter
        works in.
        """
        F = self.field
        cols = []
        for i in range(self.dim):
            basis_vec = [F.one if k == i else F.zero for k in range(self.dim)]
            cols.append(self.power(basis_vec, F.q))
        # transpose: entry [k][i] = k-th coordinate of z_i^q
        return [[cols[i][k] for i in range(self.dim)] for k in range(self.dim)]

    def min_poly(self, a, identity=None):
        """Least-degree monic m with m(a) = 0, relative to the given unit."""
        F = self.field
        if identity is None:
            identity = self.identity_coords()
        powers = [list(identity)]
        while True:
            nxt = self.mult(powers[-1], a)
            if gf.in_span(powers, nxt, F):
                # solve sum c_i a^i = a^m for the dependency coefficients
                mat = [[powers[i][k] for i in range(len(powers))]
                       for k in range(self.dim)]
                coeffs = gf.solve(mat, nxt, F)
                return [F.neg(c) for c in coeffs] + [F.one]
            powers.append(nxt)
            if len(powers) > self.dim + 1:
                raise TheoryViolation("minimal polynomial search exceeded dimension")

    def expand(self, coords):
        """Coordinates -> sparse group-algebra element with full support."""
        F = self.field
        support = {}
        for k, c in enumerate(coords):
            if c != F.zero:
                for x in self.classes[k].members:
                    support[x] = c
        return GroupAlgebraElement(self.group, F, support)

def class_sum_algebra(G, field):
    """Structure constants of Z(kG) by the fixed-representative count.

    a[i][j][k] = #{x in C_i : x^-1 z in C_j} for the fixed representative z of
    C_k.  Since x^-1 z = (z^-1 x)^-1 and inversion permutes the classes, one
    left column of z^-1 over G's element index gives every x^-1 z, so the
    total cost is (#classes) * |G| list lookups and no products.  The counts
    are reduced into the field and only the nonzero ones kept, as
    CentralAlgebra.const.
    """
    classes = conjugacy_classes(G)
    F = field
    index = G.element_index()
    pos = index.pos
    members = [[pos[x] for x in cls.members] for cls in classes]
    class_of = [0] * G.order
    for c, ids in enumerate(members):
        for x in ids:
            class_of[x] = c
    inverse_class = [class_of[index.id(cls.representative.inverse())]
                     for cls in classes]
    dim = len(classes)
    counts = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for k, cls in enumerate(classes):
        col = index.left_column(index.id(cls.representative.inverse()))
        for i, ids in enumerate(members):
            row = counts[i]
            for x in ids:  # col[x] is z^-1 x, the inverse of x^-1 z
                row[inverse_class[class_of[col[x]]]][k] += 1
    zero = F.zero
    const = [[tuple([(k, c) for k, c in enumerate(map(F.from_int, row))
                     if c != zero])
              for row in plane] for plane in counts]
    return CentralAlgebra(G, F, classes, const)


def primitive_idempotents(A):
    """All primitive idempotents of A, canonically ordered.

    The q-power map u -> u^q (q = |field|) is field-linear on the commutative
    algebra A, and its fixed space ker(M - I) is the span of the primitive
    idempotents: u^q = u forces u = sum c_i e_i with every c_i in the field,
    as a nilpotent n with n^q = n is zero.  So the minimal polynomial m of a
    fixed element b divides x^q - x, which is certified before its roots are
    found, and the Lagrange products prod_{mu != lam} (b - mu) / (lam - mu)
    split a component by the values of b.  A component is primitive when its
    part of the fixed space has one basis vector, and the number of blocks
    must be the dimension of the fixed space.
    """
    F = A.field
    K = [[F.sub(c, F.one) if i == k else c for i, c in enumerate(row)]
         for k, row in enumerate(A.q_power_matrix())]
    x = [F.zero, F.one]
    stack = [(A.identity_coords(), gf.nullspace(K, F))]
    prims = []
    while stack:
        unit, basis = stack.pop()
        if len(basis) == 1:
            prims.append(tuple(unit))
            continue
        for b in basis:
            m = A.min_poly(b, identity=unit)
            if len(m) > 2:
                break
        else:
            raise TheoryViolation(
                "no fixed basis element splits the component", witness=unit)
        if gf.poly_powmod(x, F.q, m, F) != x:
            raise TheoryViolation("minimal polynomial does not divide x^q - x",
                                  witness=(b, m))
        roots = gf.poly_roots(m, F)
        for lam in roots:
            e, denom = unit, F.one
            for mu in roots:
                if mu != lam:
                    e = A.mult(e, A.add(b, A.scale(F.neg(mu), unit)))
                    denom = F.mul(denom, F.sub(lam, mu))
            e = A.scale(F.inv(denom), e)
            stack.append((e, _row_space([A.mult(e, v) for v in basis], F)))
    if len(prims) != A.dim - gf.rank(K, F):
        raise TheoryViolation(
            "block count differs from the fixed-space dimension",
            witness=len(prims))
    prims.sort(key=lambda u: tuple(F.encode(c) for c in u))
    return prims


def _row_space(rows, F):
    reduced, pivots = gf.rref(rows, F)
    return [reduced[r] for r in range(len(pivots))]


class Block:
    """A primitive idempotent of Z(kG), expanded to full group support."""

    __slots__ = ("group", "field", "coords", "element", "augment", "principal",
                 "index", "_key")

    def __init__(self, group, field, coords, element, augment, principal, index):
        self.group = group
        self.field = field
        self.coords = tuple(coords)
        self.element = element
        self.augment = augment
        self.principal = principal
        self.index = index
        self._key = None

    def key(self):
        if self._key is None:
            self._key = (self.group.key(), self.element.key())
        return self._key

    def __eq__(self, other):
        return isinstance(other, Block) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        tag = "principal" if self.principal else f"#{self.index}"
        return f"Block({self.group.label}, {tag}, {len(self.element.support)} terms)"


def blocks(G, field, algebra=None):
    """All blocks of kG, with structural assertions and the principal flag.

    algebra, when given, is the class-sum algebra of G over field, so a
    caller that already holds it does not build it twice.
    """
    A = algebra if algebra is not None else class_sum_algebra(G, field)
    F = field
    prims = primitive_idempotents(A)
    # orthogonality, idempotency, sum to 1, centrality is built into the basis
    total = [F.zero] * A.dim
    for u in prims:
        if A.mult(list(u), list(u)) != list(u):
            raise TheoryViolation("non-idempotent block candidate", witness=u)
        total = A.add(total, list(u))
    for u, v in itertools.combinations(prims, 2):
        prod = A.mult(list(u), list(v))
        if any(c != F.zero for c in prod):
            raise TheoryViolation("blocks not orthogonal", witness=(u, v))
    if total != A.identity_coords():
        raise TheoryViolation("blocks do not sum to 1", witness=total)
    out = []
    principal_count = 0
    for idx, u in enumerate(prims):
        element = A.expand(u)
        aug = element.augmentation()
        principal = aug == F.one
        if principal:
            principal_count += 1
        elif aug != F.zero:
            raise TheoryViolation("block augmentation neither 0 nor 1", witness=u)
        out.append(Block(G, F, u, element, aug, principal, idx))
    if principal_count != 1:
        raise TheoryViolation(f"{principal_count} principal blocks found")
    return out
