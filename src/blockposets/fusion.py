"""Block fusion systems, commuting categories, and isomorphism-class posets.

Fixing a maximal pair (P, e_P) of a block, the fusion system F on P has as
morphisms Q -> R the conjugation maps x -> x^g whose action transports the
unique pair below (P, e_P) at Q to the one at the image subgroup.  Those
pairs are read off the pair poset over P's subgroups, and one test of g
(FusionSystem.target), run once per coset by FusionSystem.fusions, serves
both F's maps and the conjugations of eta in Theorem 2 (verify).  A map is
held in one form throughout: a dict from the position of each x in Q, in
G's element index, to that of x^g, so maps compose by indexing.  The
commuting category has as objects the nonempty pairwise-commuting sets of
order-p subgroups of P, each a mask of vertices, with its product found
among the elementary abelian subgroups of F's family by the commuting
poset's clique walk (`commuting.product_walk`).  Its morphisms are the
fusion maps of the products that send members to members.  F's maps are
held once per product, and an object's row (its maps, each with the object
it sends the members to) is built on demand: the category walks each row
once, for its identity, EI and isomorphism tests, and closure under
composition is certified on F itself.  Every endomorphism is required to
be invertible (checked, not assumed), which makes the hom-nonempty
relation on isomorphism classes a partial order; with closure, that
relation depends only on the classes, so the iso-class poset reads one row
per class.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from .commuting import product_walk
from .errors import TheoryViolation
from .perms import all_subgroups
from .topology import iter_bits, quotient_poset


def max_brauer_pair(ctx):
    """A maximal pair: the canonical defect representative with its least block."""
    dd = ctx.defect_data()
    P = dd.representative
    pairs = sorted(ctx.pairs_at(P), key=lambda pr: pr.idempotent.key())
    if not pairs:
        raise TheoryViolation("defect group carries no pair",
                              witness=P.generators_string())
    return pairs[0]


class FusionSystem:
    """The block fusion system on a fixed maximal pair (P, e_P).

    The pairs over the subgroups of P, with their containment order, are
    one pair poset (BlockContext.pair_poset), which asserts that below each
    pair lies exactly one pair at each subgroup of its own.  sub_pair maps
    the position key of S in G's element index (ElementIndex.key) to the
    pair at S below top in that order.

    A morphism Q -> R of F is a conjugation c_g with (Q, e_Q)^g <= (P, e_P):
    g sends Q into P and e_Q to the idempotent of the pair below top at
    Q^g.  It is held as its map on positions, the position of each x in Q
    to that of x^g.  target tests one g and fusions scans one g per coset;
    the fusion maps (hom) and eta of Theorem 2 both read them.
    """

    def __init__(self, ctx, top_pair):
        self.ctx = ctx
        self.top = top_pair
        self.P = top_pair.subgroup
        self.family = all_subgroups(self.P)
        pp = ctx.pair_poset(self.family)
        t = pp.pairs.index(top_pair)
        key = ctx.G.element_index().key
        self.sub_pair = {key(pr.subgroup): pr
                         for i, pr in enumerate(pp.pairs) if pp.poset.leq(i, t)}
        self._fusions = {}

    @classmethod
    def from_block_context(cls, ctx):
        return cls(ctx, max_brauer_pair(ctx))

    def hom(self, Q, R):
        """All fusion maps Q -> R as (image, g), in key order.

        They are the fusions of the pair below top at Q whose image lies in
        R.  The key of a map is its tuple of image positions over Q's
        sorted elements; positions follow G's sorted element order, so key
        order is the order of the image element tuples.
        """
        key = self.ctx.G.element_index().key
        q, r = key(Q), key(R)
        if q not in self.sub_pair or r not in self.sub_pair:
            raise ValueError("hom requested outside the subgroup family of P")
        inside = set(r)
        return sorted((m for m in self.fusions(self.sub_pair[q])
                       if inside.issuperset(m[0].values())),
                      key=lambda m: tuple(m[0].values()))

    def target(self, pair, image, g, ginv):
        """The pair below top at Q^g if e^g is its idempotent, else None.

        pair is (Q, e); image maps the position of each x in Q, in G's
        element index, to that of x^g; ginv is g's inverse.  None also when
        Q^g is not a subgroup of P.
        """
        below = self.sub_pair.get(tuple(sorted(image.values())))
        if below is None or not pair.idempotent.conjugates_to(
                g, ginv, below.idempotent):
            return None
        return below

    def fusions(self, pair):
        """(image, g) for the first g, in G's order, of each right coset
        C_G(Q) g that sends Q into P and passes target; memoised per pair.

        Conjugation by g acts on Q, and on e, a sum of C_G(Q)-class sums,
        only through the coset: e^(cg) = e^g for c in C_G(Q).  So one g
        decides its coset, and distinct cosets give distinct images.  Each
        scanned g sends Q's generators into P, so an image that is not in
        F's family raises TheoryViolation.
        """
        hit = self._fusions.get(pair)
        if hit is not None:
            return hit
        Q = pair.subgroup
        index = self.ctx.G.element_index()
        pos = index.pos
        out = []
        for g in index.coset_conjugators(Q.generators, self.P.elements):
            ginv = g.inverse()
            image = {pos[x]: pos[x.conjugate(g, ginv)] for x in Q.elements}
            if tuple(sorted(image.values())) not in self.sub_pair:
                raise TheoryViolation("image subgroup missing from family",
                                      witness=Q.generators_string())
            if self.target(pair, image, g, ginv) is not None:
                out.append((image, g))
        self._fusions[pair] = out
        return out


class CommutingCategory:
    """Objects: nonempty commuting sets of order-p subgroups of P.

    product_walk finds the objects over the elementary abelian members of
    F's family, in lexicographic order, each as the mask of its member
    vertices, with its product P_i a member; products[i] is P_i's position
    key.  vertex_at maps the position of each nonidentity element of a
    vertex to the vertex, and object_of an object's mask to its index.
    F's maps are held per product only: the maps (image, g) out of it in
    key order, and the set of their keys.  row(i) yields the maps out of
    P_i, each with the object t = psi(kappa_i) (asserted to be one), and is
    computed on each call.  The morphisms i -> j are the psi with
    psi(kappa_i) <= kappa_j.

    The constructor walks every row once.  The identity, image-is-an-object
    and EI tests run there, and so does the isomorphism test: psi is an
    isomorphism i -> t when its inverse is a map out of P_t, as psi sends
    kappa_i onto kappa_t.  Isomorphic objects are joined by union-find, i
    ascending and its targets t > i ascending; a target already known
    isomorphic to i (found earlier in its row, or joined to i before it)
    joins nothing new, and is not tested again.  iso_root[i] is the root of
    i's class.  Closure is certified on F: for every product A, map phi out
    of A, product B holding phi(A) and map psi out of B, psi o phi is a map
    out of A.  That is enough: a morphism i -> j sends kappa_i into kappa_j,
    hence P_i into P_j, so a composite i -> j -> k is such a psi o phi, in F
    by the certificate; it sends kappa_i into kappa_k, so it is a morphism
    i -> k.
    """

    def __init__(self, fusion):
        p = fusion.ctx.p
        index = fusion.ctx.G.element_index()
        family = [S for S in fusion.family
                  if S.order > 1 and S.is_elementary_abelian(p)[0]]
        self.vertices, _adj, _vmask, cliques = product_walk(family, p)
        self._names = [Q.generators[0].cycle_string() for Q in self.vertices]
        self.vertex_at = {index.pos[x]: v for v, V in enumerate(self.vertices)
                          for x in V.elements[1:]}
        self._member = [index.pos[V.generators[0]] for V in self.vertices]
        self.objects, self.products = objects, products = [], []
        self._maps = maps = {}       # product key -> maps out, in key order
        keys = {}                    # product key -> their keys
        for _kappa, kmask, f in cliques:
            objects.append(kmask)
            a = index.key(family[f])
            products.append(a)
            if a not in maps:
                out = maps[a] = fusion.hom(family[f], fusion.P)
                keys[a] = {tuple(image.values()) for image, _g in out}
        self.object_of = {obj: i for i, obj in enumerate(objects)}
        parent = list(range(len(objects)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, a in enumerate(products):
            if a not in keys[a]:
                raise TheoryViolation("identity morphism missing",
                                      witness=self.object_label(i))
            isos = set()
            root = find(i)
            for (image, _g), t in self.row(i):
                if t < i or t > i and (t in isos or find(t) == root):
                    continue
                back = {w: z for z, w in image.items()}
                if tuple(map(back.get, products[t])) in keys[products[t]]:
                    isos.add(t)
                elif t == i:
                    raise TheoryViolation(
                        "endomorphism is not invertible (EI failure)",
                        witness=(self.object_label(i), tuple(image.values())))
            for t in sorted(isos):      # t == i joins nothing
                parent[find(i)] = find(t)
        self.iso_root = [find(i) for i in range(len(objects))]
        self._certify_closure(maps, keys)

    def row(self, i):
        """(psi, t) for each map psi out of P_i, in key order, with t the
        object psi(kappa_i); TheoryViolation when that image is no object."""
        points = [self._member[v] for v in iter_bits(self.objects[i])]
        for psi in self._maps[self.products[i]]:
            image = psi[0]
            t = self.object_at(map(image.__getitem__, points))
            if t is None:
                raise TheoryViolation("image of an object is not an object",
                                      witness=(self.object_label(i),
                                               tuple(image.values())))
            yield psi, t

    def object_at(self, points):
        """The object whose members hold the given positions, one position
        per member, or None when one lies in no vertex or the vertices
        holding them form no object."""
        vertex_at = self.vertex_at
        mask = 0
        for x in points:
            v = vertex_at.get(x)
            if v is None:
                return None
            mask |= 1 << v
        return self.object_of.get(mask)

    def object_label(self, i):
        return "{" + ",".join(sorted(self._names[v] for v in
                                     iter_bits(self.objects[i]))) + "}"

    def _certify_closure(self, maps, keys):
        inside = {b: set(b) for b in maps}
        for a, out_of_a in maps.items():
            for phi, _g in out_of_a:
                mid = phi.values()
                for b, out_of_b in maps.items():
                    if not inside[b].issuperset(mid):
                        continue
                    for psi, _g in out_of_b:
                        if tuple([psi[w] for w in mid]) not in keys[a]:
                            raise TheoryViolation(
                                "composite escapes its hom set",
                                witness=(tuple(mid), tuple(psi.values())))


class IsoClassPoset:
    """Isomorphism classes of objects, ordered by hom-nonemptiness.

    The classes are numbered in the order of their union-find roots
    (CommutingCategory.iso_root), each listing its objects in order.  Once
    closure is certified, hom(i, j) is nonempty iff hom(i', j') is, for
    i' ~ i and j' ~ j: an isomorphism phi: i' -> i and a morphism psi: i -> j
    compose to psi o phi: i' -> j, and likewise at the codomain.  So the
    order is read at the least object of each class (quotient_poset), and
    only those objects are codomains: hom(i, j) is nonempty when kappa_j
    holds an image kappa_t, and the classes whose least object holds
    kappa_t are the AND of "classes whose least object holds v" over v in
    kappa_t.
    """

    def __init__(self, category):
        objects, roots = category.objects, category.iso_root
        number = {r: c for c, r in enumerate(sorted(set(roots)))}
        self.class_of = [number[r] for r in roots]
        self.classes = [[] for _ in number]
        for i, c in enumerate(self.class_of):
            self.classes[c].append(i)
        holding = [0] * len(category.vertices)  # classes, by least object
        for c, members in enumerate(self.classes):
            for v in iter_bits(objects[members[0]]):
                holding[v] |= 1 << c

        def above(i):
            reach = 0
            for t in {t for _psi, t in category.row(i)}:
                reach |= reduce(and_, map(holding.__getitem__,
                                          iter_bits(objects[t])))
            return reach

        # raises on antisymmetry failure
        self.poset = quotient_poset(self.classes, above,
                                    category.object_label)

    @property
    def n(self):
        return self.poset.n
