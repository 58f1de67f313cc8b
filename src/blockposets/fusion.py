"""Block fusion systems, commuting categories, and isomorphism-class posets.

Fixing a maximal pair (P, e_P) of a block, the fusion system F on P has as
morphisms Q -> R the conjugation maps x -> x^g whose action transports the
unique pair below (P, e_P) at Q to the one at the image subgroup.  The
commuting category has as objects the nonempty pairwise-commuting sets of
order-p subgroups of P, each with its product found among the elementary
abelian subgroups of F's family by the commuting poset's clique walk
(`commuting.product_walk`).  Its morphisms are the fusion maps of the
products that send members to members, read off F once per object; closure
under composition is certified on F itself.  Every endomorphism is required
to be invertible (checked, not assumed), which makes the hom-nonempty
relation on isomorphism classes a partial order.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from .commuting import product_walk
from .errors import TheoryViolation
from .perms import all_subgroups
from .topology import Poset, iter_bits


class FusionMorphism:
    """An injective map between subgroups of P induced by conjugation."""

    __slots__ = ("domain", "codomain", "mapping", "witness_g", "_key")

    def __init__(self, domain, codomain, mapping, witness_g):
        self.domain = domain
        self.codomain = codomain
        self.mapping = mapping
        self.witness_g = witness_g
        self._key = None

    def key(self):
        """Image tuple over the sorted domain elements: the set-map identity."""
        if self._key is None:
            self._key = tuple(map(self.mapping.__getitem__,
                                  self.domain.elements))
        return self._key

    def image_of(self, S):
        """Image of a subgroup of the domain, as an element frozenset."""
        return frozenset(self.mapping[x] for x in S.elements)


def max_brauer_pair(ctx):
    """A maximal pair: the canonical defect representative with its least block."""
    dd = ctx.defect_data()
    P = dd.representative
    pairs = sorted(ctx.pairs_at(P), key=lambda pr: pr.idempotent.key())
    if not pairs:
        raise TheoryViolation("defect group carries no pair", witness=P.label)
    return pairs[0]


class FusionSystem:
    """The block fusion system on a fixed maximal pair."""

    def __init__(self, ctx, top_pair):
        self.ctx = ctx
        self.top = top_pair
        self.P = top_pair.subgroup
        self.family = all_subgroups(self.P)
        self.sub_pair = {}
        for S in self.family:
            self.sub_pair[S.element_set] = ctx.unique_subpair(top_pair, S)
        self._maps = {}

    @classmethod
    def from_block_context(cls, ctx):
        return cls(ctx, max_brauer_pair(ctx))

    def hom(self, Q, R):
        """All fusion maps Q -> R, deduplicated as set maps, in key order."""
        if Q.element_set not in self.sub_pair or R.element_set not in self.sub_pair:
            raise ValueError("hom requested outside the subgroup family of P")
        rset = R.element_set
        return [FusionMorphism(Q, R, mapping, g)
                for mapping, g, image in self._maps_from(Q) if image <= rset]

    def _maps_from(self, Q):
        """Every fusion map out of Q into P as (mapping, g, image), in key order.

        One scan of G per domain serves hom(Q, R) for every R: the maps into
        R are those whose image lies in R.  Conjugation by g acts on Q, and
        on the block e_Q of kC_G(Q), only through the coset C_G(Q) g:
        e_Q^(cg) = e_Q^g for c in C_G(Q), since e_Q is a sum of
        C_G(Q)-class sums.  So one g per coset decides the whole coset, and
        distinct cosets give distinct set maps.  The scan takes, on G's
        element index, the first g in G's order of each coset that sends
        Q's generators into P; that g is the witness, exactly the first g
        of a scan over all of G that passes the idempotent test.
        """
        hit = self._maps.get(Q.element_set)
        if hit is not None:
            return hit
        eQ = self.sub_pair[Q.element_set].idempotent
        found = {}
        index = self.ctx.G.element_index()
        for g in index.coset_conjugators(Q.generators, self.P.elements):
            ginv = g.inverse()
            mkey = tuple([x.conjugate(g, ginv) for x in Q.elements])
            image = frozenset(mkey)
            target = self.sub_pair.get(image)
            if target is None:
                raise TheoryViolation("image subgroup missing from family",
                                      witness=Q.label)
            if eQ.conjugates_to(g, target.idempotent):
                found[mkey] = (dict(zip(Q.elements, mkey)), g, image)
        out = [found[k] for k in sorted(found)]
        self._maps[Q.element_set] = out
        return out


class CommutingCategory:
    """Objects: nonempty commuting sets of order-p subgroups of P.

    product_walk finds the objects over the elementary abelian members of
    F's family, in lexicographic order, with each product P_i a member.
    Read off F once per object i: maps_out[i] holds the maps psi of F out of
    the product P_i in key order, each with the object t = psi(kappa_i)
    (asserted to be one), and keys_out[i] their keys.  The morphisms i -> j
    are the psi with psi(kappa_i) <= kappa_j.  Identities and EI are checked
    on these lists.  Closure is certified on F: for every product A, map phi
    out of A, product B holding phi(A) and map psi out of B, psi o phi is a
    map out of A.  That is enough: a morphism i -> j sends kappa_i into
    kappa_j, hence P_i into P_j, so a composite i -> j -> k is such a
    psi o phi, in F by the certificate; it sends kappa_i into kappa_k, so it
    is a morphism i -> k.
    """

    def __init__(self, fusion):
        p = fusion.ctx.p
        family = [S for S in fusion.family
                  if S.order > 1 and S.is_elementary_abelian(p)[0]]
        self.vertices, _adj, _vmask, cliques = product_walk(family, p)
        self._names = [Q.generators[0].cycle_string() for Q in self.vertices]
        self.objects, self.products = objects, products = [], []
        for kappa, _kmask, f in cliques:
            objects.append(frozenset(kappa))
            products.append(family[f])
        maps, keys = {}, {}          # product element set -> maps out, keys
        for A in self.products:
            if A.element_set not in maps:
                out = maps[A.element_set] = fusion.hom(A, fusion.P)
                keys[A.element_set] = {psi.key() for psi in out}
        vertex_of = {Q.element_set: v for v, Q in enumerate(self.vertices)}
        object_of = {obj: i for i, obj in enumerate(objects)}
        self.maps_out, self.keys_out = [], []
        for i, (obj, A) in enumerate(zip(objects, self.products)):
            own = keys[A.element_set]
            if A.elements not in own:
                raise TheoryViolation("identity morphism missing",
                                      witness=self.object_label(i))
            row = []
            for psi in maps[A.element_set]:
                t = object_of.get(frozenset(
                    vertex_of.get(psi.image_of(self.vertices[v])) for v in obj))
                if t is None:
                    raise TheoryViolation("image of an object is not an object",
                                          witness=(self.object_label(i),
                                                   psi.key()))
                if t == i and (psi.image_of(A) != A.element_set
                               or _inverse_key(psi, A) not in own):
                    raise TheoryViolation(
                        "endomorphism is not invertible (EI failure)",
                        witness=(self.object_label(i), psi.key()))
                row.append((psi, t))
            self.maps_out.append(row)
            self.keys_out.append(own)
        self._certify_closure(maps, keys)

    def object_label(self, i):
        return "{" + ",".join(sorted(self._names[v]
                                     for v in self.objects[i])) + "}"

    def hom(self, i, j):
        """The morphisms i -> j, in key order."""
        return [FusionMorphism(self.products[i], self.products[j],
                               psi.mapping, psi.witness_g)
                for psi, t in self.maps_out[i]
                if self.objects[t] <= self.objects[j]]

    def _certify_closure(self, maps, keys):
        for a, out_of_a in maps.items():
            for phi in out_of_a:
                mid = phi.key()
                image = frozenset(mid)
                for b, out_of_b in maps.items():
                    if not image <= b:
                        continue
                    for psi in out_of_b:
                        if tuple(map(psi.mapping.__getitem__, mid)) \
                                not in keys[a]:
                            raise TheoryViolation(
                                "composite escapes its hom set",
                                witness=(phi.key(), psi.key()))


def _inverse_key(psi, R):
    """Key of psi's inverse as a map out of R (holding None if not onto R)."""
    back = dict(zip(psi.key(), psi.domain.elements))
    return tuple(map(back.get, R.elements))


class IsoClassPoset:
    """Isomorphism classes of objects, ordered by hom-nonemptiness.

    i ~ j when a map out of P_i sends kappa_i onto kappa_j with its inverse
    a map out of P_j.  hom(i, j) is nonempty when kappa_j holds an image
    kappa_t: those j are the AND of "objects holding v" over v in kappa_t.
    """

    def __init__(self, category):
        objects, maps_out = category.objects, category.maps_out
        n = len(objects)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, row in enumerate(maps_out):
            isos = {t for psi, t in row if t > i and _inverse_key(
                psi, category.products[t]) in category.keys_out[t]}
            for j in sorted(isos):
                parent[find(i)] = find(j)
        roots = sorted({find(i) for i in range(n)})
        self.class_of = [roots.index(find(i)) for i in range(n)]
        self.classes = [[i for i in range(n) if self.class_of[i] == c]
                        for c in range(len(roots))]
        holding = [0] * len(category.vertices)   # objects holding v, a mask
        for j, obj in enumerate(objects):
            for v in obj:
                holding[v] |= 1 << j
        up = [1 << c for c in range(len(roots))]
        for i, row in enumerate(maps_out):
            reach = 0
            for t in {t for _psi, t in row}:
                reach |= reduce(and_, map(holding.__getitem__, objects[t]))
            for j in iter_bits(reach):
                up[self.class_of[i]] |= 1 << self.class_of[j]
        labels = [f"[{category.object_label(members[0])}] x{len(members)}"
                  for members in self.classes]
        self.poset = Poset(labels, up)  # raises on antisymmetry failure

    @property
    def n(self):
        return self.poset.n
