"""Block fusion systems, commuting categories, and isomorphism-class posets.

Fixing a maximal pair (P, e_P) of a block, the fusion system on P has as
morphisms Q -> R the conjugation maps x -> x^g whose action transports the
unique pair below (P, e_P) at Q to the one at the image subgroup.  The
commuting category has as objects the nonempty pairwise-commuting sets of
order-p subgroups of P, with morphisms the fusion maps of the products that
send members to members.  Every endomorphism is required to be invertible
(checked, not assumed), which makes the hom-nonempty relation on isomorphism
classes a partial order.
"""

from __future__ import annotations

from .commuting import commuting_adjacency, iter_cliques, product_subgroup
from .errors import TheoryViolation
from .perms import all_subgroups, order_p_subgroups
from .topology import Poset


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

    def is_bijective(self):
        return self.image_of(self.domain) == self.codomain.element_set

    def inverse(self):
        inv = {y: x for x, y in self.mapping.items()}
        return FusionMorphism(self.codomain, self.domain, inv,
                              self.witness_g.inverse())

    def __eq__(self, other):
        return (isinstance(other, FusionMorphism)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.key() == other.key())

    def __hash__(self):
        return hash((self.domain.element_set, self.codomain.element_set,
                     self.key()))

    def __repr__(self):
        return f"FusionMorphism({self.domain.label} -> {self.codomain.label})"


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
        self._homs = {}
        self._maps = {}

    @classmethod
    def from_block_context(cls, ctx):
        return cls(ctx, max_brauer_pair(ctx))

    def hom(self, Q, R):
        """All fusion maps Q -> R, deduplicated as set maps, in key order."""
        key = (Q.element_set, R.element_set)
        hit = self._homs.get(key)
        if hit is not None:
            return hit
        if Q.element_set not in self.sub_pair or R.element_set not in self.sub_pair:
            raise ValueError("hom requested outside the subgroup family of P")
        rset = R.element_set
        out = [FusionMorphism(Q, R, mapping, g)
               for mapping, g, image in self._maps_from(Q) if image <= rset]
        self._homs[key] = out
        return out

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
    """Objects: nonempty commuting sets of order-p subgroups of P."""

    def __init__(self, fusion):
        self.fusion = fusion
        self.ctx = fusion.ctx
        p = self.ctx.p
        self.vertices = order_p_subgroups(fusion.P, p)
        self._names = [Q.generators[0].cycle_string() for Q in self.vertices]
        adj = commuting_adjacency(self.vertices)
        objects = [frozenset(kappa) for kappa, _ in iter_cliques(adj)]
        objects.sort(key=sorted)
        self.objects = objects
        self.products = [product_subgroup([self.vertices[v] for v in obj])
                         for obj in objects]
        self.member_sets = [frozenset(self.vertices[v].element_set for v in obj)
                            for obj in objects]
        self._homs = {}
        self._check_category()

    def object_label(self, i):
        return "{" + ",".join(sorted(self._names[v]
                                     for v in self.objects[i])) + "}"

    def hom(self, i, j):
        key = (i, j)
        hit = self._homs.get(key)
        if hit is not None:
            return hit
        candidates = self.fusion.hom(self.products[i], self.products[j])
        members_i = [self.vertices[v] for v in self.objects[i]]
        targets = self.member_sets[j]
        out = [psi for psi in candidates
               if all(psi.image_of(Q) in targets for Q in members_i)]
        self._homs[key] = out
        return out

    def _check_category(self):
        n = len(self.objects)
        # identities present and endomorphisms invertible (EI)
        for i in range(n):
            endos = self.hom(i, i)
            keys = {psi.key() for psi in endos}
            if self.products[i].elements not in keys:
                raise TheoryViolation("identity morphism missing",
                                      witness=self.object_label(i))
            for psi in endos:
                if not psi.is_bijective() or psi.inverse().key() not in keys:
                    raise TheoryViolation(
                        "endomorphism is not invertible (EI failure)",
                        witness=(self.object_label(i), psi.key()))
        # closure under composition: the composite's key, built directly
        homs = [[self.hom(i, j) for j in range(n)] for i in range(n)]
        hom_keys = [[{psi.key() for psi in hs} for hs in row] for row in homs]
        for i in range(n):
            domain = self.products[i].elements
            for j in range(n):
                if not homs[i][j]:
                    continue
                mids = [[psi.mapping[x] for x in domain] for psi in homs[i][j]]
                for k in range(n):
                    target_keys = hom_keys[i][k]
                    for chi in homs[j][k]:
                        mapping = chi.mapping
                        for mid in mids:
                            key = tuple(map(mapping.__getitem__, mid))
                            if key not in target_keys:
                                raise TheoryViolation(
                                    "composite escapes its hom set",
                                    witness=(self.object_label(i),
                                             self.object_label(k)))


class IsoClassPoset:
    """Isomorphism classes of objects, ordered by hom-nonemptiness."""

    def __init__(self, category):
        self.category = category
        n = len(category.objects)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(n):
            for j in range(i + 1, n):
                back_keys = {chi.key() for chi in category.hom(j, i)}
                for psi in category.hom(i, j):
                    if psi.is_bijective() and psi.inverse().key() in back_keys:
                        parent[find(i)] = find(j)
                        break
        roots = sorted({find(i) for i in range(n)})
        self.class_of = [roots.index(find(i)) for i in range(n)]
        self.classes = [[i for i in range(n) if self.class_of[i] == c]
                        for c in range(len(roots))]
        m = len(roots)
        up = [1 << c for c in range(m)]
        for i in range(n):
            for j in range(n):
                if category.hom(i, j):
                    up[self.class_of[i]] |= 1 << self.class_of[j]
        labels = [f"[{category.object_label(members[0])}] x{len(members)}"
                  for members in self.classes]
        self.poset = Poset(labels, up)  # raises on antisymmetry failure

    @property
    def n(self):
        return self.poset.n

