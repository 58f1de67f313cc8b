"""Differential tests of the commuting category read off F once per object.

The oracles below are the code it replaced:

* every hom set filtered per pair (i, j) from the maps P_i -> P_j of F;
* identities and EI on those hom sets, and closure under composition
  checked by composing every composable pair over every triple of objects;
* the isomorphism classes and their order found by scanning every hom set.

Hom sets, classes and order must agree on every non-slow corpus block and on
both S6 p=2 blocks, and the closure certificate on F must raise exactly when
the all-triples loop does when one map is deleted from F.
"""

import copy

import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, build_group
from blockposets.commuting import (
    commuting_adjacency,
    iter_cliques,
    product_subgroup,
)
from blockposets.errors import TheoryViolation
from blockposets.fusion import CommutingCategory, FusionSystem, IsoClassPoset
from blockposets.gf import field_context
from blockposets.perms import order_p_subgroups, symmetric_group

GF2 = field_context(2)


def corpus_contexts():
    for entry in CORPUS:
        if entry.slow:
            continue
        group = GroupContext(build_group(entry.spec),
                             field_context(entry.p, entry.d))
        for b in group.blocks:
            yield f"{entry.name}/{b.index}", BlockContext(group, b)


def all_contexts():
    yield from corpus_contexts()
    group = GroupContext(symmetric_group(6), GF2)
    for b in group.blocks:
        yield f"S6_p2/{b.index}", BlockContext(group, b)


@pytest.fixture(scope="module")
def systems():
    """(name, F, the pairwise category of F) on every block."""
    out = []
    for name, ctx in all_contexts():
        fs = FusionSystem.from_block_context(ctx)
        out.append((name, fs, PairwiseCategory(fs)))
    return out


# -- the replaced per-pair and per-triple code ---------------------------------


class PairwiseCategory:
    """Objects as CommutingCategory builds them; hom sets per pair (i, j)."""

    def __init__(self, fusion):
        self.vertices = order_p_subgroups(fusion.P, fusion.ctx.p)
        adj = commuting_adjacency(self.vertices)
        self.objects = sorted((frozenset(kappa)
                               for kappa, _ in iter_cliques(adj)), key=sorted)
        self.products = [product_subgroup([self.vertices[v] for v in obj])
                         for obj in self.objects]
        self.member_sets = [
            frozenset(self.vertices[v].element_set for v in obj)
            for obj in self.objects]
        between = {}                 # F's maps, once per pair of products
        self.homs = []               # homs[i][j]: hom(i, j) in key order
        for i, A in enumerate(self.products):
            members = [self.vertices[v] for v in self.objects[i]]
            row = []
            for j, B in enumerate(self.products):
                key = (A.element_set, B.element_set)
                if key not in between:
                    between[key] = fusion.hom(A, B)
                row.append([psi for psi in between[key]
                            if all(psi.image_of(Q) in self.member_sets[j]
                                   for Q in members)])
            self.homs.append(row)


def inverse_key(psi, codomain):
    inv = {y: x for x, y in psi.mapping.items()}
    return tuple(inv[y] for y in codomain.elements)


def is_bijective(psi, codomain):
    return psi.image_of(psi.domain) == codomain.element_set


def check_by_triples(cat, first=()):
    """Identities, EI, then every composite over every triple of objects.

    The objects in first are taken first as the domain i; the order changes
    how soon a failure is met, not whether one is.
    """
    n = len(cat.objects)
    for i in range(n):
        endos = cat.homs[i][i]
        keys = {psi.key() for psi in endos}
        if cat.products[i].elements not in keys:
            raise TheoryViolation("identity morphism missing", witness=i)
        for psi in endos:
            if not is_bijective(psi, cat.products[i]) \
                    or inverse_key(psi, cat.products[i]) not in keys:
                raise TheoryViolation("EI failure", witness=i)
    hom_keys = {}                    # (i, k) -> keys of hom(i, k)
    for i in list(first) + [i for i in range(n) if i not in first]:
        domain = cat.products[i].elements
        for j in range(n):
            mids = [[psi.mapping[x] for x in domain] for psi in cat.homs[i][j]]
            if not mids:
                continue
            for k in range(n):
                for chi in cat.homs[j][k]:
                    for mid in mids:
                        if (i, k) not in hom_keys:
                            hom_keys[i, k] = {psi.key()
                                              for psi in cat.homs[i][k]}
                        if tuple(chi.mapping[y] for y in mid) \
                                not in hom_keys[i, k]:
                            raise TheoryViolation(
                                "composite escapes its hom set",
                                witness=(i, k))


def iso_classes_by_scan(cat):
    """(class_of, classes, up) from every hom set, unioning i < j in order."""
    n = len(cat.objects)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            back = {chi.key() for chi in cat.homs[j][i]}
            for psi in cat.homs[i][j]:
                if is_bijective(psi, cat.products[j]) \
                        and inverse_key(psi, cat.products[j]) in back:
                    parent[find(i)] = find(j)
                    break
    roots = sorted({find(i) for i in range(n)})
    class_of = [roots.index(find(i)) for i in range(n)]
    classes = [[i for i in range(n) if class_of[i] == c]
               for c in range(len(roots))]
    up = [1 << c for c in range(len(roots))]
    for i in range(n):
        for j in range(n):
            if cat.homs[i][j]:
                up[class_of[i]] |= 1 << class_of[j]
    return class_of, classes, up


def raises(fn, *args):
    try:
        fn(*args)
    except TheoryViolation:
        return True
    return False


# -- the category against the oracles -----------------------------------------


class TestAgainstPairwiseCategory:
    def test_hom_sets_match(self, systems):
        pairs = 0
        for name, fs, old in systems:
            cat = CommutingCategory(fs)
            assert cat.objects == old.objects, name
            n = len(cat.objects)
            for i in range(n):
                for j in range(n):
                    got = cat.hom(i, j)
                    assert [(psi.key(), psi.witness_g) for psi in got] == \
                        [(psi.key(), psi.witness_g)
                         for psi in old.homs[i][j]], (name, i, j)
                    assert all(psi.domain is cat.products[i]
                               and psi.codomain is cat.products[j]
                               for psi in got)
                    pairs += 1
        assert pairs > 60_000

    def test_certificate_and_triples_agree(self, systems):
        for name, fs, old in systems:
            assert not raises(CommutingCategory, fs), name
            assert not raises(check_by_triples, old), name

    def test_iso_class_poset_matches_scan(self, systems):
        classes_seen = 0
        for name, fs, old in systems:
            icp = IsoClassPoset(CommutingCategory(fs))
            class_of, classes, up = iso_classes_by_scan(old)
            assert icp.class_of == class_of, name
            assert icp.classes == classes, name
            assert icp.poset.up == up, name
            classes_seen += icp.n
        assert classes_seen > 50


def test_family_short_one_elementary_abelian_subgroup_is_caught(
        systems, monkeypatch):
    """Drop one nontrivial elementary abelian subgroup from F's family, for
    each such subgroup of each S4, S5 and S6 block at p=2: the category
    build raises, or its objects and products differ from the pairwise
    category's, which finds its products by closure."""
    cases = 0
    for name, fs, old in systems:
        if name.split("/")[0] not in ("S4_p2", "S5_p2", "S6_p2"):
            continue
        family = fs.family
        products = [A.element_set for A in old.products]
        for k, S in enumerate(family):
            if S.order == 1 or not S.is_elementary_abelian(2)[0]:
                continue
            monkeypatch.setattr(fs, "family", family[:k] + family[k + 1:])
            try:
                cat = CommutingCategory(fs)
            except TheoryViolation:
                pass
            else:
                assert (cat.objects, [A.element_set for A in cat.products]) \
                    != (old.objects, products), (name, S.label)
            cases += 1
        monkeypatch.setattr(fs, "family", family)
        assert [A.element_set for A in CommutingCategory(fs).products] == \
            products
    assert cases == 41


def test_single_map_deletions_raise_alike(systems, monkeypatch):
    """Delete one map of F out of one product, on every block of S4, S5 and
    S6 at p=2: the certificate raises exactly when the triples loop does.

    Deleting a map out of A removes it from the hom sets out of the objects
    whose product is A and changes no other hom set, so the triples loop
    runs on the pairwise hom sets with that one map taken out of those rows.
    """
    cases = raised = 0
    for name, fs, base in systems:
        if name.split("/")[0] not in ("S4_p2", "S5_p2", "S6_p2"):
            continue
        for a in {A.element_set for A in base.products}:
            rows = [i for i, A in enumerate(base.products)
                    if A.element_set == a]
            maps = fs._maps[a]
            for k, (gone, _g, _image) in enumerate(maps):
                monkeypatch.setitem(fs._maps, a, maps[:k] + maps[k + 1:])
                old = copy.copy(base)
                old.homs = list(base.homs)
                for i in rows:
                    old.homs[i] = [[psi for psi in hs if psi.mapping is not gone]
                                   for hs in base.homs[i]]
                new = raises(CommutingCategory, fs)
                assert new == raises(check_by_triples, old, rows), \
                    (name, k)
                cases += 1
                raised += new
            monkeypatch.setitem(fs._maps, a, maps)
    assert (cases, raised) == (171, 169)
