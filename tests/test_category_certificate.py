"""Differential tests of the commuting category walked once per object.

The category holds F's maps per product and builds an object's row (its
maps, each with the object it sends kappa to) on demand; its constructor
walks every row once for the identity, object, EI and isomorphism tests,
and the iso-class poset reads one more row per class, at its least
object.  The oracles below are the code this replaced:

* every hom set filtered per pair (i, j) from the maps P_i -> P_j of F;
* identities and EI on those hom sets, and closure under composition
  checked by composing every composable pair over every triple of objects;
* the isomorphism classes and their order found by scanning every hom set
  of every object.

Hom sets, classes and order must agree on every non-slow corpus block and on
both S6 p=2 blocks, each row must be built as often as stated above, and the
closure certificate on F must raise exactly when the all-triples loop does
when one map is deleted from F.  The oracles hold maps as F does, as dicts
on G's element positions, and objects as masks of vertex ids.
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
from blockposets.perms import symmetric_group

from oracles import category_hom, order_p_subgroups, up_masks

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
    """Objects as CommutingCategory builds them; hom sets per pair (i, j).

    An object is the mask of its vertex ids, and keys[i] is the position
    key of its product.  A map is (image, g) as F gives it.
    """

    def __init__(self, fusion):
        index = fusion.ctx.G.element_index()
        self.vertices = order_p_subgroups(fusion.P, fusion.ctx.p)
        adj = commuting_adjacency(self.vertices)
        cliques = sorted(kappa for kappa, _ in iter_cliques(adj))
        self.objects = [sum(1 << v for v in kappa) for kappa in cliques]
        self.products = [product_subgroup([self.vertices[v] for v in kappa])
                         for kappa in cliques]
        self.keys = [index.key(A) for A in self.products]
        self.member_sets = [
            frozenset(frozenset(index.key(self.vertices[v])) for v in kappa)
            for kappa in cliques]
        between = {}                 # F's maps, once per pair of products
        self.homs = []               # homs[i][j]: hom(i, j) in key order
        for i, A in enumerate(self.products):
            members = [index.key(self.vertices[v]) for v in cliques[i]]
            row = []
            for j, B in enumerate(self.products):
                ends = (self.keys[i], self.keys[j])
                if ends not in between:
                    between[ends] = fusion.hom(A, B)
                row.append([psi for psi in between[ends]
                            if all(image_of(psi, Q) in self.member_sets[j]
                                   for Q in members)])
            self.homs.append(row)


def image_of(psi, positions):
    """The positions that the map psi sends the given positions to."""
    return frozenset(psi[0][x] for x in positions)


def key(psi):
    """The image positions over the domain's elements, in their order."""
    return tuple(psi[0].values())


def inverse_key(psi, codomain):
    inv = {y: x for x, y in psi[0].items()}
    return tuple(inv[y] for y in codomain)


def is_bijective(psi, codomain):
    return image_of(psi, psi[0]) == frozenset(codomain)


def check_by_triples(cat, first=()):
    """Identities, EI, then every composite over every triple of objects.

    The objects in first are taken first as the domain i; the order changes
    how soon a failure is met, not whether one is.
    """
    n = len(cat.objects)
    for i in range(n):
        endos = cat.homs[i][i]
        keys = {key(psi) for psi in endos}
        if cat.keys[i] not in keys:
            raise TheoryViolation("identity morphism missing", witness=i)
        for psi in endos:
            if not is_bijective(psi, cat.keys[i]) \
                    or inverse_key(psi, cat.keys[i]) not in keys:
                raise TheoryViolation("EI failure", witness=i)
    hom_keys = {}                    # (i, k) -> keys of hom(i, k)
    for i in list(first) + [i for i in range(n) if i not in first]:
        domain = cat.keys[i]
        for j in range(n):
            mids = [[psi[0][x] for x in domain] for psi in cat.homs[i][j]]
            if not mids:
                continue
            for k in range(n):
                for chi in cat.homs[j][k]:
                    for mid in mids:
                        if (i, k) not in hom_keys:
                            hom_keys[i, k] = {key(psi)
                                              for psi in cat.homs[i][k]}
                        if tuple(chi[0][y] for y in mid) \
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
            back = {key(chi) for chi in cat.homs[j][i]}
            for psi in cat.homs[i][j]:
                if is_bijective(psi, cat.keys[j]) \
                        and inverse_key(psi, cat.keys[j]) in back:
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
            assert cat.products == old.keys, name
            for i in range(n):
                for j in range(n):
                    got = category_hom(cat, i, j)
                    assert [(key(psi), psi[1]) for psi in got] == \
                        [(key(psi), psi[1])
                         for psi in old.homs[i][j]], (name, i, j)
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
            assert up_masks(icp.poset) == up, name
            classes_seen += icp.n
        assert classes_seen > 50


def test_rows_read_once_per_object_then_once_per_class(systems, monkeypatch):
    """The category builds each object's row once, in order; the iso-class
    poset builds one more, at the least object of each class."""
    calls = []
    row = CommutingCategory.row

    def spy(self, i):
        calls.append(i)
        return row(self, i)

    monkeypatch.setattr(CommutingCategory, "row", spy)
    rows = 0
    for name, fs, _old in systems:
        calls.clear()
        cat = CommutingCategory(fs)
        assert calls == list(range(len(cat.objects))), name
        calls.clear()
        icp = IsoClassPoset(cat)
        assert calls == [members[0] for members in icp.classes], name
        rows += len(calls)
    assert rows > 50


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
        for k, S in enumerate(family):
            if S.order == 1 or not S.is_elementary_abelian(2)[0]:
                continue
            monkeypatch.setattr(fs, "family", family[:k] + family[k + 1:])
            try:
                cat = CommutingCategory(fs)
            except TheoryViolation:
                pass
            else:
                assert (cat.objects, cat.products) \
                    != (old.objects, old.keys), (name, S.label)
            cases += 1
        monkeypatch.setattr(fs, "family", family)
        assert CommutingCategory(fs).products == old.keys
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
        for a in set(base.keys):
            rows = [i for i, b in enumerate(base.keys) if b == a]
            pair = fs.sub_pair[a]
            maps = fs.fusions(pair)
            for k, psi in enumerate(maps):
                gone = key(psi)
                monkeypatch.setitem(fs._fusions, pair, maps[:k] + maps[k + 1:])
                old = copy.copy(base)
                old.homs = list(base.homs)
                for i in rows:
                    old.homs[i] = [[psi for psi in hs if key(psi) != gone]
                                   for hs in base.homs[i]]
                new = raises(CommutingCategory, fs)
                assert new == raises(check_by_triples, old, rows), \
                    (name, k)
                cases += 1
                raised += new
            monkeypatch.setitem(fs._fusions, pair, maps)
    assert (cases, raised) == (171, 169)
