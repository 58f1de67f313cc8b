"""Differential tests of the element index against the Permutation loops it
replaced.

The oracles below are those loops, kept verbatim in spirit: every g in G is
tried with Permutation products.  Each scan that now runs on the index
(centralizers, normalizers, orbit transversals, conjugacy classes, class-sum
constants, eta's scan and the fusion maps out of a domain) must give the
same output, in the same order, with the same witnesses.
"""

import pytest

from blockposets.blocks import class_sum_algebra
from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, PRESETS, build_group
from blockposets.commuting import block_geometry, elementary_abelian_poset
from blockposets.fusion import CommutingCategory, FusionSystem, IsoClassPoset
from blockposets.gf import field_context
from blockposets.perms import (
    ConjugacyClass,
    ElementIndex,
    PermGroup,
    Permutation,
    centralizer,
    conjugacy_classes,
    p_subgroups_up_to_conjugacy,
    subgroup_orbit_transversal,
    symmetric_group,
)
from blockposets.topology import iter_bits, orbit_poset
from blockposets.verify import _class_lookup, _eta_scan

from oracles import (
    conjugate_element,
    conjugate_subgroup,
    dense_constants,
    element_set,
    every_conjugate,
    index_tables_by_products,
    maps_from_by_products,
    transversal_element,
)

CASES = [("S3", 2), ("S4", 2), ("S5", 2), ("D8", 2), ("S6", 2), ("S7", 3)]
CASE_IDS = ["S3-p2", "S4-p2", "S5-p2", "D8-p2", "S6-p2", "S7-p3"]
# a prime above every group order here, so structure constants are exact
BIG_PRIME = 7919


# -- the replaced loops --------------------------------------------------


def centralizer_by_products(G, pins):
    return [g for g in G.elements if all(g * s == s * g for s in pins)]


def normalizer_by_products(G, H):
    out = []
    for g in G.elements:
        ginv = g.inverse()
        if all(ginv * h * g in H.element_set for h in H.generators):
            out.append(g)
    return out


def orbit_transversal_by_products(G, H):
    identity = G.identity()
    orbit = {H.element_set: identity}
    frontier = [(H.element_set, identity)]
    while frontier:
        new = []
        for elems, g in frontier:
            for s in G.generators:
                sinv = s.inverse()
                conj = frozenset(sinv * x * s for x in elems)
                if conj not in orbit:
                    gs = g * s
                    orbit[conj] = gs
                    new.append((conj, gs))
        frontier = new
    return orbit


def conjugacy_classes_by_products(G):
    seen = set()
    classes = []
    for x in G.elements:
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            new = []
            for y in frontier:
                for g in G.generators:
                    z = y.conjugate(g)
                    if z not in orbit:
                        orbit.add(z)
                        new.append(z)
            frontier = new
        seen |= orbit
        classes.append(ConjugacyClass(x, tuple(sorted(orbit))))
    return classes


def class_counts_by_products(classes):
    class_of = {x: i for i, cls in enumerate(classes) for x in cls.members}
    dim = len(classes)
    counts = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for k, cls in enumerate(classes):
        z = cls.representative
        for i, ci in enumerate(classes):
            for x in ci.members:
                counts[i][class_of[x.inverse() * z]][k] += 1
    return counts


def eta_scan_by_products(G, geom, fs, class_at, el_idx):
    kmask, pid = geom.elements[el_idx]
    pair = geom.apairs.pairs[pid]
    Q = pair.subgroup
    pos = G.element_index().pos
    results = set()
    first = None
    for g in G.elements:
        ginv = g.inverse()
        image = {pos[x]: pos[ginv * x * g] for x in Q.elements}
        if fs.target(pair, image, g, ginv) is None:
            continue
        cls = class_at(kmask, image)
        if cls is None:
            continue
        results.add(cls)
        if first is None:
            first = image, g
    assert len(results) == 1
    return (results.pop(),) + first


# -- fixtures --------------------------------------------------------------


def corpus_contexts():
    for entry in CORPUS:
        if entry.slow:
            continue
        group = GroupContext(build_group(entry.spec),
                             field_context(entry.p, entry.d))
        for b in group.blocks:
            yield f"{entry.name}/{b.index}", BlockContext(group, b)


# S5 on the points {1, 2, 3, 4, 6}: a generators spec whose points are not
# 1..n, with the transposition listed first
RELABELLED = {"type": "generators", "degree": 6,
              "gens": [[[6, 3]], [[6, 1, 4, 3, 2]]]}


def group_of(name):
    return build_group(RELABELLED if name == "relabelled" else PRESETS[name])


# -- the index itself ------------------------------------------------------


class TestElementIndex:
    @pytest.mark.parametrize("name", ["S3", "S4", "D8", "S5", "S6", "S7",
                                      "relabelled"])
    def test_tables_and_tree_agree_with_products(self, name):
        """The same tables whether the closure that enumerated G hands its
        BFS over, or G's elements are wrapped anew and the index runs the
        BFS itself; columns on every element up to order 120, else on a
        spread of 12."""
        G = group_of(name)
        wrapped = PermGroup(G.degree, G.generators, G.elements, G.label)
        tables = index_tables_by_products(G)
        els = G.elements
        for H in (G, wrapped):
            index = H.element_index()
            assert index is H.element_index()       # built once per group
            assert H._bfs is None                   # the BFS tables dropped
            assert index.elements == els
            assert (index.conj, index.right) == tables
            # the tree: every element but the identity is reached once, from
            # an element reached before it, by one generator
            children, parents, via = index.tree
            assert len(children) == len(parents) == len(via) == G.order - 1
            reached = {index.root}
            for child, parent, t in zip(children, parents, via):
                assert parent in reached and child not in reached
                assert els[child] == els[parent] * G.generators[t]
                reached.add(child)
            assert len(reached) == G.order
            for t, s in enumerate(G.generators):
                assert index.conj_image(t, els) == [x.conjugate(s)
                                                    for x in els]
            for i in range(0, G.order, 1 if G.order <= 120 else G.order // 12):
                conj_col, left = index.conj_column(i), index.left_column(i)
                for g, y in enumerate(els):
                    assert els[conj_col[g]] == els[i].conjugate(y)
                    assert els[left[g]] == els[i] * y

    def test_closure_index_makes_no_permutation_products(self, monkeypatch):
        """The index of a from_generators or from_elements group is read off
        the closure's tables: not one Permutation product or conjugate."""
        calls = []

        def counted(name):
            method = getattr(Permutation, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return wrapper

        S6 = symmetric_group(6)
        C = PermGroup.from_elements(
            6, centralizer_by_products(S6, [S6.generators[0]]))
        G = group_of("relabelled")
        monkeypatch.setattr(Permutation, "__mul__", counted("__mul__"))
        monkeypatch.setattr(Permutation, "conjugate", counted("conjugate"))
        for H in (S6, C, G):
            H.element_index()
        assert calls == []
        assert S6.generators[0] * S6.generators[1] is not None
        assert calls == ["__mul__"]              # the counter does count

    def test_element_outside_the_group_is_refused(self):
        G = symmetric_group(3)
        with pytest.raises(ValueError):
            G.element_index().id(Permutation((1, 0, 2, 3)))
        S4 = symmetric_group(4)
        with pytest.raises(ValueError):
            centralizer(G, [S4.generators[1]])

    def test_generators_that_miss_elements_are_refused(self):
        S3 = symmetric_group(3)
        broken = PermGroup(3, S3.generators[:1], S3.elements)
        with pytest.raises(ValueError):
            ElementIndex(broken)

    def test_trivial_group(self):
        T = PermGroup.trivial(3)
        index = T.element_index()
        assert index.tree == ([], [], []) and index.conj_column(0) == [0]
        assert conjugacy_classes(T) == conjugacy_classes_by_products(T)


# -- the scans against their oracles -----------------------------------------


@pytest.mark.parametrize("name, p", CASES, ids=CASE_IDS)
class TestScansAgainstProducts:
    def test_centralizers_and_normalizers(self, name, p):
        G = group_of(name)
        for R, _orbit in p_subgroups_up_to_conjugacy(G, p):
            pins = R.generators if R.generators else (R.identity(),)
            C = centralizer(G, R)
            if R.order > 1:
                assert C.elements == tuple(centralizer_by_products(G, pins))
            N = G.element_index().conjugators(R.generators, R.elements)
            assert N == normalizer_by_products(G, R)

    def test_centralizers_of_class_representatives(self, name, p):
        G = group_of(name)
        for cls in conjugacy_classes(G)[1:]:
            x = cls.representative
            C = centralizer(G, [x])
            assert C.elements == tuple(centralizer_by_products(G, [x]))
            assert C.order * len(cls.members) == G.order

    def test_orbit_transversals(self, name, p):
        G = group_of(name)
        for R, orbit in p_subgroups_up_to_conjugacy(G, p):
            expect = orbit_transversal_by_products(G, R)
            named = [(element_set(G, key), transversal_element(G, orbit, key))
                     for key in orbit]
            assert named == list(expect.items())
            assert list(subgroup_orbit_transversal(G, R).items()) == \
                list(orbit.items())
            # the tree: each conjugate but R is its parent conjugated by the
            # generator recorded at it
            index = G.element_index()
            assert set(orbit.links) == set(orbit) - {index.key(R)}
            for child, parent in orbit.links.items():
                s = G.generators[orbit[child]]
                assert element_set(G, child) == frozenset(
                    [x.conjugate(s) for x in element_set(G, parent)])

    def test_conjugacy_classes(self, name, p):
        G = group_of(name)
        assert conjugacy_classes(G) == conjugacy_classes_by_products(G)

    def test_class_sum_constants(self, name, p):
        G = group_of(name)
        F = field_context(BIG_PRIME)
        A = class_sum_algebra(G, F)
        assert dense_constants(A) == class_counts_by_products(A.classes)
        Fp = field_context(p)
        B = class_sum_algebra(G, Fp)
        assert dense_constants(B) == [
            [[Fp.from_int(c) for c in row] for row in plane]
            for plane in dense_constants(A)]
        # only nonzero constants are stored, in increasing k
        for C in (A, B):
            for plane in C.const:
                for pairs in plane:
                    assert type(pairs) is tuple
                    assert [k for k, _c in pairs] == \
                        sorted({k for k, _c in pairs})
                    assert all(c != C.field.zero for _k, c in pairs)


# -- eta, the fusion maps and the pair action on the corpus ---------------------


class TestCorpusScans:
    def test_eta_scan_matches_full_scan(self):
        checked = 0
        for name, ctx in corpus_contexts():
            geom = block_geometry(ctx)
            fs = FusionSystem.from_block_context(ctx)
            cat = CommutingCategory(fs)
            icp = IsoClassPoset(cat)
            if icp.n == 0:
                continue
            _quotient, orbit_of = orbit_poset(geom.kposet)
            class_at = _class_lookup(ctx, geom, cat, icp)
            reps = {}
            for el in range(geom.kposet.n):
                reps.setdefault(orbit_of[el], el)
            for rep in reps.values():
                assert _eta_scan(geom, fs, class_at, rep) == \
                    eta_scan_by_products(ctx.G, geom, fs, class_at, rep), \
                    (name, rep)
                checked += 1
        assert checked > 20

    def test_maps_from_matches_full_scan(self):
        checked = 0
        for name, ctx in corpus_contexts():
            fs = FusionSystem.from_block_context(ctx)
            for Q in fs.family:
                assert fs.hom(Q, fs.P) == maps_from_by_products(fs, Q), \
                    (name, Q.label)
                checked += 1
        assert checked > 20

    def test_pair_action_matches_conjugated_pairs(self):
        acted = 0
        for name, ctx in corpus_contexts():
            family = every_conjugate(ctx.G, ctx.group.classes)
            for apairs in (elementary_abelian_poset(ctx),
                           ctx.pair_poset(family)):
                index = {pr.ident(): i for i, pr in enumerate(apairs.pairs)}
                for g, perm in zip(ctx.G.generators, apairs.poset.action):
                    expect = [
                        index[(conjugate_subgroup(pr.subgroup, g).element_set,
                               conjugate_element(pr.idempotent, g).key())]
                        for pr in apairs.pairs]
                    assert perm.tolist() == expect, name
                    acted += len(perm)
        assert acted > 100

    def test_labels_match_per_element_names(self):
        for name, ctx in corpus_contexts():
            geom = block_geometry(ctx)
            expect = []
            for kmask, pid in geom.elements:
                names = sorted(geom.vertices[v].generators[0].cycle_string()
                               for v in iter_bits(kmask))
                expect.append("{" + ",".join(names) + "}|"
                              + geom.apairs.pairs[pid].label())
            assert list(geom.kposet.labels) == expect, name
            cat = CommutingCategory(FusionSystem.from_block_context(ctx))
            for i, obj in enumerate(cat.objects):
                names = sorted(cat.vertices[v].generators[0].cycle_string()
                               for v in iter_bits(obj))
                assert cat.object_label(i) == "{" + ",".join(names) + "}"
