"""Differential tests of conjugation transport against the scans it replaced.

The oracles below are the full scan of G for eta on every commuting-poset
element, the direct e * Br_Q(b) == e filter for the pairs at every subgroup,
and the per-(Q, R) scan of G for the fusion maps Q -> R.  The scans try
every g in G, with no coset argument; they run on the non-slow corpus and
on both blocks of S6 at p=2.
"""

from array import array

import pytest

from blockposets import verify
from blockposets.blocks import GroupAlgebraElement
from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, build_group
from blockposets.commuting import block_geometry, elementary_abelian_family
from blockposets.errors import TheoryViolation
from blockposets.fusion import CommutingCategory, FusionSystem, IsoClassPoset
from blockposets.gf import field_context
from blockposets.perms import (
    PermGroup,
    Permutation,
    dihedral_group,
    symmetric_group,
)
from blockposets.topology import iter_bits, orbit_poset
from blockposets.verify import _theorem2_maps

from oracles import conjugate_element

GF2 = field_context(2)


def corpus_contexts():
    for entry in CORPUS:
        if entry.slow:
            continue
        group = GroupContext(build_group(entry.spec),
                             field_context(entry.p, entry.d))
        for b in group.blocks:
            yield f"{entry.name}/{b.index}", BlockContext(group, b)


def s6_p2_contexts():
    group = GroupContext(symmetric_group(6), GF2)
    for b in group.blocks:
        yield f"S6-p2/{b.index}", BlockContext(group, b)


def theorem2_inputs(ctx):
    geom = block_geometry(ctx)
    fs = FusionSystem.from_block_context(ctx)
    cat = CommutingCategory(fs)
    icp = IsoClassPoset(cat)
    _quotient, orbit_of = orbit_poset(geom.kposet)
    return geom, fs, cat, icp, orbit_of


def eta_by_full_scan(ctx, geom, fs, cat, icp):
    """The class of every element, scanning every g in G (the replaced path).

    The admissible g of each pair, and the image of each vertex under each
    g, are found once and shared by the elements that use them.
    """
    object_index = {obj: i for i, obj in enumerate(cat.objects)}
    cat_vertex = {Q.element_set: v for v, Q in enumerate(cat.vertices)}
    pset = fs.P.element_set
    moves = [(g, g.inverse()) for g in ctx.G.elements]
    admissible = {}                 # pair index -> positions of admissible g
    vertex_image = {}               # (vertex, position of g) -> cat vertex
    out = []
    for kmask, pid in geom.elements:
        if pid not in admissible:
            pair = geom.apairs.pairs[pid]
            admissible[pid] = []
            for k, (g, ginv) in enumerate(moves):
                if any(ginv * x * g not in pset
                       for x in pair.subgroup.generators):
                    continue
                image = frozenset(ginv * x * g for x in pair.subgroup.elements)
                if conjugate_element(pair.idempotent, g) == \
                        fs.sub_pair[image].idempotent:
                    admissible[pid].append(k)
        results = set()
        for k in admissible[pid]:
            g, ginv = moves[k]
            members = set()
            for v in iter_bits(kmask):
                if (v, k) not in vertex_image:
                    vertex_image[v, k] = cat_vertex[frozenset(
                        ginv * x * g for x in geom.vertices[v].elements)]
                members.add(vertex_image[v, k])
            results.add(icp.class_of[object_index[frozenset(members)]])
        assert len(results) == 1
        out.append(results.pop())
    return out


def pairs_by_filter(ctx, Q):
    br = ctx.brauer_image(Q)
    if not br:
        return []
    return [e for e in ctx.blocks_at(Q) if e * br == e]


def homs_by_scan(fs, Q):
    """Fusion maps Q -> R for every R of the family, each by a scan of G for
    the pair (Q, R) (the replaced path).

    The scans share their work per g: Q's image and the idempotent test are
    found once, for every g with Q^g <= P, and each R keeps the first g of
    each set map among those with Q^g <= R that pass.
    """
    eQ = fs.sub_pair[Q.element_set].idempotent
    pset = fs.P.element_set
    scan = []                       # (set map, image, g, passes), G's order
    for g in fs.ctx.G.elements:
        ginv = g.inverse()
        if any(ginv * x * g not in pset for x in Q.generators):
            continue
        mapping = {x: ginv * x * g for x in Q.elements}
        mkey = tuple(tuple(mapping[x]) for x in Q.elements)
        image = frozenset(mapping.values())
        passes = conjugate_element(eQ, g) == fs.sub_pair[image].idempotent
        scan.append((mkey, image, g, passes))
    out = {}
    for R in fs.family:
        found = {}
        for mkey, image, g, passes in scan:
            if passes and image <= R.element_set and mkey not in found:
                found[mkey] = g
        out[R.element_set] = [(k, found[k]) for k in sorted(found)]
    return out


def principal_context(G):
    group = GroupContext(G, GF2)
    return BlockContext(group, next(b for b in group.blocks if b.principal))


def representative_of(ctx, Q):
    """The class representative whose site Q's was transported from, or None."""
    i, _g = ctx.group.locate(Q)
    R = ctx.group.classes[i][0]
    return None if R.element_set == Q.element_set else R


def assert_eta_matches_full_scan(contexts):
    checked = 0
    for name, ctx in contexts:
        geom, fs, cat, icp, orbit_of = theorem2_inputs(ctx)
        if icp.n == 0:
            continue
        _forward, eta = _theorem2_maps(ctx, geom, fs, cat, icp, orbit_of)
        full = eta_by_full_scan(ctx, geom, fs, cat, icp)
        for el in range(geom.kposet.n):
            assert eta[orbit_of[el]] == full[el], (name, el)
            checked += 1
    return checked


def assert_homs_match_per_pair_scan(ctx):
    fs = FusionSystem.from_block_context(ctx)
    for Q in fs.family:
        expect = homs_by_scan(fs, Q)
        for R in fs.family:
            homs = fs.hom(Q, R)
            assert [(psi.key(), psi.witness_g) for psi in homs] == \
                expect[R.element_set], (Q.label, R.label)
            assert all(psi.domain is Q and psi.codomain is R
                       for psi in homs)
    return len(fs.family)


class TestEta:
    def test_transport_matches_full_scan_on_corpus(self):
        assert assert_eta_matches_full_scan(corpus_contexts()) > 50

    def test_transport_matches_full_scan_on_s6_p2(self):
        assert assert_eta_matches_full_scan(s6_p2_contexts()) == 3495

    def test_action_sending_an_element_out_of_its_orbit_is_caught(
            self, monkeypatch):
        ctx = principal_context(symmetric_group(4))
        geom, fs, cat, icp, orbit_of = theorem2_inputs(ctx)
        walk = geom.kposet.orbit_walk
        # the walk's first step leaves element 0, the first orbit's first
        # element; send it into another orbit, to an element whose subgroup
        # has another order than that of the element the step reached
        assert walk.order[0] == 0 and walk.parent[1] == 0

        def order_of(x):
            return geom.apairs.pairs[geom.elements[x][1]].subgroup.order

        other = next(x for x in range(geom.kposet.n)
                     if orbit_of[x] != orbit_of[0]
                     and order_of(x) != order_of(walk.order[1]))
        order = array("i", walk.order)
        order[1] = other
        monkeypatch.setattr(geom.kposet, "orbit_walk",
                            walk._replace(order=order))
        with pytest.raises(TheoryViolation,
                           match="transported conjugation is not admissible"):
            _theorem2_maps(ctx, geom, fs, cat, icp, orbit_of)

    @pytest.mark.parametrize("part", ["value", "key"])
    def test_corrupted_carried_image_is_caught(self, part, monkeypatch):
        """Each entry of the map carried along the walk's first step, with
        its value set to another entry's or its key moved off the domain,
        fails eta's per-element test."""
        ctx = principal_context(symmetric_group(4))
        inputs = theorem2_inputs(ctx)
        geom = inputs[0]
        walk = geom.kposet.orbit_walk
        assert walk.parent[1] == 0
        size = geom.apairs.pairs[geom.elements[walk.order[1]][1]].subgroup.order
        assert size > 1
        carry = verify._carry
        for k in range(size):
            calls = []

            def carry_one_wrong(image, table, k=k, calls=calls):
                out = carry(image, table)
                if not calls:
                    z = list(out)[k]
                    if part == "value":
                        out[z] = next(w for w in out.values() if w != out[z])
                    else:
                        off = next(u for u in table if u not in out)
                        out[off] = out.pop(z)
                calls.append(table)
                return out

            monkeypatch.setattr(verify, "_carry", carry_one_wrong)
            with pytest.raises(TheoryViolation,
                               match="transported conjugation is not "
                                     "admissible"):
                _theorem2_maps(ctx, *inputs)
            assert len(calls) == 1
        monkeypatch.setattr(verify, "_carry", carry)
        assert _theorem2_maps(ctx, *inputs)

    def test_eta_walk_makes_few_permutation_conjugates(self, monkeypatch):
        """On S6 p=2 principal (|K| = 3,495), the maps of eta are carried on
        G's conjugation tables: Permutation.conjugate runs only in the scans
        of the orbits' first elements, outside the idempotent tests.  The
        commuting category builds no group from generators."""
        group = GroupContext(symmetric_group(6), GF2)
        ctx = BlockContext(group, next(b for b in group.blocks if b.principal))
        geom = block_geometry(ctx)
        fs = FusionSystem.from_block_context(ctx)
        built = []
        from_generators = PermGroup.from_generators.__func__
        monkeypatch.setattr(PermGroup, "from_generators", classmethod(
            lambda cls, *a, **k: built.append(1) or from_generators(cls, *a,
                                                                    **k)))
        cat = CommutingCategory(fs)
        assert built == []
        icp = IsoClassPoset(cat)
        _quotient, orbit_of = orbit_poset(geom.kposet)
        counted = [0]
        idempotent_test = [False]
        conjugate = Permutation.conjugate
        conjugates_to = GroupAlgebraElement.conjugates_to

        def counting_conjugate(x, g, ginv=None):
            counted[0] += not idempotent_test[0]
            return conjugate(x, g, ginv)

        def uncounted_conjugates_to(e, g, other):
            idempotent_test[0] = True
            try:
                return conjugates_to(e, g, other)
            finally:
                idempotent_test[0] = False

        monkeypatch.setattr(Permutation, "conjugate", counting_conjugate)
        monkeypatch.setattr(GroupAlgebraElement, "conjugates_to",
                            uncounted_conjugates_to)
        _forward, eta = _theorem2_maps(ctx, geom, fs, cat, icp, orbit_of)
        assert geom.kposet.n == 3495 and len(eta) == 71
        assert 0 < counted[0] < 7000


class TestPairs:
    def test_transported_pairs_match_direct_filter(self):
        transported = 0
        for name, ctx in corpus_contexts():
            for Q in elementary_abelian_family(ctx):
                pairs = ctx.pairs_at(Q)
                assert [pr.idempotent for pr in pairs] == \
                    pairs_by_filter(ctx, Q), (name, Q.label)
                assert all(pr.subgroup is Q for pr in pairs)
                if pairs and representative_of(ctx, Q) is not None:
                    transported += 1
        assert transported > 0

    def test_transported_pairs_must_sum_to_the_brauer_image(self):
        ctx = principal_context(symmetric_group(4))
        family = elementary_abelian_family(ctx)
        Q = next(S for S in family if ctx.brauer_nonzero(S)
                 and representative_of(ctx, S) is not None)
        R = representative_of(ctx, Q)
        assert ctx.pairs_at(R)
        ctx._slots[ctx.site(R).index].clear()  # Q's site reads R's slots
        with pytest.raises(TheoryViolation):
            ctx.pairs_at(Q)


class TestFusionMaps:
    @pytest.mark.parametrize("G", [symmetric_group(4), symmetric_group(5),
                                   dihedral_group(8)],
                             ids=["S4", "S5", "D8"])
    def test_hom_matches_per_pair_scan(self, G):
        assert_homs_match_per_pair_scan(principal_context(G))

    def test_hom_matches_per_pair_scan_on_s6_p2(self):
        sizes = [assert_homs_match_per_pair_scan(ctx)
                 for _name, ctx in s6_p2_contexts()]
        assert sorted(sizes) == [1, 35]
