"""Differential tests of conjugation transport against the scans it replaced.

The oracles below are the full scan of G for eta on every commuting-poset
element, the direct e * Br_Q(b) == e filter for the pairs at every subgroup,
and the per-(Q, R) scan of G for the fusion maps Q -> R.
"""

import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, build_group
from blockposets.commuting import block_geometry, elementary_abelian_family
from blockposets.errors import TheoryViolation
from blockposets.fusion import CommutingCategory, FusionSystem, IsoClassPoset
from blockposets.gf import field_context
from blockposets.perms import dihedral_group, symmetric_group
from blockposets.topology import orbit_poset
from blockposets.verify import _theorem2_maps

GF2 = field_context(2)


def corpus_contexts():
    for entry in CORPUS:
        if entry.slow:
            continue
        group = GroupContext(build_group(entry.spec),
                             field_context(entry.p, entry.d))
        for b in group.blocks:
            yield f"{entry.name}/{b.index}", BlockContext(group, b)


def theorem2_inputs(ctx):
    geom = block_geometry(ctx)
    fs = FusionSystem.from_block_context(ctx)
    cat = CommutingCategory(fs)
    icp = IsoClassPoset(cat)
    _quotient, orbit_of = orbit_poset(geom.kposet)
    return geom, fs, cat, icp, orbit_of


def eta_by_full_scan(ctx, geom, fs, cat, icp, el_idx):
    """The class of one element, scanning every g in G (the replaced path)."""
    object_index = {obj: i for i, obj in enumerate(cat.objects)}
    cat_vertex = {Q.element_set: v for v, Q in enumerate(cat.vertices)}
    pset = fs.P.element_set
    vids, pid = geom.elements[el_idx]
    pair = geom.apairs.pairs[pid]
    results = set()
    for g in ctx.G.elements:
        ginv = g.inverse()
        if any(ginv * x * g not in pset for x in pair.subgroup.generators):
            continue
        image = frozenset(ginv * x * g for x in pair.subgroup.elements)
        if pair.idempotent.conjugate(g) != fs.sub_pair[image].idempotent:
            continue
        obj = frozenset(
            cat_vertex[frozenset(ginv * x * g for x in geom.vertices[v].elements)]
            for v in vids)
        results.add(icp.class_of[object_index[obj]])
    assert len(results) == 1
    return results.pop()


def pairs_by_filter(ctx, Q):
    br = ctx.brauer_image(Q)
    if not br:
        return []
    return [e for e in ctx.blocks_at(Q) if e * br == e]


def hom_by_scan(fs, Q, R):
    """Fusion maps Q -> R by one scan of G for this pair (the replaced path)."""
    eQ = fs.sub_pair[Q.element_set].idempotent
    found = {}
    for g in fs.ctx.G.elements:
        ginv = g.inverse()
        if any(ginv * x * g not in R.element_set for x in Q.generators):
            continue
        mapping = {x: ginv * x * g for x in Q.elements}
        mkey = tuple(tuple(mapping[x]) for x in Q.elements)
        if mkey in found:
            continue
        target = fs.sub_pair[frozenset(mapping.values())]
        if eQ.conjugate(g) == target.idempotent:
            found[mkey] = g
    return [(k, found[k]) for k in sorted(found)]


def principal_context(G):
    group = GroupContext(G, GF2)
    return BlockContext(group, next(b for b in group.blocks if b.principal))


def representative_of(ctx, Q):
    """The class representative whose site Q's was transported from, or None."""
    i, _g = ctx.group.locate(Q)
    R = ctx.group.classes[i][0]
    return None if R.element_set == Q.element_set else R


class TestEta:
    def test_transport_matches_full_scan_on_corpus(self):
        checked = 0
        for name, ctx in corpus_contexts():
            geom, fs, cat, icp, orbit_of = theorem2_inputs(ctx)
            if icp.n == 0:
                continue
            _forward, eta = _theorem2_maps(ctx, geom, fs, cat, icp, orbit_of)
            for el in range(geom.kposet.n):
                assert eta[orbit_of[el]] == eta_by_full_scan(
                    ctx, geom, fs, cat, icp, el), (name, el)
                checked += 1
        assert checked > 50

    def test_action_sending_an_element_out_of_its_orbit_is_caught(
            self, monkeypatch):
        ctx = principal_context(symmetric_group(4))
        geom, fs, cat, icp, orbit_of = theorem2_inputs(ctx)
        # element 0 represents the first orbit walked; point its step along
        # the first generator into another orbit
        other = next(x for x in range(geom.kposet.n)
                     if orbit_of[x] != orbit_of[0])
        perm = list(geom.kposet.action[0])
        perm[0], perm[other] = perm[other], perm[0]
        assert orbit_of[perm[0]] != orbit_of[0]
        monkeypatch.setattr(geom.kposet, "action",
                            [perm] + geom.kposet.action[1:])
        with pytest.raises(TheoryViolation):
            _theorem2_maps(ctx, geom, fs, cat, icp, orbit_of)


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
        fs = FusionSystem.from_block_context(principal_context(G))
        for Q in fs.family:
            for R in fs.family:
                homs = fs.hom(Q, R)
                assert [(psi.key(), psi.witness_g) for psi in homs] == \
                    hom_by_scan(fs, Q, R), (Q.label, R.label)
                assert all(psi.domain is Q and psi.codomain is R
                           for psi in homs)
