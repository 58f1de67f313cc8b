import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.errors import TheoryViolation
from blockposets.fusion import (
    CommutingCategory,
    FusionSystem,
    IsoClassPoset,
    max_brauer_pair,
)
from blockposets.gf import PrimeField
from blockposets.perms import (
    PermGroup,
    Permutation,
    symmetric_group,
)
from blockposets.topology import poset_iso_check

from oracles import category_hom, poset_from_leq_pairs

GF2 = PrimeField(2)


def keys(homs):
    """The keys of fusion maps (image, g): image positions in domain order."""
    return {tuple(image.values()) for image, _g in homs}


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


@pytest.fixture(scope="module")
def s3_contexts():
    G = symmetric_group(3)
    group = GroupContext(G, GF2)
    out = group.blocks
    principal = next(b for b in out if b.principal)
    other = next(b for b in out if not b.principal)
    return BlockContext(group, principal), BlockContext(group, other)


class TestMaxBrauerPair:
    def test_defect_zero(self, s3_contexts):
        _, ctx0 = s3_contexts
        top = max_brauer_pair(ctx0)
        assert top.subgroup.order == 1
        assert top.idempotent == ctx0.block.element

    def test_s3_principal(self, s3_contexts):
        ctx, _ = s3_contexts
        top = max_brauer_pair(ctx)
        assert top.subgroup.order == 2
        # centralizer of a transposition in S3 is the C2 itself: local algebra
        assert len(ctx.site(top.subgroup).blocks) == 1


class TestFusionSystem:
    def test_hom_contains_identity(self, s3_contexts):
        ctx, _ = s3_contexts
        fs = FusionSystem.from_block_context(ctx)
        key = ctx.G.element_index().key
        for S in fs.family:
            assert key(S) in keys(fs.hom(S, S))

    def test_s3_aut_of_c2_trivial(self, s3_contexts):
        ctx, _ = s3_contexts
        fs = FusionSystem.from_block_context(ctx)
        assert len(fs.hom(fs.P, fs.P)) == 1

    def test_s4_hom_counts_by_g_scan(self):
        G = symmetric_group(4)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        ctx = BlockContext(group, b)
        fs = FusionSystem.from_block_context(ctx)
        P = fs.P
        Z = next(S for S in fs.family
                 if S.order == 2 and
                 all(x * y == y * x for x in S.elements for y in P.elements))
        homs = fs.hom(Z, P)
        # oracle: brute force over all 24 group elements, dedup as set maps
        pos = G.element_index().pos
        maps = set()
        for g in G.elements:
            ginv = g.inverse()
            if all(ginv * x * g in P.element_set for x in Z.generators):
                maps.add(tuple(pos[ginv * x * g] for x in Z.elements))
        # principal block: the block side never cuts anything for S4
        assert keys(homs) == maps
        assert len(homs) >= 1

    def test_inner_fusion_present(self):
        # maps induced by conjugation inside P itself are always morphisms
        G = symmetric_group(4)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        fs = FusionSystem.from_block_context(BlockContext(group, b))
        P = fs.P
        pos = G.element_index().pos
        for S in fs.family:
            if S.order != 2:
                continue
            for n in P.elements:
                ninv = n.inverse()
                image = frozenset(ninv * x * n for x in S.elements)
                target = next(T for T in fs.family if T.element_set == image)
                homs = fs.hom(S, target)
                assert tuple(pos[ninv * x * n] for x in S.elements) in \
                    keys(homs)


class TestCommutingCategory:
    def test_c2_single_object(self, s3_contexts):
        ctx, _ = s3_contexts
        fs = FusionSystem.from_block_context(ctx)
        cat = CommutingCategory(fs)
        assert len(cat.objects) == 1
        assert len(category_hom(cat, 0, 0)) == 1

    def test_klein_four_self_fusion(self):
        # the Klein group as its own ambient group: trivial fusion
        V = PermGroup.from_generators(4, [cyc(4, [1, 2]), cyc(4, [3, 4])],
                                      label="V4")
        group = GroupContext(V, GF2)
        (b,) = group.blocks
        fs = FusionSystem.from_block_context(BlockContext(group, b))
        cat = CommutingCategory(fs)
        assert len(cat.objects) == 7  # nonempty subsets of 3 subgroups
        icp = IsoClassPoset(cat)
        assert icp.n == 7
        # ordered exactly by subset inclusion
        subset_pairs = [(i, j) for i, a in enumerate(cat.objects)
                        for j, bb in enumerate(cat.objects) if a & ~bb == 0]
        expect = poset_from_leq_pairs([str(o) for o in cat.objects],
                                      subset_pairs)
        fmap = [icp.class_of[i] for i in range(7)]
        ok, _ = poset_iso_check(expect, icp.poset, fmap)
        assert ok

    def test_endomorphism_not_onto_fails_ei(self):
        """A map out of V4 that fixes 1, a and b but sends ab to a sends the
        object {<a>, <b>} to itself without being onto: its inverse key
        holds None, which no key of F matches, so EI fails."""
        V = PermGroup.from_generators(4, [cyc(4, [1, 2]), cyc(4, [3, 4])],
                                      label="V4")
        group = GroupContext(V, GF2)
        (b,) = group.blocks
        fs = FusionSystem.from_block_context(BlockContext(group, b))
        index = V.element_index()
        pair = fs.sub_pair[index.key(V)]
        e, x, y, xy = index.key(V)
        fs.fusions(pair).append(({e: e, x: x, y: y, xy: x}, V.identity()))
        with pytest.raises(TheoryViolation, match="EI failure"):
            CommutingCategory(fs)

    def test_s4_category_shape(self):
        G = symmetric_group(4)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        fs = FusionSystem.from_block_context(BlockContext(group, b))
        cat = CommutingCategory(fs)          # EI and closure assertions run here
        assert len(cat.objects) == 13        # 5 + 6 + 2 inside a dihedral Sylow
        assert max(o.bit_count() for o in cat.objects) == 3
        icp = IsoClassPoset(cat)
        assert icp.n == 7

    def test_s3_single_class(self, s3_contexts):
        ctx, _ = s3_contexts
        fs = FusionSystem.from_block_context(ctx)
        icp = IsoClassPoset(CommutingCategory(fs))
        assert icp.n == 1

    def test_empty_for_defect_zero(self, s3_contexts):
        _, ctx0 = s3_contexts
        fs = FusionSystem.from_block_context(ctx0)
        cat = CommutingCategory(fs)
        assert cat.objects == []
        assert IsoClassPoset(cat).n == 0
