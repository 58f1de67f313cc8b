import pytest

from blockposets.blocks import GroupAlgebraElement
from blockposets.brauer import (
    BlockContext,
    BrauerPair,
    GroupContext,
)
from blockposets.fusion import FusionSystem
from blockposets.gf import PrimeField, field_context
from blockposets.perms import (
    PermGroup,
    Permutation,
    centralizer,
    dihedral_group,
    p_subgroups_up_to_conjugacy,
    symmetric_group,
)

from oracles import (
    algebra_one,
    algebra_product,
    brauer_hom,
    every_conjugate,
    subpair_by_chain,
)

GF2 = PrimeField(2)


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


@pytest.fixture(scope="module")
def s3_blocks():
    group = GroupContext(symmetric_group(3), GF2)
    principal = next(b for b in group.blocks if b.principal)
    other = next(b for b in group.blocks if not b.principal)
    return group, principal, other


class TestBrauerHom:
    def test_trivial_subgroup_identity(self, s3_blocks):
        group, principal, _ = s3_blocks
        Q = PermGroup.trivial(3)
        assert brauer_hom(Q, principal.element) == principal.element

    def test_three_cycle_sum_dies(self, s3_blocks):
        group, _, other = s3_blocks
        # other = C = sum of the 3-cycles; no 3-cycle centralizes (1 2)
        Q = PermGroup.from_generators(3, [cyc(3, [1, 2])])
        assert not brauer_hom(Q, other.element)

    def test_principal_truncates_to_identity(self, s3_blocks):
        group, principal, _ = s3_blocks
        G = group.G
        Q = PermGroup.from_generators(3, [cyc(3, [1, 2])])
        out = brauer_hom(Q, principal.element)
        assert out == algebra_one(G, GF2)

    def test_rejects_unstable_input(self, s3_blocks):
        group, _, _ = s3_blocks
        G = group.G
        Q = PermGroup.from_generators(3, [cyc(3, [1, 2])])
        a = GroupAlgebraElement(G, GF2, {cyc(3, [1, 2, 3]): 1})
        with pytest.raises(ValueError):
            brauer_hom(Q, a)

    def test_multiplicative_on_fixed_points(self):
        # random central elements of kS4: Br_Q(ab) = Br_Q(a) Br_Q(b)
        import random
        rng = random.Random(17)
        G = symmetric_group(4)
        from blockposets.blocks import class_sum_algebra
        A = class_sum_algebra(G, GF2)
        Q = PermGroup.from_generators(4, [cyc(4, [1, 2], [3, 4])])
        C = centralizer(G, Q)
        for _ in range(25):
            u = [rng.randrange(2) for _ in range(A.dim)]
            v = [rng.randrange(2) for _ in range(A.dim)]
            a, b = A.expand(u), A.expand(v)
            lhs = algebra_product(a, b).truncate(C.element_set)
            rhs = algebra_product(a.truncate(C.element_set),
                                  b.truncate(C.element_set))
            assert lhs == rhs


class TestPairsAt:
    def test_trivial_site(self, s3_blocks):
        group, principal, _ = s3_blocks
        ctx = BlockContext(group, principal)
        pairs = ctx.pairs_at(PermGroup.trivial(3))
        assert len(pairs) == 1
        assert pairs[0].idempotent == principal.element

    def test_principal_at_transposition(self, s3_blocks):
        group, principal, _ = s3_blocks
        ctx = BlockContext(group, principal)
        Q = PermGroup.from_generators(3, [cyc(3, [1, 2])])
        pairs = ctx.pairs_at(Q)
        assert len(pairs) == 1  # kC2 is local: only the identity block

    def test_defect_zero_block_has_no_pairs_above_one(self, s3_blocks):
        group, _, other = s3_blocks
        ctx = BlockContext(group, other)
        Q = PermGroup.from_generators(3, [cyc(3, [1, 2])])
        assert ctx.pairs_at(Q) == []


class TestNormalContainment:
    def test_bottom_pair_below_everything(self, s3_blocks):
        group, principal, _ = s3_blocks
        ctx = BlockContext(group, principal)
        bottom = ctx.pairs_at(PermGroup.trivial(3))[0]
        Q = PermGroup.from_generators(3, [cyc(3, [1, 2])])
        top = ctx.pairs_at(Q)[0]
        assert ctx.normal_containment(bottom, top)

    def test_defect_zero_not_below(self, s3_blocks):
        group, principal, other = s3_blocks
        G = group.G
        ctx = BlockContext(group, principal)
        Q = PermGroup.from_generators(3, [cyc(3, [1, 2])])
        top = ctx.pairs_at(Q)[0]
        fake_bottom = BrauerPair(PermGroup.trivial(3), other.element)
        assert not ctx.normal_containment(fake_bottom, top)


class TestContainmentPoset:
    def test_single_point(self, s3_blocks):
        group, principal, _ = s3_blocks
        pp = BlockContext(group, principal).pair_poset([PermGroup.trivial(3)])
        assert pp.n == 1

    def test_s3_principal_all_2_subgroups(self, s3_blocks):
        group, principal, _ = s3_blocks
        # expand the class representatives to all conjugates
        full = every_conjugate(group.G,
                               p_subgroups_up_to_conjugacy(group.G, 2))
        pp = BlockContext(group, principal).pair_poset(full)
        assert pp.n == 4  # (1, b) below three transposition pairs
        assert len(pp.poset.minimal_elements()) == 1
        assert len(pp.poset.maximal_elements()) == 3

    def test_action_preserves_order(self, s3_blocks):
        group, principal, _ = s3_blocks
        family = every_conjugate(group.G, group.classes)
        pp = BlockContext(group, principal).pair_poset(family)
        # Poset construction validates the action; reaching here suffices,
        # but check the orbit structure explicitly
        orbits = pp.poset.orbits()
        assert sorted(len(o) for o in orbits) == [1, 3]


class TestDefectGroups:
    def test_s3_principal(self, s3_blocks):
        group, principal, _ = s3_blocks
        dd = BlockContext(group, principal).defect_data()
        assert dd.order == 2
        assert dd.num_conjugates == 3

    def test_s3_defect_zero(self, s3_blocks):
        group, _, other = s3_blocks
        dd = BlockContext(group, other).defect_data()
        assert dd.order == 1

    def test_s4_principal_full_defect(self):
        G = symmetric_group(4)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        dd = BlockContext(group, b).defect_data()
        assert dd.order == 8
        assert dd.is_dihedral_order_8()

    def test_d8_principal(self):
        G = dihedral_group(8)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        dd = BlockContext(group, b).defect_data()
        assert dd.order == 8
        assert dd.is_dihedral_order_8()

    @pytest.mark.slow
    def test_s6_defect_orders(self):
        # degree 6 at p=2 has only a full-defect and a defect-zero block,
        # which is why the dihedral-defect scan passes over it
        G = symmetric_group(6)
        group = GroupContext(G, GF2)
        bl = group.blocks
        orders = sorted(BlockContext(group, b).defect_data().order for b in bl)
        assert orders == [1, 16]


class TestPrincipalType:
    def test_s4_principal(self):
        G = symmetric_group(4)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        ok, witnesses, first_failure = BlockContext(group, b).principal_type()
        assert ok and first_failure is None
        assert len(witnesses) == 7  # the 7 classes of 2-subgroups

    def test_defect_zero(self, s3_blocks):
        group, _, other = s3_blocks
        ok, witnesses, _ = BlockContext(group, other).principal_type()
        assert ok
        # only the trivial subgroup survives
        survivors = [w for w in witnesses if w[1] == "block"]
        assert len(survivors) == 1 and survivors[0][0].order == 1


@pytest.mark.slow
class TestInclusionDiagram:
    def test_s7_three_over_three_over_one(self):
        # the restricted family {1, <x>, <y>, <z>, <x,y>, <x,z>, <y,z>} for
        # x=(1 2), y=(3 4), z=(5 6) gives three Klein-four pairs, each above
        # exactly the two singleton pairs inside it, all above (1, b)
        G = symmetric_group(7)
        group = GroupContext(G, GF2)
        b = next(blk for blk in group.blocks if not blk.principal)
        ctx = BlockContext(group, b)
        x, y, z = cyc(7, [1, 2]), cyc(7, [3, 4]), cyc(7, [5, 6])
        singles = [PermGroup.from_generators(7, [t]) for t in (x, y, z)]
        kleins = [PermGroup.from_generators(7, [a, c])
                  for a, c in ((x, y), (x, z), (y, z))]
        family = [PermGroup.trivial(7)] + singles + kleins
        pp = ctx.pair_poset(family)
        assert pp.n == 7  # unique block at every member: principal type
        poset = pp.poset
        bottoms = poset.minimal_elements()
        tops = poset.maximal_elements()
        assert len(bottoms) == 1 and len(tops) == 3
        covers = poset.covering_pairs()
        # each Klein pair covers exactly two singleton pairs
        for t in tops:
            assert sum(1 for i, j in covers if j == t) == 2
        # the bottom pair is covered by the three singleton pairs
        assert sum(1 for i, j in covers if i == bottoms[0]) == 3


class TestUniqueSubpair:
    """F's subpairs, read off the pair poset, against the chain walk."""

    def test_reflexive(self, s3_blocks):
        group, principal, _ = s3_blocks
        ctx = BlockContext(group, principal)
        fs = FusionSystem.from_block_context(ctx)
        P = fs.P
        assert P.order == 2
        key = ctx.G.element_index().key
        assert fs.sub_pair[key(P)] == fs.top == \
            subpair_by_chain(ctx, fs.top, P)

    def test_down_to_trivial(self, s3_blocks):
        group, principal, _ = s3_blocks
        ctx = BlockContext(group, principal)
        fs = FusionSystem.from_block_context(ctx)
        trivial = PermGroup.trivial(3)
        bottom = fs.sub_pair[ctx.G.element_index().key(trivial)]
        assert bottom == subpair_by_chain(ctx, fs.top, trivial)
        assert bottom.idempotent == principal.element

    def test_chain_inside_d8(self):
        G = symmetric_group(4)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        ctx = BlockContext(group, b)
        fs = FusionSystem.from_block_context(ctx)
        P = fs.P
        assert P.element_set == ctx.defect_data().representative.element_set
        # center of D8 inside S4 is generated by a double transposition
        centre = [x for x in P.elements
                  if not x.is_identity() and
                  all(x * y == y * x for y in P.elements)]
        Z = PermGroup.from_generators(4, centre)
        pair = fs.sub_pair[ctx.G.element_index().key(Z)]
        assert pair == subpair_by_chain(ctx, fs.top, Z)
        assert pair.subgroup == Z
        assert pair in ctx.pairs_at(Z)


@pytest.mark.parametrize("n, p", [(5, 2), (6, 2), (6, 3)])
def test_truncate_matches_support_scan(n, p):
    """truncate walks the member set; the previous form scanned the support."""
    group = GroupContext(symmetric_group(n), field_context(p))
    checked = 0
    for block in group.blocks:
        ctx = BlockContext(group, block)
        b = block.element
        for R, _orbit in group.classes:
            members = ctx.site(R).centralizer.element_set
            got = b.truncate(members)
            expect = {x: c for x, c in b.support.items() if x in members}
            assert got.support == expect
            assert got.key() == GroupAlgebraElement(
                b.group, b.field, expect).key()
            checked += 1
    assert checked >= 10
