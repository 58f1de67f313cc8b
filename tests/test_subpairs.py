"""F's subpairs and fusion test against oracles and under mutation.

FusionSystem reads the pair below the maximal pair at each subgroup of P
off the pair poset over P's subgroups.  The oracle walks subnormal chains
down to each subgroup instead (oracles.subpair_by_chain).  Both must agree
on every block of the corpus, of S6 and S7 at p = 2 and 3, and of an
order-24 group over GF(4) whose block 0 has more pairs than subgroups.

Two mutations must be caught: normal containment refusing one covering
edge inside P's lattice, and FusionSystem.target without its idempotent
test.  The second is run on the order-24 block, where the test rejects
cosets; on the corpus, S6 and S7 it rejects none.
"""

import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, build_group
from blockposets.commuting import block_geometry
from blockposets.errors import TheoryViolation
from blockposets.fusion import FusionSystem
from blockposets.gf import PrimeField, field_context
from blockposets.perms import PermGroup, Permutation, symmetric_group
from blockposets.verify import check_theorem2

from oracles import maps_from_by_products, subpair_by_chain

GF2 = PrimeField(2)


def order_24_group():
    """<(1 2 3), (4 5), (6 7), (2 3)(4 6)(5 7)>: over GF(4), block 0 has
    several pairs at some subgroups of its defect group, so the pair below
    the maximal pair has to be chosen among them."""
    def perm(*cycles):
        return Permutation.from_cycles(7, cycles)

    return PermGroup.from_generators(7, [perm([1, 2, 3]), perm([4, 5]),
                                         perm([6, 7]),
                                         perm([2, 3], [4, 6], [5, 7])])


def order_24_block():
    group = GroupContext(order_24_group(), field_context(2, 2))
    return BlockContext(group, group.blocks[0])


def subpair_targets():
    """(name, BlockContext) for every block of the corpus, of S6 and S7 at
    p = 2 and 3, and of the order-24 group over GF(4)."""
    groups = [(entry.name, build_group(entry.spec),
               field_context(entry.p, entry.d))
              for entry in CORPUS if not entry.slow]
    groups += [(f"S{n}_p{p}", symmetric_group(n), field_context(p))
               for n in (6, 7) for p in (2, 3)]
    groups.append(("G24_GF4", order_24_group(), field_context(2, 2)))
    for name, G, F in groups:
        group = GroupContext(G, F)
        for b in group.blocks:
            yield f"{name}/{b.index}", BlockContext(group, b)


class TestSubpairsAgainstChains:
    def test_every_subpair_matches_the_chain_walk(self):
        """F on every maximal pair of each block, not only the one that
        max_brauer_pair picks: on the order-24 block the least pair at a
        subgroup is not below every maximal pair."""
        blocks_seen = systems = subgroups = 0
        for name, ctx in subpair_targets():
            P = ctx.defect_data().representative
            for top in ctx.pairs_at(P):
                fs = FusionSystem(ctx, top)
                key = ctx.G.element_index().key
                assert set(fs.sub_pair) == {key(S) for S in fs.family}
                for S in fs.family:
                    assert fs.sub_pair[key(S)] == \
                        subpair_by_chain(ctx, top, S), (name, S.label)
                    subgroups += 1
                systems += 1
            blocks_seen += 1
        assert blocks_seen == 19 and systems == 20 and subgroups > 100

    def test_order_24_block_has_a_choice_of_pairs(self):
        ctx = order_24_block()
        tops = ctx.pairs_at(ctx.defect_data().representative)
        systems = [FusionSystem(ctx, top) for top in tops]
        pp = ctx.pair_poset(systems[0].family)
        assert pp.n == 8 and len(systems[0].family) == 5 and len(tops) == 2
        assert all(len(fs.sub_pair) == 5 for fs in systems)
        # a subgroup whose pair below one maximal pair is not the least
        # pair there
        key = ctx.G.element_index().key
        assert any(fs.sub_pair[key(S)] != ctx.pairs_at(S)[0]
                   for fs in systems for S in fs.family)

    @pytest.mark.parametrize("name", ["S4_p2", "G24_GF4"])
    def test_refusing_a_covering_edge_is_caught(self, name, monkeypatch):
        """Normal containment refuses one edge (Q, e) in (R, f) with
        |R : Q| = p inside P's lattice, among the edges the build tests (P
        is normal in the order-24 group, so its family is closed under
        conjugation and only the edges below one pair per orbit are
        tested): no other chain joins the two pairs, so the build must
        raise or its subpairs must leave the chain walk."""
        if name == "S4_p2":
            group = GroupContext(symmetric_group(4), GF2)
            ctx = BlockContext(group, group.blocks[0])
        else:
            ctx = order_24_block()
        fs = FusionSystem.from_block_context(ctx)
        key = ctx.G.element_index().key
        expect = {key(S): subpair_by_chain(ctx, fs.top, S)
                  for S in fs.family}
        plain = ctx.normal_containment
        tested = []
        monkeypatch.setattr(ctx, "normal_containment",
                            lambda a, b: tested.append((a, b)) or plain(a, b))
        pp = ctx.pair_poset(fs.family)
        monkeypatch.undo()
        p = ctx.p
        covers = [(pp.pairs[i], pp.pairs[j]) for i, j in pp.normal_edges
                  if pp.pairs[j].subgroup.order
                  == p * pp.pairs[i].subgroup.order
                  and (pp.pairs[i], pp.pairs[j]) in tested]
        assert len(covers) >= 5
        for lo, hi in covers:
            def refusing(a, b, lo=lo, hi=hi):
                return not (a == lo and b == hi) and plain(a, b)

            monkeypatch.setattr(ctx, "normal_containment", refusing)
            try:
                mutated = FusionSystem.from_block_context(ctx)
            except TheoryViolation:
                continue
            finally:
                monkeypatch.undo()
            assert mutated.sub_pair != expect, (lo.label(), hi.label())


class TestTargetMutation:
    def test_dropping_the_idempotent_test_is_caught(self, monkeypatch):
        """On block 0 of the order-24 group, target rejects some cosets
        whose image is a subgroup of P by the idempotent alone, in the hom
        scans and in theorem2.  Without that test the maps out of some
        subgroup differ from the full scan's, and theorem2 breaks."""
        ctx = order_24_block()
        geom = block_geometry(ctx)
        target = FusionSystem.target
        rejected = []

        def image_key(image):
            return tuple(sorted(image.values()))

        def counting(fs, pair, image, g, ginv):
            out = target(fs, pair, image, g, ginv)
            if out is None and image_key(image) in fs.sub_pair:
                rejected.append(g)
            return out

        monkeypatch.setattr(FusionSystem, "target", counting)
        fs = FusionSystem.from_block_context(ctx)
        for Q in fs.family:
            fs.hom(Q, fs.P)
        in_homs = len(rejected)
        assert check_theorem2(ctx, geom).status == "pass"
        assert in_homs > 0 and len(rejected) > in_homs

        def without_idempotent_test(fs, pair, image, g, ginv):
            return fs.sub_pair.get(image_key(image))

        monkeypatch.setattr(FusionSystem, "target", without_idempotent_test)
        fs = FusionSystem.from_block_context(ctx)
        maps_differ = any(fs.hom(Q, fs.P) != maps_from_by_products(fs, Q)
                          for Q in fs.family)
        try:
            theorem2_holds = check_theorem2(ctx, geom).status == "pass"
        except TheoryViolation:
            theorem2_holds = False
        assert maps_differ and not theorem2_holds
