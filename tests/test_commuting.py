import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.commuting import (
    block_geometry,
    clique_witness,
    elementary_abelian_poset,
    product_subgroup,
)
from blockposets.gf import PrimeField
from blockposets.perms import (
    PermGroup,
    Permutation,
    dihedral_group,
    symmetric_group,
)
from blockposets.topology import (
    homology,
    iter_bits,
    orbit_poset,
    order_complex,
)

from oracles import (
    commuting_graph,
    complex_euler_characteristic,
    cyclic_group,
    order_p_subgroups,
)

GF2 = PrimeField(2)


def num_edges(graph):
    """Edge count from the adjacency masks: each edge sets two bits."""
    return sum(mask.bit_count() for mask in graph.adjacency) // 2


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def sub(degree, *cycles):
    return PermGroup.from_generators(degree, [cyc(degree, *cycles)])


@pytest.fixture(scope="module")
def s3_ctx():
    G = symmetric_group(3)
    group = GroupContext(G, GF2)
    out = group.blocks
    principal = next(b for b in out if b.principal)
    other = next(b for b in out if not b.principal)
    return BlockContext(group, principal), BlockContext(group, other)


class TestProductSubgroup:
    def test_two_disjoint_transpositions(self):
        V = product_subgroup([sub(4, [1, 2]), sub(4, [3, 4])])
        assert V.order == 4
        assert V.is_elementary_abelian(2) == (True, 2)

    def test_singleton(self):
        Q = sub(4, [1, 2, 3, 4])
        assert product_subgroup([Q]) == Q

    def test_duplicate_member(self):
        Q = sub(3, [1, 2])
        assert product_subgroup([Q, Q]) == Q

    def test_noncommuting_rejected(self):
        with pytest.raises(ValueError):
            product_subgroup([sub(3, [1, 2]), sub(3, [2, 3])])


class TestOrderPSubgroupsOf:
    def test_order_p(self):
        Q = sub(3, [1, 2])
        assert order_p_subgroups(Q, 2) == [Q]

    def test_klein_four(self):
        V = product_subgroup([sub(4, [1, 2]), sub(4, [3, 4])])
        assert len(order_p_subgroups(V, 2)) == 3

    def test_rank_three(self):
        E = product_subgroup([sub(6, [1, 2]), sub(6, [3, 4]), sub(6, [5, 6])])
        assert len(order_p_subgroups(E, 2)) == 7


class TestCommutingGraph:
    def test_s3_no_edges(self):
        g = commuting_graph(symmetric_group(3), 2)
        assert len(g.vertices) == 3
        assert num_edges(g) == 0

    def test_abelian_complete(self):
        g = commuting_graph(cyclic_group(6), 2)
        assert len(g.vertices) == 1  # single order-2 subgroup
        E = product_subgroup([sub(6, [1, 2]), sub(6, [3, 4]), sub(6, [5, 6])])
        g2 = commuting_graph(E, 2)
        assert len(g2.vertices) == 7
        assert num_edges(g2) == 7 * 6 // 2

    def test_s4_edge_count_oracle(self):
        G = symmetric_group(4)
        g = commuting_graph(G, 2)
        assert len(g.vertices) == 9
        # oracle: exhaustive commuting test over subgroup pairs
        count = 0
        for i in range(9):
            for j in range(i + 1, 9):
                a, b = g.vertices[i], g.vertices[j]
                if all(x * y == y * x for x in a.elements for y in b.elements):
                    count += 1
        assert num_edges(g) == count == 12


class TestPairPosets:
    def test_s3_principal_three_incomparable(self, s3_ctx):
        ctx, _ = s3_ctx
        ap = elementary_abelian_poset(ctx)
        assert ap.n == 3
        assert len(ap.poset.minimal_elements()) == 3  # discrete

    def test_defect_zero_empty(self, s3_ctx):
        _, ctx0 = s3_ctx
        ap = elementary_abelian_poset(ctx0)
        assert ap.n == 0

    def test_s5_principal_pair_count(self):
        G = symmetric_group(5)
        group = GroupContext(G, GF2)
        bl = group.blocks
        principal = next(b for b in bl if b.principal)
        ctx = BlockContext(group, principal)
        ap = elementary_abelian_poset(ctx)
        # 25 order-2 subgroups + 15 + 5 Klein fours, one pair each
        assert ap.n == 45


class TestBlockGeometry:
    def test_s3_principal(self, s3_ctx):
        ctx, _ = s3_ctx
        geom = block_geometry(ctx)
        assert geom.kposet.n == 3
        assert geom.aposet.n == 3
        # discrete: no relations
        assert geom.kposet.covering_pairs() == []

    def test_defect_zero_empty(self, s3_ctx):
        _, ctx0 = s3_ctx
        geom = block_geometry(ctx0)
        assert geom.kposet.n == 0
        assert homology(order_complex(geom.kposet)).empty

    def test_s4_counts(self):
        G = symmetric_group(4)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        geom = block_geometry(BlockContext(group, b))
        assert len(geom.vertices) == 9
        assert geom.aposet.n == 13   # 9 singletons + 4 Klein fours
        assert geom.kposet.n == 25   # 9 + 12 edges + 4 triangles

    def test_expand_collapse_identities(self):
        for G in (symmetric_group(4), dihedral_group(8)):
            group = GroupContext(G, GF2)
            (b,) = group.blocks
            geom = block_geometry(BlockContext(group, b))
            n_a = geom.aposet.n
            # collapse(expand(x)) == x for every pair
            for i in range(n_a):
                assert geom.collapse_map[geom.expand_map[i]] == i
            # x <= expand(collapse(x)) pointwise
            for j in range(geom.kposet.n):
                assert geom.kposet.leq(j, geom.expand_map[geom.collapse_map[j]])

    def test_singleton_kappa_fixed_point(self):
        G = symmetric_group(4)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        geom = block_geometry(BlockContext(group, b))
        for j, (kmask, pid) in enumerate(geom.elements):
            if len(iter_bits(kmask)) == 1:
                assert geom.expand_map[geom.collapse_map[j]] == j

    def test_euler_characteristics_agree(self):
        for G in (symmetric_group(4), symmetric_group(3), dihedral_group(8)):
            group = GroupContext(G, GF2)
            for b in group.blocks:
                geom = block_geometry(BlockContext(group, b))
                ca = order_complex(geom.aposet)
                ck = order_complex(geom.kposet)
                assert complex_euler_characteristic(ca) \
                    == complex_euler_characteristic(ck)

    def test_normal_2_subgroup_gives_acyclic_complexes(self):
        # a nontrivial normal 2-subgroup cones off both posets, so their
        # order complexes have the homology of a point
        for G in (symmetric_group(4), dihedral_group(8)):
            group = GroupContext(G, GF2)
            b = next(x for x in group.blocks if x.principal)
            geom = block_geometry(BlockContext(group, b))
            for poset in (geom.aposet, geom.kposet):
                H = homology(order_complex(poset))
                assert H.groups == [(1, ())], (G.label, H)

    def test_s5_euler_characteristic_hand_count(self):
        # by hand: the pair poset has 25 + 20 elements and 60 two-chains,
        # the commuting poset 105 elements, 240 two-chains, 120 three-chains;
        # both give 45 - 60 = 105 - 240 + 120 = -15
        G = symmetric_group(5)
        group = GroupContext(G, GF2)
        b = next(x for x in group.blocks if x.principal)
        geom = block_geometry(BlockContext(group, b))
        ca = order_complex(geom.aposet)
        ck = order_complex(geom.kposet)
        assert ca.face_counts() == [45, 60]
        assert ck.face_counts() == [105, 240, 120]
        assert complex_euler_characteristic(ca) \
            == complex_euler_characteristic(ck) == -15


class TestOrbitPoset:
    def test_s3_principal_single_point(self, s3_ctx):
        ctx, _ = s3_ctx
        geom = block_geometry(ctx)
        q, orbit_of = orbit_poset(geom.kposet)
        assert q.n == 1

    def test_trivial_action(self):
        G = dihedral_group(8)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        geom = block_geometry(BlockContext(group, b))
        q, orbit_of = orbit_poset(geom.kposet)
        # D8 acting on its own 13-element commuting poset: 9 orbits
        assert q.n == 9


class TestPrincipalCliqueComplex:
    def test_face_poset_iso_on_principal_corpus_blocks(self):
        from blockposets.verify import check_principal_clique_complex
        cases = [(symmetric_group(3), 2), (symmetric_group(3), 3),
                 (symmetric_group(4), 2), (symmetric_group(5), 2),
                 (dihedral_group(8), 2)]
        for G, p in cases:
            F = PrimeField(p)
            group = GroupContext(G, F)
            b = next(x for x in group.blocks if x.principal)
            ctx = BlockContext(group, b)
            result = check_principal_clique_complex(ctx, block_geometry(ctx))
            assert result.status == "pass", (G.label, p, result.witnesses)


class TestCliqueWitness:
    def test_none_on_principal_s4(self):
        G = symmetric_group(4)
        group = GroupContext(G, GF2)
        (b,) = group.blocks
        geom = block_geometry(BlockContext(group, b))
        assert clique_witness(geom) is None

    def test_none_on_empty(self, s3_ctx):
        _, ctx0 = s3_ctx
        geom = block_geometry(ctx0)
        assert clique_witness(geom) is None

    def test_none_on_principal_s5(self):
        G = symmetric_group(5)
        group = GroupContext(G, GF2)
        bl = group.blocks
        principal = next(b for b in bl if b.principal)
        geom = block_geometry(BlockContext(group, principal))
        assert clique_witness(geom) is None
