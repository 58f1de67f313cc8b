import random

import pytest

from blockposets.perms import (
    Permutation,
    PermGroup,
    all_subgroups,
    centralizer,
    conjugacy_classes,
    dihedral_group,
    p_subgroups_up_to_conjugacy,
    subgroup_orbit_transversal,
    sylow_p,
    symmetric_group,
)
from blockposets.errors import SizeLimitExceeded

from blockposets.cli import PRESETS, build_group

from oracles import (
    conjugacy_classes_by_sets,
    cyclic_group,
    order_p_subgroups,
    relabelled_symmetric,
    transversal_element,
)


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


class TestComposition:
    def test_left_to_right(self):
        # apply (1 2) first, then (2 3): 1 -> 2 -> 3, 3 -> 3 -> 2, 2 -> 1 -> 1
        a = cyc(3, [1, 2])
        b = cyc(3, [2, 3])
        assert a * b == cyc(3, [1, 3, 2])

    def test_identity(self):
        g = cyc(5, [1, 4, 2])
        assert g * Permutation.identity(5) == g
        assert Permutation.identity(5) * g == g

    def test_involution(self):
        t = cyc(4, [1, 2])
        assert (t * t).is_identity()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            cyc(3, [1, 2]) * cyc(4, [1, 2])

    def test_inverse(self):
        rng = random.Random(7)
        for _ in range(50):
            images = list(range(6))
            rng.shuffle(images)
            g = Permutation(images)
            assert (g * g.inverse()).is_identity()
            assert (g.inverse() * g).is_identity()

    def test_conjugation_relabels_cycles(self):
        # (1 2)^g with g: 1->3, 2->4 is (3 4)
        g = cyc(4, [1, 3], [2, 4])
        assert cyc(4, [1, 2]).conjugate(g) == cyc(4, [3, 4])


class TestGroupFromGenerators:
    def test_s3(self):
        G = PermGroup.from_generators(3, [cyc(3, [1, 2]), cyc(3, [1, 2, 3])])
        assert G.order == 6

    def test_klein_four(self):
        G = PermGroup.from_generators(4, [cyc(4, [1, 2], [3, 4]), cyc(4, [1, 3], [2, 4])])
        assert G.order == 4
        assert G.exponent() == 2

    def test_d8(self):
        G = PermGroup.from_generators(4, [cyc(4, [1, 2, 3, 4]), cyc(4, [1, 3])])
        assert G.order == 8

    def test_trivial(self):
        assert PermGroup.trivial(3).order == 1

    def test_size_bound(self):
        with pytest.raises(SizeLimitExceeded):
            PermGroup.from_generators(6, symmetric_group(6).generators, max_elements=100)

    def test_lagrange_on_subgroups(self):
        G = symmetric_group(4)
        for H, _orbit in p_subgroups_up_to_conjugacy(G, 2):
            assert G.order % H.order == 0


class TestCentralizer:
    def test_transposition_in_s4(self):
        G = symmetric_group(4)
        C = centralizer(G, [cyc(4, [1, 2])])
        expected = {Permutation.identity(4), cyc(4, [1, 2]), cyc(4, [3, 4]),
                    cyc(4, [1, 2], [3, 4])}
        assert C.element_set == frozenset(expected)

    def test_identity_gives_whole_group(self):
        G = symmetric_group(4)
        assert centralizer(G, [Permutation.identity(4)]).order == 24

    def test_four_cycle(self):
        G = symmetric_group(4)
        C = centralizer(G, [cyc(4, [1, 2, 3, 4])])
        # exhaustive scan oracle
        oracle = {g for g in G.elements
                  if g * cyc(4, [1, 2, 3, 4]) == cyc(4, [1, 2, 3, 4]) * g}
        assert C.element_set == frozenset(oracle)
        assert C.order == 4
        assert C.is_cyclic()


class TestConjugacyClasses:
    def test_s3_sizes(self):
        sizes = sorted(len(c.members) for c in conjugacy_classes(symmetric_group(3)))
        assert sizes == [1, 2, 3]

    def test_trivial(self):
        assert len(conjugacy_classes(PermGroup.trivial(2))) == 1

    def test_s4_sizes(self):
        sizes = sorted(len(c.members) for c in conjugacy_classes(symmetric_group(4)))
        assert sizes == [1, 3, 6, 6, 8]

    @pytest.mark.parametrize("spec", [
        PRESETS["S3"], PRESETS["S4"], PRESETS["S5"], PRESETS["S6"],
        PRESETS["S7"], PRESETS["D8"], relabelled_symmetric(5, 12),
        relabelled_symmetric(6, 11)],
        ids=["S3", "S4", "S5", "S6", "S7", "D8", "relabelled-S5",
             "relabelled-S6"])
    def test_orbit_walk_matches_set_bfs(self, spec):
        G = build_group(spec)
        assert conjugacy_classes(G) == conjugacy_classes_by_sets(G)

    def test_classes_partition_group(self):
        for G in (symmetric_group(4), dihedral_group(8)):
            classes = conjugacy_classes(G)
            assert sum(len(c.members) for c in classes) == G.order
            for c in classes:
                assert G.order % len(c.members) == 0
            assert len({m for c in classes for m in c.members}) == G.order


class TestSylow:
    @pytest.mark.parametrize("n,p,expected", [(4, 2, 8), (3, 3, 3), (7, 2, 16),
                                              (5, 2, 8), (6, 3, 9)])
    def test_orders(self, n, p, expected):
        assert sylow_p(symmetric_group(n), p).order == expected

    def test_result_is_p_group(self):
        P = sylow_p(symmetric_group(6), 2)
        for x in P.elements:
            o = x.order()
            while o % 2 == 0:
                o //= 2
            assert o == 1


class TestOrderPSubgroups:
    def test_s3(self):
        assert len(order_p_subgroups(symmetric_group(3), 2)) == 3

    def test_c3(self):
        assert len(order_p_subgroups(cyclic_group(3), 3)) == 1

    def test_s4_count_and_oracle(self):
        G = symmetric_group(4)
        subs = order_p_subgroups(G, 2)
        assert len(subs) == 9  # 6 transpositions + 3 double transpositions
        # oracle: group the order-2 elements
        oracle = {frozenset({Permutation.identity(4), x})
                  for x in G.elements if x.order() == 2}
        assert {H.element_set for H in subs} == oracle

    def test_agrees_with_element_scan_on_s5_p5(self):
        G = symmetric_group(5)
        subs = order_p_subgroups(G, 5)
        assert len(subs) == 24 // 4  # 24 five-cycles, 4 per subgroup

    @pytest.mark.slow
    def test_agrees_with_element_scan_on_s7(self):
        G = symmetric_group(7)
        subs = order_p_subgroups(G, 2)
        oracle = {frozenset({Permutation.identity(7), x})
                  for x in G.elements if x.order() == 2}
        assert {H.element_set for H in subs} == oracle
        assert len(subs) == 21 + 105 + 105  # by cycle type


class TestSubgroupClassification:
    def test_s4_p2_classes(self):
        reps = p_subgroups_up_to_conjugacy(symmetric_group(4), 2)
        assert sorted(H.order for H, _orbit in reps) == [1, 2, 2, 4, 4, 4, 8]

    def test_c2(self):
        reps = p_subgroups_up_to_conjugacy(cyclic_group(2), 2)
        assert sorted(H.order for H, _orbit in reps) == [1, 2]

    def test_s3_p3(self):
        reps = p_subgroups_up_to_conjugacy(symmetric_group(3), 3)
        assert sorted(H.order for H, _orbit in reps) == [1, 3]

    def test_transversal_conjugates(self):
        G = symmetric_group(4)
        H = PermGroup.from_generators(4, [cyc(4, [1, 2])])
        orbit = subgroup_orbit_transversal(G, H)
        assert len(orbit) == 6
        for key in orbit:
            g = transversal_element(G, orbit, key)
            assert frozenset(x.conjugate(g) for x in H.elements) == \
                frozenset(G.elements[i] for i in key)

    def test_are_conjugate(self):
        G = symmetric_group(4)
        A = PermGroup.from_generators(4, [cyc(4, [1, 2])])
        B = PermGroup.from_generators(4, [cyc(4, [3, 4])])
        Z = PermGroup.from_generators(4, [cyc(4, [1, 2], [3, 4])])
        orbit = subgroup_orbit_transversal(G, A)
        key = G.element_index().key
        assert key(B) in orbit
        assert key(Z) not in orbit

    def test_classes_carry_their_orbits(self):
        G = symmetric_group(4)
        classes = p_subgroups_up_to_conjugacy(G, 2)
        seen = set()
        for H, orbit in classes:
            assert orbit == subgroup_orbit_transversal(G, H)
            assert seen.isdisjoint(orbit)
            seen.update(orbit)
        # every 2-subgroup of S4 once, over 7 classes of sizes
        # 1, 6, 3 (order 2), 3, 1, 3 (order 4) and 3 (Sylow)
        assert sorted(len(orbit) for _H, orbit in classes) == \
            [1, 1, 3, 3, 3, 3, 6]
        assert len(seen) == 20


class TestElementaryAbelian:
    def test_klein(self):
        G = PermGroup.from_generators(4, [cyc(4, [1, 2]), cyc(4, [3, 4])])
        assert G.is_elementary_abelian(2) == (True, 2)

    def test_c4(self):
        G = cyclic_group(4)
        assert G.is_elementary_abelian(2)[0] is False

    def test_trivial(self):
        assert PermGroup.trivial(1).is_elementary_abelian(2) == (True, 0)


class TestNormalizer:
    def test_sylow_normalizer_in_s4(self):
        G = symmetric_group(4)
        P = sylow_p(G, 2)
        N = G.element_index().conjugators(P.generators, P.elements)
        assert len(N) == 8  # three Sylow 2-subgroups in S4


def all_subgroups_every_extension(P):
    """The previous all_subgroups: one closure for every (H, x), x not in H."""
    trivial = PermGroup.trivial(P.degree)
    found = {trivial.element_set: trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            for x in P.elements:
                if x in H.element_set:
                    continue
                K = PermGroup.from_generators(
                    P.degree, tuple(H.generators) + (x,),
                    max_elements=P.order)
                if K.element_set not in found:
                    found[K.element_set] = K
                    new.append(K)
        frontier = new
    return sorted(found.values(), key=PermGroup.key)


@pytest.mark.parametrize("n, p", [(4, 2), (5, 2), (6, 2), (7, 2), (6, 3),
                                  (7, 3)])
def test_all_subgroups_try_each_coset_once(n, p):
    """Skipping the x of a right coset Hx already tried keeps the list, its
    order and every generator tuple."""
    P = sylow_p(symmetric_group(n), p)
    assert [(H.generators, H.elements) for H in all_subgroups(P)] == \
        [(H.generators, H.elements) for H in all_subgroups_every_extension(P)]
