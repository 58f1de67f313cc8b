"""Differential tests of the image-tuple Permutation, the subset-indexed pair
poset and the direct Sylow search against the paths they replaced.

* Permutation arithmetic is checked against plain image-tuple arithmetic on
  random permutations: products, inverses, one-pass conjugation, hashes
  and order.
* BlockContext.pair_poset tests normal containment only on strictly
  contained subgroups, found on position keys: R holds Q iff R's key holds
  the positions of Q's generators; on a family closed under conjugation,
  only below the first pair at a class representative of each G-orbit,
  carrying those edges along the orbit walk.  The oracle is an all-pairs
  build that decides every strictly contained pair from the definition,
  by products over permutations; both must give the same pairs, normal
  edges, up masks and G-action, on the elementary abelian family, every
  p-subgroup, and F's family (every subgroup of the defect
  representative, usually not closed under conjugation), on both S7 p=2
  blocks, and over GF(4) on an order-24 group with two pairs at one
  subgroup.
* sylow_p walks N_G(H) straight off the element index; the oracle finds
  each normalizer by conjugating H's generators by every element of G.
"""

import random

import pytest

from blockposets.brauer import BlockContext, BrauerPair, GroupContext
from blockposets.cli import CORPUS, PRESETS, build_group
from blockposets.commuting import elementary_abelian_family
from blockposets.gf import field_context
from blockposets.perms import (
    PermGroup,
    Permutation,
    _power,
    all_subgroups,
    centralizer,
    symmetric_group,
    sylow_p,
)

from oracles import (
    closure_masks,
    conjugate_element,
    conjugate_subgroup,
    every_conjugate,
    normal_containment_by_products,
    up_masks,
)
from test_subpairs import order_24_group

# -- plain image-tuple arithmetic -----------------------------------------


def ref_mul(a, b):
    """(a * b)(i) = b(a(i)): apply a first."""
    return tuple(b[a[i]] for i in range(len(a)))


def ref_inverse(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def random_tuples(rng, count):
    out = []
    for _ in range(count):
        images = list(range(rng.randint(1, 9)))
        rng.shuffle(images)
        out.append(tuple(images))
    return out


class TestPermutationKernel:
    def test_products_inverses_conjugates(self):
        rng = random.Random(7)
        checked = 0
        for a in random_tuples(rng, 300):
            n = len(a)
            b, g = (tuple(rng.sample(range(n), n)) for _ in range(2))
            x, y, h = Permutation(a), Permutation(b), Permutation(g)
            assert type(x * y) is Permutation
            assert x * y == ref_mul(a, b)
            assert type(x.inverse()) is Permutation
            assert x.inverse() == ref_inverse(a)
            expect = ref_mul(ref_mul(ref_inverse(g), a), g)
            assert type(x.conjugate(h)) is Permutation
            assert x.conjugate(h) == expect
            assert x.conjugate(h) == h.inverse() * x * h
            assert x.conjugate(h, h.inverse()) == expect
            checked += 1
        assert checked == 300

    def test_hash_equality_and_order_are_the_tuples(self):
        rng = random.Random(11)
        tuples = random_tuples(rng, 400)
        perms = [Permutation(t) for t in tuples]
        for t, x in zip(tuples, perms):
            assert hash(x) == hash(t)
            assert x == t and t == x
        assert [tuple(x) for x in sorted(perms)] == sorted(tuples)
        # equal hashes and the same insertions: the same set order
        assert [tuple(x) for x in set(perms)] == list(set(tuples))

    def test_degree_mismatch(self):
        x, y = Permutation((1, 0)), Permutation((0, 2, 1))
        with pytest.raises(ValueError):
            x * y
        with pytest.raises(ValueError):
            x.conjugate(y)

    def test_from_cycles_rejects_a_repeated_point(self):
        with pytest.raises(ValueError, match="repeats"):
            Permutation.from_cycles(3, [[1, 2, 1, 3]])
        # a point may recur across cycles: they are applied left to right
        x = Permutation.from_cycles(3, [[1, 2], [2, 3]])
        assert x == ref_mul((1, 0, 2), (0, 2, 1))


# -- the all-pairs pair poset ---------------------------------------------


def pair_poset_all_pairs(ctx, family):
    """(pairs, normal edges, up masks, action) from every ordered pair,
    normal containment decided by products (C_G(R) by perms.centralizer)."""
    pairs = []
    for Q in family:
        pairs.extend(ctx.pairs_at(Q))
    pairs.sort(key=BrauerPair.key)
    edges = []
    for j, hi in enumerate(pairs):
        R = hi.subgroup.element_set
        C = None
        for i, lo in enumerate(pairs):
            if lo.subgroup.element_set < R:
                C = C or centralizer(ctx.G, hi.subgroup)
                if normal_containment_by_products(lo, hi, C):
                    edges.append((i, j))
    edges.sort()
    up = closure_masks(len(pairs), edges)
    index = {pr.ident(): i for i, pr in enumerate(pairs)}
    action = []
    for g in ctx.G.generators:
        perm = [index.get((conjugate_subgroup(pr.subgroup, g).element_set,
                           conjugate_element(pr.idempotent, g).key()))
                for pr in pairs]
        if None in perm:
            return pairs, edges, up, None
        action.append(perm)
    return pairs, edges, up, action


def all_conjugates(group):
    """The `poset --which brauer-pairs` family: every p-subgroup."""
    return every_conjugate(group.G, group.classes)


def defect_subgroups(ctx):
    """F's family: every subgroup of the defect representative."""
    return all_subgroups(ctx.defect_data().representative)


def block_contexts(entries):
    for name, G, F in entries:
        group = GroupContext(G, F)
        for b in group.blocks:
            yield f"{name}/{b.index}", group, BlockContext(group, b)


SMALL = [(e.name, build_group(e.spec), field_context(e.p, e.d))
         for e in CORPUS if not e.slow]
S6_P2 = [("S6_p2", build_group(PRESETS["S6"]), field_context(2, 1))]
S7_P2 = [("S7_p2", build_group(PRESETS["S7"]), field_context(2, 1))]
G24_GF4 = [("G24_GF4", order_24_group(), field_context(2, 2))]


def pairs_tested_below(ctx, pairs, action):
    """The pairs below which pair_poset tests normal containment: every
    pair, or, when G acts, the first pair at a class representative in
    each G-orbit of pairs."""
    if action is None:
        return list(range(len(pairs)))
    reps = {R.element_set for R, _orbit in ctx.group.classes}
    orbit_of = [None] * len(pairs)
    for start in range(len(pairs)):
        if orbit_of[start] is None:
            orbit_of[start] = start
            todo = [start]
            for x in todo:
                for perm in action:
                    if orbit_of[perm[x]] is None:
                        orbit_of[perm[x]] = start
                        todo.append(perm[x])
    first = {}
    for j, pr in enumerate(pairs):
        if pr.subgroup.element_set in reps:
            first.setdefault(orbit_of[j], j)
    return sorted(first.values())


def assert_same_as_all_pairs(name, ctx, family):
    calls = []
    plain = ctx.normal_containment

    def recording(lo, hi):
        # only strictly contained subgroups are tested, checked at the call
        # so that a wrong candidate fails here rather than in the subpair
        # assertion it would trip next
        assert lo.subgroup.element_set < hi.subgroup.element_set, name
        calls.append((lo, hi))
        return plain(lo, hi)

    ctx.normal_containment = recording
    try:
        pp = ctx.pair_poset(family)
    finally:
        del ctx.normal_containment
    pairs, edges, up, action = pair_poset_all_pairs(ctx, family)
    assert [pr.ident() for pr in pp.pairs] == [pr.ident() for pr in pairs], \
        name
    assert pp.family == sorted(family, key=PermGroup.key), name
    assert [pp.pairs[i].subgroup for q in pp.at for i in q] == \
        [pp.family[q] for q, at in enumerate(pp.at) for _ in at], name
    assert [i for q in pp.at for i in q] == list(range(pp.n)), name
    assert pp.normal_edges == edges, name
    assert up_masks(pp.poset) == up, name
    if action is None:
        assert pp.poset.action == [], name
    else:
        assert [a.tolist() for a in pp.poset.action] == action, name
    # below each tested pair, each strictly contained pair was tested once
    position = {id(pr): i for i, pr in enumerate(pp.pairs)}
    expect = [(i, j) for j in pairs_tested_below(ctx, pairs, action)
              for i, lo in enumerate(pairs)
              if lo.subgroup.element_set < pairs[j].subgroup.element_set]
    assert sorted((position[id(lo)], position[id(hi)]) for lo, hi in calls) \
        == sorted(expect), name
    return pp


class TestSubsetPairPoset:
    def test_elementary_abelian_family_small_corpus(self):
        seen = 0
        for name, _group, ctx in block_contexts(SMALL):
            seen += assert_same_as_all_pairs(
                name, ctx, elementary_abelian_family(ctx)).n
        assert seen > 30

    def test_brauer_pairs_family_small_corpus(self):
        seen = 0
        for name, group, ctx in block_contexts(SMALL):
            seen += assert_same_as_all_pairs(name, ctx,
                                             all_conjugates(group)).n
        assert seen > 30

    def test_elementary_abelian_family_s6_p2(self):
        seen = []
        for name, _group, ctx in block_contexts(S6_P2):
            seen.append(assert_same_as_all_pairs(
                name, ctx, elementary_abelian_family(ctx)).n)
        assert len(seen) == 2 and max(seen) == 270

    def test_elementary_abelian_family_s7_p2(self):
        seen = []
        for name, _group, ctx in block_contexts(S7_P2):
            seen.append(assert_same_as_all_pairs(
                name, ctx, elementary_abelian_family(ctx)).n)
        assert sorted(seen) == [266, 1316]

    def test_defect_subgroups_small_corpus_and_s6_p2(self):
        seen = 0
        for name, _group, ctx in block_contexts(SMALL + S6_P2):
            seen += assert_same_as_all_pairs(name, ctx,
                                             defect_subgroups(ctx)).n
        assert seen > 30

    def test_order_24_group_over_gf4(self):
        """Every family on every block of the order-24 group over GF(4);
        block 0 has two pairs at one subgroup, so a pair's image is chosen
        among the pairs at the image subgroup."""
        most = 0
        for name, group, ctx in block_contexts(G24_GF4):
            for family in (elementary_abelian_family(ctx),
                           defect_subgroups(ctx), all_conjugates(group)):
                pp = assert_same_as_all_pairs(name, ctx, family)
                most = max([most] + [len(at) for at in pp.at])
        assert most == 2

    def test_repeated_subgroup_is_refused(self):
        _name, group, ctx = next(block_contexts(S6_P2))
        family = all_conjugates(group)
        copy = PermGroup(family[3].degree, family[3].generators,
                         family[3].elements)
        with pytest.raises(ValueError, match="repeated"):
            ctx.pair_poset(family + [copy])


# -- Sylow subgroups through normalizer groups ---------------------------


def sylow_by_normalizers(G, p):
    target = 1
    n = G.order
    while n % p == 0:
        target *= p
        n //= p
    H = PermGroup.trivial(G.degree)
    while H.order < target:
        N = [g for g in G.elements
             if all(x.conjugate(g) in H.element_set for x in H.generators)]
        ext = next(x for x in N
                   if x not in H.element_set
                   and _power(x, p) in H.element_set)
        H = PermGroup.from_generators(G.degree, tuple(H.generators) + (ext,),
                                      max_elements=target)
    return H


class TestSylow:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_same_as_normalizer_groups(self, n):
        G = symmetric_group(n)
        for p in (2, 3, 5):
            P, Q = sylow_p(G, p), sylow_by_normalizers(G, p)
            assert P.generators == Q.generators, (n, p)
            assert P.elements == Q.elements, (n, p)
