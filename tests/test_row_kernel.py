"""Differential tests of the row-wise poset checks and the Brauer prune on the
subgroup lattice against the code they replaced.

* The poset checks read each row's set bits once.  The oracles are the
  per-pair loops they replaced: one bit test per relation pair for the
  axioms, the action and order preservation, and one per ordered pair of
  elements for the isomorphism check.  Both must agree on pass/fail, on the
  message and on the witness, on random closed DAGs (valid, then broken
  one relation at a time) and on the corpus posets.
* block_geometry finds the product of a clique among the family subgroups
  that contain every member.  The oracle forms each product as a set of
  Permutation products; both must give the same elements, up masks, action
  and expand map on every non-slow corpus block and on both S6 p=2 blocks.
* The certificate holds each up-set row as an array('i').  The oracle reads
  rows as lists of indices; on the corpus posets and on S6 p=2, each broken
  by a swapped action entry, a dropped relation or two merged up-sets, both
  must raise the same message with the same witness, with the action and
  without it.
* block_geometry keeps each kappa as a mask of vertex ids and formats its
  labels on demand.  The oracle keeps kappa as a frozenset and every label
  as a string; both must give the same elements (read as vertex sets), up
  masks, action, maps and labels on the same blocks.
"""

import random

import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, build_group
from blockposets.commuting import (
    block_geometry,
    commuting_adjacency,
    elementary_abelian_poset,
    iter_cliques,
)
from blockposets.errors import TheoryViolation
from blockposets.gf import field_context
from blockposets.perms import PermGroup, symmetric_group
from blockposets.topology import (
    Poset,
    _order_preserving,
    iter_bits,
    poset_iso_check,
)
from blockposets.verify import check_nonclique, check_theorem1

from oracles import (
    ListRowGPoset,
    ListRowPoset,
    closure_masks,
    commuting_graph,
    complex_from_faces,
    conjugate_subgroup,
    covering_pairs_by_masks,
    face_poset,
    frozenset_block_geometry,
    order_p_subgroups,
    poset_from_leq_pairs,
    up_masks,
)

# -- the per-pair loops ------------------------------------------------------


def pairwise_axioms(labels, up):
    """The per-pair axiom loop on a relation given by its up masks: raises
    like Poset's check, or returns None."""
    for i in range(len(up)):
        if not (up[i] >> i) & 1:
            raise TheoryViolation("relation not reflexive", witness=i)
    for i, mask in enumerate(up):
        for j in iter_bits(mask):
            if j != i and (up[j] >> i) & 1:
                raise TheoryViolation("relation not antisymmetric",
                                      witness=(labels[i], labels[j]))
            if up[j] & ~mask:
                raise TheoryViolation("relation not transitive",
                                      witness=(labels[i], labels[j]))


def pairwise_action(P, action):
    up = up_masks(P)
    for a in action:
        if sorted(a) != list(range(P.n)):
            raise TheoryViolation("generator does not permute poset elements")
        for i in range(P.n):
            for j in iter_bits(up[i]):
                if not P.leq(a[i], a[j]):
                    raise TheoryViolation(
                        "generator action is not an order-automorphism",
                        witness=(P.labels[i], P.labels[j]))


def pairwise_order_preserving(X, Y, fmap, failures, tag):
    up = up_masks(X)
    ok = True
    for i in range(X.n):
        for j in iter_bits(up[i]):
            if not Y.leq(fmap[i], fmap[j]):
                failures.append((tag, "order", X.labels[i], X.labels[j]))
                ok = False
    return ok


def pairwise_iso_check(X, Y, fmap):
    if X.n != Y.n:
        return False, ("size", X.n, Y.n)
    if sorted(fmap) != list(range(Y.n)):
        return False, ("not a bijection",)
    for i in range(X.n):
        for j in range(X.n):
            if X.leq(i, j) != Y.leq(fmap[i], fmap[j]):
                return False, ("order", X.labels[i], X.labels[j])
    return True, None


def bitwise_down_masks(P):
    up = up_masks(P)
    down = [0] * P.n
    for i in range(P.n):
        bit = 1 << i
        for j in iter_bits(up[i]):
            down[j] |= bit
    return down


def subset_face_poset(C):
    faces = [f for fs in C.faces_by_dim for f in fs]
    sets = [frozenset(f) for f in faces]
    up = [0] * len(faces)
    for i in range(len(faces)):
        for j in range(len(faces)):
            if sets[i] <= sets[j]:
                up[i] |= 1 << j
    return Poset([str(tuple(f)) for f in faces], up)


def outcome(check, *args):
    """(message, witness) raised by check, or None when it passes."""
    try:
        check(*args)
    except TheoryViolation as exc:
        return str(exc), exc.witness
    return None


# -- random posets -----------------------------------------------------------


def random_poset(rng, n, density):
    """A random closed DAG on n elements, numbered in a random order."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)
             if rng.random() < density]
    return Poset([f"x{i}" for i in range(n)], closure_masks(n, edges))


def doubled(rng, P):
    """Two copies of P, shuffled, with the swap of the copies as the action."""
    n = P.n
    sigma = list(range(2 * n))
    rng.shuffle(sigma)
    masks = up_masks(P)
    up = [0] * (2 * n)
    for copy in (0, 1):
        for i in range(n):
            for j in iter_bits(masks[i]):
                up[sigma[copy * n + i]] |= 1 << sigma[copy * n + j]
    swap = [0] * (2 * n)
    for i in range(n):
        swap[sigma[i]] = sigma[n + i]
        swap[sigma[n + i]] = sigma[i]
    return Poset([f"y{i}" for i in range(2 * n)], up, [swap])


def relabelled(rng, P):
    """(Q, sigma): Q is P with element i renamed sigma[i]."""
    sigma = list(range(P.n))
    rng.shuffle(sigma)
    masks = up_masks(P)
    up = [0] * P.n
    for i in range(P.n):
        for j in iter_bits(masks[i]):
            up[sigma[i]] |= 1 << sigma[j]
    return Poset([f"z{i}" for i in range(P.n)], up), sigma


def flip_one_pair(rng, up):
    """A copy of up with one relation pair added or removed."""
    up = list(up)
    i, j = rng.randrange(len(up)), rng.randrange(len(up))
    up[i] ^= 1 << j
    return up


RANDOM_SHAPES = [(n, density) for n in (1, 2, 5, 12, 30, 70)
                 for density in (0.05, 0.2, 0.5)]


@pytest.fixture(scope="module")
def random_posets():
    rng = random.Random(20260)
    return [random_poset(rng, n, d) for n, d in RANDOM_SHAPES for _ in range(3)]


class TestRandomPosets:
    def test_axioms_agree(self, random_posets):
        rng = random.Random(1)
        verdicts = set()
        for P in random_posets:
            assert outcome(pairwise_axioms, P.labels, up_masks(P)) is None
            for _ in range(10):
                up = flip_one_pair(rng, up_masks(P))
                expected = outcome(pairwise_axioms, P.labels, up)
                got = outcome(Poset, P.labels, up)
                assert got == expected, (up_masks(P), up)
                verdicts.add(expected and expected[0])
        assert verdicts == {None, "relation not reflexive",
                            "relation not antisymmetric",
                            "relation not transitive"}

    def test_doubly_broken_relation_reports_first_pair(self):
        # 0 <= 1 <= 0 (antisymmetry) comes before 2 <= 3 <= 4 without 2 <= 4
        up = [0b00011, 0b00011, 0b01100, 0b11000, 0b10000]
        labels = list("abcde")
        expected = outcome(pairwise_axioms, labels, up)
        assert expected == ("relation not antisymmetric", ("a", "b"))
        assert outcome(Poset, labels, up) == expected
        up[0], up[1] = 0b00001, 0b00010
        assert outcome(Poset, labels, up) \
            == ("relation not transitive", ("c", "d"))

    def test_equal_up_sets_are_not_antisymmetric(self):
        # reflexive and transitive, so only the distinct-mask test sees it
        up = [0b011, 0b011, 0b100]
        assert outcome(Poset, "abc", up) \
            == ("relation not antisymmetric", ("a", "b"))

    def test_action_agrees(self, random_posets):
        rng = random.Random(2)
        failed = 0
        for P in random_posets:
            X = doubled(rng, P)
            assert outcome(pairwise_action, X, X.action) is None
            for _ in range(5):
                swap = list(X.action[0])
                a, b = rng.randrange(X.n), rng.randrange(X.n)
                swap[a], swap[b] = swap[b], swap[a]
                expected = outcome(pairwise_action, X, [swap])
                got = outcome(Poset, X.labels, up_masks(X), [swap])
                assert got == expected
                failed += expected is not None
        assert failed > 50

    def test_action_must_permute(self):
        P = Poset("abc", closure_masks(3, [(0, 1)]))
        with pytest.raises(TheoryViolation, match="does not permute"):
            Poset(P.labels, up_masks(P), [[0, 0, 2]])

    def test_order_preserving_agrees(self, random_posets):
        rng = random.Random(3)
        kept = 0
        for X in random_posets:
            Y = rng.choice(random_posets)
            fmaps = [[rng.randrange(Y.n) for _ in range(X.n)]]
            # onto a chain by the length of the longest chain below: monotone
            height = [0] * X.n
            up = up_masks(X)
            for i in sorted(range(X.n), key=lambda i: -bin(up[i]).count("1")):
                for j in iter_bits(up[i]):
                    if j != i:
                        height[j] = max(height[j], height[i] + 1)
            chain = poset_from_leq_pairs(list(range(X.n)),
                                         [(a, b) for a in range(X.n)
                                          for b in range(a, X.n)])
            for Z, fmap in [(Y, fmaps[0]), (chain, height)]:
                expected, got = [], []
                ok_expected = pairwise_order_preserving(X, Z, fmap, expected, "F")
                ok_got = _order_preserving(X, Z, fmap, "F", range(X.n), got)
                assert (ok_got, got) == (ok_expected, expected)
                kept += ok_got
        assert kept >= len(random_posets)

    def test_iso_check_agrees(self, random_posets):
        rng = random.Random(4)
        for P in random_posets:
            Q, sigma = relabelled(rng, P)
            assert poset_iso_check(P, Q, sigma) == (True, None)
            for _ in range(5):
                fmap = list(sigma)
                a, b = rng.randrange(P.n), rng.randrange(P.n)
                fmap[a], fmap[b] = fmap[b], fmap[a]
                assert poset_iso_check(P, Q, fmap) \
                    == pairwise_iso_check(P, Q, fmap)

    def test_down_masks_and_minimal_elements(self, random_posets):
        for P in random_posets:
            down = bitwise_down_masks(P)
            assert P.minimal_elements() == \
                [i for i in range(P.n) if down[i] == 1 << i]
            assert P.covering_pairs() == covering_pairs_by_masks(P)


# -- the corpus posets -------------------------------------------------------


def corpus_contexts():
    for entry in CORPUS:
        if entry.slow:
            continue
        group = GroupContext(build_group(entry.spec),
                             field_context(entry.p, entry.d))
        for b in group.blocks:
            yield f"{entry.name}/{b.index}", BlockContext(group, b)


@pytest.fixture(scope="module")
def s6_p2_contexts():
    group = GroupContext(symmetric_group(6), field_context(2, 1))
    return [(f"S6_p2/{b.index}", BlockContext(group, b)) for b in group.blocks]


@pytest.fixture(scope="module")
def corpus_geometries():
    return [(name, block_geometry(ctx)) for name, ctx in corpus_contexts()]


class TestCorpusPosets:
    def test_checks_agree(self, corpus_geometries):
        assert len(corpus_geometries) == 7
        rng = random.Random(5)
        for name, geom in corpus_geometries:
            A, K = geom.aposet, geom.kposet
            for P in (A, K):
                assert outcome(pairwise_axioms, P.labels,
                               up_masks(P)) is None, name
                assert outcome(pairwise_action, P, P.action) is None, name
                down = bitwise_down_masks(P)
                assert P.minimal_elements() == \
                    [i for i in range(P.n) if down[i] == 1 << i], name
                Q, sigma = relabelled(rng, P)
                assert poset_iso_check(P, Q, sigma) \
                    == pairwise_iso_check(P, Q, sigma) == (True, None), name
            for X, Y, fmap in ((A, K, geom.expand_map),
                               (K, A, geom.collapse_map)):
                expected, got = [], []
                assert pairwise_order_preserving(X, Y, fmap, expected, "F")
                assert _order_preserving(X, Y, fmap, "F", range(X.n), got), name
                assert got == expected == []

    def test_face_poset_matches_subset_loop(self):
        for n in (3, 4, 5):
            adj = commuting_graph(symmetric_group(n), 2).adjacency
            C = complex_from_faces([c for c, _ in iter_cliques(adj)])
            new, old = face_poset(C), subset_face_poset(C)
            assert (new.labels, up_masks(new)) \
                == (old.labels, up_masks(old)), n


# -- the compact rows against the list rows ----------------------------------


def noncover_pairs(P):
    """(i, j) with i < j and some element strictly between."""
    down = bitwise_down_masks(P)
    up = up_masks(P)
    out = []
    for i in range(P.n):
        strict = up[i] & ~(1 << i)
        for j in iter_bits(strict):
            if strict & down[j] & ~(1 << j):
                out.append((i, j))
    return out


def merged(up, x, y):
    """up with y's up-set made x's (x <= y), then closed: a preorder whose
    only fault is x <= y <= x."""
    up = list(up)
    for k in range(len(up)):
        if (up[k] >> y) & 1:
            up[k] |= up[x]
    return up


@pytest.fixture(scope="module")
def mutated_posets(corpus_geometries, s6_p2_contexts):
    """The corpus posets and S6 p=2's K, those with more than one element."""
    out = [(f"{name}/{which}", P) for name, geom in corpus_geometries
           for which, P in (("A", geom.aposet), ("K", geom.kposet))]
    out += [(f"{name}/K", block_geometry(ctx).kposet)
            for name, ctx in s6_p2_contexts]
    return [(name, P) for name, P in out if P.n > 1]


class TestCompactRows:
    def test_swapped_action_entries(self, mutated_posets):
        rng = random.Random(6)
        failed = 0
        for name, P in mutated_posets:
            for _ in range(4):
                action = [list(a) for a in P.action]
                a, b = rng.sample(range(P.n), 2)
                action[0][a], action[0][b] = action[0][b], action[0][a]
                up = up_masks(P)
                expected = outcome(ListRowGPoset, P.labels, up, action)
                assert outcome(Poset, P.labels, up, action) == expected, \
                    name
                assert outcome(Poset, P.labels, up) \
                    == outcome(ListRowPoset, P.labels, up) is None, name
                failed += expected is not None
        assert failed > 20

    def test_dropped_relation_breaks_transitivity(self, mutated_posets):
        rng = random.Random(7)
        checked = 0
        for name, P in mutated_posets:
            pairs = noncover_pairs(P)
            for i, j in rng.sample(pairs, min(8, len(pairs))):
                up = up_masks(P)
                up[i] &= ~(1 << j)
                expected = outcome(ListRowPoset, P.labels, up)
                assert expected[0] == "relation not transitive", name
                assert outcome(Poset, P.labels, up) == expected, name
                assert outcome(Poset, P.labels, up, P.action) == expected
                checked += 1
        assert checked > 25

    def test_equal_up_masks_break_antisymmetry(self, mutated_posets):
        rng = random.Random(8)
        checked = 0
        for name, P in mutated_posets:
            pairs = [(i, j) for i, j in P.leq_pairs() if j != i]
            for x, y in rng.sample(pairs, min(8, len(pairs))):
                up = merged(up_masks(P), x, y)
                assert up[x] == up[y]
                expected = outcome(ListRowPoset, P.labels, up)
                assert expected[0] == "relation not antisymmetric", name
                assert outcome(Poset, P.labels, up) == expected, name
                assert outcome(Poset, P.labels, up, P.action) == expected
                checked += 1
        assert checked > 25


# -- the frozenset builder ---------------------------------------------------


def assert_same_as_frozenset_builder(name, ctx):
    new = block_geometry(ctx)
    old = frozenset_block_geometry(ctx)
    assert [(frozenset(iter_bits(kmask)), pid)
            for kmask, pid in new.elements] == old.elements, name
    assert up_masks(new.kposet) == old.kposet.up, name
    assert [a.tolist() for a in new.kposet.action] == old.kposet.action, name
    assert new.expand_map == old.expand_map, name
    assert new.collapse_map == old.collapse_map, name
    labels = new.kposet.labels
    assert len(labels) == len(old.kposet.labels), name
    assert [labels[i] for i in range(len(labels))] == old.kposet.labels, name
    assert list(labels) == old.kposet.labels, name
    return new.kposet.n


class TestFrozensetBuilder:
    def test_corpus_blocks(self):
        sizes = [assert_same_as_frozenset_builder(name, ctx)
                 for name, ctx in corpus_contexts()]
        assert len(sizes) == 7 and max(sizes) > 100

    def test_s6_p2_blocks(self, s6_p2_contexts):
        sizes = sorted(assert_same_as_frozenset_builder(name, ctx)
                       for name, ctx in s6_p2_contexts)
        assert sizes[-1] == 3495


# -- the product-set prune ---------------------------------------------------


def product_set_geometry(ctx):
    """elements, up masks, action and expand map, with each clique's product
    formed from Permutation products and looked up among the family."""
    apairs = elementary_abelian_poset(ctx)
    aposet = apairs.poset
    pairs_by_subgroup = {}
    for i, pr in enumerate(apairs.pairs):
        pairs_by_subgroup.setdefault(pr.subgroup.element_set, []).append(i)
    vertices = sorted(
        {pr.subgroup.element_set: pr.subgroup for pr in apairs.pairs
         if pr.subgroup.order == ctx.p}.values(),
        key=PermGroup.key)
    vindex = {Q.element_set: i for i, Q in enumerate(vertices)}
    adj = commuting_adjacency(vertices)

    def brauer_prune(prod, v):
        V = vertices[v]
        if prod is None:
            gens, elems = V.generators, V.elements
        else:
            gens = tuple(prod.generators) + V.generators
            elems = {x * y for x in prod.elements for y in V.elements}
        new_prod = PermGroup(ctx.G.degree, gens, elems)
        return new_prod if new_prod.element_set in pairs_by_subgroup else None

    elements = []
    for kappa, prod in iter_cliques(adj, brauer_prune, None):
        for pid in pairs_by_subgroup[prod.element_set]:
            elements.append((frozenset(kappa), pid))
    elements.sort(key=lambda ke: (sorted(ke[0]), ke[1]))
    kindex = {ke: i for i, ke in enumerate(elements)}
    at_pair = [0] * aposet.n
    containing = [0] * len(vertices)
    for i, (kappa, pid) in enumerate(elements):
        at_pair[pid] |= 1 << i
        for v in kappa:
            containing[v] |= 1 << i
    up_a = up_masks(aposet)
    up = []
    for kappa, pid in elements:
        mask = 0
        for above in iter_bits(up_a[pid]):
            mask |= at_pair[above]
        for v in kappa:
            mask &= containing[v]
        up.append(mask)
    action = []
    for gi, g in enumerate(ctx.G.generators):
        vperm = [vindex[conjugate_subgroup(v, g).element_set]
                 for v in vertices]
        action.append([kindex[(frozenset(vperm[v] for v in ki),
                               aposet.action[gi][pi])]
                       for ki, pi in elements])
    expand_map = []
    for pid, pr in enumerate(apairs.pairs):
        cq = order_p_subgroups(pr.subgroup, ctx.p)
        expand_map.append(kindex[(frozenset(vindex[c.element_set] for c in cq),
                                  pid)])
    return elements, up, action, expand_map


def assert_same_geometry(name, ctx):
    geom = block_geometry(ctx)
    elements, up, action, expand_map = product_set_geometry(ctx)
    assert [(frozenset(iter_bits(kmask)), pid)
            for kmask, pid in geom.elements] == elements, name
    assert up_masks(geom.kposet) == up, name
    assert [a.tolist() for a in geom.kposet.action] == action, name
    assert geom.expand_map == expand_map, name
    return geom


class TestLatticePrune:
    def test_corpus_blocks(self):
        names = [assert_same_geometry(name, ctx).kposet.n
                 for name, ctx in corpus_contexts()]
        assert len(names) == 7

    def test_s6_p2_blocks(self, s6_p2_contexts):
        sizes = sorted(assert_same_geometry(name, ctx).kposet.n
                       for name, ctx in s6_p2_contexts)
        assert sizes[-1] == 3495

    def test_clique_inside_its_product_keeps_it(self):
        # S4 at p=2: the Klein four group {(12)(34), (13)(24), (14)(23)} is a
        # clique whose third member lies in the product of the first two
        group = GroupContext(symmetric_group(4), field_context(2, 1))
        (principal,) = [b for b in group.blocks if b.principal]
        geom = block_geometry(BlockContext(group, principal))
        sizes = {len(iter_bits(kmask)) for kmask, _pid in geom.elements}
        assert max(sizes) == 3


@pytest.mark.slow
def test_s7_p2_principal_theorem1_and_nonclique():
    group = GroupContext(symmetric_group(7), field_context(2, 1))
    (principal,) = [b for b in group.blocks if b.principal]
    ctx = BlockContext(group, principal)
    geom = block_geometry(ctx)
    t1 = check_theorem1(ctx, geom)
    assert t1.status == "pass"
    assert (t1.details["pairs"], t1.details["commuting_elements"]) \
        == (1316, 23051)
    assert check_nonclique(ctx, geom).status == "pass"
